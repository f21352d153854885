// Workloads `figures` and `figures-1t`: the SensitivityStudy fan-outs behind
// Figures 5, 7/8, 9, 10 and platform_ranking --platform=all.
#include <algorithm>
#include <numeric>

#include "cache/codec.h"
#include "checks.h"
#include "core/cost_function.h"
#include "obs/profile.h"
#include "par/deterministic_map.h"
#include "platform/platform.h"
#include "workloads.h"
#include "workloads/kernel_workloads.h"

namespace perfbench {

namespace wc = wmm::core;
namespace wp = wmm::platform;

namespace {

// The run options the figure binaries use (bench_util.h): paper_runs() for
// sweeps and strategies, ranking_runs() for the ranking matrices.
const wc::RunOptions kPaperRuns{2, 6};
const wc::RunOptions kRankingRuns{1, 4};

// Decorates a benchmark so each run_once is a span.
class TimedBenchmark final : public wc::Benchmark {
 public:
  explicit TimedBenchmark(wc::BenchmarkPtr inner) : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  double run_once(std::uint64_t sample_index) override {
    ScopedSpan span("workloads.run_once");
    return inner_->run_once(sample_index);
  }

 private:
  wc::BenchmarkPtr inner_;
};

std::unique_ptr<wp::Platform> make_platform(const FanOut& f) {
  return wp::make_platform(f.platform, f.arch);
}

std::vector<std::string> or_default(const std::vector<std::string>& chosen,
                                    std::vector<std::string> fallback) {
  return chosen.empty() ? std::move(fallback) : chosen;
}

std::string comparison_record(const std::string& row, const std::string& col,
                              const wc::Comparison& cmp) {
  return row + '|' + col + '|' + wmm::cache::encode_comparison(cmp);
}

// A permutation of 0..n-1 drawn from the seed.
std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::uint64_t state = seed;
  for (std::size_t i = n; i > 1; --i) {
    state = mix64(state);
    std::swap(order[i - 1], order[state % i]);
  }
  return order;
}

struct CellOut {
  wc::SweepResult sweep;
  wc::Comparison comparison;
  double seconds = 0.0;
  bool fit_matches = true;
};

}  // namespace

std::vector<FanOut> figure_fanouts() {
  std::vector<FanOut> out;
  for (wmm::sim::Arch arch : {wmm::sim::Arch::ARMV8, wmm::sim::Arch::POWER7}) {
    FanOut f;
    f.figure = std::string("fig05/") + wmm::sim::arch_name(arch);
    f.platform = "jvm";
    f.arch = arch;
    f.kind = FanOut::Kind::Sweep;
    f.sweep.code_paths = {{"all-barriers", {}}};
    f.sweep.max_exponent = 8;
    f.sweep.runs = kPaperRuns;
    out.push_back(f);
  }
  FanOut ranking;
  ranking.platform = "kernel";
  ranking.kind = FanOut::Kind::Ranking;
  ranking.ranking.cost_iterations = 1024;
  ranking.ranking.runs = kRankingRuns;
  ranking.figure = "fig07/08";
  out.push_back(ranking);

  FanOut fig09;
  fig09.figure = "fig09";
  fig09.platform = "kernel";
  fig09.kind = FanOut::Kind::Sweep;
  fig09.sweep.benchmarks = wmm::workloads::rbd_benchmark_names();
  fig09.sweep.code_paths = {{"read_barrier_depends", {"read_barrier_depends"}}};
  fig09.sweep.max_exponent = 9;
  fig09.sweep.runs = kPaperRuns;
  out.push_back(fig09);

  FanOut fig10;
  fig10.figure = "fig10";
  fig10.platform = "kernel";
  fig10.kind = FanOut::Kind::Strategy;
  fig10.strategy.benchmarks = wmm::workloads::rbd_benchmark_names();
  fig10.strategy.runs = kPaperRuns;
  out.push_back(fig10);

  for (const std::string& name : wp::platform_names()) {
    ranking.figure = "platform_ranking/" + name;
    ranking.platform = name;
    out.push_back(ranking);
  }
  return out;
}

FanOutResult run_fanout(const FanOut& f, int threads,
                        wmm::cache::ResultCache* store) {
  const auto platform = make_platform(f);
  wc::SensitivityStudy study(*platform, threads);
  study.set_cache(store);
  FanOutResult r;
  const CounterDelta delta;
  switch (f.kind) {
    case FanOut::Kind::Sweep:
      r.sweeps = study.sweeps(f.sweep);
      for (const wc::SweepResult& s : r.sweeps) {
        r.records.push_back(wmm::cache::encode_sweep_result(s));
      }
      break;
    case FanOut::Kind::Ranking:
      r.matrix = study.ranking(
          f.ranking, [&](const std::string& site, const std::string& benchmark,
                         const wc::Comparison& cmp) {
            r.comparisons.push_back(cmp);
            r.records.push_back(comparison_record(site, benchmark, cmp));
          });
      break;
    case FanOut::Kind::Strategy:
      for (const wc::StrategyComparison& s : study.strategies(f.strategy)) {
        r.comparisons.push_back(s.comparison);
        r.records.push_back(
            comparison_record(s.benchmark, s.strategy, s.comparison));
      }
      break;
  }
  r.sim_deltas = only_prefix(delta.finish(), "sim.");
  return r;
}

FanOutResult run_fanout_traced(const FanOut& f, int threads,
                               std::vector<double>& cell_s) {
  std::unique_ptr<wp::Platform> platform;
  {
    ScopedSpan span("platform.make");
    platform = make_platform(f);
  }
  const wp::Platform& p = *platform;
  const bool spill = p.policy().stack_spill;
  FanOutResult r;
  const CounterDelta delta;
  const ScopedSpan fan("core.study");

  // Cell lists and orders mirror SensitivityStudy (platform/study.cpp).
  std::vector<std::string> rows, cols;
  switch (f.kind) {
    case FanOut::Kind::Sweep:
      rows = or_default(f.sweep.benchmarks, p.benchmarks());
      cols.resize(f.sweep.code_paths.size());
      break;
    case FanOut::Kind::Ranking:
      rows = or_default(f.ranking.sites, p.site_ids());
      cols = or_default(f.ranking.benchmarks, p.benchmarks());
      break;
    case FanOut::Kind::Strategy: {
      rows = or_default(f.strategy.benchmarks, p.benchmarks());
      cols = f.strategy.strategies;
      if (cols.empty()) {
        const std::vector<std::string> all = p.strategies();
        cols.assign(all.begin() + (all.empty() ? 0 : 1), all.end());
      }
      break;
    }
  }
  const std::size_t ncols = cols.size();
  std::vector<int> cells(rows.size() * ncols);
  std::iota(cells.begin(), cells.end(), 0);

  auto factory = [&p](wp::BenchmarkRequest request) {
    return [&p, request] {
      ScopedSpan span("platform.make_benchmark");
      return wc::BenchmarkPtr(
          std::make_unique<TimedBenchmark>(p.make_benchmark(request)));
    };
  };

  const std::vector<CellOut> outs = wmm::par::par_map(
      cells,
      [&](const int& cell) {
        const std::size_t row = static_cast<std::size_t>(cell) / ncols;
        const std::size_t col = static_cast<std::size_t>(cell) % ncols;
        CellOut out;
        const double start = now_s();
        {
          const ScopedSpan cell_span("core.cell", cell, fan.id());
          if (f.kind == FanOut::Kind::Sweep) {
            const wc::CodePathSpec& path = f.sweep.code_paths[col];
            const wc::CostFunctionCalibration cal = [&] {
              ScopedSpan span("platform.calibration");
              return p.calibration(f.sweep.max_exponent);
            }();
            {
              ScopedSpan span("core.sweep_sensitivity");
              out.sweep = wc::sweep_sensitivity(
                  rows[row], path.label,
                  [&](std::uint32_t iters) {
                    wp::BenchmarkRequest request;
                    request.benchmark = rows[row];
                    request.sites = path.sites;
                    request.injection =
                        iters > 0 ? wc::Injection::cost_function(iters, spill)
                                  : wc::Injection::none();
                    request.strategy = f.sweep.strategy;
                    return factory(request)();
                  },
                  wc::standard_sweep_sizes(f.sweep.max_exponent),
                  [&](std::uint32_t iters) { return cal.ns_for(iters); },
                  f.sweep.runs);
            }
            ScopedSpan span("core.fit");
            const wc::SensitivityFit again =
                wc::fit_sensitivity(out.sweep.points);
            out.fit_matches = again.k == out.sweep.fit.k &&
                              again.stderr_k == out.sweep.fit.stderr_k;
          } else {
            wp::BenchmarkRequest base, test;
            if (f.kind == FanOut::Kind::Ranking) {
              base.benchmark = cols[col];
              base.strategy = f.ranking.strategy;
              test = base;
              test.sites = {rows[row]};
              test.injection =
                  wc::Injection::cost_function(f.ranking.cost_iterations, spill);
            } else {
              base.benchmark = rows[row];
              test = base;
              test.strategy = cols[col];
            }
            const wc::RunOptions& runs = f.kind == FanOut::Kind::Ranking
                                             ? f.ranking.runs
                                             : f.strategy.runs;
            ScopedSpan span("core.compare_configurations");
            out.comparison = wc::compare_configurations(factory(base),
                                                        factory(test), runs);
          }
        }
        out.seconds = now_s() - start;
        return out;
      },
      threads);

  bool fits_match = true;
  if (f.kind == FanOut::Kind::Ranking) r.matrix.emplace(rows, cols);
  for (std::size_t i = 0; i < outs.size(); ++i) {
    const CellOut& out = outs[i];
    cell_s.push_back(out.seconds);
    fits_match = fits_match && out.fit_matches;
    const std::string& row = rows[i / ncols];
    const std::string& col = cols[i % ncols];
    if (f.kind == FanOut::Kind::Sweep) {
      r.sweeps.push_back(out.sweep);
      r.records.push_back(wmm::cache::encode_sweep_result(out.sweep));
    } else {
      r.comparisons.push_back(out.comparison);
      r.records.push_back(comparison_record(row, col, out.comparison));
      if (r.matrix) r.matrix->set(row, col, out.comparison.value);
    }
  }
  r.sim_deltas = only_prefix(delta.finish(), "sim.");
  // A refit that disagrees with the sweep's own fit makes the records differ.
  if (!fits_match) r.records.push_back("core.fit mismatch");
  return r;
}

void check_fanout(const FanOut& f, const FanOutResult& r, Ops& ops) {
  for (const wc::SweepResult& s : r.sweeps) {
    const std::string why = check_sweep_fit(s);
    ops.check(why.empty(), f.figure + ": " + why);
  }
  for (const wc::Comparison& c : r.comparisons) {
    const std::string why = check_comparison(c);
    ops.check(why.empty(), f.figure + ": " + why);
  }
  if (f.figure.rfind("fig05/", 0) == 0) {
    const std::string why = check_largest_k(r.sweeps, "spark");
    ops.check(why.empty(), f.figure + ": " + why);
  }
  if (f.figure == "fig07/08") {
    // DESIGN.md section 6: smp_mb, read_once and read_barrier_depends are
    // the top macros; netperf, lmbench and ebizzy the most sensitive
    // benchmarks; h2 and spark nearly insensitive.
    const std::string macros =
        r.matrix ? check_ranking_ends(r.matrix->aggregate_by_code_path(),
                                      {"read_once", "read_barrier_depends", "smp_mb"}, {})
                 : std::string("no ranking matrix");
    ops.check(macros.empty(), f.figure + ": macros: " + macros);
    const std::string benchmarks =
        r.matrix ? check_ranking_ends(r.matrix->aggregate_by_benchmark(),
                                      {"netperf_udp", "netperf_tcp", "lmbench", "ebizzy"},
                                      {"h2", "spark"})
                 : std::string("no ranking matrix");
    ops.check(benchmarks.empty(), f.figure + ": benchmarks: " + benchmarks);
  }
}

namespace {

// Byte equality of records and of sim.* counter deltas.
bool same_results(const FanOutResult& a, const FanOutResult& b) {
  return a.records == b.records && a.sim_deltas == b.sim_deltas;
}

}  // namespace

WorkloadResult run_figures(const RunArgs& args, int threads) {
  WorkloadResult out;
  wp::register_builtin_platforms();
  const std::vector<FanOut> fanouts = figure_fanouts();
  const std::size_t n = fanouts.size();
  const std::size_t kernel_ranking = static_cast<std::size_t>(
      std::find_if(fanouts.begin(), fanouts.end(),
                   [](const FanOut& f) { return f.figure == "fig07/08"; }) -
      fanouts.begin());

  // Set-up, repeated for a steady median: the seeded issue order and a
  // warm-up of every platform the fan-outs use (construction, one
  // calibration, one run of each benchmark), fanned out like the cells.
  std::vector<FanOut> warm_ups;
  for (const FanOut& f : fanouts) {
    if (std::none_of(warm_ups.begin(), warm_ups.end(), [&](const FanOut& w) {
          return w.platform == f.platform && w.arch == f.arch;
        })) {
      warm_ups.push_back(f);
    }
  }
  std::vector<double> setup_s;
  std::vector<std::size_t> order;
  for (int rep = 0; rep < 5; ++rep) {
    const double start = now_s();
    order = seeded_order(n, args.seed);
    (void)wmm::par::par_map(
        warm_ups,
        [](const FanOut& f) {
          const auto platform = make_platform(f);
          double ns = platform->calibration(8).ns_for(1);
          for (const std::string& benchmark : platform->benchmarks()) {
            wp::BenchmarkRequest request;
            request.benchmark = benchmark;
            ns += platform->make_benchmark(request)->run_once(0);
          }
          return ns;
        },
        threads);
    setup_s.push_back(now_s() - start);
  }

  // Timed rounds: every fan-out, in the seeded order.
  struct Round {
    double wall_s = 0.0;
    double cpu_s = 0.0;
    double fig05_s = 0.0;  // both Figure 5 fan-outs
    std::map<std::string, std::uint64_t> deltas;
    wmm::obs::PoolStats::Snapshot pool_before, pool_after;
    std::vector<FanOutResult> results;
  };
  // Only the first round is kept; later rounds are checked as they finish.
  Round plain;
  std::vector<double> walls;
  const double run_start = now_s();
  do {
    Round round;
    round.results.resize(n);
    round.pool_before = wmm::obs::pool_stats().snapshot();
    const CounterDelta delta;
    const double cpu0 = process_cpu_s();
    const double t0 = now_s();
    for (std::size_t i : order) {
      const double fan_start = now_s();
      round.results[i] = run_fanout(fanouts[i], threads, nullptr);
      if (fanouts[i].figure.rfind("fig05/", 0) == 0) {
        round.fig05_s += now_s() - fan_start;
      }
    }
    round.wall_s = now_s() - t0;
    round.cpu_s = process_cpu_s() - cpu0;
    round.deltas = delta.finish();
    round.pool_after = wmm::obs::pool_stats().snapshot();
    for (std::size_t i = 0; i < n; ++i) {
      check_fanout(fanouts[i], round.results[i], out.ops);
    }
    // Figures 7/8 and platform_ranking's kernel block are the same study.
    for (std::size_t i = 0; i < n; ++i) {
      if (fanouts[i].figure == "platform_ranking/kernel") {
        out.ops.check(same_results(round.results[i], round.results[kernel_ranking]),
                      "platform_ranking/kernel differs from fig07/08");
      }
    }
    walls.push_back(round.wall_s);
    if (walls.size() == 1) plain = std::move(round);
  } while (!args.trace && now_s() - run_start < args.seconds);

  // Results may not depend on the thread count: one seeded fan-out again at
  // another count.
  {
    const std::size_t pick = mix64(args.seed ^ 0x5eedULL) % n;
    const int other = threads > 1 ? 1 : std::max(2, worker_threads());
    out.ops.check(same_results(run_fanout(fanouts[pick], other, nullptr),
                               plain.results[pick]),
                  fanouts[pick].figure + ": records or sim counters differ "
                  "between " + std::to_string(threads) + " and " +
                  std::to_string(other) + " threads");
  }

  if (!args.trace) {
    out.metrics.set("setup_s", median(setup_s), "s");
    out.metrics.set("wall_s", median(walls), "s");
    out.metrics.set("peak_rss_mib", peak_rss_mib(), "MiB");
    return out;
  }

  // Traced pass: the same cells through the spanned calls.
  const SpanRecorder recorder;
  double cells_total = 0.0, slowest_total = 0.0;
  const double t0 = now_s();
  for (std::size_t i : order) {
    std::vector<double> cell_s;
    const FanOutResult traced = run_fanout_traced(fanouts[i], threads, cell_s);
    out.ops.check(same_results(traced, plain.results[i]),
                  fanouts[i].figure + ": traced records differ from untraced");
    cells_total += std::accumulate(cell_s.begin(), cell_s.end(), 0.0);
    if (!cell_s.empty()) {
      slowest_total += *std::max_element(cell_s.begin(), cell_s.end());
    }
  }
  const double traced_wall = now_s() - t0;
  const SpanTotals totals = span_totals(recorder.collect());
  recorder.write_chrome_trace(args.scratch + "/trace-" + args.workload + ".json");

  auto delta = [&](const char* name) {
    const auto it = plain.deltas.find(name);
    return it == plain.deltas.end() ? 0.0 : static_cast<double>(it->second);
  };
  Metrics& m = out.metrics;
  const double events = static_cast<double>(sim_events(plain.deltas));
  m.set("platform.make_s", totals.inclusive("platform.make"), "s");
  m.set("platform.calibration_s", totals.inclusive("platform.calibration"), "s");
  m.set("platform.calibration.calls", totals.count("platform.calibration"), "count");
  m.set("platform.make_benchmark_s", totals.inclusive("platform.make_benchmark"), "s");
  m.set("platform.make_benchmark.calls", totals.count("platform.make_benchmark"), "count");
  m.set("workloads.run_s", totals.inclusive("workloads.run_once"), "s");
  m.set("workloads.runs", totals.count("workloads.run_once"), "count");
  m.set("jvm.site_execs", static_cast<double>(sum_prefix(plain.deltas, "jvm.elemental.")), "count");
  m.set("kernel.site_execs", static_cast<double>(sum_prefix(plain.deltas, "kernel.macro.")), "count");
  m.set("cxx11.site_execs", static_cast<double>(sum_prefix(plain.deltas, "cxx11.atomic.")), "count");
  m.set("sim.events", events, "count");
  m.set("sim.fences", static_cast<double>(sum_prefix(plain.deltas, "sim.fence.")), "count");
  m.set("sim.sb_stores", delta("sim.sb.stores"), "count");
  m.set("sim.sb_full_stalls", delta("sim.sb.full_stalls"), "count");
  m.set("sim.bus_transactions", delta("sim.bus.transactions"), "count");
  m.set("sim.coherence_misses", delta("sim.coherence.misses"), "count");
  m.set("sim.invq_received", delta("sim.invq.received"), "count");
  m.set("sim.machine_runs", delta("sim.machine.runs"), "count");
  m.set("sim.host_ns_per_event", events > 0 ? totals.inclusive("workloads.run_once") * 1e9 / events : 0.0, "ns");
  m.set("sim.cpu_ns_per_event", events > 0 ? plain.cpu_s * 1e9 / events : 0.0, "ns");
  m.set("sim_events_per_s", plain.wall_s > 0 ? events / plain.wall_s : 0.0, "events/s");
  m.set("core.self_s", totals.self("core.sweep_sensitivity") + totals.self("core.compare_configurations"), "s");
  m.set("core.fit_s", totals.inclusive("core.fit"), "s");
  m.set("core.fit.calls", totals.count("core.fit"), "count");
  m.set("par.cpu_s", plain.cpu_s, "s");
  m.set("par.fanouts", static_cast<double>(plain.pool_after.waves - plain.pool_before.waves), "count");
  m.set("par.tasks", static_cast<double>(plain.pool_after.tasks - plain.pool_before.tasks), "count");
  m.set("par.steals", static_cast<double>(plain.pool_after.steals - plain.pool_before.steals), "count");
  m.set("par.utilisation", plain.cpu_s / (threads * plain.wall_s), "ratio");
  m.set("par.span_bound", slowest_total > 0 ? cells_total / slowest_total : 0.0, "ratio");
  m.set("fig05.wall_s", plain.fig05_s, "s");
  m.set("trace.overhead", traced_wall / plain.wall_s - 1.0, "ratio");
  return out;
}

}  // namespace perfbench
