// Workload `litmus`: fuzz corpora, a prefix of the critical-cycle family
// corpus cross-checked on four architectures, and exact fence synthesis for
// every family program with a non-empty SC-forbidden set.
#include <algorithm>
#include <numeric>

#include "checks.h"
#include "par/deterministic_map.h"
#include "sim/litmus_family.h"
#include "synth/oracle.h"
#include "workloads.h"

namespace perfbench {

namespace ws = wmm::sim;
namespace wy = wmm::synth;

namespace {

constexpr ws::Arch kCheckArches[] = {ws::Arch::SC, ws::Arch::X86_TSO,
                                     ws::Arch::ARMV8, ws::Arch::POWER7};
constexpr ws::Arch kSynthArches[] = {ws::Arch::ARMV8, ws::Arch::POWER7};

// Programs taken from the front of generate_families().
constexpr std::size_t kFamilyPrefix = 600;
// Synthesis problems whose slot menus allow at most this many assignments
// are also solved by brute force.
constexpr std::size_t kBruteForceLimit = 64;

std::vector<ws::FamilyProgram> family_prefix() {
  ws::FamilyOptions options;
  options.limit = kFamilyPrefix;
  return ws::generate_families(options);
}

wy::SynthOptions synth_options(wy::CostModel model) {
  wy::SynthOptions options;
  options.cost.model = model;
  if (model == wy::CostModel::InVivo) {
    // The in-vivo context fence_synth --validate uses: 16 private stores
    // before the second slot.
    options.cost.contexts = {{}, {16, 0, 0.0}};
  }
  return options;
}

struct SynthTask {
  bool has_problem = false;  // the SC-forbidden set is non-empty
  wy::SynthProblem problem;
  wy::SynthResult vitro, vivo;
};

std::string synth_record(const SynthTask& t) {
  if (!t.has_problem) return "-";
  return wy::serialize_result(t.vitro) + "\n" + wy::serialize_result(t.vivo);
}

SynthTask solve(const ws::LitmusTest& test, ws::Arch arch) {
  SynthTask t;
  std::vector<ws::Outcome> forbidden;
  {
    ScopedSpan span("synth.objective");
    forbidden = wy::sc_forbidden_outcomes(test, arch);
  }
  if (forbidden.empty()) return t;
  t.has_problem = true;
  {
    ScopedSpan span("synth.problem");
    t.problem = wy::make_problem(test, arch, std::move(forbidden));
  }
  ScopedSpan span("synth.search");
  t.vitro = wy::synthesize(t.problem, synth_options(wy::CostModel::InVitro));
  t.vivo = wy::synthesize(t.problem, synth_options(wy::CostModel::InVivo));
  return t;
}

struct FamilyCheck {
  int divergent = 0;
  long long outcomes = 0;  // operational outcomes (traced pass only)
};

struct Round {
  double fuzz_s = 0.0, family_s = 0.0, synth_s = 0.0;
  std::vector<ws::FuzzReport> fuzz;
  std::vector<FamilyCheck> family;  // program-major x kCheckArches
  std::vector<SynthTask> synth;     // program-major x kSynthArches
  double wall_s() const { return fuzz_s + family_s + synth_s; }
};

Round run_round(std::uint64_t fuzz_base,
                const std::vector<ws::FamilyProgram>& family, int threads,
                bool traced) {
  Round r;
  double t = now_s();
  if (traced) {
    // Generator cost alone, over as many seeds as the corpora use.
    ScopedSpan span("sim.generate");
    for (ws::Arch arch : kCheckArches) {
      const ws::FuzzConfig config = ws::FuzzConfig::for_arch(arch);
      for (int i = 0; i < kFuzzPerArch; ++i) {
        (void)ws::generate_litmus(mix64(fuzz_base + static_cast<std::uint64_t>(i)), config);
      }
    }
    t = now_s();
  }
  {
    ScopedSpan span("sim.fuzz");
    r.fuzz = run_fuzz_corpora(fuzz_base, kFuzzPerArch, threads, nullptr);
  }
  r.fuzz_s = now_s() - t;

  t = now_s();
  const std::size_t na = std::size(kCheckArches);
  std::vector<int> checks(family.size() * na);
  std::iota(checks.begin(), checks.end(), 0);
  r.family = wmm::par::par_map(
      checks,
      [&](const int& i) {
        const ws::LitmusTest& test = family[static_cast<std::size_t>(i) / na].test;
        const ws::Arch arch = kCheckArches[static_cast<std::size_t>(i) % na];
        FamilyCheck c;
        {
          ScopedSpan span("sim.check", i);
          c.divergent = ws::check_conformance(test, arch).has_value();
        }
        if (traced) {
          ScopedSpan span("sim.operational", i);
          c.outcomes = static_cast<long long>(ws::enumerate_outcomes(test, arch).size());
        }
        return c;
      },
      threads);
  r.family_s = now_s() - t;

  t = now_s();
  const std::size_t ns = std::size(kSynthArches);
  std::vector<int> tasks(family.size() * ns);
  std::iota(tasks.begin(), tasks.end(), 0);
  r.synth = wmm::par::par_map(
      tasks,
      [&](const int& i) {
        ScopedSpan span("synth.task", i);
        return solve(family[static_cast<std::size_t>(i) / ns].test,
                     kSynthArches[static_cast<std::size_t>(i) % ns]);
      },
      threads);
  r.synth_s = now_s() - t;
  return r;
}

void check_round(const Round& r, const std::vector<ws::FamilyProgram>& family,
                 int threads, Ops& ops) {
  check_fuzz(r.fuzz, kFuzzPerArch, ops);
  const std::size_t na = std::size(kCheckArches);
  for (std::size_t i = 0; i < r.family.size(); ++i) {
    ops.check(r.family[i].divergent == 0,
              family[i / na].name + " on " +
                  ws::arch_name(kCheckArches[i % na]) +
                  ": operational and axiomatic outcome sets differ");
  }
  const std::vector<int> witness_reachable = wmm::par::par_map(
      family,
      [](const ws::FamilyProgram& p) {
        return static_cast<int>(
            ws::enumerate_outcomes(p.test, ws::Arch::SC).count(p.witness));
      },
      threads);
  for (std::size_t i = 0; i < family.size(); ++i) {
    ops.check(witness_reachable[i] == 0,
              family[i].name + ": cycle witness is reachable under SC");
  }
  // Two answers (in vitro, in vivo) per problem.
  std::vector<int> answers(r.synth.size() * 2);
  std::iota(answers.begin(), answers.end(), 0);
  const std::vector<std::string> reasons = wmm::par::par_map(
      answers,
      [&](const int& i) {
        const SynthTask& t = r.synth[static_cast<std::size_t>(i) / 2];
        if (!t.has_problem) return std::string();
        const bool vivo = i % 2 == 1;
        return check_synthesis(
            t.problem,
            synth_options(vivo ? wy::CostModel::InVivo : wy::CostModel::InVitro),
            vivo ? t.vivo : t.vitro, kBruteForceLimit);
      },
      threads);
  for (std::size_t i = 0; i < reasons.size(); ++i) {
    if (r.synth[i / 2].has_problem) ops.check(reasons[i].empty(), reasons[i]);
  }
}

// Warm-up before the timed rounds (enumeration arenas, pools, allocator):
// corpora from other seeds and the first family programs on every
// arch, with the rounds' thread count.
void warm_up(std::uint64_t fuzz_base,
             const std::vector<ws::FamilyProgram>& family, int threads) {
  (void)run_fuzz_corpora(mix64(fuzz_base ^ 0x3a3aULL), 1000, threads, nullptr);
  std::vector<int> checks(std::min<std::size_t>(family.size(), 400) *
                          std::size(kCheckArches));
  std::iota(checks.begin(), checks.end(), 0);
  (void)wmm::par::par_map(
      checks,
      [&](const int& i) {
        const std::size_t na = std::size(kCheckArches);
        return static_cast<int>(
            ws::check_conformance(family[static_cast<std::size_t>(i) / na].test,
                                  kCheckArches[static_cast<std::size_t>(i) % na])
                .has_value());
      },
      threads);
}

std::vector<std::string> round_records(const Round& r) {
  std::vector<std::string> out;
  for (const ws::FuzzReport& f : r.fuzz) out.push_back(fuzz_record(f));
  for (const FamilyCheck& c : r.family) out.push_back(std::to_string(c.divergent));
  for (const SynthTask& t : r.synth) out.push_back(synth_record(t));
  return out;
}

long long count_problems(const Round& r) {
  long long n = 0;
  for (const SynthTask& t : r.synth) n += t.has_problem ? 2 : 0;
  return n;
}

}  // namespace

std::vector<ws::FuzzReport> run_fuzz_corpora(std::uint64_t base_seed,
                                             int per_arch, int threads,
                                             wmm::cache::ResultCache* store) {
  std::vector<ws::FuzzReport> reports;
  for (ws::Arch arch : kCheckArches) {
    ws::FuzzRunOptions run;
    run.threads = threads;
    run.max_divergences = per_arch;
    run.cache = store;
    reports.push_back(ws::run_conformance_corpus(
        arch, base_seed, per_arch, ws::FuzzConfig::for_arch(arch), {}, run));
  }
  return reports;
}

std::string fuzz_record(const ws::FuzzReport& report) {
  return std::string(ws::arch_name(report.arch)) + '|' +
         std::to_string(report.base_seed) + '|' +
         std::to_string(report.programs) + '|' +
         std::to_string(report.outcomes_checked) + '|' +
         std::to_string(report.divergences.size());
}

void check_fuzz(const std::vector<ws::FuzzReport>& reports, int per_arch,
                Ops& ops) {
  for (const ws::FuzzReport& r : reports) {
    const long long missing = std::max(0, per_arch - r.programs);
    ops.add(per_arch,
            std::min<long long>(per_arch,
                                static_cast<long long>(r.divergences.size()) + missing),
            std::string("fuzz corpus on ") + ws::arch_name(r.arch) +
                ": operational and axiomatic outcome sets differ");
  }
}

WorkloadResult run_litmus(const RunArgs& args) {
  WorkloadResult out;
  const int threads = worker_threads();
  const std::uint64_t fuzz_base = mix64(args.seed);

  // Set-up, repeated for a steady median: the family prefix and a warm-up.
  std::vector<double> setup_s;
  std::vector<ws::FamilyProgram> family;
  for (int rep = 0; rep < 5; ++rep) {
    const double start = now_s();
    family = family_prefix();
    warm_up(fuzz_base, family, threads);
    setup_s.push_back(now_s() - start);
  }

  // The first round is kept and checked in full.  A later round whose
  // records equal the first's inherits its verdicts; one that differs is
  // checked anew.
  Round plain;
  Ops first_round;
  std::vector<std::string> first_records;
  std::vector<double> walls;
  const double run_start = now_s();
  do {
    Round r = run_round(fuzz_base, family, threads, false);
    walls.push_back(r.wall_s());
    const std::vector<std::string> records = round_records(r);
    if (walls.size() == 1) {
      check_round(r, family, threads, first_round);
      out.ops.add(first_round.attempted(), first_round.failed(), "litmus round");
      first_records = records;
      plain = std::move(r);
    } else if (records == first_records) {
      out.ops.add(first_round.attempted(), first_round.failed(), "litmus round");
    } else {
      check_round(r, family, threads, out.ops);
    }
  } while (!args.trace && now_s() - run_start < args.seconds);

  if (!args.trace) {
    out.metrics.set("setup_s", median(setup_s), "s");
    out.metrics.set("wall_s", median(walls), "s");
    out.metrics.set("peak_rss_mib", peak_rss_mib(), "MiB");
    return out;
  }

  // Traced pass.
  const SpanRecorder recorder;
  {
    ScopedSpan span("sim.family");
    (void)family_prefix();
  }
  const Round traced = run_round(fuzz_base, family, threads, true);
  out.ops.check(round_records(traced) == round_records(plain),
                "litmus: traced records differ from untraced");
  const SpanTotals totals = span_totals(recorder.collect());
  recorder.write_chrome_trace(args.scratch + "/trace-" + args.workload + ".json");

  long long memo_hits = 0, memo_misses = 0, outcomes = 0;
  for (const ws::FuzzReport& f : plain.fuzz) {
    memo_hits += f.memo_hits;
    memo_misses += f.memo_misses;
    outcomes += f.outcomes_checked;
  }
  for (const FamilyCheck& c : traced.family) outcomes += c.outcomes;
  double candidates = 0, queries = 0, pruned = 0;
  for (const SynthTask& t : plain.synth) {
    for (const wy::SynthResult* r : {&t.vitro, &t.vivo}) {
      if (!t.has_problem) continue;
      candidates += static_cast<double>(r->stats.candidates);
      queries += static_cast<double>(r->stats.oracle_queries);
      pruned += static_cast<double>(r->stats.pruned_correct + r->stats.pruned_incorrect);
    }
  }
  Metrics& m = out.metrics;
  m.set("sim.generate_s", totals.inclusive("sim.generate"), "s");
  m.set("sim.family_s", totals.inclusive("sim.family"), "s");
  m.set("sim.fuzz_s", totals.inclusive("sim.fuzz"), "s");
  m.set("sim.check_s", totals.inclusive("sim.check"), "s");
  m.set("sim.check.calls", totals.count("sim.check"), "count");
  m.set("sim.operational_s", totals.inclusive("sim.operational"), "s");
  m.set("sim.axiomatic_s", totals.inclusive("sim.check") - totals.inclusive("sim.operational"), "s");
  m.set("sim.outcomes", static_cast<double>(outcomes), "count");
  m.set("sim.fuzz.memo_hits", static_cast<double>(memo_hits), "count");
  m.set("sim.fuzz.memo_misses", static_cast<double>(memo_misses), "count");
  m.set("sim.fuzz.memo_hit_ratio",
        static_cast<double>(memo_hits) / static_cast<double>(std::max(1LL, memo_hits + memo_misses)),
        "ratio");
  m.set("synth.objective_s", totals.inclusive("synth.objective"), "s");
  m.set("synth.problem_s", totals.inclusive("synth.problem"), "s");
  m.set("synth.search_s", totals.inclusive("synth.search"), "s");
  m.set("synth.problems", static_cast<double>(count_problems(plain)), "count");
  m.set("synth.candidates", candidates, "count");
  m.set("synth.oracle_queries", queries, "count");
  m.set("synth.pruned", pruned, "count");
  m.set("synth.query_ratio", candidates > 0 ? queries / candidates : 0.0, "ratio");
  m.set("checks_per_s",
        static_cast<double>(kFuzzPerArch * std::size(kCheckArches) + plain.family.size()) /
            (plain.fuzz_s + plain.family_s),
        "programs/s");
  m.set("synth_per_s", static_cast<double>(count_problems(plain)) / plain.synth_s,
        "problems/s");
  m.set("trace.overhead", traced.wall_s() / plain.wall_s() - 1.0, "ratio");
  return out;
}

}  // namespace perfbench
