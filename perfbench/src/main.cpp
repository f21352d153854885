// perfbench: end-to-end and per-layer benchmark of the reproduction.
//
//   perfbench --workload figures|figures-1t|litmus|cache-warm --seed N
//             --seconds S --trace 0|1 [--scratch DIR]
//
// Prints one JSON line as the last line of stdout: correct, attempted,
// failed and the metrics (end-to-end with --trace 0, per layer with
// --trace 1).  Exit code 2 on bad arguments, 1 when the run itself fails.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "workloads.h"

namespace {

using perfbench::Metrics;

// Every per-layer metric, as BENCHMARK.json lists them.  A traced run
// reports all of them; a layer the workload does not exercise reads 0.
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"platform.make_s", "s"},
    {"platform.calibration_s", "s"},
    {"platform.calibration.calls", "count"},
    {"platform.make_benchmark_s", "s"},
    {"platform.make_benchmark.calls", "count"},
    {"workloads.run_s", "s"},
    {"workloads.runs", "count"},
    {"jvm.site_execs", "count"},
    {"kernel.site_execs", "count"},
    {"cxx11.site_execs", "count"},
    {"sim.events", "count"},
    {"sim.fences", "count"},
    {"sim.sb_stores", "count"},
    {"sim.sb_full_stalls", "count"},
    {"sim.bus_transactions", "count"},
    {"sim.coherence_misses", "count"},
    {"sim.invq_received", "count"},
    {"sim.machine_runs", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.cpu_ns_per_event", "ns"},
    {"sim_events_per_s", "events/s"},
    {"core.self_s", "s"},
    {"core.fit_s", "s"},
    {"core.fit.calls", "count"},
    {"par.cpu_s", "s"},
    {"par.fanouts", "count"},
    {"par.tasks", "count"},
    {"par.steals", "count"},
    {"par.utilisation", "ratio"},
    {"par.span_bound", "ratio"},
    {"fig05.wall_s", "s"},
    {"sim.generate_s", "s"},
    {"sim.family_s", "s"},
    {"sim.fuzz_s", "s"},
    {"sim.check_s", "s"},
    {"sim.check.calls", "count"},
    {"sim.operational_s", "s"},
    {"sim.axiomatic_s", "s"},
    {"sim.outcomes", "count"},
    {"sim.fuzz.memo_hits", "count"},
    {"sim.fuzz.memo_misses", "count"},
    {"sim.fuzz.memo_hit_ratio", "ratio"},
    {"checks_per_s", "programs/s"},
    {"synth.objective_s", "s"},
    {"synth.problem_s", "s"},
    {"synth.search_s", "s"},
    {"synth.problems", "count"},
    {"synth.candidates", "count"},
    {"synth.oracle_queries", "count"},
    {"synth.pruned", "count"},
    {"synth.query_ratio", "ratio"},
    {"synth_per_s", "problems/s"},
    {"cache.warm_study_s", "s"},
    {"cache.warm_fuzz_s", "s"},
    {"cache.fill_s", "s"},
    {"cache.delete_s", "s"},
    {"cache.hits", "count"},
    {"cache.misses", "count"},
    {"cache.writes", "count"},
    {"cache.corrupt", "count"},
    {"cache.evictions", "count"},
    {"cache.bytes", "bytes"},
    {"cache.hit_ratio", "ratio"},
    {"cache.us_per_hit", "us"},
    {"hits_per_s", "answers/s"},
    {"fills_per_s", "entries/s"},
    {"trace.overhead", "ratio"},
};

// The per-layer set in list order: missing entries read 0; an entry outside
// the list is a benchmark bug.
bool complete_per_layer(Metrics& metrics) {
  Metrics full;
  for (const auto& [name, unit] : kPerLayer) {
    const auto it = metrics.values.find(name);
    if (it != metrics.values.end() && it->second.second != unit) {
      std::fprintf(stderr, "perfbench: metric %s has unit %s, not %s\n", name,
                   it->second.second.c_str(), unit);
      return false;
    }
    full.set(name, it == metrics.values.end() ? 0.0 : it->second.first, unit);
  }
  for (const auto& [name, value] : metrics.values) {
    if (!full.values.count(name)) {
      std::fprintf(stderr, "perfbench: metric %s is not in the list\n",
                   name.c_str());
      return false;
    }
  }
  metrics = std::move(full);
  return true;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "figures|figures-1t|litmus|cache-warm --seed N --seconds S "
               "--trace 0|1 [--scratch DIR]\n",
               why);
  return 2;
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos)
    return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || *end != '\0') return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  args.scratch = ".bench_build/tmp";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      if (!parse_u64(value, args.seed)) return usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, n) || n < 1 || n > 3600) return usage("bad --seconds");
      args.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace");
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }

  try {
    std::filesystem::create_directories(args.scratch);
    perfbench::WorkloadResult result;
    if (args.workload == "figures") {
      result = perfbench::run_figures(args, perfbench::worker_threads());
    } else if (args.workload == "figures-1t") {
      result = perfbench::run_figures(args, 1);
    } else if (args.workload == "litmus") {
      result = perfbench::run_litmus(args);
    } else if (args.workload == "cache-warm") {
      result = perfbench::run_cache_warm(args);
    } else {
      return usage(("unknown workload '" + args.workload + "'").c_str());
    }
    if (args.trace && !complete_per_layer(result.metrics)) return 1;
    // `correct` speaks of the operations that did not fail; each check
    // counts against its own operation, so it holds once the run completes.
    perfbench::print_result(/*correct=*/true, result.ops, result.metrics);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
