// The benchmark's four workloads.  Each builds its inputs from the seed,
// times its rounds, checks every output and fills in its metrics: the
// end-to-end set when `trace` is off, the per-layer set when it is on.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cache/store.h"
#include "core/experiment.h"
#include "core/harness.h"
#include "platform/study.h"
#include "sim/fuzz.h"
#include "util.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch;  // directory for the store and the trace file
};

// Every check belongs to an operation, so a wrong output shows as a failed
// operation in `ops`.
struct WorkloadResult {
  Ops ops;
  Metrics metrics;
};

WorkloadResult run_figures(const RunArgs& args, int threads);
WorkloadResult run_litmus(const RunArgs& args);
WorkloadResult run_cache_warm(const RunArgs& args);

// --- Figure studies, shared by `figures`, `figures-1t` and `cache-warm` ------

// One SensitivityStudy fan-out exactly as a figure binary declares it.
struct FanOut {
  enum class Kind { Sweep, Ranking, Strategy };
  std::string figure;    // "fig05", "fig07/08", ...
  std::string platform;  // registered platform name
  wmm::sim::Arch arch = wmm::sim::Arch::ARMV8;
  Kind kind = Kind::Sweep;
  wmm::core::SweepStudyConfig sweep;
  wmm::core::RankingStudyConfig ranking;
  wmm::core::StrategyStudyConfig strategy;
};

// Figure 5 (ARMv8, POWER7), Figures 7/8, Figure 9, Figure 10 and the three
// blocks of platform_ranking --platform=all, in that order.
std::vector<FanOut> figure_fanouts();

struct FanOutResult {
  std::vector<std::string> records;  // cache-codec bytes, canonical order
  std::vector<wmm::core::SweepResult> sweeps;
  std::vector<wmm::core::Comparison> comparisons;
  std::optional<wmm::core::RankingMatrix> matrix;  // ranking fan-outs
  std::map<std::string, std::uint64_t> sim_deltas;  // sim.* counters
};

// Issues the fan-out through core::SensitivityStudy (optionally against a
// result store).
FanOutResult run_fanout(const FanOut& fanout, int threads,
                        wmm::cache::ResultCache* store);

// Issues the same cells through Platform::calibration, the make_benchmark
// factories (decorated run_once), core::sweep_sensitivity and
// core::compare_configurations, with a span around each call.  Records must
// equal run_fanout's.  `cell_s` receives each cell's host time.
FanOutResult run_fanout_traced(const FanOut& fanout, int threads,
                               std::vector<double>& cell_s);

// Checks one fan-out's outputs: each cell (eq. 1 refit or comparison sanity)
// and the figure's claim, if it has one.
void check_fanout(const FanOut& fanout, const FanOutResult& result, Ops& ops);

// --- Fuzz corpora, shared by `litmus` and `cache-warm` -----------------------

// Fixed-size fuzz corpora on sc, tso, arm and power, through
// sim::run_conformance_corpus with the default memo.
std::vector<wmm::sim::FuzzReport> run_fuzz_corpora(
    std::uint64_t base_seed, int per_arch, int threads,
    wmm::cache::ResultCache* store);

// The answer part of a corpus report (no memo or store accounting).
std::string fuzz_record(const wmm::sim::FuzzReport& report);

// One operation per program: a divergence, or a program the corpus did not
// reach, fails it.
void check_fuzz(const std::vector<wmm::sim::FuzzReport>& reports,
                int per_arch, Ops& ops);

// Programs per architecture in one corpus.
inline constexpr int kFuzzPerArch = 1000;

}  // namespace perfbench
