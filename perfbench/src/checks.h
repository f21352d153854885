// Output checks of the benchmark, kept free of timing so the self-tests can
// plant faults into them.  Each returns an empty string when the output
// passes and a one-line reason when it does not.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "cache/store.h"
#include "core/experiment.h"
#include "core/harness.h"
#include "sim/memory_model.h"
#include "synth/cost.h"
#include "synth/search.h"

namespace perfbench {

// --- Eq. 1 refit ------------------------------------------------------------

// Sum of squared residuals of eq. 1, p = 1 / ((1 - k) + k a), at `k`.
double eq1_chi2(const std::vector<wmm::core::SweepPoint>& points, double k);

// One-parameter least-squares fit of eq. 1, written independently of
// core::curve_fit: a grid over k brackets the minimum of the residual sum,
// and bisection on its analytic derivative pins it down.
double refit_eq1(const std::vector<wmm::core::SweepPoint>& points);

// The program's k must lie within its own stderr_k of the refit, and its
// chi2 must be the residual sum at its k.
std::string check_sweep_fit(const wmm::core::SweepResult& sweep);

// --- Paper claims -----------------------------------------------------------

// Figure 5: `expected` has the largest k of the sweeps.
std::string check_largest_k(const std::vector<wmm::core::SweepResult>& sweeps,
                            const std::string& expected);

// Figures 7 and 8: the first entries of a ranking (lowest summed relative
// performance first) are the set `first`, and its last entries are the set
// `last`.
std::string check_ranking_ends(
    const std::vector<wmm::core::RankingMatrix::Aggregate>& ranked,
    const std::vector<std::string>& first,
    const std::vector<std::string>& last);

// A comparison is a finite positive ratio inside its own [min, max].
std::string check_comparison(const wmm::core::Comparison& cmp);

// --- Fence synthesis ---------------------------------------------------------

// The placement, written into the skeleton's fence slots, makes every forbidden outcome unreachable under the
// operational engine (independent of the axiomatic oracle the search uses).
std::string check_placement(const wmm::synth::SynthProblem& problem,
                            const wmm::synth::Assignment& assignment);

// Number of assignments over the slot menus.
std::size_t assignment_count(const wmm::synth::SynthProblem& problem);

// The search's answer is correct under the operational engine and, when the
// menus allow at most `brute_force_limit` assignments, no cheaper correct
// assignment (or, for an infeasible answer, no correct one) exists.
std::string check_synthesis(const wmm::synth::SynthProblem& problem,
                            const wmm::synth::SynthOptions& options,
                            const wmm::synth::SynthResult& result,
                            std::size_t brute_force_limit);

// --- Result store --------------------------------------------------------------

// Store statistics over the warm legs: nothing corrupt, and every requested
// answer was a hit.
std::string check_warm_store(const wmm::cache::CacheStats& before,
                             const wmm::cache::CacheStats& after,
                             std::uint64_t requested);

}  // namespace perfbench
