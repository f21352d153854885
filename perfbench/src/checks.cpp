#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

namespace perfbench {

namespace {

std::string fmt(const char* format, double a, double b = 0.0, double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, format, a, b, c);
  return buf;
}

// d/dk of eq1_chi2.
double eq1_chi2_slope(const std::vector<wmm::core::SweepPoint>& points,
                      double k) {
  double slope = 0.0;
  for (const wmm::core::SweepPoint& pt : points) {
    const double d = 1.0 + k * (pt.cost_ns - 1.0);
    slope += 2.0 * (pt.rel_perf - 1.0 / d) * (pt.cost_ns - 1.0) / (d * d);
  }
  return slope;
}

}  // namespace

double eq1_chi2(const std::vector<wmm::core::SweepPoint>& points, double k) {
  double chi2 = 0.0;
  for (const wmm::core::SweepPoint& pt : points) {
    const double r = pt.rel_perf - 1.0 / ((1.0 - k) + k * pt.cost_ns);
    chi2 += r * r;
  }
  return chi2;
}

double refit_eq1(const std::vector<wmm::core::SweepPoint>& points) {
  // Grid: k = 0 and 1e-9 .. 0.9 on a log scale.
  constexpr int kGrid = 1200;
  std::vector<double> ks = {0.0};
  for (int i = 0; i <= kGrid; ++i) {
    ks.push_back(1e-9 * std::pow(0.9 / 1e-9, static_cast<double>(i) / kGrid));
  }
  std::size_t best = 0;
  double best_chi2 = eq1_chi2(points, ks[0]);
  for (std::size_t i = 1; i < ks.size(); ++i) {
    const double c = eq1_chi2(points, ks[i]);
    if (c < best_chi2) {
      best_chi2 = c;
      best = i;
    }
  }
  double lo = ks[best == 0 ? 0 : best - 1];
  double hi = ks[std::min(best + 1, ks.size() - 1)];
  if (!(eq1_chi2_slope(points, lo) < 0.0 && eq1_chi2_slope(points, hi) > 0.0)) {
    return ks[best];  // minimum on the grid's edge
  }
  for (int iter = 0; iter < 200 && hi > lo; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (mid <= lo || mid >= hi) break;
    (eq1_chi2_slope(points, mid) < 0.0 ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

std::string check_sweep_fit(const wmm::core::SweepResult& sweep) {
  const std::string who = sweep.benchmark + "/" + sweep.code_path;
  if (sweep.points.size() < 2) return who + ": sweep has fewer than 2 points";
  const double k = refit_eq1(sweep.points);
  const wmm::core::SensitivityFit& fit = sweep.fit;
  if (!(std::abs(fit.k - k) <= fit.stderr_k)) {
    return who + fmt(": program k %.9g is not within its stderr %.3g of the "
                     "refit k %.9g",
                     fit.k, fit.stderr_k, k);
  }
  const double chi2_at_k = eq1_chi2(sweep.points, fit.k);
  if (!(std::abs(chi2_at_k - fit.chi2) <= 1e-6 * chi2_at_k + 1e-15)) {
    return who + fmt(": program chi2 %.9g differs from the residual sum %.9g "
                     "at its k",
                     fit.chi2, chi2_at_k);
  }
  return {};
}

std::string check_largest_k(const std::vector<wmm::core::SweepResult>& sweeps,
                            const std::string& expected) {
  const auto top = std::max_element(
      sweeps.begin(), sweeps.end(),
      [](const wmm::core::SweepResult& a, const wmm::core::SweepResult& b) {
        return a.fit.k < b.fit.k;
      });
  if (top == sweeps.end()) return "no sweeps";
  if (top->benchmark != expected) {
    return "largest k belongs to " + top->benchmark + ", not " + expected;
  }
  return {};
}

std::string check_ranking_ends(
    const std::vector<wmm::core::RankingMatrix::Aggregate>& ranked,
    const std::vector<std::string>& first,
    const std::vector<std::string>& last) {
  if (ranked.size() < first.size() + last.size()) return "ranking too short";
  auto names = [&](std::size_t from, std::size_t n) {
    std::set<std::string> out;
    for (std::size_t i = from; i < from + n; ++i) out.insert(ranked[i].name);
    return out;
  };
  auto join = [](const std::set<std::string>& s) {
    std::string out;
    for (const std::string& n : s) out += (out.empty() ? "" : ",") + n;
    return out;
  };
  const std::set<std::string> head = names(0, first.size());
  const std::set<std::string> tail = names(ranked.size() - last.size(), last.size());
  if (head != std::set<std::string>(first.begin(), first.end())) {
    return "ranking starts with " + join(head);
  }
  if (tail != std::set<std::string>(last.begin(), last.end())) {
    return "ranking ends with " + join(tail);
  }
  return {};
}

std::string check_comparison(const wmm::core::Comparison& cmp) {
  if (!(std::isfinite(cmp.value) && cmp.value > 0.0 && cmp.min <= cmp.value &&
        cmp.value <= cmp.max && cmp.ci95 >= 0.0)) {
    return fmt("comparison %.9g outside [%.9g, %.9g]", cmp.value, cmp.min,
               cmp.max);
  }
  return {};
}

namespace {

// The skeleton with `assignment` written into its fence slots.
wmm::sim::LitmusTest apply_assignment(const wmm::synth::SynthProblem& problem,
                                      const wmm::synth::Assignment& assignment) {
  wmm::sim::LitmusTest test = problem.skeleton;
  for (std::size_t i = 0; i < problem.slots.size(); ++i) {
    const wmm::sim::FenceSlotRef& ref = problem.slots[i].ref;
    test.threads.at(static_cast<std::size_t>(ref.tid))
        .instrs.at(static_cast<std::size_t>(ref.idx))
        .fence = assignment.kinds.at(i);
  }
  return test;
}

}  // namespace

std::string check_placement(const wmm::synth::SynthProblem& problem,
                            const wmm::synth::Assignment& assignment) {
  if (assignment.kinds.size() != problem.slots.size()) {
    return "placement has the wrong number of slots";
  }
  const std::set<wmm::sim::Outcome> reachable = wmm::sim::enumerate_outcomes(
      apply_assignment(problem, assignment), problem.arch);
  for (const wmm::sim::Outcome& o : problem.forbidden) {
    if (reachable.count(o)) {
      return problem.skeleton.name + ": placement " + assignment.name() +
             " leaves a forbidden outcome reachable";
    }
  }
  return {};
}

std::size_t assignment_count(const wmm::synth::SynthProblem& problem) {
  std::size_t n = 1;
  for (const wmm::synth::Slot& slot : problem.slots) {
    n *= std::max<std::size_t>(1, slot.menu.size());
    if (n > (std::size_t{1} << 40)) break;
  }
  return n;
}

namespace {

// Cheapest assignment over the slot menus that passes check_placement, by
// brute force; nullopt when none does.  Every assignment is priced, then
// checked cheapest first: the first one that passes is the minimum.
std::optional<double> brute_force_cheapest(
    const wmm::synth::SynthProblem& problem,
    const wmm::synth::CostOptions& cost) {
  const std::size_t total = assignment_count(problem);
  std::vector<std::pair<double, wmm::synth::Assignment>> priced;
  priced.reserve(total);
  for (std::size_t code = 0; code < total; ++code) {
    wmm::synth::Assignment a;
    std::size_t rest = code;
    for (const wmm::synth::Slot& slot : problem.slots) {
      a.kinds.push_back(slot.menu.empty() ? wmm::sim::FenceKind::None
                                          : slot.menu[rest % slot.menu.size()]);
      rest /= std::max<std::size_t>(1, slot.menu.size());
    }
    priced.emplace_back(wmm::synth::assignment_cost_ns(problem, a, cost),
                        std::move(a));
  }
  std::stable_sort(priced.begin(), priced.end(),
                   [](const auto& x, const auto& y) { return x.first < y.first; });
  for (const auto& [c, a] : priced) {
    if (check_placement(problem, a).empty()) return c;
  }
  return std::nullopt;
}

}  // namespace

std::string check_synthesis(const wmm::synth::SynthProblem& problem,
                            const wmm::synth::SynthOptions& options,
                            const wmm::synth::SynthResult& result,
                            std::size_t brute_force_limit) {
  const std::string who = problem.skeleton.name + "/" +
                          wmm::sim::arch_name(problem.arch) + "/" +
                          wmm::synth::cost_model_name(options.cost.model);
  if (result.feasible) {
    const std::string placed = check_placement(problem, result.best);
    if (!placed.empty()) return who + ": " + placed;
  }
  if (assignment_count(problem) > brute_force_limit) return {};
  const std::optional<double> cheapest =
      brute_force_cheapest(problem, options.cost);
  if (!result.feasible) {
    return cheapest ? who + ": reported infeasible, brute force found a fix"
                    : std::string();
  }
  const double slack = 1e-9 * std::max(1.0, std::abs(result.cost_ns));
  if (!cheapest || *cheapest < result.cost_ns - slack) {
    return who + fmt(": brute force found a fix costing %.9g < %.9g",
                     cheapest.value_or(-1.0), result.cost_ns);
  }
  return {};
}

std::string check_warm_store(const wmm::cache::CacheStats& before,
                             const wmm::cache::CacheStats& after,
                             std::uint64_t requested) {
  const std::uint64_t corrupt = after.corrupt - before.corrupt;
  const std::uint64_t hits = after.hits - before.hits;
  if (corrupt != 0) {
    return "store reported " + std::to_string(corrupt) + " corrupt entries";
  }
  if (hits != requested) {
    return "store answered " + std::to_string(hits) + " of " +
           std::to_string(requested) + " requests";
  }
  return {};
}

}  // namespace perfbench
