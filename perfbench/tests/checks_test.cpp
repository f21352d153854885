// Self-tests of the benchmark's output checks: each check passes on good
// output and catches a planted fault.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "checks.h"
#include "core/sensitivity.h"
#include "platform/platform.h"
#include "platform/study.h"
#include "sim/litmus.h"
#include "synth/oracle.h"
#include "util.h"

namespace {

namespace wc = wmm::core;
namespace ws = wmm::sim;
namespace wy = wmm::synth;
using namespace perfbench;

// Eq. 1 at the cost sizes of a paper sweep, with optional deterministic noise.
std::vector<wc::SweepPoint> eq1_points(double k, double noise) {
  std::vector<wc::SweepPoint> points;
  const double costs[] = {1.95, 2.5, 3.6, 5.8, 10.2, 19.0, 36.6, 71.8, 142.2};
  for (std::size_t i = 0; i < std::size(costs); ++i) {
    const double wiggle = noise * ((i % 3 == 0) ? 1.0 : (i % 3 == 1 ? -0.5 : -0.5));
    points.push_back({costs[i], wc::model_performance(costs[i], k) + wiggle});
  }
  return points;
}

wc::SweepResult fitted_sweep(const std::string& name, double k, double noise) {
  wc::SweepResult s;
  s.benchmark = name;
  s.code_path = "all-barriers";
  s.points = eq1_points(k, noise);
  s.fit = wc::fit_sensitivity(s.points);
  return s;
}

TEST(Refit, RecoversKnownKFromExactData) {
  for (double k : {0.00038, 0.00277, 0.00902, 0.05}) {
    EXPECT_NEAR(refit_eq1(eq1_points(k, 0.0)), k, 1e-9 * k) << k;
  }
}

TEST(Refit, RecoversKnownKFromNoisyData) {
  EXPECT_NEAR(refit_eq1(eq1_points(0.00902, 0.002)), 0.00902, 0.03 * 0.00902);
}

TEST(Refit, Chi2IsZeroOnTheModel) {
  EXPECT_NEAR(eq1_chi2(eq1_points(0.005, 0.0), 0.005), 0.0, 1e-24);
}

TEST(SweepCheck, AcceptsTheProgramsFit) {
  EXPECT_EQ(check_sweep_fit(fitted_sweep("spark", 0.00902, 0.002)), "");
}

TEST(SweepCheck, CatchesKPerturbedByTwiceItsStderr) {
  wc::SweepResult s = fitted_sweep("spark", 0.00902, 0.002);
  ASSERT_GT(s.fit.stderr_k, 0.0);
  s.fit.k += 2.0 * s.fit.stderr_k;
  EXPECT_NE(check_sweep_fit(s), "");
}

TEST(SweepCheck, CatchesAWrongChi2) {
  wc::SweepResult s = fitted_sweep("spark", 0.00902, 0.002);
  s.fit.chi2 *= 1.5;
  EXPECT_NE(check_sweep_fit(s), "");
}

TEST(Claims, LargestK) {
  std::vector<wc::SweepResult> sweeps = {fitted_sweep("h2", 0.003, 0.0),
                                         fitted_sweep("spark", 0.009, 0.0),
                                         fitted_sweep("xalan", 0.006, 0.0)};
  EXPECT_EQ(check_largest_k(sweeps, "spark"), "");
  sweeps[2] = fitted_sweep("xalan", 0.012, 0.0);
  EXPECT_NE(check_largest_k(sweeps, "spark"), "");
}

TEST(Claims, MostDamaging) {
  wc::RankingMatrix m({"smp_mb", "read_once", "wmb", "read_barrier_depends"},
                      {"a", "b"});
  const double rows[][2] = {{0.6, 0.7}, {0.3, 0.4}, {1.0, 1.0}, {0.5, 0.5}};
  const char* names[] = {"smp_mb", "read_once", "wmb", "read_barrier_depends"};
  for (int i = 0; i < 4; ++i) {
    m.set(names[i], "a", rows[i][0]);
    m.set(names[i], "b", rows[i][1]);
  }
  const std::vector<std::string> top = {"read_once", "read_barrier_depends",
                                        "smp_mb"};
  EXPECT_EQ(check_ranking_ends(m.aggregate_by_code_path(), top, {"wmb"}), "");
  EXPECT_EQ(check_ranking_ends(m.aggregate_by_benchmark(), {"a"}, {"b"}), "");
  EXPECT_NE(check_ranking_ends(m.aggregate_by_benchmark(), {"b"}, {}), "");
  m.set("wmb", "a", 0.1);
  m.set("wmb", "b", 0.1);
  EXPECT_NE(check_ranking_ends(m.aggregate_by_code_path(), top, {}), "");
}

TEST(Claims, ComparisonInsideItsBounds) {
  wc::Comparison c{0.9, 0.85, 0.95, 0.02};
  EXPECT_EQ(check_comparison(c), "");
  c.value = 0.97;
  EXPECT_NE(check_comparison(c), "");
}

ws::LitmusTest suite_test(const std::string& name) {
  for (const ws::LitmusCase& c : ws::litmus_suite()) {
    if (c.test.name == name) return c.test;
  }
  ADD_FAILURE() << "no suite test " << name;
  return {};
}

struct Solved {
  wy::SynthProblem problem;
  wy::SynthOptions options;
  wy::SynthResult result;
};

Solved solve_mp_on_power() {
  Solved s;
  const ws::LitmusTest mp = suite_test("MP");
  s.problem = wy::make_problem(mp, ws::Arch::POWER7,
                               wy::sc_forbidden_outcomes(mp, ws::Arch::POWER7));
  s.result = wy::synthesize(s.problem, s.options);
  return s;
}

TEST(SynthCheck, AcceptsTheSearchsAnswer) {
  const Solved s = solve_mp_on_power();
  ASSERT_TRUE(s.result.feasible);
  ASSERT_LE(assignment_count(s.problem), 4096u);
  EXPECT_EQ(check_synthesis(s.problem, s.options, s.result, 4096), "");
}

TEST(SynthCheck, CatchesAPlacementWithOneFenceRemoved) {
  Solved s = solve_mp_on_power();
  ASSERT_TRUE(s.result.feasible);
  bool removed = false;
  for (ws::FenceKind& k : s.result.best.kinds) {
    if (k != ws::FenceKind::None) {
      k = ws::FenceKind::None;
      removed = true;
      break;
    }
  }
  ASSERT_TRUE(removed);
  EXPECT_NE(check_placement(s.problem, s.result.best), "");
  EXPECT_NE(check_synthesis(s.problem, s.options, s.result, 4096), "");
}

TEST(SynthCheck, CatchesAnAnswerThatIsNotTheCheapest) {
  Solved s = solve_mp_on_power();
  ASSERT_TRUE(s.result.feasible);
  // Every slot at its menu's strongest fence: correct, but not minimal.
  for (std::size_t i = 0; i < s.problem.slots.size(); ++i) {
    s.result.best.kinds[i] = s.problem.slots[i].menu.back();
  }
  s.result.cost_ns =
      wy::assignment_cost_ns(s.problem, s.result.best, s.options.cost);
  ASSERT_EQ(check_placement(s.problem, s.result.best), "");
  EXPECT_NE(check_synthesis(s.problem, s.options, s.result, 4096), "");
}

TEST(SynthCheck, CatchesAFalseInfeasibleVerdict) {
  Solved s = solve_mp_on_power();
  s.result.feasible = false;
  EXPECT_NE(check_synthesis(s.problem, s.options, s.result, 4096), "");
}

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::current_path() /
            ("perfbench-test-store-" + std::to_string(::getpid()));
    std::filesystem::remove_all(root_);
    wmm::platform::register_builtin_platforms();
    platform_ = wmm::platform::make_platform("cxx11", ws::Arch::ARMV8);
    config_.sites = {platform_->site_ids().front()};
    config_.benchmarks = {platform_->benchmarks().front()};
    config_.runs = wc::RunOptions{0, 1};
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  wmm::cache::CacheConfig cache_config() const {
    wmm::cache::CacheConfig c;
    c.root = root_.string();
    return c;
  }

  // Requests the one-cell ranking from the store; returns the warm check.
  std::string warm_check() {
    wmm::cache::ResultCache store(cache_config());
    wc::SensitivityStudy study(*platform_, 1);
    study.set_cache(&store);
    const wmm::cache::CacheStats before = store.stats();
    (void)study.ranking(config_);
    return check_warm_store(before, store.stats(), 1);
  }

  std::filesystem::path root_;
  std::unique_ptr<wmm::platform::Platform> platform_;
  wc::RankingStudyConfig config_;
};

TEST_F(StoreTest, AcceptsAWarmStore) {
  {
    wmm::cache::ResultCache store(cache_config());
    wc::SensitivityStudy study(*platform_, 1);
    study.set_cache(&store);
    (void)study.ranking(config_);
  }
  EXPECT_EQ(warm_check(), "");
}

TEST_F(StoreTest, CatchesAFlippedByteInAStoredAnswer) {
  {
    wmm::cache::ResultCache store(cache_config());
    wc::SensitivityStudy study(*platform_, 1);
    study.set_cache(&store);
    (void)study.ranking(config_);
  }
  int flipped = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(root_)) {
    if (!entry.is_regular_file() || entry.file_size() < 8) continue;
    std::fstream f(entry.path(), std::ios::in | std::ios::out | std::ios::binary);
    const std::streamoff at = static_cast<std::streamoff>(entry.file_size() / 2);
    f.seekg(at);
    char c = 0;
    f.get(c);
    f.seekp(at);
    f.put(static_cast<char>(c ^ 0x20));
    ++flipped;
  }
  ASSERT_GT(flipped, 0);
  EXPECT_NE(warm_check(), "");
}

TEST(Spans, SelfTimeSubtractsSameThreadChildren) {
  std::vector<Span> spans(3);
  spans[0] = {0, -1, 0, "core.sweep_sensitivity", 0.0, 10.0, 0};
  spans[1] = {1, 0, 0, "workloads.run_once", 1.0, 4.0, 0};
  spans[2] = {2, 0, 0, "workloads.run_once", 5.0, 9.0, 1};  // other thread
  const SpanTotals t = span_totals(spans);
  EXPECT_DOUBLE_EQ(t.inclusive_s.at("workloads.run_once"), 7.0);
  EXPECT_DOUBLE_EQ(t.self_s.at("core.sweep_sensitivity"), 7.0);
  EXPECT_EQ(t.calls.at("workloads.run_once"), 2);
}

TEST(Spans, RecorderKeepsParentsAndCells) {
  const SpanRecorder recorder;
  {
    const ScopedSpan outer("core.cell", 7);
    const ScopedSpan inner("workloads.run_once");
  }
  const std::vector<Span> spans = recorder.collect();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[1].cell, 7);
  EXPECT_LE(spans[0].start, spans[1].start);
  EXPECT_LE(spans[1].end, spans[0].end);
}

}  // namespace
