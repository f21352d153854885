// Workload `cache-warm`: the figure studies and the litmus fuzz corpora
// answered from a filled result store, fresh corpora published beside the
// reads, and the store deleted at the end.
#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <optional>
#include <set>

#include "checks.h"
#include "platform/platform.h"
#include "workloads.h"

namespace perfbench {

namespace fs = std::filesystem;
namespace wc = wmm::cache;

namespace {

// Fresh programs per architecture published in each round.
constexpr int kFreshPerArch = 250;

struct Round {
  double study_s = 0.0, fuzz_s = 0.0, fill_s = 0.0;
  wc::CacheStats delta;       // store statistics over the round (no bytes)
  std::uint64_t store_bytes = 0;  // tracked store size after the round
  std::uint64_t answers = 0;  // study cells plus fuzz programs looked up
  std::vector<FanOutResult> study;
  std::vector<wmm::sim::FuzzReport> fuzz, fresh;
  double wall_s() const { return study_s + fuzz_s + fill_s; }
};

std::uint64_t store_hits(const std::vector<wmm::sim::FuzzReport>& reports) {
  std::uint64_t n = 0;
  for (const auto& r : reports) n += static_cast<std::uint64_t>(r.store_hits);
  return n;
}

std::uint64_t memo_misses(const std::vector<wmm::sim::FuzzReport>& reports) {
  std::uint64_t n = 0;
  for (const auto& r : reports) n += static_cast<std::uint64_t>(r.memo_misses);
  return n;
}

wc::CacheConfig store_config(const std::string& root) {
  wc::CacheConfig config;
  config.root = root;
  config.max_bytes = 1ull << 30;  // large enough that nothing is evicted
  return config;
}

// Writes the store's files back to disk, so that writeback of earlier work
// does not land in the timed legs.
void flush(const std::string& root) {
  const int fd = ::open(root.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
}

// Every regular file under the store's root.
std::set<fs::path> store_files(const std::string& root) {
  std::set<fs::path> out;
  for (const auto& e : fs::recursive_directory_iterator(root)) {
    if (e.is_regular_file()) out.insert(e.path());
  }
  return out;
}

struct Reference {
  std::vector<FanOut> fanouts;
  std::vector<FanOutResult> study;  // answers computed while filling
  std::vector<wmm::sim::FuzzReport> fuzz;
  std::uint64_t fuzz_base = 0;
  int threads = 1;
};

// One round against the filled store: warm study answers, warm corpora, and
// fresh corpora from `fresh_base` published into it.  Checks every answer
// against the set-up's.
Round run_round(wc::ResultCache& store, const Reference& ref,
                std::uint64_t fresh_base, Ops& ops) {
  Round r;
  const wc::CacheStats s0 = store.stats();
  double t = now_s();
  {
    ScopedSpan span("cache.warm_study");
    for (const FanOut& f : ref.fanouts) {
      r.study.push_back(run_fanout(f, ref.threads, &store));
    }
  }
  r.study_s = now_s() - t;
  const wc::CacheStats s1 = store.stats();
  t = now_s();
  {
    ScopedSpan span("cache.warm_fuzz");
    r.fuzz = run_fuzz_corpora(ref.fuzz_base, kFuzzPerArch, ref.threads, &store);
  }
  r.fuzz_s = now_s() - t;
  const wc::CacheStats s2 = store.stats();
  t = now_s();
  {
    ScopedSpan span("cache.fill");
    r.fresh = run_fuzz_corpora(fresh_base, kFreshPerArch, ref.threads, &store);
  }
  r.fill_s = now_s() - t;
  const wc::CacheStats s3 = store.stats();
  r.delta.hits = s3.hits - s0.hits;
  r.delta.misses = s3.misses - s0.misses;
  r.delta.writes = s3.writes - s0.writes;
  r.delta.evictions = s3.evictions - s0.evictions;
  r.delta.corrupt = s3.corrupt - s0.corrupt;
  r.store_bytes = s3.bytes;

  // Warm study answers: byte-equal to the set-up's, all from the store.
  std::uint64_t cells = 0;
  for (std::size_t i = 0; i < ref.fanouts.size(); ++i) {
    const auto& got = r.study[i].records;
    const auto& want = ref.study[i].records;
    cells += want.size();
    for (std::size_t j = 0; j < want.size(); ++j) {
      ops.check(j < got.size() && got[j] == want[j],
                ref.fanouts[i].figure +
                    ": warm answer differs from the computed one");
    }
  }
  const std::string study_store = check_warm_store(s0, s1, cells);
  ops.check(study_store.empty(), "warm study: " + study_store);
  // Warm corpora: the same reports, every distinct program from the store.
  const std::uint64_t published = memo_misses(ref.fuzz);
  for (std::size_t a = 0; a < ref.fuzz.size(); ++a) {
    const bool same = a < r.fuzz.size() &&
                      fuzz_record(r.fuzz[a]) == fuzz_record(ref.fuzz[a]);
    ops.add(kFuzzPerArch, same ? 0 : kFuzzPerArch,
            "warm fuzz corpus differs from the computed one");
  }
  const std::string fuzz_store = check_warm_store(s1, s2, published);
  ops.check(fuzz_store.empty() && store_hits(r.fuzz) == published &&
                memo_misses(r.fuzz) == 0,
            "warm fuzz: " + fuzz_store);
  r.answers = cells + published;
  // Fresh corpora: conformant, and every checked program published.
  check_fuzz(r.fresh, kFreshPerArch, ops);
  const std::uint64_t writes = s3.writes - s2.writes;
  ops.check(writes == memo_misses(r.fresh) && r.delta.evictions == 0 &&
                r.delta.corrupt == 0,
            "fresh fuzz: " + std::to_string(writes) + " writes for " +
                std::to_string(memo_misses(r.fresh)) + " checked programs");
  return r;
}

// Everything a round reports except timings and the store's byte count (the
// store tracks bytes lazily from its first write, so that count depends on
// earlier rounds).
std::vector<std::string> round_records(const Round& r) {
  std::vector<std::string> out;
  for (const FanOutResult& f : r.study) {
    out.insert(out.end(), f.records.begin(), f.records.end());
  }
  for (const auto* reports : {&r.fuzz, &r.fresh}) {
    for (const auto& report : *reports) out.push_back(fuzz_record(report));
  }
  out.push_back(std::to_string(r.delta.hits) + '|' +
                std::to_string(r.delta.misses) + '|' +
                std::to_string(r.delta.writes));
  return out;
}

// Deletes a store; returns the seconds it took.
double delete_store(const std::string& root, Ops& ops) {
  const double t = now_s();
  {
    ScopedSpan span("cache.delete");
    fs::remove_all(root);
  }
  const double s = now_s() - t;
  ops.check(!fs::exists(root), "store directory survived deletion");
  return s;
}

}  // namespace

WorkloadResult run_cache_warm(const RunArgs& args) {
  WorkloadResult out;
  wmm::platform::register_builtin_platforms();
  Reference ref;
  ref.fanouts = figure_fanouts();
  ref.threads = worker_threads();
  ref.fuzz_base = mix64(args.seed);
  const std::uint64_t fresh_base = mix64(ref.fuzz_base ^ 0xf1e5ULL);
  const std::string root =
      args.scratch + "/store-" + std::to_string(::getpid());
  fs::remove_all(root);

  // Set-up: fill a fresh store with the figure cells and the fuzz corpora.
  // The answers computed here are the reference for the warm legs.
  const double setup_start = now_s();
  {
    wc::ResultCache store(store_config(root));
    for (const FanOut& f : ref.fanouts) {
      ref.study.push_back(run_fanout(f, ref.threads, &store));
    }
    ref.fuzz = run_fuzz_corpora(ref.fuzz_base, kFuzzPerArch, ref.threads, &store);
  }
  const double setup_s = now_s() - setup_start;
  check_fuzz(ref.fuzz, kFuzzPerArch, out.ops);

  // Every round starts from the filled store: after a round, the entries it
  // published are removed and the store is flushed (untimed), so each round
  // does the same work.  Only the first round's answers are kept.
  const std::set<fs::path> filled = store_files(root);
  Round plain;
  std::vector<double> walls;
  wc::ResultCache store(store_config(root));
  auto round = [&] {
    flush(root);
    Round r = run_round(store, ref, fresh_base, out.ops);
    for (const fs::path& p : store_files(root)) {
      if (!filled.count(p)) fs::remove(p);
    }
    return r;
  };
  const double run_start = now_s();
  do {
    Round r = round();
    walls.push_back(r.wall_s());
    if (walls.size() == 1) plain = std::move(r);
  } while (!args.trace && now_s() - run_start < args.seconds);

  Round traced;
  double delete_s = 0.0;
  {
    std::optional<SpanRecorder> recorder;
    if (args.trace) {
      // Traced pass: one more round, with spans, on the same store state.
      recorder.emplace();
      traced = round();
    }
    delete_s = delete_store(root, out.ops);
    if (recorder) {
      recorder->write_chrome_trace(args.scratch + "/trace-" + args.workload + ".json");
    }
  }
  if (!args.trace) {
    out.metrics.set("setup_s", setup_s, "s");
    out.metrics.set("wall_s", median(walls), "s");
    out.metrics.set("peak_rss_mib", peak_rss_mib(), "MiB");
    return out;
  }
  out.ops.check(round_records(traced) == round_records(plain),
                "cache-warm: traced records differ from untraced");

  const double warm_s = plain.study_s + plain.fuzz_s;
  Metrics& m = out.metrics;
  m.set("cache.warm_study_s", plain.study_s, "s");
  m.set("cache.warm_fuzz_s", plain.fuzz_s, "s");
  m.set("cache.fill_s", plain.fill_s, "s");
  m.set("cache.delete_s", delete_s, "s");
  m.set("cache.hits", static_cast<double>(plain.delta.hits), "count");
  m.set("cache.misses", static_cast<double>(plain.delta.misses), "count");
  m.set("cache.writes", static_cast<double>(plain.delta.writes), "count");
  m.set("cache.corrupt", static_cast<double>(plain.delta.corrupt), "count");
  m.set("cache.evictions", static_cast<double>(plain.delta.evictions), "count");
  m.set("cache.bytes", static_cast<double>(plain.store_bytes), "bytes");
  m.set("cache.hit_ratio",
        static_cast<double>(plain.delta.hits) /
            static_cast<double>(std::max<std::uint64_t>(1, plain.delta.hits + plain.delta.misses)),
        "ratio");
  m.set("cache.us_per_hit", warm_s * 1e6 / static_cast<double>(std::max<std::uint64_t>(1, plain.answers)), "us");
  m.set("hits_per_s", static_cast<double>(plain.answers) / warm_s, "answers/s");
  m.set("fills_per_s", static_cast<double>(memo_misses(plain.fresh)) / plain.fill_s, "entries/s");
  m.set("trace.overhead", traced.wall_s() / plain.wall_s() - 1.0, "ratio");
  return out;
}

}  // namespace perfbench
