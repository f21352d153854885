#include "util.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int worker_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  int n = 1;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) n = CPU_COUNT(&set);
  return std::clamp(n, 1, 4);
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void Ops::check(bool ok, const std::string& what) { add(1, ok ? 0 : 1, what); }

void Ops::add(long long n, long long failed, const std::string& what) {
  attempted_ += n;
  if (failed > 0 && failed_ < 20) {
    std::fprintf(stderr, "perfbench: check failed: %s (%lld of %lld)\n",
                 what.c_str(), failed, n);
  }
  failed_ += failed;
}

void print_result(bool correct, const Ops& ops, const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(ops.attempted());
  out += ", \"failed\": " + std::to_string(ops.failed());
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, entry] : metrics.values) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(entry.first) ? entry.first : 0.0);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           entry.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

CounterDelta::CounterDelta()
    : before_(wmm::obs::counters().snapshot(/*include_zero=*/true)) {}

std::map<std::string, std::uint64_t> CounterDelta::finish() const {
  std::map<std::string, std::uint64_t> out;
  for (const auto& e : wmm::obs::snapshot_delta(
           before_, wmm::obs::counters().snapshot(/*include_zero=*/true))) {
    if (!e.is_gauge) out[e.name] = e.value;
  }
  return out;
}

std::uint64_t sum_prefix(const std::map<std::string, std::uint64_t>& deltas,
                         const std::string& prefix) {
  std::uint64_t sum = 0;
  for (auto it = deltas.lower_bound(prefix);
       it != deltas.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    sum += it->second;
  }
  return sum;
}

std::map<std::string, std::uint64_t> only_prefix(
    const std::map<std::string, std::uint64_t>& deltas,
    const std::string& prefix) {
  std::map<std::string, std::uint64_t> out;
  for (auto it = deltas.lower_bound(prefix);
       it != deltas.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    out.insert(*it);
  }
  return out;
}

std::uint64_t sim_events(const std::map<std::string, std::uint64_t>& deltas) {
  auto at = [&](const char* name) {
    const auto it = deltas.find(name);
    return it == deltas.end() ? std::uint64_t{0} : it->second;
  };
  return sum_prefix(deltas, "sim.fence.") + at("sim.sb.stores") +
         at("sim.bus.transactions");
}

// --- Span recorder ---------------------------------------------------------

namespace {

struct OpenSpan {
  std::int64_t id;
  int cell;
};

struct ThreadBuffer {
  int thread = 0;
  std::vector<Span> spans;
  std::vector<OpenSpan> open;
};

std::mutex g_mutex;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by g_mutex
std::uint64_t g_last_epoch = 0;                         // guarded by g_mutex
std::atomic<std::uint64_t> g_epoch{0};  // 0 while no recorder is alive
std::atomic<std::int64_t> g_next_id{0};

thread_local ThreadBuffer* t_buffer = nullptr;
thread_local std::uint64_t t_epoch = 0;

ThreadBuffer* thread_buffer() {
  const std::uint64_t epoch = g_epoch.load(std::memory_order_acquire);
  if (epoch == 0) return nullptr;
  if (t_epoch != epoch) {
    std::lock_guard<std::mutex> lock(g_mutex);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    g_buffers.back()->thread = static_cast<int>(g_buffers.size()) - 1;
    t_buffer = g_buffers.back().get();
    t_epoch = epoch;
  }
  return t_buffer;
}

}  // namespace

SpanRecorder::SpanRecorder() {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_buffers.clear();
  g_next_id.store(0);
  g_epoch.store(++g_last_epoch, std::memory_order_release);
}

SpanRecorder::~SpanRecorder() {
  g_epoch.store(0, std::memory_order_release);
  std::lock_guard<std::mutex> lock(g_mutex);
  g_buffers.clear();
}

std::vector<Span> SpanRecorder::collect() const {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(g_mutex);
  for (const auto& b : g_buffers) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  }
  std::sort(out.begin(), out.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return out;
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  const std::vector<Span> spans = collect();
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const double t0 = spans.empty() ? 0.0 : spans.front().start;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    char line[256];
    std::snprintf(line, sizeof line,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                  "\"parent\":%lld,\"cell\":%d}}",
                  i ? "," : "", s.name, s.thread, (s.start - t0) * 1e6,
                  (s.end - s.start) * 1e6, static_cast<long long>(s.id),
                  static_cast<long long>(s.parent), s.cell);
    out << line;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(const char* name, int cell, std::int64_t parent) {
  ThreadBuffer* b = thread_buffer();
  if (b == nullptr) return;
  Span s;
  s.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  s.parent = parent >= 0 ? parent : (b->open.empty() ? -1 : b->open.back().id);
  s.cell = cell >= 0 ? cell : (b->open.empty() ? -1 : b->open.back().cell);
  s.name = name;
  s.thread = b->thread;
  slot_ = b->spans.size();
  id_ = s.id;
  b->open.push_back({s.id, s.cell});
  b->spans.push_back(s);
  b->spans.back().start = now_s();
}

ScopedSpan::~ScopedSpan() {
  if (id_ < 0) return;
  const double end = now_s();
  t_buffer->spans[slot_].end = end;
  t_buffer->open.pop_back();
}

SpanTotals span_totals(const std::vector<Span>& spans) {
  // Self time subtracts children that ran on the same thread; children of a
  // fan-out run on pool workers in parallel and are not nested in time.
  std::unordered_map<std::int64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<double> child_s(spans.size(), 0.0);
  for (const Span& s : spans) {
    const auto it = index.find(s.parent);
    if (it != index.end() && spans[it->second].thread == s.thread) {
      child_s[it->second] += s.end - s.start;
    }
  }
  SpanTotals totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    totals.inclusive_s[s.name] += s.end - s.start;
    totals.self_s[s.name] += s.end - s.start - child_s[i];
    totals.calls[s.name] += 1;
  }
  return totals;
}

}  // namespace perfbench
