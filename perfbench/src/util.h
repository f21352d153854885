// Shared plumbing of the benchmark: clocks, operation accounting, the
// in-memory span recorder of the traced run, counter deltas and the result
// line.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/counters.h"

namespace perfbench {

double now_s();           // steady clock, seconds
double process_cpu_s();   // CPU time of the whole process, seconds
double peak_rss_mib();    // high-water resident set of the process
int worker_threads();     // CPUs this process may run on, at most 4

// Deterministic 64-bit mixer for deriving inputs from --seed.
std::uint64_t mix64(std::uint64_t x);

double median(std::vector<double> values);

// Operations attempted and failed.  A failed check marks its operation
// failed and the run goes on; the first few failures are described on
// stderr.
class Ops {
 public:
  // Counts one operation, failed unless `ok`.
  void check(bool ok, const std::string& what);
  // Counts `n` operations of which `failed` failed.
  void add(long long n, long long failed, const std::string& what);
  long long attempted() const { return attempted_; }
  long long failed() const { return failed_; }

 private:
  long long attempted_ = 0;
  long long failed_ = 0;
};

// Metric name -> (value, unit), printed in name order.
struct Metrics {
  std::map<std::string, std::pair<double, std::string>> values;
  void set(const std::string& name, double value, const std::string& unit) {
    values[name] = {value, unit};
  }
};

// Prints the benchmark's one-line JSON result on stdout.
void print_result(bool correct, const Ops& ops, const Metrics& metrics);

// Counter deltas of obs::counters() between two points of the run.
class CounterDelta {
 public:
  CounterDelta();  // snapshots now
  // Delta of every additive counter since construction.  Gauges are left
  // out: a high-water mark is absolute, so it depends on earlier work.
  std::map<std::string, std::uint64_t> finish() const;

 private:
  std::vector<wmm::obs::CounterRegistry::Entry> before_;
};

// Sum of the deltas whose name starts with `prefix`.
std::uint64_t sum_prefix(const std::map<std::string, std::uint64_t>& deltas,
                         const std::string& prefix);
// Deltas restricted to names starting with `prefix`.
std::map<std::string, std::uint64_t> only_prefix(
    const std::map<std::string, std::uint64_t>& deltas,
    const std::string& prefix);
// The timing machine's events: fences executed, stores buffered and bus
// transactions.
std::uint64_t sim_events(const std::map<std::string, std::uint64_t>& deltas);

// --- Traced run ---------------------------------------------------------

// One span: a call into a module, with the span that caused it.  Spans of
// one study cell (or program, or problem) share `cell`.
struct Span {
  std::int64_t id = 0;
  std::int64_t parent = -1;
  int cell = -1;
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  int thread = 0;
};

// Spans are kept in per-thread buffers in memory while recording and
// collected when the traced pass ends.  Only one recording is active at a
// time.
class SpanRecorder {
 public:
  SpanRecorder();
  ~SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  // All spans recorded so far, sorted by id.
  std::vector<Span> collect() const;
  // Writes the spans as a Chrome trace-event JSON file.
  bool write_chrome_trace(const std::string& path) const;
};

// Opens a span on the calling thread for its lifetime.  `parent` < 0 means
// the innermost open span of this thread.  A no-op when no SpanRecorder is
// alive.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int cell = -1,
                      std::int64_t parent = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int64_t id() const { return id_; }

 private:
  std::int64_t id_ = -1;
  std::size_t slot_ = 0;
};

// Per-name totals of a span list.
struct SpanTotals {
  std::map<std::string, double> inclusive_s;
  std::map<std::string, double> self_s;  // minus the time of child spans
  std::map<std::string, long long> calls;

  // Lookups that read 0 for a name with no spans.
  double inclusive(const std::string& name) const { return at(inclusive_s, name); }
  double self(const std::string& name) const { return at(self_s, name); }
  double count(const std::string& name) const {
    const auto it = calls.find(name);
    return it == calls.end() ? 0.0 : static_cast<double>(it->second);
  }

 private:
  static double at(const std::map<std::string, double>& m, const std::string& name) {
    const auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second;
  }
};
SpanTotals span_totals(const std::vector<Span>& spans);

}  // namespace perfbench
