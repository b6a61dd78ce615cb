// perfbench: shared pieces of the three workloads — options, the
// request log, the benchmark's own span recorder, and the result record
// that report.cc prints.
//
// Every workload is a closed loop: one operator (or epoch clock) issues a
// request, waits for its answer, checks nothing inside the timed interval,
// and only then issues the next one.  Each workload fills a RunResult;
// report.cc turns it into the human-readable tables and the final JSON
// line.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // Chrome-trace JSON written at exit when tracing
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline double MsSince(int64_t t0_ns) { return double(NowNs() - t0_ns) / 1e6; }

// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupReps = 11;

// A run issues a fixed number of requests: `per_second` for every second
// of --seconds, sized so that a run takes about --seconds on the reference
// machine (README.md).  Every commit then does the same work and ends in
// the same state, which matters for the workloads whose state grows.  A
// wall-clock cap of 2 x --seconds bounds a run of a much slower commit.
struct Budget {
  size_t requests = 0;
  int64_t cap_ns = 0;  // NowNs() past which no further request starts

  Budget(const Options& opt, double per_second)
      : requests(size_t(per_second * opt.seconds + 0.5)),
        cap_ns(NowNs() + int64_t(2e9 * opt.seconds)) {}
  bool More(size_t issued) const { return issued < requests && NowNs() < cap_ns; }
};

// --- Span recorder ---
//
// Spans are recorded only inside traced requests: a span inherits the
// request id of its context, and request id 0 means "untraced", so an
// untraced request costs one thread-local read per span site.  Spans on
// other threads take their context explicitly (SpanCtx), everything else
// nests under the thread's innermost open span.  Spans stay in memory
// (one buffer per thread) until the run ends.
struct SpanCtx {
  uint32_t parent = 0;
  uint32_t request = 0;  // 0 = untraced
};

struct SpanRecord {
  const char* name = "";  // string literal; the layer is the text before '.'
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t id = 0;
  uint32_t parent = 0;
  uint32_t request = 0;
  uint32_t thread = 0;
};

// The calling thread's current context (innermost open span).
SpanCtx CurrentSpanCtx();

class Span {
 public:
  // Child of the calling thread's innermost open span.
  explicit Span(const char* name) : Span(name, CurrentSpanCtx()) {}
  Span(const char* name, SpanCtx ctx);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Context for work this span causes on another thread.
  SpanCtx ctx() const { return SpanCtx{id_, request_}; }

 private:
  const char* name_;
  int64_t start_ns_ = 0;
  uint32_t id_ = 0;
  uint32_t parent_ = 0;
  uint32_t request_ = 0;
  SpanCtx saved_;
};

// Every span recorded so far, from all threads.  Call only once the
// threads that record spans are quiescent.
std::vector<SpanRecord> CollectSpans();

// --- Results ---

// One named per-layer figure (see the table in report.cc).
using LayerValues = std::map<std::string, double>;

struct RunResult {
  std::string workload;
  bool correct = true;
  uint64_t attempted = 0;  // requests issued in the timed loop
  uint64_t failed = 0;     // requests whose answer or gate failed
  std::vector<std::string> failures;  // one line per failed check

  std::vector<double> setup_s;       // one per set-up repetition
  std::vector<double> latency_ms;    // per request, in issue order
  std::vector<bool> traced;          // per request (trace runs interleave)
  double loop_seconds = 0;           // sum of timed request intervals
  double peak_rss_mb = 0;            // VmHWM right after the timed loop
  LayerValues layers;                // filled in traced runs
  std::string notes;                 // workload-specific lines for the report

  void Fail(const std::string& why) {
    correct = false;
    failures.push_back(why);
  }
};

// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMb();

// Nearest-rank quantile of `v` (copied and sorted).
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);

// Durations (ms) of every recorded span, by span name.
using SpanDurations = std::map<std::string, std::vector<double>>;
SpanDurations SpanDurationsMs(const std::vector<SpanRecord>& spans);
// Median duration (ms) of the spans named `name`; 0 when there are none.
double MedianMs(const SpanDurations& durations, const std::string& name);

// Adds self time per layer (self.<layer>_ms, per traced request) to `r`.
void AddSelfTimes(const std::vector<SpanRecord>& spans, RunResult& r);

// Prints the report and the final JSON line; returns the exit code.
int Report(const Options& opt, RunResult& r);

// Writes `spans` as a Chrome trace (chrome://tracing) to `path`.
void WriteChromeTrace(const std::string& path, const std::vector<SpanRecord>& spans);

// Workloads.
RunResult RunPollSession(const Options& opt);
RunResult RunStandingShm(const Options& opt);
RunResult RunDatapathAlarms(const Options& opt);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
