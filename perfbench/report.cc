// perfbench: span recorder, statistics, and the report (tables + the final
// JSON line).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "perfbench/bench.h"

namespace perfbench {

// --- Span recorder ---

namespace {

struct ThreadBuffer {
  uint32_t thread = 0;
  std::vector<SpanRecord> spans;
};

std::mutex g_buffers_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by g_buffers_mu
std::atomic<uint32_t> g_next_span_id{1};

thread_local SpanCtx t_ctx;
thread_local ThreadBuffer* t_buffer = nullptr;

ThreadBuffer& LocalBuffer() {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    t_buffer = g_buffers.back().get();
    t_buffer->thread = uint32_t(g_buffers.size());
  }
  return *t_buffer;
}

}  // namespace

SpanCtx CurrentSpanCtx() { return t_ctx; }

Span::Span(const char* name, SpanCtx ctx) : name_(name), saved_(t_ctx) {
  if (ctx.request == 0) {
    return;
  }
  id_ = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = ctx.parent;
  request_ = ctx.request;
  t_ctx = SpanCtx{id_, request_};
  start_ns_ = NowNs();
}

Span::~Span() {
  if (request_ == 0) {
    return;
  }
  const int64_t end = NowNs();
  ThreadBuffer& buf = LocalBuffer();
  buf.spans.push_back(SpanRecord{name_, start_ns_, end, id_, parent_, request_, buf.thread});
  t_ctx = saved_;
}

std::vector<SpanRecord> CollectSpans() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::vector<SpanRecord> out;
  for (const auto& buf : g_buffers) {
    out.insert(out.end(), buf->spans.begin(), buf->spans.end());
  }
  return out;
}

// --- Statistics ---

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t rank = size_t(std::ceil(q * double(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0;
}

SpanDurations SpanDurationsMs(const std::vector<SpanRecord>& spans) {
  SpanDurations out;
  for (const SpanRecord& s : spans) {
    out[s.name].push_back(double(s.end_ns - s.start_ns) / 1e6);
  }
  return out;
}

double MedianMs(const SpanDurations& durations, const std::string& name) {
  auto it = durations.find(name);
  return it == durations.end() ? 0 : Median(it->second);
}

void AddSelfTimes(const std::vector<SpanRecord>& spans, RunResult& r) {
  // A span's self time is its duration minus the union of its children's
  // intervals (clipped to it): parallel children on worker threads are
  // counted once.
  std::map<uint32_t, std::vector<const SpanRecord*>> children;
  std::set<uint32_t> requests;
  for (const SpanRecord& s : spans) {
    children[s.parent].push_back(&s);
    requests.insert(s.request);
  }
  std::map<std::string, double> self_ms;
  for (const char* layer : {"bench", "controller", "edge", "transport"}) {
    self_ms[layer] = 0;
  }
  for (const SpanRecord& s : spans) {
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (const SpanRecord* c : children[s.id]) {
      iv.emplace_back(std::max(c->start_ns, s.start_ns), std::min(c->end_ns, s.end_ns));
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_lo = 0, cur_hi = -1;
    for (auto [lo, hi] : iv) {
      if (hi <= lo) {
        continue;
      }
      if (lo > cur_hi) {
        covered += cur_hi > cur_lo ? cur_hi - cur_lo : 0;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    covered += cur_hi > cur_lo ? cur_hi - cur_lo : 0;
    const std::string name = s.name;
    const std::string layer = name.substr(0, name.find('.'));
    self_ms[layer] += double(s.end_ns - s.start_ns - covered) / 1e6;
  }
  const double n = double(std::max<size_t>(requests.size(), 1));
  for (const auto& [layer, ms] : self_ms) {
    r.layers["self." + layer + "_ms"] = ms / n;
  }
}

void WriteChromeTrace(const std::string& path, const std::vector<SpanRecord>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("note: cannot write trace %s\n", path.c_str());
    return;
  }
  int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (const SpanRecord& s : spans) {
    t0 = std::min(t0, s.start_ns);
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%u,\"parent\":%u,\"request\":%u}}%s\n",
                 s.name, s.thread, double(s.start_ns - t0) / 1e3,
                 double(s.end_ns - s.start_ns) / 1e3, s.id, s.parent, s.request,
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("trace: %zu spans written to %s\n", spans.size(), path.c_str());
}

// --- Report ---

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
  const char* workload;  // the workload that exercises it ("all" = every one)
  const char* moves;     // end-to-end metric(s) it should move
};

// Every per-layer metric, with the workload that exercises it and the
// end-to-end metric it should move.  A workload reports 0 for the layers
// it bypasses by design.
const LayerMetric kLayerMetrics[] = {
    {"edge.query.topk_host_ms", "ms", "poll_session", "p50_ms tail_ms throughput_per_s"},
    {"edge.query.fsd_host_ms", "ms", "poll_session", "p50_ms tail_ms throughput_per_s"},
    {"edge.query.count_host_ms", "ms", "poll_session", "p50_ms tail_ms throughput_per_s"},
    {"edge.query.flows_host_ms", "ms", "poll_session", "p50_ms tail_ms throughput_per_s"},
    {"controller.poll.topk_ms", "ms", "poll_session", "p50_ms tail_ms throughput_per_s"},
    {"controller.poll.fsd_ms", "ms", "poll_session", "p50_ms tail_ms throughput_per_s"},
    {"controller.poll.count_ms", "ms", "poll_session", "p50_ms tail_ms throughput_per_s"},
    {"controller.poll.flows_ms", "ms", "poll_session", "p50_ms tail_ms throughput_per_s"},
    {"controller.poll.merge_ms", "ms", "poll_session", "p50_ms tail_ms throughput_per_s"},
    {"controller.poll.fanout_efficiency", "ratio", "poll_session", "throughput_per_s"},
    {"controller.poll.response_bytes", "bytes", "poll_session", "p50_ms"},
    {"transport.epoch_ack_ms", "ms", "standing_shm", "p50_ms tail_ms"},
    {"edge.shm.ingest_ms", "ms", "standing_shm", "p50_ms tail_ms"},
    {"edge.shm.epoch_tick_ms", "ms", "standing_shm", "p50_ms tail_ms"},
    {"controller.sub.flush_ms", "ms", "standing_shm datapath_alarms", "p50_ms tail_ms"},
    {"controller.sub.materialize_topk_ms", "ms", "standing_shm", "p50_ms tail_ms"},
    {"controller.sub.materialize_fsd_ms", "ms", "standing_shm", "p50_ms tail_ms"},
    {"controller.sub.materialize_flows_ms", "ms", "standing_shm", "p50_ms tail_ms"},
    {"controller.sub.materialize_count_ms", "ms", "standing_shm", "p50_ms tail_ms"},
    {"controller.sub.delta_bytes_per_epoch", "bytes", "standing_shm", "p50_ms tail_ms"},
    {"controller.sub.blocked_enqueue_ratio", "ratio", "standing_shm", "tail_ms"},
    {"transport.blocked_push_ratio", "ratio", "standing_shm", "tail_ms"},
    {"edge.tib.resident_mb_max", "MB", "standing_shm", "peak_rss_mb"},
    {"edge.tib.ceiling_mb", "MB", "standing_shm datapath_alarms", "peak_rss_mb"},
    {"edge.tib.evicted_records", "count", "standing_shm datapath_alarms", "peak_rss_mb"},
    {"edge.datapath.ns_per_packet", "ns", "datapath_alarms", "throughput_per_s"},
    {"edge.agent.tick_ms", "ms", "datapath_alarms", "p50_ms"},
    {"edge.trajectory_cache.hit_ratio", "ratio", "datapath_alarms", "p50_ms"},
    {"controller.alarm.submit_us_p50", "us", "datapath_alarms", "tail_ms"},
    {"controller.alarm.submit_us_p99", "us", "datapath_alarms", "tail_ms"},
    {"controller.alarm.flush_ms", "ms", "datapath_alarms", "tail_ms"},
    {"controller.alarm.blocked_enqueue_ratio", "ratio", "datapath_alarms", "tail_ms"},
    {"controller.sub.tick_ms", "ms", "datapath_alarms", "p50_ms"},
    {"edge.tib.resident_mb", "MB", "datapath_alarms", "peak_rss_mb"},
    {"drift_ratio", "ratio", "all", "tail_ms (state growth vs noise)"},
    {"self.bench_ms", "ms", "all", "p50_ms"},
    {"self.controller_ms", "ms", "all", "p50_ms"},
    {"self.edge_ms", "ms", "all", "p50_ms"},
    {"self.transport_ms", "ms", "all", "p50_ms"},
    {"trace.overhead_pct", "%", "all", "(traced minus untraced p50)"},
};

// Median of the last decile of requests over the median of the first.
double DriftRatio(const std::vector<double>& lat) {
  const size_t d = std::max<size_t>(lat.size() / 10, 1);
  if (lat.size() < 2 * d) {
    return 1.0;
  }
  std::vector<double> first(lat.begin(), lat.begin() + long(d));
  std::vector<double> last(lat.end() - long(d), lat.end());
  const double m0 = Median(first);
  return m0 > 0 ? Median(last) / m0 : 1.0;
}

void PrintMetric(const char* name, double value, const char* unit, bool last) {
  std::printf("\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}%s", name, value, unit,
              last ? "" : ", ");
}

}  // namespace

int Report(const Options& opt, RunResult& r) {
  if (!r.correct) {
    r.failed = std::max<uint64_t>(r.failed, 1);  // a failed end-of-run check
  }
  // Untraced requests only: in a traced run, the traced requests are the
  // per-layer sample and the untraced ones the overhead baseline.
  std::vector<double> lat;
  std::vector<double> traced_lat;
  for (size_t i = 0; i < r.latency_ms.size(); ++i) {
    (r.traced.size() > i && r.traced[i] ? traced_lat : lat).push_back(r.latency_ms[i]);
  }
  const double setup_s = Median(r.setup_s);
  const double p50 = Median(lat);
  // p90, which at --seconds 20 has 14 to 40 requests beyond it (the
  // median in runs too short for ten).  The highest percentile with ten
  // beyond (p93 to p98 here) spread past its bound between runs on a
  // shared machine, where single requests stall for the host's scheduler.
  const double tail_q = lat.size() >= 100 ? 0.90 : 0.5;
  const double tail = Quantile(lat, tail_q);
  const double throughput = r.loop_seconds > 0 ? double(r.latency_ms.size()) / r.loop_seconds : 0;
  const size_t beyond = size_t(std::count_if(lat.begin(), lat.end(), [&](double v) {
    return v > tail;
  }));
  r.layers["drift_ratio"] = DriftRatio(r.latency_ms);
  if (!traced_lat.empty() && p50 > 0) {
    r.layers["trace.overhead_pct"] = (Median(traced_lat) - p50) / p50 * 100.0;
  }

  std::printf("\n== %s: seed %llu, %.0f s, trace %d ==\n", r.workload.c_str(),
              (unsigned long long)opt.seed, opt.seconds, opt.trace ? 1 : 0);
  std::printf("%s", r.notes.c_str());
  std::printf("setup_s            %10.4f s   (median of %zu set-ups, %.4f to %.4f)\n", setup_s,
              r.setup_s.size(), Quantile(r.setup_s, 0), Quantile(r.setup_s, 1));
  std::printf("p50_ms             %10.4f ms  (%zu requests)\n", p50, lat.size());
  std::printf("tail_ms            %10.4f ms  (p%.0f of %zu requests, %zu beyond it)\n", tail,
              tail_q * 100, lat.size(), beyond);
  std::printf("throughput_per_s   %10.4f 1/s (%zu requests in %.3f s of timed loop)\n", throughput,
              r.latency_ms.size(), r.loop_seconds);
  std::printf("peak_rss_mb        %10.4f MB\n", r.peak_rss_mb);
  std::printf("drift_ratio        %10.4f     (median of last decile / first decile)\n",
              r.layers["drift_ratio"]);
  std::printf("tail request indices:");
  for (size_t i = 0; i < r.latency_ms.size(); ++i) {
    const bool untraced = r.traced.size() <= i || !r.traced[i];
    if (untraced && r.latency_ms[i] > tail) {
      std::printf(" %zu", i);
    }
  }
  std::printf("\n");
  if (opt.trace) {
    std::printf("\n%-40s %14s %-6s  %-28s %s\n", "per-layer metric", "value", "unit",
                "workload", "moves");
    for (const LayerMetric& m : kLayerMetrics) {
      std::printf("%-40s %14.4f %-6s  %-28s %s\n", m.name, r.layers[m.name], m.unit, m.workload,
                  m.moves);
    }
    std::printf("tracing overhead: traced p50 %.4f ms (%zu requests) vs untraced p50 %.4f ms\n",
                Median(traced_lat), traced_lat.size(), p50);
  }
  for (const std::string& f : r.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("correct: %s (%llu attempted, %llu failed)\n", r.correct ? "yes" : "NO",
              (unsigned long long)r.attempted, (unsigned long long)r.failed);

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false", (unsigned long long)std::max<uint64_t>(r.attempted, 1),
              (unsigned long long)r.failed);
  if (opt.trace) {
    const size_t n = sizeof(kLayerMetrics) / sizeof(kLayerMetrics[0]);
    for (size_t i = 0; i < n; ++i) {
      PrintMetric(kLayerMetrics[i].name, r.layers[kLayerMetrics[i].name], kLayerMetrics[i].unit,
                  i + 1 == n);
    }
  } else {
    PrintMetric("setup_s", setup_s, "s", false);
    PrintMetric("p50_ms", p50, "ms", false);
    PrintMetric("tail_ms", tail, "ms", false);
    PrintMetric("throughput_per_s", throughput, "1/s", false);
    PrintMetric("peak_rss_mb", r.peak_rss_mb, "MB", true);
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}

}  // namespace perfbench
