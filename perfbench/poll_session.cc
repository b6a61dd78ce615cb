// poll_session: an operator's four-poll debugging session against a
// static fleet (the paper's Figs. 11/12 queries).
//
// 16 in-process agents (FatTree(8), spread over the pods) hold 30 000 TIB
// records each.  One request is one session: a multi-level top-10 000
// (Fig. 12), a direct flow-size distribution on the probe link (Fig. 11),
// CountOnLink, then GetFlows on that link.  The controller fans each poll
// out over nproc - 1 workers.  All time goes to TIB scan/aggregation
// (src/edge) and fan-out/merge (src/controller); ingest, standing
// queries, transport and alarms are idle.
//
// Check: every session's four results and response byte counts are
// identical to a sequential (1-worker) reference computed after set-up.

#include <memory>
#include <thread>

#include "perfbench/bench.h"
#include "perfbench/inputs.h"
#include "src/controller/controller.h"
#include "src/edge/edge_agent.h"

namespace perfbench {

using pathdump::Controller;
using pathdump::EdgeAgent;
using pathdump::QueryResult;
using pathdump::TimeRange;

namespace {

constexpr size_t kAgents = 16;
constexpr double kRequestsPerSecond = 7;  // sessions per second of --seconds
constexpr size_t kRecordsPerAgent = 30000;
constexpr size_t kTopK = 10000;
constexpr int64_t kBinWidth = 10000;
constexpr int kPolls = 4;
const char* const kPollSpan[kPolls] = {"controller.poll.topk", "controller.poll.fsd",
                                       "controller.poll.count", "controller.poll.flows"};
const char* const kHostSpan[kPolls] = {"edge.query.topk", "edge.query.fsd", "edge.query.count",
                                       "edge.query.flows"};

struct Fleet {
  std::vector<std::unique_ptr<EdgeAgent>> agents;
  Controller controller;
};

struct Session {
  QueryResult results[kPolls];
  size_t response_bytes[kPolls] = {};
  double merge_ms = 0;
};

}  // namespace

RunResult RunPollSession(const Options& opt) {
  RunResult r;
  // One core stays free for the rest of the machine: a poll waits for its
  // slowest worker, so with every core busy any other work on the machine
  // lands in its latency (interleaved runs: p50 spread 18 % at nproc
  // workers, 7 % at nproc - 1).
  const size_t workers = std::max(2u, std::thread::hardware_concurrency()) - 1;

  Fabric fabric;
  PathCache paths(fabric);
  std::vector<HostId> hosts;
  for (size_t i = 0; i < kAgents; ++i) {
    hosts.push_back(fabric.AgentHost(i, kAgents));
  }
  const LinkId probe = fabric.ProbeLink();
  const std::vector<std::vector<TibRecord>> records =
      MakePollRecords(fabric, paths, hosts, kRecordsPerAgent, opt.seed);

  // Set-up: build the fleet and load every TIB; repeated, median reported.
  std::unique_ptr<Fleet> fleet;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    fleet.reset();
    const int64_t t0 = NowNs();
    fleet = std::make_unique<Fleet>();
    for (size_t a = 0; a < kAgents; ++a) {
      auto agent = std::make_unique<EdgeAgent>(hosts[a], &fabric.topo, fabric.codec.get());
      for (const TibRecord& rec : records[a]) {
        agent->IngestRecord(rec, rec.etime);
      }
      fleet->controller.RegisterAgent(agent.get());
      fleet->agents.push_back(std::move(agent));
    }
    fleet->controller.SetWorkerThreads(workers);
    r.setup_s.push_back(MsSince(t0) / 1e3);
  }
  Controller& controller = fleet->controller;

  // The per-host query bodies.  `host_ctx` carries the poll span's
  // context to the worker threads that run them.
  SpanCtx host_ctx;
  auto timed = [&host_ctx](const char* name, auto body) -> Controller::QueryFn {
    return [&host_ctx, name, body](EdgeAgent& a) -> QueryResult {
      Span span(name, host_ctx);
      return body(a);
    };
  };
  const Controller::QueryFn queries[kPolls] = {
      timed(kHostSpan[0], [](EdgeAgent& a) { return a.TopK(kTopK, TimeRange::All()); }),
      timed(kHostSpan[1],
            [probe](EdgeAgent& a) {
              return a.FlowSizeDistribution(probe, TimeRange::All(), kBinWidth);
            }),
      timed(kHostSpan[2], [probe](EdgeAgent& a) { return a.CountOnLink(probe, TimeRange::All()); }),
      timed(kHostSpan[3],
            [probe](EdgeAgent& a) {
              return pathdump::FlowList{a.GetFlows(probe, TimeRange::All())};
            }),
  };

  // One session; host-side spans are children of each poll's span.
  auto run_session = [&](Session& s) {
    for (int q = 0; q < kPolls; ++q) {
      Span span(kPollSpan[q]);
      host_ctx = span.ctx();
      auto [result, stats] = q == 0 ? controller.ExecuteMultiLevel(hosts, queries[q])
                                    : controller.Execute(hosts, queries[q]);
      s.results[q] = std::move(result);
      s.response_bytes[q] = stats.response_bytes;
      s.merge_ms += stats.controller_compute_seconds * 1e3;
    }
  };

  // Sequential reference.
  Session reference;
  controller.SetWorkerThreads(1);
  run_session(reference);
  controller.SetWorkerThreads(workers);

  auto check = [&](const Session& s, size_t index) {
    for (int q = 0; q < kPolls; ++q) {
      if (!(s.results[q] == reference.results[q]) ||
          s.response_bytes[q] != reference.response_bytes[q]) {
        r.Fail("session " + std::to_string(index) + ": " + kPollSpan[q] +
               " differs from the sequential reference");
        return false;
      }
    }
    return true;
  };

  {  // Warm-up session (untimed, checked).
    Session warm;
    run_session(warm);
    check(warm, 0);
  }

  std::vector<double> merge_ms;
  const Budget budget(opt, kRequestsPerSecond);
  for (size_t i = 0; budget.More(i); ++i) {
    const bool traced = opt.trace && i % 2 == 1;
    Session s;
    const int64_t t0 = NowNs();
    {
      Span root("bench.session", SpanCtx{0, traced ? uint32_t(i + 1) : 0});
      run_session(s);
    }
    const double ms = MsSince(t0);
    r.latency_ms.push_back(ms);
    r.traced.push_back(traced);
    r.loop_seconds += ms / 1e3;
    ++r.attempted;
    if (traced) {
      merge_ms.push_back(s.merge_ms);
    }
    if (!check(s, i + 1)) {
      ++r.failed;
    }
  }
  r.peak_rss_mb = PeakRssMb();

  size_t bytes = 0;
  for (size_t b : reference.response_bytes) {
    bytes += b;
  }
  if (opt.trace) {
    const SpanDurations dur = SpanDurationsMs(CollectSpans());
    double host_total = 0, poll_total = 0;
    for (int q = 0; q < kPolls; ++q) {
      auto h = dur.find(kHostSpan[q]);
      auto p = dur.find(kPollSpan[q]);
      if (h != dur.end()) {
        r.layers[std::string(kHostSpan[q]) + "_host_ms"] = Median(h->second);
        for (double v : h->second) {
          host_total += v;
        }
      }
      if (p != dur.end()) {
        r.layers[std::string(kPollSpan[q]) + "_ms"] = Median(p->second);
        for (double v : p->second) {
          poll_total += v;
        }
      }
    }
    r.layers["controller.poll.merge_ms"] = Median(merge_ms);
    const double eff = poll_total > 0 ? host_total / (double(workers) * poll_total) : 0;
    r.layers["controller.poll.fanout_efficiency"] = eff;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "fan-out efficiency %.4f = host compute %.1f ms / (%zu workers x %.1f ms of "
                  "poll wall time), over %zu traced sessions\n",
                  eff, host_total, workers, poll_total, merge_ms.size());
    r.notes += line;
  }
  r.layers["controller.poll.response_bytes"] = double(bytes);
  char line[256];
  std::snprintf(line, sizeof(line),
                "%zu agents x %zu records, %zu workers; session = top-%zu (multi-level), fsd, "
                "count, flows on the probe link; %zu response bytes per session\n",
                kAgents, kRecordsPerAgent, workers, kTopK, bytes);
  r.notes = line + r.notes;
  return r;
}

}  // namespace perfbench
