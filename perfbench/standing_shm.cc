// standing_shm: the standing-query epoch pipeline over the shared-memory
// transport.
//
// nproc - 2 agent threads stand in for agent processes: each maps its own
// shm segment and speaks the real ring + frame protocol, like
// examples/agent_worker.cpp.  With the hub's reactor and the subscription
// drain worker that makes nproc busy threads.  Every agent runs under a TIB memory
// ceiling, and set-up warms the fleet up until eviction has begun, so the
// timed loop runs in the bounded steady state.  One request is one epoch:
// SendIngest (each agent inserts its next pre-generated batch), then
// SendEpochTick, WaitForAcks and Flush, then Materialize of all four
// standing kinds (TopK, FlowSizeHistogram, FlowList, CountSummary).
// The time goes to insert hooks, TakeDelta, seal/evict (src/edge), wire +
// ring + reactor (src/transport) and fold/materialize
// (src/controller/subscription).  Poll kernels run only in the check.
//
// Check: after the timed loop, the four final standing results equal
// polls over unbounded twins rebuilt from the same seed, and every
// agent's TIB accounts exactly (retained == inserted - evicted).  No shm
// segment of this run may remain afterwards.

#include <dirent.h>
#include <unistd.h>

#include <memory>
#include <thread>

#include "perfbench/bench.h"
#include "perfbench/inputs.h"
#include "src/controller/controller.h"
#include "src/controller/subscription.h"
#include "src/edge/edge_agent.h"
#include "src/transport/shm_ring.h"
#include "src/transport/transport.h"

namespace perfbench {

using pathdump::Controller;
using pathdump::EdgeAgent;
using pathdump::EdgeAgentConfig;
using pathdump::QueryResult;
using pathdump::StandingQuerySpec;
using pathdump::SubscriptionManager;
using pathdump::TimeRange;
using pathdump::transport::ShmAgentClient;
using pathdump::transport::TransportHub;
using pathdump::transport::TransportOptions;

namespace {

// Epochs per second of --seconds.  Fewer than the pipeline could run (an
// epoch takes 14-20 ms): the check replays every ingested record into an
// unbounded twin at about 130 bytes each, and 300 epochs keep the run's
// peak under 400 MB.  The timed loop takes about a quarter of --seconds.
constexpr double kRequestsPerSecond = 15;
constexpr size_t kFlowsPerAgent = 8192;
constexpr size_t kBatches = 16;
constexpr size_t kRecordsPerEpoch = 10000;
constexpr size_t kCeilingBytes = size_t(4) << 20;  // per agent
constexpr size_t kTopK = 1000;
constexpr int64_t kBinWidth = 10000;
constexpr int64_t kWaitUs = 30'000'000;
constexpr int kKinds = 4;
const char* const kMaterializeSpan[kKinds] = {
    "controller.sub.materialize_topk", "controller.sub.materialize_fsd",
    "controller.sub.materialize_flows", "controller.sub.materialize_count"};

// Span context of the epoch in flight, published to the agent threads
// (parent span id in the high half, request id in the low half).
std::atomic<uint64_t> g_epoch_ctx{0};

SpanCtx EpochCtx() {
  const uint64_t v = g_epoch_ctx.load(std::memory_order_acquire);
  return SpanCtx{uint32_t(v >> 32), uint32_t(v)};
}

std::string ShmPrefix() { return "/pathdump.perfbench." + std::to_string(getpid()) + "."; }

// This run's segments still present in /dev/shm.
size_t LeftoverSegments() {
  const std::string prefix = ShmPrefix().substr(1);
  size_t n = 0;
  if (DIR* dir = opendir("/dev/shm")) {
    while (dirent* e = readdir(dir)) {
      n += std::string(e->d_name).rfind(prefix, 0) == 0 ? 1 : 0;
    }
    closedir(dir);
  }
  return n;
}

// A thread standing in for an agent process: same client, same rings,
// same frames as examples/agent_worker.cpp.  An Ingest frame's seed is
// the epoch number; the agent inserts that epoch's pre-generated batch.
class ShmAgentThread {
 public:
  ShmAgentThread(const std::string& segment, HostId host, const Fabric& fabric, IngestPool& pool)
      : pool_(pool) {
    client_ = ShmAgentClient::Open(segment);
    EdgeAgentConfig cfg;
    cfg.tib_options.max_memory_bytes = kCeilingBytes;
    agent_ = std::make_unique<EdgeAgent>(host, &fabric.topo, fabric.codec.get(), cfg);
    if (client_ != nullptr) {
      agent_->SetAlarmHandler(client_->MakeAlarmSink());
      thread_ = std::thread([this, host] { Run(host); });
    }
  }
  ~ShmAgentThread() { Join(); }
  ShmAgentThread(const ShmAgentThread&) = delete;
  ShmAgentThread& operator=(const ShmAgentThread&) = delete;

  bool connected() const { return client_ != nullptr; }
  void Join() {
    if (thread_.joinable()) {
      thread_.join();
    }
  }
  const EdgeAgent& agent() const { return *agent_; }

 private:
  void Run(HostId host) {
    client_->SendHello(host);
    for (;;) {
      pathdump::transport::DecodedFrame cmd;
      if (!client_->PollCommand(&cmd, 100'000)) {
        continue;
      }
      switch (cmd.type) {
        case pathdump::transport::FrameType::kSubscribe:
          agent_->RegisterStandingQuery(cmd.subscription_id, cmd.spec, client_->MakeDeltaSink());
          break;
        case pathdump::transport::FrameType::kIngest: {
          Span span("edge.shm.ingest", EpochCtx());
          const uint64_t epoch = cmd.ingest_seed;
          for (const TibRecord& rec :
               StampEpoch(pool_.batches[(epoch - 1) % pool_.batches.size()], epoch)) {
            agent_->IngestRecord(rec, rec.etime);
          }
          break;
        }
        case pathdump::transport::FrameType::kEpochTick: {
          {
            Span span("edge.shm.epoch_tick", EpochCtx());
            agent_->EpochTick();
          }
          client_->SendAck(host, cmd.token);
          break;
        }
        case pathdump::transport::FrameType::kShutdown:
          client_->SendBye(host);
          return;
        default:
          break;
      }
    }
  }

  IngestPool& pool_;
  std::unique_ptr<ShmAgentClient> client_;
  std::unique_ptr<EdgeAgent> agent_;
  std::thread thread_;  // last: joins before the state above dies
};

// One fleet.  The agents are declared first so they outlive the manager
// and the hub: ~SubscriptionManager detaches from every agent it still
// references, a known use-after-free when an agent dies first (ROADMAP
// item 1).  Their threads are joined by Shutdown() before the hub goes.
struct Fleet {
  std::vector<std::unique_ptr<ShmAgentThread>> agents;
  Controller controller;
  SubscriptionManager manager{&controller};
  TransportHub hub;
  uint64_t subs[kKinds] = {};
  uint64_t epoch = 0;  // epochs run so far

  explicit Fleet(const TransportOptions& options) : hub(&controller, &manager, options) {}
  ~Fleet() { Shutdown(); }

  void Shutdown() {
    hub.SendShutdown();
    for (auto& a : agents) {
      a->Join();
    }
  }
  size_t ResidentBytes() const {
    size_t total = 0;
    for (const auto& a : agents) {
      total += a->agent().tib().bytes_resident();
    }
    return total;
  }
  uint64_t Evicted() const {
    uint64_t total = 0;
    for (const auto& a : agents) {
      total += a->agent().tib().MemoryStats().evicted_records;
    }
    return total;
  }
};

StandingQuerySpec Spec(int kind, const LinkId& probe) {
  StandingQuerySpec spec;
  spec.kind = StandingQuerySpec::Kind(kind);
  spec.k = kTopK;
  spec.bin_width = kBinWidth;
  if (kind != 0) {
    spec.link = probe;
  }
  return spec;
}

QueryResult Poll(const EdgeAgent& a, int kind, const LinkId& probe) {
  switch (kind) {
    case 0:
      return a.TopK(kTopK, TimeRange::All());
    case 1:
      return a.FlowSizeDistribution(probe, TimeRange::All(), kBinWidth);
    case 2:
      return pathdump::FlowList{a.GetFlows(probe, TimeRange::All())};
    default:
      return a.CountOnLink(probe, TimeRange::All());
  }
}

}  // namespace

RunResult RunStandingShm(const Options& opt) {
  RunResult r;
  const size_t n_agents = std::max(3u, std::thread::hardware_concurrency()) - 2;

  Fabric fabric;
  PathCache paths(fabric);
  std::vector<HostId> hosts;
  for (size_t i = 0; i < n_agents; ++i) {
    hosts.push_back(fabric.topo.hosts()[i]);  // pod 0, so every agent sees the probe link
  }
  const LinkId probe = fabric.ProbeLink();
  std::vector<IngestPool> pools =
      MakeIngestPools(fabric, paths, hosts, kFlowsPerAgent, kBatches, kRecordsPerEpoch, opt.seed);

  TransportOptions options;
  options.backend = TransportOptions::Backend::kSharedMemory;
  options.shm_prefix = ShmPrefix();

  QueryResult results[kKinds];
  // One epoch: ingest -> tick -> acks, flush, materialize every kind.
  auto run_epoch = [&](Fleet& f) {
    const uint64_t e = ++f.epoch;
    bool ok = true;
    {
      Span span("transport.epoch_ack");
      g_epoch_ctx.store((uint64_t(span.ctx().parent) << 32) | span.ctx().request,
                        std::memory_order_release);
      f.hub.SendIngest(uint32_t(kRecordsPerEpoch), uint32_t(e), 0, 0);
      ok = f.hub.WaitForAcks(f.hub.SendEpochTick(), kWaitUs);
    }
    {
      Span span("controller.sub.flush");
      f.hub.Flush();
    }
    for (int k = 0; k < kKinds; ++k) {
      Span span(kMaterializeSpan[k]);
      results[k] = f.manager.Materialize(f.subs[k]);
    }
    return ok;
  };

  // Set-up: connect the fleet, subscribe, and run epochs until eviction
  // has begun (the bounded steady state); repeated, median reported.
  std::unique_ptr<Fleet> fleet;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    fleet.reset();
    const int64_t t0 = NowNs();
    fleet = std::make_unique<Fleet>(options);
    for (size_t a = 0; a < n_agents; ++a) {
      fleet->agents.push_back(std::make_unique<ShmAgentThread>(fleet->hub.AddShmPeer(hosts[a]),
                                                               hosts[a], fabric, pools[a]));
      if (!fleet->agents.back()->connected()) {
        r.Fail("agent " + std::to_string(a) + " could not map its shm segment");
        return r;
      }
    }
    if (!fleet->hub.WaitForHellos(kWaitUs)) {
      r.Fail("shm agents never said hello");
      return r;
    }
    for (int k = 0; k < kKinds; ++k) {
      fleet->subs[k] = fleet->hub.Subscribe(hosts, Spec(k, probe));
    }
    while (fleet->Evicted() == 0) {
      if (!run_epoch(*fleet)) {
        r.Fail("warm-up epoch never acked");
        return r;
      }
    }
    r.setup_s.push_back(MsSince(t0) / 1e3);
  }
  Fleet& f = *fleet;
  const uint64_t warm_epochs = f.epoch;

  const auto ts0 = f.hub.stats();
  const auto ms0 = f.manager.stats();
  size_t resident_max = 0;
  const Budget budget(opt, kRequestsPerSecond);
  for (size_t i = 0; budget.More(i); ++i) {
    const bool traced = opt.trace && i % 2 == 1;
    const int64_t t0 = NowNs();
    bool ok = true;
    {
      Span root("bench.epoch", SpanCtx{0, traced ? uint32_t(i + 1) : 0});
      ok = run_epoch(f);
    }
    const double ms = MsSince(t0);
    r.latency_ms.push_back(ms);
    r.traced.push_back(traced);
    r.loop_seconds += ms / 1e3;
    ++r.attempted;
    resident_max = std::max(resident_max, f.ResidentBytes());
    if (!ok) {
      ++r.failed;
      r.Fail("epoch " + std::to_string(f.epoch) + " never acked");
      break;
    }
  }
  r.peak_rss_mb = PeakRssMb();

  const auto ts1 = f.hub.stats();
  const auto ms1 = f.manager.stats();
  const double epochs = double(std::max<uint64_t>(r.attempted, 1));
  r.layers["controller.sub.delta_bytes_per_epoch"] = double(ms1.delta_bytes - ms0.delta_bytes) / epochs;
  const uint64_t submitted = ms1.deltas_submitted - ms0.deltas_submitted;
  r.layers["controller.sub.blocked_enqueue_ratio"] =
      submitted ? double(ms1.blocked_enqueues - ms0.blocked_enqueues) / double(submitted) : 0;
  const uint64_t frames = ts1.frames - ts0.frames;
  r.layers["transport.blocked_push_ratio"] =
      frames ? double(ts1.blocked_pushes - ts0.blocked_pushes) / double(frames) : 0;
  r.layers["edge.tib.resident_mb_max"] = double(resident_max) / (1 << 20);
  r.layers["edge.tib.ceiling_mb"] = double(kCeilingBytes * n_agents) / (1 << 20);
  r.layers["edge.tib.evicted_records"] = double(f.Evicted());
  f.Shutdown();  // joins the agent threads, which record spans too
  if (opt.trace) {
    const SpanDurations dur = SpanDurationsMs(CollectSpans());
    for (const char* name : {"transport.epoch_ack", "controller.sub.flush", "edge.shm.ingest",
                             "edge.shm.epoch_tick", kMaterializeSpan[0], kMaterializeSpan[1],
                             kMaterializeSpan[2], kMaterializeSpan[3]}) {
      r.layers[std::string(name) + "_ms"] = MedianMs(dur, name);
    }
  }

  // --- Checks (untimed) ---
  for (size_t a = 0; a < n_agents; ++a) {
    const pathdump::TibMemoryStats m = f.agents[a]->agent().tib().MemoryStats();
    if (m.retained_records != m.inserted_records - m.evicted_records) {
      r.Fail("agent " + std::to_string(a) + ": retained != inserted - evicted");
    }
  }
  if (ts1.decode_errors != 0 || ts1.seq_gaps != 0) {
    r.Fail("transport decode errors or sequence gaps");
  }
  // Unbounded twins, one host at a time, merged in host order exactly as
  // a poll Execute merges.
  QueryResult expected[kKinds];
  for (size_t a = 0; a < n_agents; ++a) {
    EdgeAgentConfig cfg;
    cfg.tib_options.index_by_flow = false;
    EdgeAgent twin(hosts[a], &fabric.topo, fabric.codec.get(), cfg);
    for (uint64_t e = 1; e <= f.epoch; ++e) {
      for (const TibRecord& rec : StampEpoch(pools[a].batches[(e - 1) % kBatches], e)) {
        twin.IngestRecord(rec, rec.etime);
      }
    }
    for (int k = 0; k < kKinds; ++k) {
      pathdump::MergeQueryResult(expected[k], Poll(twin, k, probe));
    }
  }
  for (int k = 0; k < kKinds; ++k) {
    if (!(results[k] == expected[k])) {
      ++r.failed;
      r.Fail(std::string(kMaterializeSpan[k]) + " differs from the poll over unbounded twins");
    }
  }
  const uint64_t total_epochs = f.epoch;
  fleet.reset();
  if (const size_t left = LeftoverSegments(); left != 0) {
    r.Fail(std::to_string(left) + " shm segment(s) left behind");
    pathdump::transport::CleanupShmByPrefix(ShmPrefix());
  }

  char line[256];
  std::snprintf(line, sizeof(line),
                "%zu shm agents x %zu records/epoch (universe %zu flows/agent), ceiling %zu "
                "MiB/agent; %llu warm-up + %llu timed epochs\n",
                n_agents, kRecordsPerEpoch, kFlowsPerAgent, kCeilingBytes >> 20,
                (unsigned long long)warm_epochs,
                (unsigned long long)(total_epochs - warm_epochs));
  r.notes = line;
  return r;
}

}  // namespace perfbench
