// datapath_alarms: the live edge datapath with path-conformance alarms.
//
// Two persistent datapath threads feed 16 in-process agents (FatTree(8),
// spread over the pods, 8 agents per thread).  One request is one 1-s
// sim-time slice: every agent's Tick (trajectory-memory sweep -> decode ->
// TIB insert -> record hooks -> RaiseAlarm), then 250 fresh flows x 128
// MTU packets with CherryPick headers through OnPacket.  A conformance
// policy forbids one core switch, so flows routed over it raise PC_FAIL
// into the controller's alarm pipeline.  Then the epoch clock ticks one
// standing TopK(1000) through the in-process TransportHub and flushes the
// subscription and alarm channels.  Every agent has a TIB ceiling; the
// in-process epoch tick never seals the TIB (ROADMAP item 1), so resident
// bytes are reported against the ceiling rather than assumed under it.
//
// Set-up warms the fleet up until trajectory memory holds its idle-timeout
// occupancy (idle timeout 5 s: slice s's flows are evicted at slice s + 6).
//
// Check: after FlushAll, the PC_FAIL count equals the generator's count of
// violating flows exactly, no alarm was dropped, every TIB accounts
// exactly (retained == inserted - evicted), nothing failed to decode, and
// the standing TopK equals the top-1000 computed from the generator (so
// it holds whether or not the in-process path evicts).

#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "perfbench/bench.h"
#include "perfbench/inputs.h"
#include "src/apps/path_conformance.h"
#include "src/controller/controller.h"
#include "src/controller/subscription.h"
#include "src/edge/edge_agent.h"
#include "src/topology/fat_tree.h"
#include "src/transport/transport.h"

namespace perfbench {

using pathdump::Alarm;
using pathdump::AlarmReason;
using pathdump::Controller;
using pathdump::EdgeAgent;
using pathdump::EdgeAgentConfig;
using pathdump::SimTime;
using pathdump::StandingQuerySpec;
using pathdump::SubscriptionManager;
using pathdump::TopKFlows;
using pathdump::transport::TransportHub;

namespace {

constexpr size_t kAgents = 16;
constexpr double kRequestsPerSecond = 20;  // slices per second of --seconds
constexpr size_t kFeeders = 2;
constexpr size_t kFlowsPerSlice = 250;  // per agent
constexpr size_t kPktsPerFlow = 128;
constexpr size_t kCeilingBytes = size_t(8) << 20;  // per agent: 128 MiB in all
constexpr size_t kTopK = 1000;
constexpr uint64_t kWarmSlices = 8;  // > idle timeout (5 s) + one sweep

// The two datapath threads.  Each owns a fixed share of the agents; the
// epoch clock (RunSlice) releases one slice at a time and waits for both.
class Feeders {
 public:
  Feeders(std::vector<std::unique_ptr<EdgeAgent>>& agents, std::vector<PacketTemplates>& pkts)
      : agents_(agents), pkts_(pkts) {
    for (size_t t = 0; t < kFeeders; ++t) {
      threads_.emplace_back([this, t] { Run(t); });
    }
  }
  ~Feeders() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) {
      t.join();
    }
  }
  Feeders(const Feeders&) = delete;
  Feeders& operator=(const Feeders&) = delete;

  void RunSlice(uint64_t slice, SpanCtx ctx) {
    std::unique_lock<std::mutex> lock(mu_);
    slice_ = slice;
    ctx_ = ctx;
    done_ = 0;
    cv_.notify_all();
    done_cv_.wait(lock, [this] { return done_ == kFeeders; });
  }

 private:
  void Run(size_t t) {
    uint64_t seen = 0;
    for (;;) {
      uint64_t slice = 0;
      SpanCtx ctx;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return stop_ || slice_ != seen; });
        if (stop_) {
          return;
        }
        seen = slice = slice_;
        ctx = ctx_;
      }
      for (size_t a = t; a < agents_.size(); a += kFeeders) {
        FeedAgent(*agents_[a], pkts_[a], slice, ctx);
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++done_;
      }
      done_cv_.notify_one();
    }
  }

  static void FeedAgent(EdgeAgent& agent, PacketTemplates& t, uint64_t slice, SpanCtx ctx) {
    const SimTime base = FillSlice(t, slice);
    {
      Span span("edge.agent.tick", ctx);
      agent.Tick(base);
    }
    Span span("edge.datapath", ctx);
    const SimTime gap = pathdump::kNsPerSec / SimTime(t.packets.size() + 2);
    for (size_t j = 0; j < t.packets.size(); ++j) {
      agent.OnPacket(t.packets[j], base + SimTime(j + 1) * gap);
    }
  }

  std::vector<std::unique_ptr<EdgeAgent>>& agents_;
  std::vector<PacketTemplates>& pkts_;
  std::mutex mu_;
  std::condition_variable cv_, done_cv_;
  uint64_t slice_ = 0;  // guarded by mu_
  SpanCtx ctx_;         // guarded by mu_
  size_t done_ = 0;     // guarded by mu_
  bool stop_ = false;   // guarded by mu_
  std::vector<std::thread> threads_;
};

// One fleet.  The agents are declared first so they outlive the manager
// and the hub: ~SubscriptionManager detaches from every agent it still
// references, a known use-after-free when an agent dies first (ROADMAP
// item 1).  The feeders are declared last, so they join first.
struct Fleet {
  std::vector<std::unique_ptr<EdgeAgent>> agents;
  Controller controller;
  SubscriptionManager manager{&controller};
  TransportHub hub{&controller, &manager};  // in-process backend
  uint64_t topk_sub = 0;
  uint64_t slice = 0;  // slices run so far
  std::unique_ptr<Feeders> feeders;
};

}  // namespace

RunResult RunDatapathAlarms(const Options& opt) {
  RunResult r;

  Fabric fabric;
  PathCache paths(fabric);
  std::vector<HostId> hosts;
  for (size_t i = 0; i < kAgents; ++i) {
    hosts.push_back(fabric.AgentHost(i, kAgents));
  }
  const pathdump::SwitchId forbidden = fabric.topo.fat_tree()->core[5];
  std::vector<PacketTemplates> pkts = MakePacketTemplates(fabric, paths, hosts, kFlowsPerSlice,
                                                          kPktsPerFlow, forbidden, opt.seed);
  pathdump::ConformancePolicy policy;
  policy.forbidden = {forbidden};

  auto run_slice = [](Fleet& f, SpanCtx ctx) {
    f.feeders->RunSlice(++f.slice, ctx);
    {
      Span span("controller.sub.tick");
      f.hub.SendEpochTick();
    }
    {
      Span span("controller.sub.flush");
      f.hub.Flush();
    }
    Span span("controller.alarm.flush");
    f.controller.FlushAlarms();
  };

  // Set-up: build and wire the fleet, then run slices until trajectory
  // memory reaches its idle-timeout occupancy; repeated, median reported.
  std::unique_ptr<Fleet> fleet;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    fleet.reset();
    const int64_t t0 = NowNs();
    fleet = std::make_unique<Fleet>();
    Fleet& f = *fleet;
    EdgeAgentConfig cfg;
    cfg.tib_options.max_memory_bytes = kCeilingBytes;
    const pathdump::AlarmHandler sink = f.controller.MakeAlarmSink();
    for (HostId h : hosts) {
      auto agent = std::make_unique<EdgeAgent>(h, &fabric.topo, fabric.codec.get(), cfg);
      agent->SetAlarmHandler([sink](const Alarm& a) {
        Span span("controller.alarm.submit");
        sink(a);
      });
      pathdump::InstallPathConformance(*agent, policy);
      f.hub.AddLocalAgent(agent.get());
      f.agents.push_back(std::move(agent));
    }
    StandingQuerySpec topk;
    topk.kind = StandingQuerySpec::Kind::kTopK;
    topk.k = kTopK;
    f.topk_sub = f.hub.Subscribe(hosts, topk);
    f.feeders = std::make_unique<Feeders>(f.agents, pkts);
    while (f.slice < kWarmSlices) {
      run_slice(f, SpanCtx{});
    }
    r.setup_s.push_back(MsSince(t0) / 1e3);
  }
  Fleet& f = *fleet;

  auto cache_totals = [&f] {
    std::pair<uint64_t, uint64_t> hits_lookups{0, 0};
    for (const auto& a : f.agents) {
      const pathdump::TrajectoryCacheStats c = a->cache_stats();
      hits_lookups.first += c.hits;
      hits_lookups.second += c.hits + c.misses;
    }
    return hits_lookups;
  };
  const auto cache0 = cache_totals();
  const pathdump::AlarmPipelineStats as0 = f.controller.alarm_stats();
  const Budget budget(opt, kRequestsPerSecond);
  for (size_t i = 0; budget.More(i); ++i) {
    const bool traced = opt.trace && i % 2 == 1;
    const int64_t t0 = NowNs();
    {
      Span root("bench.slice", SpanCtx{0, traced ? uint32_t(i + 1) : 0});
      run_slice(f, root.ctx());
    }
    const double ms = MsSince(t0);
    r.latency_ms.push_back(ms);
    r.traced.push_back(traced);
    r.loop_seconds += ms / 1e3;
    ++r.attempted;
  }
  r.peak_rss_mb = PeakRssMb();

  size_t resident = 0;
  for (const auto& a : f.agents) {
    resident += a->tib().bytes_resident();
  }
  const auto cache1 = cache_totals();
  const pathdump::AlarmPipelineStats as1 = f.controller.alarm_stats();
  r.layers["edge.tib.resident_mb"] = double(resident) / (1 << 20);
  r.layers["edge.tib.ceiling_mb"] = double(kCeilingBytes * kAgents) / (1 << 20);
  const uint64_t lookups = cache1.second - cache0.second;
  r.layers["edge.trajectory_cache.hit_ratio"] =
      lookups ? double(cache1.first - cache0.first) / double(lookups) : 0;
  const uint64_t submitted = as1.submitted - as0.submitted;
  r.layers["controller.alarm.blocked_enqueue_ratio"] =
      submitted ? double(as1.blocked_enqueues - as0.blocked_enqueues) / double(submitted) : 0;
  if (opt.trace) {
    const SpanDurations dur = SpanDurationsMs(CollectSpans());
    for (const char* name : {"edge.agent.tick", "controller.sub.tick", "controller.sub.flush",
                             "controller.alarm.flush"}) {
      r.layers[std::string(name) + "_ms"] = MedianMs(dur, name);
    }
    if (auto it = dur.find("controller.alarm.submit"); it != dur.end()) {
      r.layers["controller.alarm.submit_us_p50"] = Quantile(it->second, 0.50) * 1e3;
      r.layers["controller.alarm.submit_us_p99"] = Quantile(it->second, 0.99) * 1e3;
    }
    if (auto it = dur.find("edge.datapath"); it != dur.end()) {
      double ms = 0;
      for (double v : it->second) {
        ms += v;
      }
      const double packets = double(it->second.size() * kFlowsPerSlice * kPktsPerFlow);
      r.layers["edge.datapath.ns_per_packet"] = ms * 1e6 / packets;
    }
  }

  // --- Checks (untimed) ---
  f.feeders.reset();
  const SimTime end = SimTime(f.slice + 1) * pathdump::kNsPerSec;
  for (auto& a : f.agents) {
    a->FlushAll(end);
  }
  f.hub.SendEpochTick();
  f.hub.Flush();
  uint64_t evicted = 0;
  for (size_t a = 0; a < kAgents; ++a) {
    const pathdump::TibMemoryStats m = f.agents[a]->tib().MemoryStats();
    evicted += m.evicted_records;
    if (m.retained_records != m.inserted_records - m.evicted_records) {
      r.Fail("agent " + std::to_string(a) + ": retained != inserted - evicted");
    }
    if (f.agents[a]->decode_failures() != 0) {
      r.Fail("agent " + std::to_string(a) + ": trajectory headers failed to decode");
    }
  }
  r.layers["edge.tib.evicted_records"] = double(evicted);

  uint64_t violating = 0;
  for (const PacketTemplates& t : pkts) {
    violating += t.violating;
  }
  const uint64_t expected_alarms = violating * f.slice;
  const std::vector<Alarm>& log = f.controller.alarm_log();
  const uint64_t pc_fail = uint64_t(std::count_if(log.begin(), log.end(), [](const Alarm& a) {
    return a.reason == AlarmReason::kPathConformance;
  }));
  if (pc_fail != expected_alarms || log.size() != pc_fail) {
    r.Fail("PC_FAIL alarms " + std::to_string(pc_fail) + " (of " + std::to_string(log.size()) +
           "), expected " + std::to_string(expected_alarms));
  }
  if (f.controller.alarm_stats().dropped != 0) {
    r.Fail("alarms dropped");
  }

  // Expected standing TopK from the generator: every slice replays the
  // template flows' byte counts, so only the template flows whose bytes
  // reach the k-th largest can place; expand those to every slice.
  struct Cand {
    uint64_t bytes;
    size_t agent, flow;
  };
  std::vector<Cand> cands;
  for (size_t a = 0; a < kAgents; ++a) {
    for (size_t i = 0; i < kFlowsPerSlice; ++i) {
      cands.push_back({pkts[a].flow_bytes[i], a, i});
    }
  }
  std::sort(cands.begin(), cands.end(), [](const Cand& x, const Cand& y) {
    return x.bytes > y.bytes;
  });
  TopKFlows expected;
  expected.k = kTopK;
  for (size_t c = 0; c < cands.size(); ++c) {
    if (expected.items.size() >= kTopK && cands[c].bytes < expected.items.back().first) {
      break;
    }
    pathdump::FiveTuple flow = pkts[cands[c].agent].packets[cands[c].flow * kPktsPerFlow].flow;
    for (uint64_t s = 1; s <= f.slice; ++s) {
      SliceFlow(flow, cands[c].flow, s);
      expected.items.emplace_back(cands[c].bytes, flow);
    }
  }
  expected.Finalize();
  const pathdump::QueryResult standing = f.manager.Materialize(f.topk_sub);
  const TopKFlows* got = std::get_if<TopKFlows>(&standing);
  if (got == nullptr || got->items != expected.items) {
    r.Fail("standing TopK differs from the generator's top-" + std::to_string(kTopK));
  }

  char line[320];
  std::snprintf(line, sizeof(line),
                "%zu agents, %zu datapath threads, %zu flows x %zu packets per agent per slice; "
                "%llu warm-up + %llu timed slices; %llu PC_FAIL alarms (expected %llu)\n"
                "TIB resident %.1f MiB against a %.1f MiB ceiling, %llu records evicted\n",
                kAgents, kFeeders, kFlowsPerSlice, kPktsPerFlow,
                (unsigned long long)kWarmSlices, (unsigned long long)(f.slice - kWarmSlices),
                (unsigned long long)pc_fail, (unsigned long long)expected_alarms,
                r.layers["edge.tib.resident_mb"], r.layers["edge.tib.ceiling_mb"],
                (unsigned long long)evicted);
  r.notes = line;
  return r;
}

}  // namespace perfbench
