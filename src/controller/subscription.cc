#include "src/controller/subscription.h"

#include <algorithm>
#include <utility>

#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/controller/controller.h"
#include "src/edge/edge_agent.h"

namespace pathdump {

SubscriptionManager::SubscriptionManager(Controller* controller,
                                         SubscriptionManagerOptions options)
    : controller_(controller),
      options_(options),
      channel_(MpscChannelOptions{options.queue_capacity, options.max_batch,
                                  MpscOverflowPolicy::kBlock, "sub.channel"},
               [this](std::vector<QueryDelta>& batch) { FoldBatch(batch); }) {}

SubscriptionManager::~SubscriptionManager() {
  // Detach agent-side accumulators first so no new delta is produced.
  // Detaching happens outside state_mu_ (it takes agent registration +
  // TIB shard locks).  The channel member is declared last, so its
  // destructor then drains every delta already accepted before the
  // registry below it goes away.
  std::vector<Subscription> detach;
  {
    std::lock_guard<std::mutex> state(state_mu_);
    for (auto& [id, sub] : subscriptions_) {
      detach.push_back(std::move(sub));
    }
    subscriptions_.clear();
  }
  for (Subscription& sub : detach) {
    DetachAgents(sub);
  }
}

uint64_t SubscriptionManager::Subscribe(const std::vector<HostId>& hosts,
                                        const StandingQuerySpec& spec) {
  // Publish the subscription (hosts + fold state) BEFORE attaching any
  // agent-side hook: an EpochTick running concurrently on another thread
  // can ship the first delta the moment a hook exists, and it must find
  // the subscription — an orphaned epoch 1 would leave the accumulator
  // ahead of the fold state and wedge that host's in-order fold for good.
  Subscription sub;
  sub.spec = spec;
  std::vector<EdgeAgent*> agents;
  for (HostId h : hosts) {
    EdgeAgent* agent = controller_->agent(h);
    if (agent == nullptr) {
      continue;  // skipped exactly like a poll Execute
    }
    sub.hosts.push_back(h);
    sub.host_state.emplace(h, HostState{});
    agents.push_back(agent);
  }
  uint64_t id;
  {
    std::lock_guard<std::mutex> state(state_mu_);
    id = next_subscription_id_++;
    subscriptions_.emplace(id, std::move(sub));
  }
  // Attach outside state_mu_: registering the accumulator takes every
  // TIB shard lock on the agent, which may be mid-insert.
  std::vector<AgentAttachment> attachments;
  attachments.reserve(agents.size());
  for (EdgeAgent* agent : agents) {
    AgentAttachment att;
    att.agent = agent;
    att.agent_alive = agent->lifetime();
    att.standing_id = agent->RegisterStandingQuery(
        id, spec, [this](QueryDelta&& delta) { SubmitDelta(std::move(delta)); });
    attachments.push_back(std::move(att));
  }
  bool unsubscribed_meanwhile = false;
  {
    std::lock_guard<std::mutex> state(state_mu_);
    auto it = subscriptions_.find(id);
    if (it != subscriptions_.end()) {
      it->second.attachments = std::move(attachments);
    } else {
      unsubscribed_meanwhile = true;
    }
  }
  if (unsubscribed_meanwhile) {
    // A concurrent Unsubscribe(id) won the race before the attachments
    // landed; take back what was just installed.
    Subscription torn_down;
    torn_down.attachments = std::move(attachments);
    DetachAgents(torn_down);
  }
  return id;
}

uint64_t SubscriptionManager::SubscribeRemote(const std::vector<HostId>& hosts,
                                              const StandingQuerySpec& spec) {
  // Remote hosts have no registry entry to check against — the caller
  // (the transport hub) owns the peer set, so every listed host gets
  // fold state.  Published before the caller broadcasts the Subscribe
  // frame, so the first remote delta always finds its subscription.
  Subscription sub;
  sub.spec = spec;
  for (HostId h : hosts) {
    sub.hosts.push_back(h);
    sub.host_state.emplace(h, HostState{});
  }
  std::lock_guard<std::mutex> state(state_mu_);
  const uint64_t id = next_subscription_id_++;
  subscriptions_.emplace(id, std::move(sub));
  return id;
}

void SubscriptionManager::DetachAgents(Subscription& sub) {
  for (const AgentAttachment& att : sub.attachments) {
    // A destroyed agent took its registrations with it.
    if (!att.agent_alive.expired()) {
      att.agent->UnregisterStandingQuery(att.standing_id);
    }
  }
}

void SubscriptionManager::Unsubscribe(uint64_t id) {
  std::unique_lock<std::mutex> state(state_mu_);
  auto it = subscriptions_.find(id);
  if (it == subscriptions_.end()) {
    return;
  }
  Subscription sub = std::move(it->second);
  subscriptions_.erase(it);
  state.unlock();
  // Hook removal takes the agent's TIB shard locks; done outside
  // state_mu_ so the drain worker never waits on an agent's data path.
  DetachAgents(sub);
}

void SubscriptionManager::TickEpoch() {
  // No manager lock is held while ticking: a full intake queue blocks
  // the ticking thread, and the drain worker needs state_mu_ to fold its
  // way out.
  for (HostId h : controller_->registered_hosts()) {
    controller_->agent(h)->EpochTick();
  }
}

bool SubscriptionManager::SubmitDelta(QueryDelta delta) {
  return channel_.Submit(std::move(delta));
}

void SubscriptionManager::Flush() { channel_.Flush(); }

void SubscriptionManager::FoldReady(Subscription& sub, HostState& hs,
                                    const PendingDelta& delta, const TraceKeys& keys) {
  // Fold-side registry mirrors: process-wide atomic totals alongside the
  // exact per-manager atomics and per-subscription (state_mu_-guarded)
  // views, so external readers never touch unsynchronized state.
  static Counter* m_folded = MetricsRegistry::Global().GetCounter("sub.deltas_folded");
  static Counter* m_bytes = MetricsRegistry::Global().GetCounter("sub.delta_bytes");
  static Counter* m_updates = MetricsRegistry::Global().GetCounter("sub.flow_updates");
  TraceScope span("fold", keys);
  uint64_t updates;
  if (sub.spec.IsRecordKind()) {
    hs.records.Fold(sub.spec, delta.records);
    updates = delta.records.items.size();
  } else {
    delta.payload.ApplyTo(hs.folded);
    updates = delta.payload.items.size();
  }
  ++hs.next_epoch;
  ++sub.deltas_folded;
  sub.delta_bytes += delta.wire_bytes;
  deltas_folded_.fetch_add(1, std::memory_order_acq_rel);
  flow_updates_.fetch_add(updates, std::memory_order_acq_rel);
  delta_bytes_.fetch_add(delta.wire_bytes, std::memory_order_acq_rel);
  m_folded->Add();
  m_bytes->Add(delta.wire_bytes);
  m_updates->Add(updates);
}

void SubscriptionManager::FoldBatch(std::vector<QueryDelta>& batch) {
  static Counter* m_orphaned = MetricsRegistry::Global().GetCounter("sub.deltas_orphaned");
  static Counter* m_reordered = MetricsRegistry::Global().GetCounter("sub.deltas_reordered");
  static Counter* m_snapshot_folds = MetricsRegistry::Global().GetCounter("sub.snapshot_folds");
  static Counter* m_stale_discarded =
      MetricsRegistry::Global().GetCounter("sub.deltas_stale_discarded");
  static Counter* m_resyncs = MetricsRegistry::Global().GetCounter("sub.resyncs");
  // Streams the gap threshold marked stale this batch; the requester
  // fires after state_mu_ is released (it pushes to a command ring).
  std::vector<std::pair<uint64_t, HostId>> fire;
  ResyncRequester requester;
  {
    std::lock_guard<std::mutex> state(state_mu_);
    requester = resync_requester_;
    for (QueryDelta& d : batch) {
      auto it = subscriptions_.find(d.subscription_id);
      if (it == subscriptions_.end()) {
        deltas_orphaned_.fetch_add(1, std::memory_order_acq_rel);
        m_orphaned->Add();
        continue;
      }
      Subscription& sub = it->second;
      auto hit = sub.host_state.find(d.host);
      if (hit == sub.host_state.end()) {
        deltas_orphaned_.fetch_add(1, std::memory_order_acq_rel);
        m_orphaned->Add();
        continue;
      }
      HostState& hs = hit->second;
      const size_t wire_bytes = d.SerializedSize();
      if (d.snapshot) {
        // Full baseline: REPLACE the stream's fold state, re-anchor the
        // epoch counter at snapshot + 1, drop any buffered stragglers
        // (the snapshot already contains everything they carried), and
        // clear the stale mark.  Strict-epoch folding resumes from here.
        const TraceKeys keys{d.subscription_id, d.host, d.epoch};
        hs.folded.clear();
        hs.records = RecordFoldState{};
        // Buffered stragglers end in the stale_discarded bucket — every
        // submitted delta lands in exactly one terminal bucket.
        stale_discarded_.fetch_add(hs.pending.size(), std::memory_order_acq_rel);
        m_stale_discarded->Add(hs.pending.size());
        hs.pending.clear();
        hs.stale = false;
        hs.next_epoch = d.epoch;  // FoldReady advances it to d.epoch + 1
        snapshot_folds_.fetch_add(1, std::memory_order_acq_rel);
        m_snapshot_folds->Add();
        const uint64_t t0 = Tracer::Global().NowUs();
        FoldReady(sub, hs, PendingDelta{std::move(d.payload), std::move(d.records), wire_bytes},
                  keys);
        Tracer::Global().Record("resync.fold", t0, Tracer::Global().NowUs() - t0, keys);
        continue;
      }
      if (hs.stale) {
        // Pre-snapshot straggler: its increment is useless without the
        // lost prefix, and the snapshot in flight supersedes it.
        stale_discarded_.fetch_add(1, std::memory_order_acq_rel);
        m_stale_discarded->Add();
        continue;
      }
      if (d.epoch < hs.next_epoch) {
        // Duplicate (already folded) — fold-once means drop.
        deltas_orphaned_.fetch_add(1, std::memory_order_acq_rel);
        m_orphaned->Add();
        continue;
      }
      if (d.epoch > hs.next_epoch) {
        // Gap: an earlier epoch is still in flight.  Buffer; folding out
        // of order would make intermediate materializations depend on
        // arrival order.  A duplicate of an already-buffered epoch is a
        // duplicate, not a reorder.
        bool inserted =
            hs.pending
                .emplace(d.epoch,
                         PendingDelta{std::move(d.payload), std::move(d.records), wire_bytes})
                .second;
        if (inserted) {
          deltas_reordered_.fetch_add(1, std::memory_order_acq_rel);
          m_reordered->Add();
        } else {
          deltas_orphaned_.fetch_add(1, std::memory_order_acq_rel);
          m_orphaned->Add();
        }
        if (options_.gap_resync_threshold > 0 &&
            hs.pending.size() >= options_.gap_resync_threshold) {
          // The missing epoch is presumed lost (e.g. its frame failed
          // the CRC) — waiting longer only grows the buffer.  Declare
          // the stream stale and ask for a snapshot.
          hs.stale = true;
          stale_discarded_.fetch_add(hs.pending.size(), std::memory_order_acq_rel);
          m_stale_discarded->Add(hs.pending.size());
          hs.pending.clear();
          resyncs_.fetch_add(1, std::memory_order_acq_rel);
          m_resyncs->Add();
          Tracer::Global().Record("resync.request", Tracer::Global().NowUs(), 0,
                                  TraceKeys{d.subscription_id, d.host, hs.next_epoch});
          fire.emplace_back(d.subscription_id, d.host);
        }
        continue;
      }
      const TraceKeys keys{d.subscription_id, d.host, d.epoch};
      FoldReady(sub, hs, PendingDelta{std::move(d.payload), std::move(d.records), wire_bytes},
                keys);
      // The arrival may have closed a gap — fold the now-contiguous run.
      for (auto pit = hs.pending.begin();
           pit != hs.pending.end() && pit->first == hs.next_epoch;) {
        FoldReady(sub, hs, pit->second, TraceKeys{d.subscription_id, d.host, pit->first});
        pit = hs.pending.erase(pit);
      }
    }
  }
  if (requester) {
    for (const auto& [id, host] : fire) {
      requester(id, host);
    }
  }
}

bool SubscriptionManager::MarkStale(uint64_t id, HostId host) {
  static Counter* m_resyncs = MetricsRegistry::Global().GetCounter("sub.resyncs");
  static Counter* m_stale_discarded =
      MetricsRegistry::Global().GetCounter("sub.deltas_stale_discarded");
  std::lock_guard<std::mutex> state(state_mu_);
  auto it = subscriptions_.find(id);
  if (it == subscriptions_.end()) {
    return false;
  }
  auto hit = it->second.host_state.find(host);
  if (hit == it->second.host_state.end() || hit->second.stale) {
    return false;
  }
  HostState& hs = hit->second;
  hs.stale = true;
  // Stragglers are superseded by the snapshot; they land in the
  // stale_discarded bucket so the submitted-delta identity holds.
  stale_discarded_.fetch_add(hs.pending.size(), std::memory_order_acq_rel);
  m_stale_discarded->Add(hs.pending.size());
  hs.pending.clear();
  resyncs_.fetch_add(1, std::memory_order_acq_rel);
  m_resyncs->Add();
  Tracer::Global().Record("resync.request", Tracer::Global().NowUs(), 0,
                          TraceKeys{id, host, hs.next_epoch});
  return true;
}

void SubscriptionManager::SetResyncRequester(ResyncRequester fn) {
  std::lock_guard<std::mutex> state(state_mu_);
  resync_requester_ = std::move(fn);
}

bool SubscriptionManager::Resync(uint64_t id, HostId host) {
  MarkStale(id, host);  // idempotent; already-stale streams still resync
  // Find the in-process attachment, then tick its snapshot OUTSIDE
  // state_mu_ — TakeSnapshot holds TIB shard locks and the sink may
  // block on a full intake queue, which the drain worker folds out of
  // while holding state_mu_.
  EdgeAgent* agent = nullptr;
  {
    std::lock_guard<std::mutex> state(state_mu_);
    auto it = subscriptions_.find(id);
    if (it == subscriptions_.end()) {
      return false;
    }
    for (const AgentAttachment& att : it->second.attachments) {
      if (!att.agent_alive.expired() && att.agent->host() == host) {
        agent = att.agent;
        break;
      }
    }
  }
  if (agent == nullptr) {
    return false;
  }
  return agent->ResyncStandingQuery(id) > 0;
}

size_t SubscriptionManager::stale_streams() const {
  std::lock_guard<std::mutex> state(state_mu_);
  size_t stale = 0;
  for (const auto& [id, sub] : subscriptions_) {
    for (const auto& [h, hs] : sub.host_state) {
      if (hs.stale) {
        ++stale;
      }
    }
  }
  return stale;
}

QueryResult SubscriptionManager::Materialize(uint64_t id) {
  static Counter* materializes = MetricsRegistry::Global().GetCounter("sub.materializes");
  static LatencyHistogram* mat_us =
      MetricsRegistry::Global().GetHistogram("sub.materialize_us");
  materializes->Add();
  TraceScope span("materialize", TraceKeys{id, 0, 0});
  const uint64_t t0 = Tracer::Global().NowUs();
  Flush();
  // Snapshot the folded state under state_mu_, but materialize and merge
  // outside it: the per-host sort/merge can take hundreds of ms at
  // large flow populations, and the drain worker needs state_mu_ to
  // keep folding (a stalled fold backs the bounded queue up into the
  // epoch tickers).
  StandingQuerySpec spec;
  std::vector<FlowBytesMap> folded;          // per-flow kinds, in host order
  std::vector<RecordFoldState> rec_folded;   // record kinds, in host order
  {
    std::lock_guard<std::mutex> state(state_mu_);
    auto it = subscriptions_.find(id);
    if (it == subscriptions_.end()) {
      return QueryResult{};
    }
    const Subscription& sub = it->second;
    spec = sub.spec;
    for (HostId h : sub.hosts) {
      auto hit = sub.host_state.find(h);
      if (hit == sub.host_state.end()) {
        continue;
      }
      if (spec.IsRecordKind()) {
        // Copy only what materialization reads (items + count) — not
        // the `seen` dedup index, which would roughly double the copy
        // held under state_mu_.
        RecordFoldState snap;
        snap.flow_items = hit->second.records.flow_items;
        snap.count = hit->second.records.count;
        rec_folded.push_back(std::move(snap));
      } else {
        folded.push_back(hit->second.folded);
      }
    }
  }
  // The poll path's reduce, reproduced: per-host results merged
  // sequentially in host order (Controller::Execute phase 2).
  QueryResult merged;
  if (spec.IsRecordKind()) {
    for (const RecordFoldState& state : rec_folded) {
      QueryResult host_result = MaterializeStandingRecords(spec, state);
      MergeQueryResult(merged, host_result);
    }
  } else {
    for (const FlowBytesMap& per_flow : folded) {
      QueryResult host_result = MaterializeStandingResult(spec, per_flow);
      MergeQueryResult(merged, host_result);
    }
  }
  mat_us->Record(Tracer::Global().NowUs() - t0);
  return merged;
}

SubscriptionManagerStats SubscriptionManager::stats() const {
  const MpscChannelStats ch = channel_.stats();
  SubscriptionManagerStats out;
  out.deltas_submitted = ch.submitted;
  out.blocked_enqueues = ch.blocked_enqueues;
  out.batches = ch.batches;
  out.deltas_folded = deltas_folded_.load(std::memory_order_acquire);
  out.deltas_reordered = deltas_reordered_.load(std::memory_order_acquire);
  out.deltas_orphaned = deltas_orphaned_.load(std::memory_order_acquire);
  out.delta_bytes = delta_bytes_.load(std::memory_order_acquire);
  out.flow_updates = flow_updates_.load(std::memory_order_acquire);
  out.resyncs = resyncs_.load(std::memory_order_acquire);
  out.snapshot_folds = snapshot_folds_.load(std::memory_order_acquire);
  out.deltas_stale_discarded = stale_discarded_.load(std::memory_order_acquire);
  return out;
}

SubscriptionInfo SubscriptionManager::info(uint64_t id) const {
  std::lock_guard<std::mutex> state(state_mu_);
  SubscriptionInfo out;
  auto it = subscriptions_.find(id);
  if (it == subscriptions_.end()) {
    return out;
  }
  const Subscription& sub = it->second;
  out.id = id;
  out.spec = sub.spec;
  out.hosts = sub.hosts.size();
  out.deltas_folded = sub.deltas_folded;
  out.delta_bytes = sub.delta_bytes;
  for (const auto& [h, hs] : sub.host_state) {
    out.pending_gaps += hs.pending.size();
  }
  return out;
}

size_t SubscriptionManager::subscription_count() const {
  std::lock_guard<std::mutex> state(state_mu_);
  return subscriptions_.size();
}

}  // namespace pathdump
