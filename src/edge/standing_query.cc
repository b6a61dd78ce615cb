#include "src/edge/standing_query.h"

#include <algorithm>
#include <utility>

#include "src/common/metrics.h"
#include "src/common/trace.h"

namespace pathdump {

KernelState KernelState::FinalizeInputs() const {
  KernelState out;
  out.flow_bytes = flow_bytes;
  out.flows = flows;
  out.count = count;
  return out;
}

bool KernelAdmits(const StandingQuerySpec& spec, const TibRecord& rec) {
  return rec.Overlaps(spec.range) && rec.path.MatchesLinkQuery(spec.link);
}

namespace {

// The per-kind bodies of KernelAdd.  KernelFold calls them once per
// shipped item, so a folded delta and an admitted record add the same way.
void AddFlowBytes(KernelState& state, const FiveTuple& flow, uint64_t bytes) {
  state.flow_bytes[flow] += bytes;
}

void AddCount(KernelState& state, uint64_t bytes, uint64_t pkts) {
  state.count.bytes += bytes;
  state.count.pkts += pkts;
}

// Dedup on the stored CompactPath: no path is decoded until finalize,
// and then only once per distinct pair.
void AddFlow(KernelState& state, uint64_t id, const FiveTuple& flow, const CompactPath& path) {
  const uint64_t key = path.HashKey(FiveTupleHash{}(flow));
  auto [first, last] = state.flow_index.equal_range(key);
  for (auto it = first; it != last; ++it) {
    KernelFlow& existing = state.flows[it->second];
    if (existing.flow == flow && existing.path == path) {
      // Ids ascend within a shard and deltas fold in epoch order, so the
      // first occurrence already holds the minimum; kept defensively.
      existing.id = std::min(existing.id, id);
      return;
    }
  }
  state.flow_index.emplace(key, state.flows.size());
  state.flows.push_back(KernelFlow{id, flow, path});
}

}  // namespace

void KernelAdd(const StandingQuerySpec& spec, KernelState& state, uint64_t id,
               const TibRecord& rec) {
  switch (spec.kind) {
    case StandingQuerySpec::Kind::kTopK:
    case StandingQuerySpec::Kind::kFlowSizeHistogram:
      AddFlowBytes(state, rec.flow, rec.bytes);
      return;
    case StandingQuerySpec::Kind::kCountSummary:
      AddCount(state, rec.bytes, rec.pkts);
      return;
    case StandingQuerySpec::Kind::kFlowList:
      AddFlow(state, id, rec.flow, rec.path);
      return;
  }
}

void KernelFold(KernelState& state, const FlowBytesDelta& delta) {
  for (const auto& [flow, bytes] : delta.items) {
    AddFlowBytes(state, flow, bytes);
  }
}

void KernelFold(const StandingQuerySpec& spec, KernelState& state, const RecordDelta& delta) {
  for (const RecordDeltaItem& item : delta.items) {
    if (spec.kind == StandingQuerySpec::Kind::kCountSummary) {
      AddCount(state, item.bytes, item.pkts);
    } else {
      AddFlow(state, item.id, item.flow, CompactPath::FromPath(item.path));
    }
  }
}

QueryResult KernelFinalize(const StandingQuerySpec& spec, std::span<const KernelState> states) {
  switch (spec.kind) {
    case StandingQuerySpec::Kind::kTopK: {
      TopKFlows out;
      out.k = spec.k;
      size_t total = 0;
      for (const KernelState& s : states) {
        total += s.flow_bytes.size();
      }
      out.items.reserve(total);
      for (const KernelState& s : states) {
        for (const auto& [flow, bytes] : s.flow_bytes) {
          out.items.emplace_back(bytes, flow);
        }
      }
      out.Finalize();
      return out;
    }
    case StandingQuerySpec::Kind::kFlowSizeHistogram: {
      FlowSizeHistogram h;
      h.bin_width = spec.bin_width;
      for (const KernelState& s : states) {
        for (const auto& [flow, bytes] : s.flow_bytes) {
          h.bins[int64_t(bytes) / spec.bin_width] += 1;
        }
      }
      return h;
    }
    case StandingQuerySpec::Kind::kCountSummary: {
      CountSummary c;
      for (const KernelState& s : states) {
        c.bytes += s.count.bytes;
        c.pkts += s.count.pkts;
      }
      return c;
    }
    case StandingQuerySpec::Kind::kFlowList:
      break;
  }
  // First-appearance order across the whole TIB = ascending first id.
  std::vector<const KernelFlow*> ordered;
  for (const KernelState& s : states) {
    for (const KernelFlow& f : s.flows) {
      ordered.push_back(&f);
    }
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const KernelFlow* a, const KernelFlow* b) { return a->id < b->id; });
  FlowList out;
  out.flows.reserve(ordered.size());
  for (const KernelFlow* f : ordered) {
    out.flows.push_back(Flow{f->flow, f->path.ToPath()});
  }
  return out;
}

QueryResult KernelPoll(const StandingQuerySpec& spec, const Tib& tib) {
  std::vector<KernelState> shards(tib.shard_count());
  tib.ScanShards([&](size_t si, uint64_t id, const TibRecord& rec) {
    if (KernelAdmits(spec, rec)) {
      KernelAdd(spec, shards[si], id, rec);
    }
  });
  return KernelFinalize(spec, shards);
}

StandingQueryAccumulator::StandingQueryAccumulator(uint64_t subscription_id, HostId host,
                                                   const StandingQuerySpec& spec, Tib* tib)
    : subscription_id_(subscription_id),
      host_(host),
      spec_(spec),
      tib_(tib),
      partial_(tib->shard_count()) {
  hook_id_ = tib_->AddInsertHook([this](size_t shard_index, uint64_t record_id,
                                        const TibRecord& rec) {
    Collect(partial_[shard_index], record_id, rec);
  });
}

StandingQueryAccumulator::~StandingQueryAccumulator() {
  // Synchronizes with every in-flight Insert (removal takes all shard
  // locks), so after this no insert hook can touch the partials.
  tib_->RemoveInsertHook(hook_id_);
}

void StandingQueryAccumulator::Collect(ShardPartial& partial, uint64_t record_id,
                                       const TibRecord& rec) const {
  if (!KernelAdmits(spec_, rec)) {
    return;
  }
  if (spec_.IsRecordKind()) {
    partial.records.push_back(
        CompactRecordEntry{record_id, rec.flow, rec.path, rec.bytes, rec.pkts});
    return;
  }
  KernelAdd(spec_, partial.state, record_id, rec);
}

void StandingQueryAccumulator::FillPayload(std::vector<ShardPartial>& drained,
                                           QueryDelta& delta) const {
  if (spec_.IsRecordKind()) {
    // Decode paths here, on the ticking thread with no lock held — once
    // per shipped record, never inside Insert.
    std::vector<std::vector<RecordDeltaItem>> decoded(drained.size());
    for (size_t si = 0; si < drained.size(); ++si) {
      decoded[si].reserve(drained[si].records.size());
      for (const CompactRecordEntry& e : drained[si].records) {
        decoded[si].push_back(RecordDeltaItem{e.id, e.flow, e.path.ToPath(), e.bytes, e.pkts});
      }
    }
    delta.records = RecordDelta::FromShardBuffers(decoded);
    return;
  }
  std::vector<FlowBytesMap> maps(drained.size());
  for (size_t si = 0; si < drained.size(); ++si) {
    maps[si].swap(drained[si].state.flow_bytes);
  }
  delta.payload = FlowBytesDelta::FromShardMaps(maps);
}

std::optional<QueryDelta> StandingQueryAccumulator::TakeDelta() {
  static Counter* produced =
      MetricsRegistry::Global().GetCounter("standing.deltas_produced");
  static Counter* produced_bytes =
      MetricsRegistry::Global().GetCounter("standing.delta_bytes_produced");
  static Counter* empty_ticks =
      MetricsRegistry::Global().GetCounter("standing.empty_ticks");
  static LatencyHistogram* take_us =
      MetricsRegistry::Global().GetHistogram("standing.take_delta_us");
  // Keys are completed once the epoch number is known (epoch stays 0 for
  // an empty tick, which consumes no epoch number).
  TraceKeys keys{subscription_id_, uint32_t(host_), 0};
  const uint64_t t0 = Tracer::Global().NowUs();

  std::lock_guard<std::mutex> tick(tick_mu_);
  std::vector<ShardPartial> drained(partial_.size());
  tib_->ForEachShardExclusive([&](size_t si) { std::swap(drained[si], partial_[si]); });
  QueryDelta delta;
  FillPayload(drained, delta);
  const bool empty = spec_.IsRecordKind() ? delta.records.empty() : delta.payload.empty();
  if (empty) {
    empty_ticks->Add();
    Tracer::Global().Record("standing.take_delta", t0, Tracer::Global().NowUs() - t0, keys);
    return std::nullopt;
  }
  delta.subscription_id = subscription_id_;
  delta.host = host_;
  delta.kind = spec_.kind;
  delta.epoch = next_epoch_++;

  keys.epoch = delta.epoch;
  const uint64_t dur = Tracer::Global().NowUs() - t0;
  produced->Add();
  produced_bytes->Add(delta.SerializedSize());
  take_us->Record(dur);
  Tracer::Global().Record("standing.take_delta", t0, dur, keys);
  return delta;
}

QueryDelta StandingQueryAccumulator::TakeSnapshot() {
  static Counter* taken = MetricsRegistry::Global().GetCounter("standing.snapshots_taken");
  static Counter* taken_bytes =
      MetricsRegistry::Global().GetCounter("standing.snapshot_bytes_produced");
  TraceKeys keys{subscription_id_, uint32_t(host_), 0};
  const uint64_t t0 = Tracer::Global().NowUs();

  std::lock_guard<std::mutex> tick(tick_mu_);
  std::vector<ShardPartial> scanned(partial_.size());
  tib_->ForEachShardRecordExclusive(
      [&](size_t si) { partial_[si] = ShardPartial{}; },
      [&](size_t si, uint64_t record_id, const TibRecord& rec) {
        Collect(scanned[si], record_id, rec);
      });
  QueryDelta delta;
  delta.snapshot = true;
  FillPayload(scanned, delta);
  delta.subscription_id = subscription_id_;
  delta.host = host_;
  delta.kind = spec_.kind;
  // Snapshots always consume an epoch number — even empty ones ship, so
  // the receiver can re-anchor its next_epoch at snapshot + 1.
  delta.epoch = next_epoch_++;

  keys.epoch = delta.epoch;
  taken->Add();
  taken_bytes->Add(delta.SerializedSize());
  Tracer::Global().Record("resync.snapshot", t0, Tracer::Global().NowUs() - t0, keys);
  return delta;
}

}  // namespace pathdump
