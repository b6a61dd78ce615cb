// Debugging queries, one-shot or standing, and the one aggregation
// kernel both run.
//
// PathDump's controller either runs a debugging query once or install()s
// it to run again and again at the edge (§3, Table 1).  Here a query of
// one of four kinds (top-k, flow-size distribution, getFlows, getCount)
// is described by a StandingQuerySpec, and each kind has ONE kernel:
//
//   filter      KernelAdmits — range overlap plus the link match;
//   state       KernelState — per-flow byte totals (TopK, histogram), or
//               a (flow, CompactPath) first-id dedup and a CountSummary
//               (FlowList, CountSummary);
//   add         KernelAdd(state, id, record);
//   finalize    KernelFinalize(states...) -> the host's QueryResult;
//   reduce      the controller's ordered MergeQueryResult over hosts.
//
// Every path runs it.  A poll (KernelPoll, behind EdgeAgent::TopK /
// FlowSizeDistribution / CountOnLink / GetFlows) fills one state per TIB
// shard in a shard-parallel scan and finalizes those states directly.  A
// standing query filters at insert time instead: the agent's
// accumulator admits each record with the same filter and, on an epoch
// tick, ships only the increment,
//
//   Tib::Insert ──(insert hook, under the shard lock)──▶ per-shard
//   partial ──(epoch tick: swap + reset, one shard lock at a time)──▶
//   deterministic ordered reduce ──▶ epoch-stamped QueryDelta ──▶
//   controller subscription channel (src/controller/subscription.h),
//
// and the controller folds every delta into one KernelState per host
// (KernelFold: KernelAdd's per-kind body per shipped item) and materializes
// with the same KernelFinalize.  The per-flow kinds' partial is a
// KernelState filled by KernelAdd and ships as per-flow sums
// (FlowBytesDelta, src/common/flow_delta.h); the record kinds' partial
// buffers the admitted records, which ship as such (RecordDelta,
// src/common/record_delta.h).  A resync snapshot re-scans the shard
// through the same per-record step as the insert hook.
//
// Determinism contract: at any epoch boundary, folding every delta
// shipped so far equals a fresh poll over the same records — at any
// shard count and any scan-worker count (tests/standing_query_test.cc).
//
// Locking: partial updates ride the shard lock Tib::Insert already
// holds; the epoch snapshot takes one shard lock at a time
// (Tib::ForEachShardExclusive).  No new lock hierarchy — the only
// accumulator-private lock is a tick mutex serializing epoch snapshots
// against each other, taken before any shard lock.

#ifndef PATHDUMP_SRC_EDGE_STANDING_QUERY_H_
#define PATHDUMP_SRC_EDGE_STANDING_QUERY_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/flow_delta.h"
#include "src/common/record_delta.h"
#include "src/common/types.h"
#include "src/edge/query.h"
#include "src/edge/tib.h"

namespace pathdump {

// What a query computes, polled once or installed as a subscription.  A
// subscription's spec installs on every agent; the controller
// materializes per host and merges in host order — the poll's shape.
struct StandingQuerySpec {
  enum class Kind : uint8_t {
    kTopK = 0,               // per-flow sums -> TopKFlows
    kFlowSizeHistogram = 1,  // per-flow sums -> FlowSizeHistogram
    kFlowList = 2,           // per-record   -> FlowList (getFlows)
    kCountSummary = 3,       // per-record   -> CountSummary (getCount)
  };

  Kind kind = Kind::kTopK;
  // kTopK: per-host truncation bound (the poll path's k).
  size_t k = 0;
  // kFlowSizeHistogram: histogram bin width.
  int64_t bin_width = 10000;
  // Record filter (KernelAdmits): a wildcardable link the record's path
  // must match (TopK uses (<*, *>)) ...
  LinkId link{kInvalidNode, kInvalidNode};
  // ... and a time range the record must overlap.  A standing query
  // filters each record once, at insert; its range is normally
  // open-ended.
  TimeRange range = TimeRange::All();

  // True for the kinds whose deltas carry records, not per-flow sums.
  bool IsRecordKind() const {
    return kind == Kind::kFlowList || kind == Kind::kCountSummary;
  }

  friend bool operator==(const StandingQuerySpec&, const StandingQuerySpec&) = default;
};

// One epoch's increment from one host, shipped over the subscription
// channel.  Epochs are 1-based and contiguous per (subscription, host);
// empty epochs ship nothing (and consume no epoch number), so per-epoch
// wire cost scales with the delta, not with the TIB.
struct QueryDelta {
  uint64_t subscription_id = 0;
  HostId host = kInvalidNode;
  // The subscription's kind, stamped by the accumulator.  Redundant with
  // the manager's own spec for in-process delivery, but load-bearing on
  // the wire (src/transport/wire.cc): the frame decoder picks the payload
  // shape from this byte instead of guessing from content.
  StandingQuerySpec::Kind kind = StandingQuerySpec::Kind::kTopK;
  // Per-(subscription, host) epoch number, stamped by the accumulator.
  uint64_t epoch = 0;
  // Channel intake sequence, stamped by the SubscriptionManager at
  // enqueue (0 until then) — arrival order, which may disagree with
  // epoch order; the manager folds in epoch order regardless.
  uint64_t seq = 0;
  // True for a one-shot resync snapshot (TakeSnapshot): the payload is
  // the FULL standing state as of this epoch boundary, not an increment.
  // The controller replaces the (sub, host) fold state with it and
  // resumes delta folding at epoch + 1.  Unlike ordinary deltas, an
  // EMPTY snapshot still ships and still consumes an epoch number — the
  // receiver needs the baseline even when the baseline is "nothing".
  bool snapshot = false;
  // Exactly one of these is populated, by the subscription's kind:
  // per-flow sums for kTopK/kFlowSizeHistogram, records for the rest.
  FlowBytesDelta payload;
  RecordDelta records;

  // Bytes on the wire: the populated payload plus the subscription/host/
  // epoch framing (8 + 4 + 8, padded to 24 like fixed fields elsewhere).
  size_t SerializedSize() const {
    return 24 + (records.empty() ? payload.SerializedSize() : records.SerializedSize());
  }

  friend bool operator==(const QueryDelta&, const QueryDelta&) = default;
};

// --- The aggregation kernel ---

// One distinct (flow, path) pair of a FlowList state and the smallest
// insertion id it was seen with (first appearance).
struct KernelFlow {
  uint64_t id = 0;
  FiveTuple flow;
  CompactPath path;
};

// One host's (or, in a poll, one TIB shard's) aggregation state.  Only
// the members of the spec's kind are used.
struct KernelState {
  // kTopK / kFlowSizeHistogram: per-flow byte totals.
  FlowBytesMap flow_bytes;
  // kFlowList: distinct (flow, path) pairs in the order first added, and the
  // dedup index over them (path hash seeded by the flow -> index into
  // `flows`).  The hash only buckets; equality is exact, so a 64-bit
  // collision cannot change the answer.
  std::vector<KernelFlow> flows;
  std::unordered_multimap<uint64_t, size_t> flow_index;
  // kCountSummary: byte/packet totals.
  CountSummary count;

  // Everything KernelFinalize reads — all but the dedup index, which
  // would roughly double the copy of a FlowList state.
  KernelState FinalizeInputs() const;
};

// The one record filter: does `rec` belong to the query?  Range overlap
// plus the (wildcardable) link match.  The poll scan, the insert hook
// and the resync snapshot all call it.
bool KernelAdmits(const StandingQuerySpec& spec, const TibRecord& rec);

// Adds one admitted record to `state`.  FlowList keeps the first
// occurrence of each (flow, path) pair with its smallest id; the other
// kinds sum.  Zero-byte records still create their flow's key.
void KernelAdd(const StandingQuerySpec& spec, KernelState& state, uint64_t id,
               const TibRecord& rec);

// Folds one shipped delta into a host's state, each item added by
// KernelAdd's body for the kind: per-flow sums (either per-flow kind)
// or records (FlowList / CountSummary, by the spec).
void KernelFold(KernelState& state, const FlowBytesDelta& delta);
void KernelFold(const StandingQuerySpec& spec, KernelState& state, const RecordDelta& delta);

// One host's result from its states (one per TIB shard in a poll, one
// per host at the controller).  Per-shard states are key-disjoint (a
// flow lives in exactly one shard, and with it every duplicate of its
// (flow, path) pairs), so the result is the same at any shard count:
// TopK sorts to a total order, FlowList orders by first id.
QueryResult KernelFinalize(const StandingQuerySpec& spec, std::span<const KernelState> states);

// A poll: fills one state per shard of `tib` (shard-parallel on the
// TIB's scan pool, Tib::ScanShards) and finalizes them.  Byte-identical
// at any shard and scan-worker count.
QueryResult KernelPoll(const StandingQuerySpec& spec, const Tib& tib);

// The per-agent accumulator: one partial per TIB shard (a KernelState
// for the per-flow kinds, an append buffer of admitted records for the
// record kinds), updated by a Tib insert hook under that shard's lock,
// drained by TakeDelta on epoch ticks.  Construction installs the hook;
// destruction removes it (after which no update is running — the Tib
// guarantees removal synchronizes with every in-flight Insert).
class StandingQueryAccumulator {
 public:
  StandingQueryAccumulator(uint64_t subscription_id, HostId host, const StandingQuerySpec& spec,
                           Tib* tib);
  ~StandingQueryAccumulator();

  StandingQueryAccumulator(const StandingQueryAccumulator&) = delete;
  StandingQueryAccumulator& operator=(const StandingQueryAccumulator&) = delete;

  // Epoch tick: snapshots + resets the per-shard partials (one shard
  // lock at a time), merges them with the deterministic ordered reduce,
  // and returns the epoch-stamped delta — or nullopt if nothing changed
  // (no epoch number is consumed).  Thread-safe; cost is O(delta).
  std::optional<QueryDelta> TakeDelta();

  // Resync: one full epoch-boundary snapshot of the standing state.
  // Under each shard's exclusive lock the pending partial is discarded
  // and the shard's stored records are re-scanned through the same
  // per-record step the insert hook runs, so the result equals "all
  // matching records inserted so far" — records inserted before a
  // shard's visit are in its scan, records inserted after land in the
  // freshly-cleared partial and ship with the NEXT delta; nothing is
  // counted twice or dropped.  Always consumes an epoch number and
  // always returns a delta (marked snapshot=true), even when empty.
  // Cost is O(TIB records) — resync only, never the steady state.
  //
  // Under a TIB memory ceiling the re-scan covers the RETAINED window
  // only (retired segments no longer exist), so a post-eviction snapshot
  // re-baselines the stream to the window a poll query would see — by
  // design: incremental folds stay exact over the full history (the
  // insert hook saw every record before its segment could retire), while
  // any resync adopts window-scoped semantics, matching window-scoped
  // polls.
  QueryDelta TakeSnapshot();

  uint64_t subscription_id() const { return subscription_id_; }
  HostId host() const { return host_; }
  const StandingQuerySpec& spec() const { return spec_; }

 private:
  // A record-kind buffer entry: the path stays in its stored CompactPath
  // form so the insert hook does no decoding (and no per-path
  // allocation) under the shard lock; the delta decodes once per shipped
  // record, outside the insert path.
  struct CompactRecordEntry {
    uint64_t id;
    FiveTuple flow;
    CompactPath path;
    uint64_t bytes;
    uint32_t pkts;
  };
  // One TIB shard's pending increment; only the member matching the
  // spec's kind is used.
  struct ShardPartial {
    KernelState state;                        // per-flow kinds
    std::vector<CompactRecordEntry> records;  // record kinds
  };

  // The per-record step of the insert hook and the resync scan alike:
  // KernelAdmits, then KernelAdd (per-flow kinds) or an append (record
  // kinds).  Caller holds the record's shard lock.
  void Collect(ShardPartial& partial, uint64_t record_id, const TibRecord& rec) const;
  // Canonicalizes drained per-shard partials into the delta's payload.
  void FillPayload(std::vector<ShardPartial>& drained, QueryDelta& delta) const;

  const uint64_t subscription_id_;
  const HostId host_;
  const StandingQuerySpec spec_;
  Tib* const tib_;
  int hook_id_ = -1;
  // partial_[s] is guarded by TIB shard s's lock (writes from the insert
  // hook and swaps from TakeDelta / TakeSnapshot all hold it).
  std::vector<ShardPartial> partial_;
  // Serializes concurrent epoch ticks; ordered before shard locks.
  std::mutex tick_mu_;
  uint64_t next_epoch_ = 1;  // guarded by tick_mu_
};

}  // namespace pathdump

#endif  // PATHDUMP_SRC_EDGE_STANDING_QUERY_H_
