// Per-flow byte deltas — the epoch increments standing queries ship.
//
// A standing query does not re-send its whole answer every poll; each
// epoch the agent ships only what changed: (flow, byte-delta) pairs
// accumulated since the previous epoch.  Both canned aggregates (top-k
// and the flow-size distribution) derive from per-flow byte totals, so
// one delta shape serves every standing query, and folding a delta into
// an accumulated map is a commutative integer sum — deterministic no
// matter how the deltas were produced (shard count, scan workers) or
// how shards were snapshotted.
//
// Wire framing follows src/edge/query.cc: a 16-byte message header plus
// a fixed 21 bytes per item (packed 5-tuple + byte count).  Items are
// kept sorted by flow id so a delta's wire bytes are a pure function of
// its contents.

#ifndef PATHDUMP_SRC_COMMON_FLOW_DELTA_H_
#define PATHDUMP_SRC_COMMON_FLOW_DELTA_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/types.h"

namespace pathdump {

// Per-flow byte totals — the kernel state of TopK and
// FlowSizeDistribution (KernelState, src/edge/standing_query.h), in a
// poll and in a standing subscription alike.
using FlowBytesMap = std::unordered_map<FiveTuple, uint64_t, FiveTupleHash>;

struct FlowBytesDelta {
  // (flow, byte-delta) pairs, sorted ascending by flow id — the
  // canonical order, so equal contents always serialize identically.
  std::vector<std::pair<FiveTuple, uint64_t>> items;

  bool empty() const { return items.empty(); }

  // Bytes this delta occupies on the wire (header + 21 per item, the
  // same per-flow framing as a TopKFlows item).
  size_t SerializedSize() const;

  // Canonicalizes key-disjoint per-shard partial maps into one sorted
  // delta (the epoch-tick merge).  Maps are consumed.
  static FlowBytesDelta FromShardMaps(std::vector<FlowBytesMap>& shard_maps);

  // Folds this delta into an accumulated per-flow map (integer sums; a
  // zero-byte item still creates its key, as KernelAdd does).
  void ApplyTo(FlowBytesMap& acc) const;

  friend bool operator==(const FlowBytesDelta&, const FlowBytesDelta&) = default;
};

}  // namespace pathdump

#endif  // PATHDUMP_SRC_COMMON_FLOW_DELTA_H_
