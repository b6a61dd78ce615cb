// perfbench's seeded input generator.
//
// Every input is a pure function of the run's --seed: the same seed gives
// the same TIB records, ingest batches and packets.  Generation happens
// once, before set-up is timed; the program then only ever sees the
// generated values.  ECMP path sets and trajectory headers are computed
// once per host pair (PathCache) instead of once per record, and
// per-request fields (epoch timestamps, per-slice ports) are filled into
// the pre-built records and packets in place.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/cherrypick/codec.h"
#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/edge/tib.h"
#include "src/packet/packet.h"
#include "src/topology/link_labels.h"
#include "src/topology/routing.h"
#include "src/topology/topology.h"

namespace perfbench {

using pathdump::HostId;
using pathdump::LinkId;
using pathdump::Path;
using pathdump::Rng;
using pathdump::TibRecord;

// FatTree(8) with its CherryPick codec and router: 128 hosts, 16 cores.
struct Fabric {
  Fabric();
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  pathdump::Topology topo;
  std::unique_ptr<pathdump::LinkLabelMap> labels;
  std::unique_ptr<pathdump::CherryPickCodec> codec;
  std::unique_ptr<pathdump::Router> router;

  // Host i of the population used by a workload with `n` agents: spread
  // evenly over the pods so traffic between them crosses the cores.
  HostId AgentHost(size_t i, size_t n) const;
  // Core -> aggregation link into pod 0's first aggregation switch: the
  // link every poll and standing query filters on.
  LinkId ProbeLink() const;
};

// ECMP path sets (and their CherryPick headers), computed once per host
// pair on first use.
class PathCache {
 public:
  explicit PathCache(const Fabric& fabric) : fabric_(fabric) {}

  struct Route {
    Path path;
    pathdump::LinkLabel dscp = 0;
    std::vector<pathdump::LinkLabel> tags;  // push order
  };
  const std::vector<Route>& Routes(HostId src, HostId dst);

 private:
  const Fabric& fabric_;
  std::map<std::pair<HostId, HostId>, std::vector<Route>> routes_;
};

// --- poll_session ---

// `per_agent` TIB records for each host in `hosts` (one vector per host):
// random remote source, one of its ECMP paths, heavy-tailed size.
std::vector<std::vector<TibRecord>> MakePollRecords(const Fabric& fabric, PathCache& paths,
                                                    const std::vector<HostId>& hosts,
                                                    size_t per_agent, uint64_t seed);

// --- standing_shm ---

// Per agent, a fixed universe of flows (each pinned to one ECMP path) and
// a pool of ingest batches drawn from it.  Epoch e ingests
// batches[(e - 1) % batches.size()], stamped with the epoch's time.
struct IngestPool {
  std::vector<std::vector<TibRecord>> batches;
};
std::vector<IngestPool> MakeIngestPools(const Fabric& fabric, PathCache& paths,
                                        const std::vector<HostId>& hosts, size_t flows,
                                        size_t batches, size_t per_batch, uint64_t seed);
// Fills epoch `epoch`'s timestamps into `batch` in place and returns it.
std::vector<TibRecord>& StampEpoch(std::vector<TibRecord>& batch, uint64_t epoch);

// --- datapath_alarms ---

// One agent's packet templates: `flows` flows of `pkts_per_flow` packets,
// each flow pinned to one ECMP path with its trajectory header.  A slice
// re-stamps the ports in place (FillSlice), so every slice carries fresh
// flows over the same paths.
struct PacketTemplates {
  std::vector<pathdump::Packet> packets;  // flow-major
  std::vector<uint64_t> flow_bytes;       // per template flow
  size_t violating = 0;                   // template flows that cross the forbidden core
  size_t pkts_per_flow = 0;
};
std::vector<PacketTemplates> MakePacketTemplates(const Fabric& fabric, PathCache& paths,
                                                 const std::vector<HostId>& hosts, size_t flows,
                                                 size_t pkts_per_flow,
                                                 pathdump::SwitchId forbidden, uint64_t seed);
// Flow identity of template flow `i` in slice `slice`.
void SliceFlow(pathdump::FiveTuple& flow, size_t i, uint64_t slice);
// Stamps slice `slice`'s ports into `t.packets` in place; returns the
// sim time the slice starts at.
pathdump::SimTime FillSlice(PacketTemplates& t, uint64_t slice);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
