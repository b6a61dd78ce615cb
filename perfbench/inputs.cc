#include "perfbench/inputs.h"

#include <algorithm>

#include "src/topology/fat_tree.h"

namespace perfbench {

using pathdump::FiveTuple;
using pathdump::kNsPerMs;
using pathdump::kNsPerSec;
using pathdump::kProtoTcp;
using pathdump::SimTime;

Fabric::Fabric() : topo(pathdump::BuildFatTree(8)) {
  labels = std::make_unique<pathdump::LinkLabelMap>(&topo);
  codec = std::make_unique<pathdump::CherryPickCodec>(&topo, labels.get());
  router = std::make_unique<pathdump::Router>(&topo);
}

HostId Fabric::AgentHost(size_t i, size_t n) const {
  const std::vector<HostId>& hosts = topo.hosts();
  return hosts[(i * hosts.size() / n) % hosts.size()];
}

LinkId Fabric::ProbeLink() const {
  const pathdump::FatTreeMeta& m = *topo.fat_tree();
  return LinkId{m.core[0], m.agg[0][0]};
}

const std::vector<PathCache::Route>& PathCache::Routes(HostId src, HostId dst) {
  auto [it, inserted] = routes_.try_emplace({src, dst});
  if (!inserted) {
    return it->second;
  }
  for (Path& path : fabric_.router->EcmpPaths(src, dst)) {
    Route r;
    // Walk the path applying the CherryPick encoder hop by hop, exactly
    // as the switch pipeline writes the header.
    for (size_t i = 0; i < path.size(); ++i) {
      const pathdump::NodeId in = (i == 0) ? pathdump::NodeId(src) : path[i - 1];
      const pathdump::NodeId out = (i + 1 < path.size()) ? path[i + 1] : pathdump::NodeId(dst);
      const pathdump::TagAction act =
          fabric_.codec->OnForward(path[i], in, out, dst, int(r.tags.size()), r.dscp);
      if (act.push_vlan) {
        r.tags.push_back(act.vlan);
      }
      if (act.set_dscp) {
        r.dscp = act.dscp;
      }
    }
    r.path = std::move(path);
    it->second.push_back(std::move(r));
  }
  return it->second;
}

namespace {

// A random remote source for `dst`.
HostId RandomSource(const Fabric& fabric, HostId dst, Rng& rng) {
  const std::vector<HostId>& hosts = fabric.topo.hosts();
  for (;;) {
    const HostId src = hosts[rng.UniformInt(uint32_t(hosts.size()))];
    if (src != dst) {
      return src;
    }
  }
}

// One flow towards `dst` pinned to a random ECMP path.
struct PinnedFlow {
  FiveTuple flow;
  const PathCache::Route* route = nullptr;
};

PinnedFlow MakePinnedFlow(const Fabric& fabric, PathCache& paths, HostId dst, uint16_t src_port,
                          Rng& rng) {
  const HostId src = RandomSource(fabric, dst, rng);
  const std::vector<PathCache::Route>& routes = paths.Routes(src, dst);
  PinnedFlow f;
  f.flow.src_ip = fabric.topo.IpOfHost(src);
  f.flow.dst_ip = fabric.topo.IpOfHost(dst);
  f.flow.src_port = src_port;
  f.flow.dst_port = 80;
  f.flow.protocol = kProtoTcp;
  f.route = &routes[rng.UniformInt(uint32_t(routes.size()))];
  return f;
}

uint64_t HeavyTailedBytes(Rng& rng) { return uint64_t(rng.Pareto(1000.0, 1.3)); }

}  // namespace

std::vector<std::vector<TibRecord>> MakePollRecords(const Fabric& fabric, PathCache& paths,
                                                    const std::vector<HostId>& hosts,
                                                    size_t per_agent, uint64_t seed) {
  std::vector<std::vector<TibRecord>> out(hosts.size());
  for (size_t a = 0; a < hosts.size(); ++a) {
    Rng rng(seed, 0x9011 + a);
    out[a].reserve(per_agent);
    for (size_t e = 0; e < per_agent; ++e) {
      PinnedFlow f = MakePinnedFlow(fabric, paths, hosts[a], uint16_t(1024 + e % 60000), rng);
      f.flow.dst_port = uint16_t(80 + e / 60000);
      TibRecord rec;
      rec.flow = f.flow;
      rec.path = pathdump::CompactPath::FromPath(f.route->path);
      rec.stime = SimTime(rng.UniformInt(3600)) * kNsPerSec;
      rec.etime = rec.stime + SimTime(rng.UniformInt(5000)) * kNsPerMs;
      rec.bytes = HeavyTailedBytes(rng);
      rec.pkts = uint32_t(rec.bytes / 1460 + 1);
      out[a].push_back(rec);
    }
  }
  return out;
}

std::vector<IngestPool> MakeIngestPools(const Fabric& fabric, PathCache& paths,
                                        const std::vector<HostId>& hosts, size_t flows,
                                        size_t batches, size_t per_batch, uint64_t seed) {
  std::vector<IngestPool> out(hosts.size());
  for (size_t a = 0; a < hosts.size(); ++a) {
    Rng rng(seed, 0x57A9 + a);
    std::vector<TibRecord> universe;
    universe.reserve(flows);
    for (size_t i = 0; i < flows; ++i) {
      const PinnedFlow f = MakePinnedFlow(fabric, paths, hosts[a], uint16_t(1024 + i), rng);
      TibRecord rec;
      rec.flow = f.flow;
      rec.path = pathdump::CompactPath::FromPath(f.route->path);
      universe.push_back(rec);
    }
    out[a].batches.resize(batches);
    for (std::vector<TibRecord>& batch : out[a].batches) {
      batch.reserve(per_batch);
      for (size_t r = 0; r < per_batch; ++r) {
        TibRecord rec = universe[rng.UniformInt(uint32_t(flows))];
        // Offset inside the epoch; StampEpoch adds the epoch's start.
        rec.stime = SimTime(rng.UniformInt(900)) * kNsPerMs;
        rec.etime = rec.stime + SimTime(rng.UniformInt(100)) * kNsPerMs;
        rec.bytes = HeavyTailedBytes(rng);
        rec.pkts = uint32_t(rec.bytes / 1460 + 1);
        batch.push_back(rec);
      }
    }
  }
  return out;
}

std::vector<TibRecord>& StampEpoch(std::vector<TibRecord>& batch, uint64_t epoch) {
  for (TibRecord& rec : batch) {
    const SimTime offset = rec.stime % kNsPerSec;
    const SimTime len = rec.etime - rec.stime;
    rec.stime = SimTime(epoch) * kNsPerSec + offset;
    rec.etime = rec.stime + len;
  }
  return batch;
}

std::vector<PacketTemplates> MakePacketTemplates(const Fabric& fabric, PathCache& paths,
                                                 const std::vector<HostId>& hosts, size_t flows,
                                                 size_t pkts_per_flow,
                                                 pathdump::SwitchId forbidden, uint64_t seed) {
  std::vector<PacketTemplates> out(hosts.size());
  for (size_t a = 0; a < hosts.size(); ++a) {
    Rng rng(seed, 0xDA7A + a);
    PacketTemplates& t = out[a];
    t.pkts_per_flow = pkts_per_flow;
    t.packets.reserve(flows * pkts_per_flow);
    for (size_t i = 0; i < flows; ++i) {
      const PinnedFlow f = MakePinnedFlow(fabric, paths, hosts[a], 0, rng);
      const bool bad = std::find(f.route->path.begin(), f.route->path.end(), forbidden) !=
                       f.route->path.end();
      t.violating += bad ? 1 : 0;
      uint64_t bytes = 0;
      for (size_t p = 0; p < pkts_per_flow; ++p) {
        pathdump::Packet pkt;
        pkt.flow = f.flow;
        pkt.src_host = fabric.topo.HostOfIp(f.flow.src_ip);
        pkt.dst_host = hosts[a];
        pkt.seq = uint32_t(p);
        // MTU-sized packets; the last one of a flow carries the remainder.
        pkt.size_bytes = p + 1 < pkts_per_flow
                             ? pathdump::kMaxPacketBytes
                             : pathdump::kMinPacketBytes +
                                   rng.UniformInt(pathdump::kMaxPacketBytes -
                                                  pathdump::kMinPacketBytes + 1);
        pkt.dscp = f.route->dscp;
        pkt.tags = f.route->tags;
        bytes += pkt.size_bytes;
        t.packets.push_back(std::move(pkt));
      }
      t.flow_bytes.push_back(bytes);
    }
  }
  return out;
}

void SliceFlow(FiveTuple& flow, size_t i, uint64_t slice) {
  flow.src_port = uint16_t(1024 + i);
  flow.dst_port = uint16_t(1 + slice % 65535);
}

SimTime FillSlice(PacketTemplates& t, uint64_t slice) {
  for (size_t j = 0; j < t.packets.size(); ++j) {
    SliceFlow(t.packets[j].flow, j / t.pkts_per_flow, slice);
  }
  return SimTime(slice) * kNsPerSec;
}

}  // namespace perfbench
