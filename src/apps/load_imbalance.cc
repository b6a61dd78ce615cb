#include "src/apps/load_imbalance.h"

#include <algorithm>

namespace pathdump {

FlowSizeHistogram FlowSizeDistributionForLink(Controller& controller,
                                              const std::vector<HostId>& hosts, LinkId link,
                                              TimeRange range, int64_t bin_width,
                                              bool multi_level) {
  Controller::QueryFn query = [link, range, bin_width](EdgeAgent& agent) -> QueryResult {
    return agent.FlowSizeDistribution(link, range, bin_width);
  };
  auto [result, stats] = multi_level ? controller.ExecuteMultiLevel(hosts, query)
                                     : controller.Execute(hosts, query);
  if (auto* h = std::get_if<FlowSizeHistogram>(&result)) {
    return std::move(*h);
  }
  return FlowSizeHistogram{bin_width, {}};
}

uint64_t SubscribeFlowSizeDistribution(SubscriptionManager& manager,
                                       const std::vector<HostId>& hosts, LinkId link,
                                       TimeRange range, int64_t bin_width) {
  StandingQuerySpec spec;
  spec.kind = StandingQuerySpec::Kind::kFlowSizeHistogram;
  spec.link = link;
  spec.range = range;
  spec.bin_width = bin_width;
  return manager.Subscribe(hosts, spec);
}

FlowSizeHistogram FlowSizeDistributionStanding(SubscriptionManager& manager,
                                               uint64_t subscription_id) {
  QueryResult result = manager.Materialize(subscription_id);
  if (auto* h = std::get_if<FlowSizeHistogram>(&result)) {
    return std::move(*h);
  }
  // No host has shipped anything yet (or the id is unknown): an empty
  // histogram shaped by the subscription's own spec.
  return FlowSizeHistogram{manager.info(subscription_id).spec.bin_width, {}};
}

std::vector<SubflowUsage> PerPathUsage(EdgeAgent& dst_agent, const FiveTuple& flow,
                                       TimeRange range) {
  std::vector<SubflowUsage> out;
  LinkId any{kInvalidNode, kInvalidNode};
  for (Path& p : dst_agent.GetPaths(flow, any, range)) {
    CountSummary c = dst_agent.GetCount(Flow{flow, p}, range);
    SubflowUsage u;
    u.path = std::move(p);
    u.bytes = c.bytes;
    u.pkts = c.pkts;
    out.push_back(std::move(u));
  }
  std::sort(out.begin(), out.end(),
            [](const SubflowUsage& a, const SubflowUsage& b) { return a.path < b.path; });
  return out;
}

SprayBalanceReport CheckSprayBalance(EdgeAgent& dst_agent, const FiveTuple& flow,
                                     TimeRange range, double tolerance_ratio) {
  SprayBalanceReport rep;
  rep.subflows = PerPathUsage(dst_agent, flow, range);
  if (rep.subflows.empty()) {
    return rep;
  }
  uint64_t mx = 0;
  uint64_t mn = UINT64_MAX;
  for (const SubflowUsage& u : rep.subflows) {
    mx = std::max(mx, u.bytes);
    mn = std::min(mn, u.bytes);
  }
  rep.max_min_ratio = mn == 0 ? double(mx) : double(mx) / double(mn);
  rep.balanced = rep.max_min_ratio <= tolerance_ratio;
  return rep;
}

}  // namespace pathdump
