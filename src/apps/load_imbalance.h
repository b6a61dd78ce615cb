// Load-imbalance diagnosis (§2.3, §4.2).
//
// Two diagnoses from the paper:
//  * ECMP: build the per-flow size distribution for each egress link of
//    interest via a (multi-level) query over all hosts; sharply divided
//    distributions reveal a poor hash (Fig. 5(c)).
//  * Packet spraying: for one flow, compare per-path byte counts from the
//    destination TIB; a skewed split names the under/over-utilized path
//    (Fig. 6).

#ifndef PATHDUMP_SRC_APPS_LOAD_IMBALANCE_H_
#define PATHDUMP_SRC_APPS_LOAD_IMBALANCE_H_

#include <utility>
#include <vector>

#include "src/controller/controller.h"
#include "src/controller/subscription.h"
#include "src/edge/fleet.h"

namespace pathdump {

// Flow-size distribution across all given hosts for flows traversing
// `link`, computed with the multi-level (or direct) query mechanism.
FlowSizeHistogram FlowSizeDistributionForLink(Controller& controller,
                                              const std::vector<HostId>& hosts, LinkId link,
                                              TimeRange range, int64_t bin_width = 10000,
                                              bool multi_level = true);

// Standing variant of the ECMP diagnosis: installs the per-link
// flow-size distribution as a standing query and returns the
// subscription id.  Each epoch ships only the per-flow byte increments
// for records whose path matched `link`; at any epoch boundary the
// materialized histogram is byte-identical to a direct-poll
// FlowSizeDistributionForLink over the same records.  Polling keeps
// working alongside.
uint64_t SubscribeFlowSizeDistribution(SubscriptionManager& manager,
                                       const std::vector<HostId>& hosts, LinkId link,
                                       TimeRange range, int64_t bin_width = 10000);

// Materializes the standing histogram (flushes in-flight deltas
// first).  The bin width (like every query parameter) is the
// subscription's own spec.
FlowSizeHistogram FlowSizeDistributionStanding(SubscriptionManager& manager,
                                               uint64_t subscription_id);

// Per-path traffic of one flow at its destination TIB (Fig. 6 data).
struct SubflowUsage {
  Path path;
  uint64_t bytes = 0;
  uint64_t pkts = 0;
};
std::vector<SubflowUsage> PerPathUsage(EdgeAgent& dst_agent, const FiveTuple& flow,
                                       TimeRange range);

// Spray balance verdict: max/min byte ratio across subflows.
struct SprayBalanceReport {
  std::vector<SubflowUsage> subflows;
  double max_min_ratio = 1.0;
  bool balanced = true;
};
SprayBalanceReport CheckSprayBalance(EdgeAgent& dst_agent, const FiveTuple& flow,
                                     TimeRange range, double tolerance_ratio = 1.5);

}  // namespace pathdump

#endif  // PATHDUMP_SRC_APPS_LOAD_IMBALANCE_H_
