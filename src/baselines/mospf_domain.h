// Harness wiring a topology into an MOSPF-style domain (a ProtocolDomain,
// like CbtDomain / DvmrpDomain, for identical-workload comparisons).
#pragma once

#include <cstddef>
#include <memory>

#include "baselines/mospf_router.h"
#include "cbt/protocol_domain.h"

namespace cbt::baselines {

class MospfDomain : public core::ProtocolDomain<MospfRouter> {
 public:
  MospfDomain(netsim::Simulator& sim, netsim::Topology& topo,
              igmp::IgmpConfig igmp_config = {})
      : ProtocolDomain(sim, topo, "mospf") {
    Populate([&](NodeId id) {
      return std::make_unique<MospfRouter>(sim, id, routes_, igmp_config);
    });
  }

  std::size_t TotalStateUnits() const {
    return SumOverRouters<std::size_t>(
        [](const MospfRouter& r) { return r.StateUnits(); });
  }
};

}  // namespace cbt::baselines
