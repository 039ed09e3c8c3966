// Harness wiring a topology into a DVMRP flood-and-prune domain, on the
// same ProtocolDomain as CbtDomain so experiments can run both schemes on
// identical topologies and workloads.
#pragma once

#include <cstddef>
#include <memory>

#include "baselines/dvmrp_router.h"
#include "cbt/protocol_domain.h"

namespace cbt::baselines {

class DvmrpDomain : public core::ProtocolDomain<DvmrpRouter> {
 public:
  DvmrpDomain(netsim::Simulator& sim, netsim::Topology& topo,
              DvmrpConfig config = {}, igmp::IgmpConfig igmp_config = {})
      : ProtocolDomain(sim, topo, "dvmrp") {
    Populate([&](NodeId id) {
      return std::make_unique<DvmrpRouter>(sim, id, routes_, config,
                                           igmp_config);
    });
  }

  std::size_t TotalStateUnits() const {
    return SumOverRouters<std::size_t>(
        [](const DvmrpRouter& r) { return r.StateUnits(); });
  }
};

}  // namespace cbt::baselines
