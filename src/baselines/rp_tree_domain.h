// Harness wiring a topology into a PIM-SM-shape RP-tree domain (a
// ProtocolDomain, like CbtDomain; RPs come from a shared group->RP
// registry).
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <optional>

#include "baselines/rp_tree_router.h"
#include "cbt/protocol_domain.h"

namespace cbt::baselines {

class RpTreeDomain : public core::ProtocolDomain<RpTreeRouter> {
 public:
  RpTreeDomain(netsim::Simulator& sim, netsim::Topology& topo,
               RpTreeConfig config = {})
      : ProtocolDomain(sim, topo, "rptree") {
    const auto resolver =
        [this](Ipv4Address group) -> std::optional<Ipv4Address> {
      const auto it = rp_by_group_.find(group);
      if (it == rp_by_group_.end()) return std::nullopt;
      return it->second;
    };
    Populate([&](NodeId id) {
      return std::make_unique<RpTreeRouter>(sim, id, routes_, resolver,
                                            config);
    });
  }

  /// Registers `rp` (a router) as the RP for `group`.
  Ipv4Address RegisterGroup(Ipv4Address group, NodeId rp) {
    const Ipv4Address addr = sim_->PrimaryAddress(rp);
    rp_by_group_[group] = addr;
    return addr;
  }

  std::size_t TotalStateUnits() const {
    return SumOverRouters<std::size_t>(
        [](const RpTreeRouter& r) { return r.StateUnits(); });
  }

 private:
  std::map<Ipv4Address, Ipv4Address> rp_by_group_;
};

}  // namespace cbt::baselines
