// ProtocolDomain: the harness every multicast protocol's domain shares.
//
// Wires a topology into a running "cloud": one protocol router per router
// node and one HostAgent per host node, over a shared RouteManager. CBT
// (CbtDomain) and the per-source and RP-tree baselines (DvmrpDomain,
// MospfDomain, RpTreeDomain) all derive from it, so experiments run every
// scheme on identical topologies and workloads through one piece of code.
// A concrete domain supplies the router factory and its protocol-specific
// parts: group registry, totals, fault hooks.
#pragma once

#include <cassert>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cbt/host.h"
#include "netsim/topologies.h"
#include "obs/metrics.h"
#include "routing/route_manager.h"

namespace cbt::core {

template <typename Router>
class ProtocolDomain {
 public:
  // Routers and hosts keep pointers into the domain (routes, directory).
  ProtocolDomain(const ProtocolDomain&) = delete;
  ProtocolDomain& operator=(const ProtocolDomain&) = delete;

  /// Starts every agent (IGMP startup queries, timers). Call once.
  void Start() { sim_->StartAgents(); }

  Router& router(NodeId id) {
    const auto it = routers_.find(id);
    assert(it != routers_.end());
    return *it->second;
  }
  Router& router(const std::string& name) { return router(topo_->node(name)); }
  HostAgent& host(NodeId id) {
    const auto it = hosts_.find(id);
    assert(it != hosts_.end());
    return *it->second;
  }
  HostAgent& host(const std::string& name) { return host(topo_->node(name)); }

  /// Attaches a brand-new host to `lan` and registers its agent.
  HostAgent& AddHost(SubnetId lan, const std::string& name) {
    return AddHostAgent(netsim::AttachHost(*sim_, *topo_, lan, name));
  }

  routing::RouteManager& routes() { return routes_; }
  netsim::Simulator& sim() { return *sim_; }
  netsim::Topology& topology() { return *topo_; }

  const std::vector<NodeId>& router_ids() const { return router_ids_; }

  /// Sum of control messages sent across all routers (experiment E6).
  std::uint64_t TotalControlMessages() const {
    return SumOverRouters<std::uint64_t>(
        [](const Router& r) { return r.stats().ControlMessagesSent(); });
  }

  /// Binds every router's protocol counters ("<prefix>.router.<id>.*"),
  /// the route manager's work counters ("<prefix>.routing.*"), and the
  /// simulator's subnet counters into `registry`, and makes it the
  /// simulator's registry for late additions.
  void BindMetrics(obs::Registry& registry) {
    sim_->SetMetrics(&registry);  // binds netsim.subnet.<id>.* as a side effect
    for (const auto& [id, router] : routers_) {
      obs::BindStats(registry,
                     metric_prefix_ + ".router." + std::to_string(id.value()),
                     router->mutable_stats());
    }
    obs::BindStats(registry, metric_prefix_ + ".routing",
                   routes_.mutable_stats());
  }

 protected:
  /// `metric_prefix` names the protocol in BindMetrics keys.
  ProtocolDomain(netsim::Simulator& sim, netsim::Topology& topo,
                 std::string metric_prefix)
      : sim_(&sim),
        topo_(&topo),
        routes_(sim),
        metric_prefix_(std::move(metric_prefix)) {}

  /// Creates the agents: `make_router(id)` for every router, then a
  /// HostAgent for every host, each in topology order (the SetAgent order
  /// is part of every run's determinism). `host_directory` is handed to
  /// every HostAgent, including later AddHost ones; null means hosts only
  /// join with explicit core lists. Call once, from the concrete domain's
  /// constructor, after the state the factory uses is initialised.
  template <typename MakeRouter>
  void Populate(MakeRouter make_router,
                const GroupDirectory* host_directory = nullptr) {
    host_directory_ = host_directory;
    for (const NodeId id : topo_->routers) {
      std::unique_ptr<Router> router = make_router(id);
      sim_->SetAgent(id, router.get());
      routers_[id] = std::move(router);
      router_ids_.push_back(id);
    }
    for (const NodeId id : topo_->hosts) AddHostAgent(id);
  }

  /// Sum of `per_router(router)` over all routers, in node-id order.
  template <typename T, typename F>
  T SumOverRouters(F per_router) const {
    T total{};
    for (const auto& [id, router] : routers_) total += per_router(*router);
    return total;
  }

  netsim::Simulator* sim_;
  netsim::Topology* topo_;
  routing::RouteManager routes_;
  std::map<NodeId, std::unique_ptr<Router>> routers_;

 private:
  HostAgent& AddHostAgent(NodeId id) {
    auto host = std::make_unique<HostAgent>(*sim_, id, host_directory_);
    sim_->SetAgent(id, host.get());
    HostAgent& ref = *host;
    hosts_[id] = std::move(host);
    return ref;
  }

  std::string metric_prefix_;
  const GroupDirectory* host_directory_ = nullptr;
  std::map<NodeId, std::unique_ptr<HostAgent>> hosts_;
  std::vector<NodeId> router_ids_;
};

}  // namespace cbt::core
