// "The fabric at workload scale": a built fabric whose routing state has
// converged. The router resolves a flow against per-destination distance
// tables (topo::Topology caches one per destination ToR or host); a real
// fabric has its forwarding tables before the first packet, so set-up
// computes every one of them up front, through the public distance()
// query, instead of leaving the first injection to pay for them.
#pragma once

#include <memory>

#include "harness.h"
#include "topo/fabric.h"

namespace e2ebench {

inline std::unique_ptr<astral::topo::Fabric> build_fabric_at_scale(
    const astral::topo::FabricParams& params, LayerLog* log) {
  using astral::topo::NodeKind;
  auto fabric = timed(log, "topo.fabric_build_s", [&] {
    return std::make_unique<astral::topo::Fabric>(params);
  });
  timed(log, "topo.routes_s", [&] {
    const astral::topo::Topology& topo = fabric->topo();
    for (const astral::topo::Node& n : topo.nodes()) {
      if (n.kind == NodeKind::Host || n.kind == NodeKind::Tor) (void)topo.distance(n.id, n.id);
    }
  });
  return fabric;
}

}  // namespace e2ebench
