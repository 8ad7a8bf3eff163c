#ifndef OWAN_UPDATE_UPDATE_PLAN_H_
#define OWAN_UPDATE_UPDATE_PLAN_H_

#include <string>
#include <vector>

#include "core/topology.h"
#include "core/transfer.h"

namespace owan::update {

// One update operation in the cross-layer dependency graph (§3.3). Route
// operations touch only routers (milliseconds); circuit operations
// reconfigure ROADMs along a path and take seconds, during which the
// circuit is dark.
enum class OpType {
  kRemoveRoute,
  kAddRoute,
  kRemoveCircuit,
  kAddCircuit,
};

std::string ToString(OpType t);

struct UpdateOp {
  int id = -1;
  OpType type = OpType::kAddRoute;
  // For circuit ops: the network-layer link whose unit count changes.
  net::NodeId u = net::kInvalidNode;
  net::NodeId v = net::kInvalidNode;
  // For route ops: which allocation (transfer index, path index) moves.
  int transfer_index = -1;
  int path_index = -1;
  double duration_s = 0.0;
  // Ops that must complete before this one may start (dependency-graph
  // edges; resource constraints are handled by the scheduler).
  std::vector<int> deps;
};

// The full plan for moving the network from state A to state B.
struct UpdatePlan {
  std::vector<UpdateOp> ops;

  int CountType(OpType t) const {
    int n = 0;
    for (const UpdateOp& op : ops) {
      if (op.type == t) ++n;
    }
    return n;
  }
};

// Builds the cross-layer dependency graph:
//   * RemoveRoute ops for old paths that don't survive into the new config,
//   * RemoveCircuit / AddCircuit ops from the topology diff,
//   * AddRoute ops for new paths,
// with edges RemoveRoute -> RemoveCircuit (a circuit drains before it is
// torn down) and AddCircuit -> AddRoute (a path activates only after all of
// its links' new circuits are lit). Port contention (an added circuit needs
// the router ports a removed circuit frees) is expressed by the scheduler's
// per-site port ledger rather than explicit edges.
UpdatePlan BuildUpdatePlan(
    const core::Topology& from, const core::Topology& to,
    const std::vector<core::TransferAllocation>& old_routes,
    const std::vector<core::TransferAllocation>& new_routes);

}  // namespace owan::update

#endif  // OWAN_UPDATE_UPDATE_PLAN_H_
