#include "update/update_plan.h"

#include <map>
#include <set>

namespace owan::update {

namespace {

using LinkKey = std::pair<net::NodeId, net::NodeId>;

// Planned op durations: a router rule install, and a ROADM circuit
// (re)provisioning (§5.4).
constexpr double kRouteSeconds = 0.01;
constexpr double kCircuitSeconds = 3.0;

LinkKey Key(net::NodeId a, net::NodeId b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}

// Links crossed by a path, as canonical keys.
std::vector<LinkKey> PathLinks(const net::Path& p) {
  std::vector<LinkKey> out;
  for (size_t i = 0; i + 1 < p.nodes.size(); ++i) {
    out.push_back(Key(p.nodes[i], p.nodes[i + 1]));
  }
  return out;
}

}  // namespace

std::string ToString(OpType t) {
  switch (t) {
    case OpType::kRemoveRoute:
      return "remove-route";
    case OpType::kAddRoute:
      return "add-route";
    case OpType::kRemoveCircuit:
      return "remove-circuit";
    case OpType::kAddCircuit:
      return "add-circuit";
  }
  return "?";
}

UpdatePlan BuildUpdatePlan(
    const core::Topology& from, const core::Topology& to,
    const std::vector<core::TransferAllocation>& old_routes,
    const std::vector<core::TransferAllocation>& new_routes) {
  UpdatePlan plan;
  auto add_op = [&plan](UpdateOp op) {
    op.id = static_cast<int>(plan.ops.size());
    plan.ops.push_back(std::move(op));
    return plan.ops.back().id;
  };

  const auto [to_add, to_remove] = to.Diff(from);

  // Circuit ops, one per unit.
  std::map<LinkKey, std::vector<int>> remove_circuit_ops;
  for (const core::Link& l : to_remove) {
    for (int i = 0; i < l.units; ++i) {
      UpdateOp op;
      op.type = OpType::kRemoveCircuit;
      op.u = l.u;
      op.v = l.v;
      op.duration_s = kCircuitSeconds;
      remove_circuit_ops[Key(l.u, l.v)].push_back(add_op(op));
    }
  }
  std::map<LinkKey, std::vector<int>> add_circuit_ops;
  for (const core::Link& l : to_add) {
    for (int i = 0; i < l.units; ++i) {
      UpdateOp op;
      op.type = OpType::kAddCircuit;
      op.u = l.u;
      op.v = l.v;
      op.duration_s = kCircuitSeconds;
      add_circuit_ops[Key(l.u, l.v)].push_back(add_op(op));
    }
  }

  // Old routes that cross a shrinking link must drain first; they become
  // RemoveRoute ops that the link's RemoveCircuit ops depend on.
  for (size_t ti = 0; ti < old_routes.size(); ++ti) {
    for (size_t pi = 0; pi < old_routes[ti].paths.size(); ++pi) {
      const auto links = PathLinks(old_routes[ti].paths[pi].path);
      bool crosses_shrinking = false;
      for (const LinkKey& lk : links) {
        if (remove_circuit_ops.count(lk)) {
          crosses_shrinking = true;
          break;
        }
      }
      UpdateOp op;
      op.type = OpType::kRemoveRoute;
      op.transfer_index = static_cast<int>(ti);
      op.path_index = static_cast<int>(pi);
      op.duration_s = kRouteSeconds;
      const int op_id = add_op(op);
      if (crosses_shrinking) {
        for (const LinkKey& lk : links) {
          auto it = remove_circuit_ops.find(lk);
          if (it == remove_circuit_ops.end()) continue;
          for (int cid : it->second) {
            plan.ops[static_cast<size_t>(cid)].deps.push_back(op_id);
          }
        }
      }
    }
  }

  // New routes wait for every new circuit on their links.
  for (size_t ti = 0; ti < new_routes.size(); ++ti) {
    for (size_t pi = 0; pi < new_routes[ti].paths.size(); ++pi) {
      UpdateOp op;
      op.type = OpType::kAddRoute;
      op.transfer_index = static_cast<int>(ti);
      op.path_index = static_cast<int>(pi);
      op.duration_s = kRouteSeconds;
      for (const LinkKey& lk :
           PathLinks(new_routes[ti].paths[pi].path)) {
        auto it = add_circuit_ops.find(lk);
        if (it == add_circuit_ops.end()) continue;
        for (int cid : it->second) op.deps.push_back(cid);
      }
      add_op(op);
    }
  }

  return plan;
}

}  // namespace owan::update
