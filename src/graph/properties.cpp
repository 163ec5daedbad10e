#include "graph/properties.h"

#include <queue>

namespace ftc::graph {

Components connected_components(const Graph& g) {
  Components result;
  result.component.assign(static_cast<std::size_t>(g.n()), -1);
  NodeId next_id = 0;
  std::queue<NodeId> frontier;
  for (NodeId start = 0; start < g.n(); ++start) {
    if (result.component[static_cast<std::size_t>(start)] != -1) continue;
    result.component[static_cast<std::size_t>(start)] = next_id;
    frontier.push(start);
    while (!frontier.empty()) {
      const NodeId u = frontier.front();
      frontier.pop();
      for (NodeId v : g.neighbors(u)) {
        if (result.component[static_cast<std::size_t>(v)] == -1) {
          result.component[static_cast<std::size_t>(v)] = next_id;
          frontier.push(v);
        }
      }
    }
    ++next_id;
  }
  result.count = next_id;
  return result;
}

}  // namespace ftc::graph
