// Connected-component labeling (the CDS extension bridges components).
#pragma once

#include <vector>

#include "graph/graph.h"

namespace ftc::graph {

/// Component labeling: `component[v]` is the 0-based id of v's connected
/// component; ids are assigned in order of the smallest node they contain.
struct Components {
  std::vector<NodeId> component;  ///< size n
  NodeId count = 0;               ///< number of components
};

/// Computes connected components via BFS. O(n + m).
[[nodiscard]] Components connected_components(const Graph& g);

}  // namespace ftc::graph
