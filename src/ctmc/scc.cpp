#include "ctmc/scc.hpp"

#include <algorithm>
#include <stdexcept>

namespace autosec::ctmc {

std::vector<uint32_t> SccDecomposition::bottom_components() const {
  std::vector<uint32_t> out;
  for (uint32_t c = 0; c < component_count; ++c) {
    if (is_bottom[c]) out.push_back(c);
  }
  return out;
}

SccDecomposition strongly_connected_components(const linalg::CsrMatrix& adjacency) {
  if (adjacency.rows() != adjacency.cols()) {
    throw std::invalid_argument("scc: adjacency must be square");
  }
  const size_t n = adjacency.rows();
  constexpr uint32_t kUnvisited = UINT32_MAX;

  std::vector<uint32_t> index(n, kUnvisited);
  std::vector<uint32_t> lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<uint32_t> stack;  // Tarjan's component stack
  std::vector<uint32_t> component_of(n, kUnvisited);
  uint32_t next_index = 0;
  uint32_t component_count = 0;

  // Explicit DFS frame: node + position within its adjacency row.
  struct Frame {
    uint32_t node;
    size_t edge;
  };
  std::vector<Frame> dfs;

  auto edge_target = [&](uint32_t node, size_t k) -> int64_t {
    const auto cols = adjacency.row_columns(node);
    const auto vals = adjacency.row_values(node);
    for (size_t i = k; i < cols.size(); ++i) {
      if (vals[i] != 0.0 && cols[i] != node) return static_cast<int64_t>(i);
    }
    return -1;
  };

  for (uint32_t root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    dfs.push_back({root, 0});
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;

    while (!dfs.empty()) {
      Frame& frame = dfs.back();
      const int64_t next_edge = edge_target(frame.node, frame.edge);
      if (next_edge >= 0) {
        const uint32_t child = adjacency.row_columns(frame.node)[next_edge];
        frame.edge = static_cast<size_t>(next_edge) + 1;
        if (index[child] == kUnvisited) {
          index[child] = lowlink[child] = next_index++;
          stack.push_back(child);
          on_stack[child] = true;
          dfs.push_back({child, 0});
        } else if (on_stack[child]) {
          lowlink[frame.node] = std::min(lowlink[frame.node], index[child]);
        }
      } else {
        const uint32_t node = frame.node;
        dfs.pop_back();
        if (!dfs.empty()) {
          lowlink[dfs.back().node] = std::min(lowlink[dfs.back().node], lowlink[node]);
        }
        if (lowlink[node] == index[node]) {
          // node is the root of a component: pop it off the stack.
          while (true) {
            const uint32_t member = stack.back();
            stack.pop_back();
            on_stack[member] = false;
            component_of[member] = component_count;
            if (member == node) break;
          }
          ++component_count;
        }
      }
    }
  }

  SccDecomposition out;
  out.component_of = std::move(component_of);
  out.component_count = component_count;
  out.members.resize(component_count);
  for (uint32_t s = 0; s < n; ++s) out.members[out.component_of[s]].push_back(s);

  out.is_bottom.assign(component_count, true);
  for (uint32_t s = 0; s < n; ++s) {
    const auto cols = adjacency.row_columns(s);
    const auto vals = adjacency.row_values(s);
    for (size_t k = 0; k < cols.size(); ++k) {
      if (vals[k] == 0.0 || cols[k] == s) continue;
      if (out.component_of[cols[k]] != out.component_of[s]) {
        out.is_bottom[out.component_of[s]] = false;
        break;
      }
    }
  }
  return out;
}

ReachabilityClassification classify_reachability(const linalg::CsrMatrix& adjacency,
                                                 const std::vector<bool>& target,
                                                 const std::vector<bool>& absorbing) {
  if (adjacency.rows() != adjacency.cols()) {
    throw std::invalid_argument("classify_reachability: adjacency must be square");
  }
  const size_t n = adjacency.rows();
  if (target.size() != n) {
    throw std::invalid_argument("classify_reachability: target size mismatch");
  }
  if (!absorbing.empty() && absorbing.size() != n) {
    throw std::invalid_argument("classify_reachability: absorbing size mismatch");
  }
  // Predecessor lists over the target-absorbed graph (outgoing edges of
  // target and absorbing states removed; self-loops, zero weights ignored).
  std::vector<std::vector<uint32_t>> predecessors(n);
  for (uint32_t row = 0; row < n; ++row) {
    if (target[row] || (!absorbing.empty() && absorbing[row])) continue;
    const auto cols = adjacency.row_columns(row);
    const auto vals = adjacency.row_values(row);
    for (size_t k = 0; k < cols.size(); ++k) {
      if (vals[k] != 0.0 && cols[k] != row) predecessors[cols[k]].push_back(row);
    }
  }
  auto backward_closure = [&](std::vector<bool>& reached) {
    std::vector<uint32_t> stack;
    for (uint32_t s = 0; s < n; ++s) {
      if (reached[s]) stack.push_back(s);
    }
    while (!stack.empty()) {
      const uint32_t state = stack.back();
      stack.pop_back();
      for (const uint32_t pred : predecessors[state]) {
        if (!reached[pred]) {
          reached[pred] = true;
          stack.push_back(pred);
        }
      }
    }
  };
  // Prob>0: states that can reach the target at all.
  std::vector<bool> can_reach = target;
  backward_closure(can_reach);
  // Prob<1: states that can reach a Prob=0 state. The complement is Prob1.
  std::vector<bool> below_one(n);
  for (size_t i = 0; i < n; ++i) below_one[i] = !can_reach[i];
  backward_closure(below_one);
  ReachabilityClassification out;
  out.possible = std::move(can_reach);
  out.certain.resize(n);
  for (size_t i = 0; i < n; ++i) out.certain[i] = !below_one[i];
  return out;
}

}  // namespace autosec::ctmc
