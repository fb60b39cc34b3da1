#include "workload/graph_gen.h"

#include <algorithm>
#include <set>

#include "base/logging.h"

namespace pdx {

bool Graph::HasEdge(int u, int v) const {
  if (u > v) std::swap(u, v);
  for (const auto& [a, b] : edges) {
    if (a == u && b == v) return true;
  }
  return false;
}

Graph ErdosRenyi(int n, double p, Rng* rng) {
  PDX_CHECK(rng != nullptr);
  Graph g;
  g.node_count = n;
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (rng->Bernoulli(p)) g.edges.emplace_back(u, v);
    }
  }
  return g;
}

Graph PlantClique(Graph g, int k, Rng* rng) {
  PDX_CHECK(rng != nullptr);
  PDX_CHECK_LE(k, g.node_count);
  // Sample k distinct nodes by partial Fisher-Yates.
  std::vector<int> nodes(g.node_count);
  for (int i = 0; i < g.node_count; ++i) nodes[i] = i;
  for (int i = 0; i < k; ++i) {
    int j = i + static_cast<int>(rng->UniformInt(
                    static_cast<uint32_t>(g.node_count - i)));
    std::swap(nodes[i], nodes[j]);
  }
  std::set<std::pair<int, int>> edge_set(g.edges.begin(), g.edges.end());
  for (int i = 0; i < k; ++i) {
    for (int j = i + 1; j < k; ++j) {
      int u = std::min(nodes[i], nodes[j]);
      int v = std::max(nodes[i], nodes[j]);
      edge_set.emplace(u, v);
    }
  }
  g.edges.assign(edge_set.begin(), edge_set.end());
  return g;
}

Graph PathGraph(int n) {
  Graph g;
  g.node_count = n;
  for (int i = 0; i + 1 < n; ++i) g.edges.emplace_back(i, i + 1);
  return g;
}

Graph CompleteGraph(int n) {
  Graph g;
  g.node_count = n;
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) g.edges.emplace_back(u, v);
  }
  return g;
}

Graph TriangleFreeGraph(int n) {
  Graph g;
  g.node_count = n;
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if ((u + v) % 2 == 1) g.edges.emplace_back(u, v);
    }
  }
  return g;
}

namespace {

// Adjacency matrix helper for the brute-force oracles.
std::vector<std::vector<bool>> AdjacencyMatrix(const Graph& g) {
  std::vector<std::vector<bool>> adj(g.node_count,
                                     std::vector<bool>(g.node_count, false));
  for (const auto& [u, v] : g.edges) {
    adj[u][v] = true;
    adj[v][u] = true;
  }
  return adj;
}

bool ExtendClique(const std::vector<std::vector<bool>>& adj,
                  std::vector<int>& clique, int next, int k) {
  if (static_cast<int>(clique.size()) == k) return true;
  for (int v = next; v < static_cast<int>(adj.size()); ++v) {
    bool adjacent_to_all = true;
    for (int u : clique) {
      if (!adj[u][v]) {
        adjacent_to_all = false;
        break;
      }
    }
    if (!adjacent_to_all) continue;
    clique.push_back(v);
    if (ExtendClique(adj, clique, v + 1, k)) return true;
    clique.pop_back();
  }
  return false;
}

bool ColorNodes(const std::vector<std::vector<bool>>& adj,
                std::vector<int>& colors, int node) {
  if (node == static_cast<int>(adj.size())) return true;
  for (int c = 0; c < 3; ++c) {
    bool clashes = false;
    for (int u = 0; u < node; ++u) {
      if (adj[u][node] && colors[u] == c) {
        clashes = true;
        break;
      }
    }
    if (clashes) continue;
    colors[node] = c;
    if (ColorNodes(adj, colors, node + 1)) return true;
  }
  return false;
}

}  // namespace

bool HasClique(const Graph& g, int k) {
  if (k <= 0) return true;
  if (k == 1) return g.node_count >= 1;
  if (k > g.node_count) return false;
  std::vector<std::vector<bool>> adj = AdjacencyMatrix(g);
  std::vector<int> clique;
  return ExtendClique(adj, clique, 0, k);
}

bool Is3Colorable(const Graph& g) {
  if (g.node_count == 0) return true;
  std::vector<std::vector<bool>> adj = AdjacencyMatrix(g);
  std::vector<int> colors(g.node_count, -1);
  return ColorNodes(adj, colors, 0);
}

}  // namespace pdx
