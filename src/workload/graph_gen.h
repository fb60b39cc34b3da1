#ifndef PDX_WORKLOAD_GRAPH_GEN_H_
#define PDX_WORKLOAD_GRAPH_GEN_H_

#include <utility>
#include <vector>

#include "workload/random.h"

namespace pdx {

// A simple undirected graph (no self-loops) on nodes 0..node_count-1.
// Edges are stored once per unordered pair {u, v} with u < v.
struct Graph {
  int node_count = 0;
  std::vector<std::pair<int, int>> edges;

  bool HasEdge(int u, int v) const;
};

// Erdős–Rényi G(n, p).
Graph ErdosRenyi(int n, double p, Rng* rng);

// Adds all edges among k randomly chosen nodes of `g` (planting a clique).
Graph PlantClique(Graph g, int k, Rng* rng);

// A simple path 0-1-...-n-1.
Graph PathGraph(int n);

// The complete graph K_n.
Graph CompleteGraph(int n);

// The graph on n nodes joining u and v when u + v is odd: bipartite by
// parity, hence triangle-free, yet dense (about n²/4 edges).
Graph TriangleFreeGraph(int n);

// Brute-force reference: does `g` contain a clique of size k? Exponential;
// for test oracles on small graphs only.
bool HasClique(const Graph& g, int k);

// Brute-force reference: is `g` 3-colorable? Exponential; small graphs
// only.
bool Is3Colorable(const Graph& g);

}  // namespace pdx

#endif  // PDX_WORKLOAD_GRAPH_GEN_H_
