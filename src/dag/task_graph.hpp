/// \file task_graph.hpp
/// The weighted Directed Acyclic Graph G = (V, E) of the paper's framework
/// (Section 2): nodes are tasks, edges are precedence constraints annotated
/// with the data volume V(t_i, t_j) the predecessor ships to the successor.
///
/// The structure is append-only (tasks and edges are added, never removed),
/// which lets us hand out stable dense indices: `TaskId::index()` addresses
/// per-task arrays everywhere else in the library.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/ids.hpp"

namespace caft {

/// A precedence edge t_src -> t_dst carrying `volume` units of data.
struct Edge {
  TaskId src;
  TaskId dst;
  double volume = 0.0;
};

/// Dense index of an edge inside TaskGraph::edges().
using EdgeIndex = std::uint32_t;

/// Weighted DAG of tasks. Acyclicity is not enforced on every insertion
/// (generators build graphs edge by edge); call `is_acyclic()` or rely on
/// `topological_order()` (analysis.hpp) which throws on cycles.
class TaskGraph {
 public:
  TaskGraph() = default;
  /// Pre-reserves internal vectors for `expected_tasks` tasks.
  explicit TaskGraph(std::size_t expected_tasks);

  /// Adds a task and returns its id; `name` is for reports/Gantt only.
  TaskId add_task(std::string name = {});

  /// Adds edge src -> dst with the given data volume. Self-loops and
  /// duplicate edges are rejected (duplicates would double-count messages).
  void add_edge(TaskId src, TaskId dst, double volume);

  [[nodiscard]] std::size_t task_count() const { return names_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }

  [[nodiscard]] const std::string& name(TaskId t) const {
    CAFT_CHECK(t.index() < names_.size());
    return names_[t.index()];
  }

  /// All edges, in insertion order.
  [[nodiscard]] std::span<const Edge> edges() const { return edges_; }
  [[nodiscard]] const Edge& edge(EdgeIndex e) const {
    CAFT_CHECK(e < edges_.size());
    return edges_[e];
  }

  /// Indices (into `edges()`) of edges entering `t` — the paper's Γ⁻(t).
  [[nodiscard]] std::span<const EdgeIndex> in_edges(TaskId t) const {
    CAFT_CHECK(t.index() < in_.size());
    return in_[t.index()];
  }
  /// Indices (into `edges()`) of edges leaving `t` — the paper's Γ⁺(t).
  [[nodiscard]] std::span<const EdgeIndex> out_edges(TaskId t) const {
    CAFT_CHECK(t.index() < out_.size());
    return out_[t.index()];
  }

  /// Position of edge `e` among its target's in-edges:
  /// in_edges(edge(e).dst)[in_position(e)] == e. Recorded when the edge is
  /// added, so a comm finds its input slot without a search.
  [[nodiscard]] std::size_t in_position(EdgeIndex e) const {
    CAFT_CHECK(e < in_position_.size());
    return in_position_[e];
  }

  [[nodiscard]] std::size_t in_degree(TaskId t) const { return in_edges(t).size(); }
  [[nodiscard]] std::size_t out_degree(TaskId t) const { return out_edges(t).size(); }

  /// Tasks with no predecessor (entry nodes).
  [[nodiscard]] std::vector<TaskId> entry_tasks() const;
  /// Tasks with no successor (exit nodes).
  [[nodiscard]] std::vector<TaskId> exit_tasks() const;

  /// True iff there is an edge src -> dst.
  [[nodiscard]] bool has_edge(TaskId src, TaskId dst) const;

  /// Volume of edge src -> dst; throws if the edge does not exist.
  [[nodiscard]] double volume(TaskId src, TaskId dst) const;

  /// Kahn's algorithm; true iff the graph has no directed cycle.
  [[nodiscard]] bool is_acyclic() const;

  /// Sum of all edge volumes.
  [[nodiscard]] double total_volume() const;

  /// All task ids, 0..task_count()-1.
  [[nodiscard]] std::vector<TaskId> all_tasks() const;

 private:
  std::vector<std::string> names_;
  std::vector<Edge> edges_;
  std::vector<std::uint32_t> in_position_;  ///< per edge, see in_position()
  std::vector<std::vector<EdgeIndex>> in_;
  std::vector<std::vector<EdgeIndex>> out_;
};

}  // namespace caft
