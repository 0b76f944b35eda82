#include "dag/task_graph.hpp"

#include <algorithm>
#include <numeric>

namespace caft {

TaskGraph::TaskGraph(std::size_t expected_tasks) {
  names_.reserve(expected_tasks);
  in_.reserve(expected_tasks);
  out_.reserve(expected_tasks);
}

TaskId TaskGraph::add_task(std::string name) {
  const auto id = TaskId(static_cast<TaskId::value_type>(names_.size()));
  if (name.empty()) {
    // move-assign a fresh string: assigning the "t" literal in place takes
    // libstdc++'s replace path, which GCC 12 misdiagnoses under -Wrestrict
    // (PR105329) and -Werror would reject.
    name = std::string("t");
    name += std::to_string(id.value());
  }
  names_.push_back(std::move(name));
  in_.emplace_back();
  out_.emplace_back();
  return id;
}

void TaskGraph::add_edge(TaskId src, TaskId dst, double volume) {
  CAFT_CHECK_MSG(src.index() < names_.size() && dst.index() < names_.size(),
                 "edge endpoints must be existing tasks");
  CAFT_CHECK_MSG(src != dst, "self-loops are not allowed in a DAG");
  CAFT_CHECK_MSG(volume >= 0.0, "edge volume must be non-negative");
  CAFT_CHECK_MSG(!has_edge(src, dst), "duplicate edge");
  const auto e = static_cast<EdgeIndex>(edges_.size());
  edges_.push_back(Edge{src, dst, volume});
  in_position_.push_back(static_cast<std::uint32_t>(in_[dst.index()].size()));
  out_[src.index()].push_back(e);
  in_[dst.index()].push_back(e);
}

std::vector<TaskId> TaskGraph::entry_tasks() const {
  std::vector<TaskId> result;
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (in_[i].empty()) result.push_back(TaskId(static_cast<TaskId::value_type>(i)));
  return result;
}

std::vector<TaskId> TaskGraph::exit_tasks() const {
  std::vector<TaskId> result;
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (out_[i].empty()) result.push_back(TaskId(static_cast<TaskId::value_type>(i)));
  return result;
}

bool TaskGraph::has_edge(TaskId src, TaskId dst) const {
  CAFT_CHECK(src.index() < names_.size() && dst.index() < names_.size());
  const auto& outgoing = out_[src.index()];
  return std::any_of(outgoing.begin(), outgoing.end(),
                     [&](EdgeIndex e) { return edges_[e].dst == dst; });
}

double TaskGraph::volume(TaskId src, TaskId dst) const {
  for (const EdgeIndex e : out_edges(src))
    if (edges_[e].dst == dst) return edges_[e].volume;
  CAFT_CHECK_MSG(false, "edge not found");
  return 0.0;  // unreachable
}

bool TaskGraph::is_acyclic() const {
  std::vector<std::size_t> pending(names_.size());
  std::vector<TaskId> frontier;
  for (std::size_t i = 0; i < names_.size(); ++i) {
    pending[i] = in_[i].size();
    if (pending[i] == 0)
      frontier.push_back(TaskId(static_cast<TaskId::value_type>(i)));
  }
  std::size_t visited = 0;
  while (!frontier.empty()) {
    const TaskId t = frontier.back();
    frontier.pop_back();
    ++visited;
    for (const EdgeIndex e : out_[t.index()]) {
      const TaskId next = edges_[e].dst;
      if (--pending[next.index()] == 0) frontier.push_back(next);
    }
  }
  return visited == names_.size();
}

double TaskGraph::total_volume() const {
  return std::accumulate(edges_.begin(), edges_.end(), 0.0,
                         [](double acc, const Edge& e) { return acc + e.volume; });
}

std::vector<TaskId> TaskGraph::all_tasks() const {
  std::vector<TaskId> ids(names_.size());
  for (std::size_t i = 0; i < names_.size(); ++i)
    ids[i] = TaskId(static_cast<TaskId::value_type>(i));
  return ids;
}

}  // namespace caft
