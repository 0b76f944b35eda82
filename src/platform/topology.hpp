/// \file topology.hpp
/// Interconnect topologies. The paper's platform is a clique ("processors are
/// fully connected", Section 2); Section 7 proposes sparse interconnection
/// graphs with routing tables as an extension, which we implement here:
/// ring, star, 2-D mesh/torus and random connected graphs, with shortest-hop
/// routes precomputed per ordered processor pair (the "routing table").
///
/// Links are *directed*: the bidirectional full-duplex link between P_k and
/// P_h appears as two LinkIds, one per direction, so the one-port engine can
/// account for simultaneous send/receive on the same physical cable.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"

namespace caft {

/// A directed link from one processor to another.
struct LinkDef {
  ProcId from;
  ProcId to;
};

/// Directed-link interconnect with precomputed shortest-hop routes.
class Topology {
 public:
  /// Fully-connected platform of `m` processors (the paper's model).
  [[nodiscard]] static Topology clique(std::size_t m);
  /// Bidirectional ring P_0 - P_1 - ... - P_{m-1} - P_0.
  [[nodiscard]] static Topology ring(std::size_t m);
  /// Star with hub P_0 and `m - 1` leaves.
  [[nodiscard]] static Topology star(std::size_t m);
  /// 2-D mesh (grid) of rows x cols processors, row-major numbering.
  [[nodiscard]] static Topology mesh(std::size_t rows, std::size_t cols);
  /// 2-D torus (mesh plus wrap-around links).
  [[nodiscard]] static Topology torus(std::size_t rows, std::size_t cols);
  /// Random connected graph: a spanning tree plus extra edges until the
  /// average degree reaches `avg_degree`.
  [[nodiscard]] static Topology random_connected(std::size_t m,
                                                 double avg_degree, Rng& rng);
  /// Arbitrary topology from an explicit cable list; each (a, b) pair adds
  /// the two directed links a->b and b->a in order, so link indices are
  /// reproducible (the serialization layer relies on this).
  [[nodiscard]] static Topology custom(
      std::size_t m, const std::vector<std::pair<std::size_t, std::size_t>>& cables);

  [[nodiscard]] std::size_t proc_count() const { return proc_count_; }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }
  [[nodiscard]] const LinkDef& link(LinkId l) const {
    CAFT_CHECK(l.index() < links_.size());
    return links_[l.index()];
  }

  /// Direct link from `a` to `b`, or invalid() if they are not adjacent.
  [[nodiscard]] LinkId direct_link(ProcId a, ProcId b) const;

  /// Shortest-hop route from `a` to `b` as a sequence of links; empty iff
  /// a == b. Routes are deterministic (lowest-id tie-break).
  [[nodiscard]] std::span<const LinkId> route(ProcId a, ProcId b) const {
    CAFT_CHECK(a.index() < proc_count_ && b.index() < proc_count_);
    const std::size_t pair = a.index() * proc_count_ + b.index();
    return {route_links_.data() + route_begin_[pair],
            route_begin_[pair + 1] - route_begin_[pair]};
  }

  /// Number of hops between `a` and `b` (0 iff equal).
  [[nodiscard]] std::size_t hop_count(ProcId a, ProcId b) const {
    return route(a, b).size();
  }

  /// True iff every processor can reach every other.
  [[nodiscard]] bool connected() const;

  /// True iff every distinct ordered pair is adjacent.
  [[nodiscard]] bool is_clique() const;

 private:
  explicit Topology(std::size_t m) : proc_count_(m) {}

  /// Adds the two directed links of one bidirectional cable.
  void add_bidirectional(std::size_t a, std::size_t b);
  /// BFS from every source; fills route_begin_ and route_links_.
  void build_routes();

  std::size_t proc_count_ = 0;
  std::vector<LinkDef> links_;
  /// direct_[a * m + b] = link id or invalid.
  std::vector<LinkId> direct_;
  /// Routes in one CSR array: the shortest path from a to b is
  /// route_links_[route_begin_[a * m + b], route_begin_[a * m + b + 1]).
  std::vector<std::size_t> route_begin_;
  std::vector<LinkId> route_links_;
};

}  // namespace caft
