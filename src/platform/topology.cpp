#include "platform/topology.hpp"

#include <algorithm>
#include <deque>

namespace caft {

Topology Topology::clique(std::size_t m) {
  CAFT_CHECK_MSG(m >= 1, "a platform needs at least one processor");
  Topology t(m);
  for (std::size_t a = 0; a < m; ++a)
    for (std::size_t b = a + 1; b < m; ++b) t.add_bidirectional(a, b);
  t.build_routes();
  return t;
}

Topology Topology::ring(std::size_t m) {
  CAFT_CHECK_MSG(m >= 2, "a ring needs at least two processors");
  Topology t(m);
  for (std::size_t a = 0; a < m; ++a) {
    const std::size_t b = (a + 1) % m;
    if (a < b || m == 2) {
      if (a < b) t.add_bidirectional(a, b);
    }
  }
  if (m > 2) t.add_bidirectional(m - 1, 0);
  t.build_routes();
  return t;
}

Topology Topology::star(std::size_t m) {
  CAFT_CHECK_MSG(m >= 2, "a star needs a hub and at least one leaf");
  Topology t(m);
  for (std::size_t leaf = 1; leaf < m; ++leaf) t.add_bidirectional(0, leaf);
  t.build_routes();
  return t;
}

Topology Topology::mesh(std::size_t rows, std::size_t cols) {
  CAFT_CHECK(rows >= 1 && cols >= 1 && rows * cols >= 1);
  Topology t(rows * cols);
  const auto id = [cols](std::size_t r, std::size_t c) { return r * cols + c; };
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) t.add_bidirectional(id(r, c), id(r, c + 1));
      if (r + 1 < rows) t.add_bidirectional(id(r, c), id(r + 1, c));
    }
  t.build_routes();
  return t;
}

Topology Topology::torus(std::size_t rows, std::size_t cols) {
  CAFT_CHECK(rows >= 2 && cols >= 2);
  Topology t(rows * cols);
  const auto id = [cols](std::size_t r, std::size_t c) { return r * cols + c; };
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols)
        t.add_bidirectional(id(r, c), id(r, c + 1));
      else if (cols > 2)
        t.add_bidirectional(id(r, c), id(r, 0));
      if (r + 1 < rows)
        t.add_bidirectional(id(r, c), id(r + 1, c));
      else if (rows > 2)
        t.add_bidirectional(id(r, c), id(0, c));
    }
  t.build_routes();
  return t;
}

Topology Topology::random_connected(std::size_t m, double avg_degree, Rng& rng) {
  CAFT_CHECK(m >= 2);
  CAFT_CHECK_MSG(avg_degree >= 1.0, "average degree must be at least 1");
  Topology t(m);
  std::vector<std::vector<bool>> adjacent(m, std::vector<bool>(m, false));
  // Random spanning tree: attach each processor under a random earlier one.
  for (std::size_t i = 1; i < m; ++i) {
    const auto parent = static_cast<std::size_t>(rng.uniform_int(0, i - 1));
    t.add_bidirectional(parent, i);
    adjacent[parent][i] = adjacent[i][parent] = true;
  }
  // Extra cables until the average (undirected) degree target is met.
  const std::size_t target_cables = std::min(
      m * (m - 1) / 2,
      static_cast<std::size_t>(avg_degree * static_cast<double>(m) / 2.0));
  std::size_t cables = m - 1;
  std::size_t attempts = 0;
  while (cables < target_cables && attempts < 100 * m * m) {
    ++attempts;
    const auto a = static_cast<std::size_t>(rng.uniform_int(0, m - 1));
    const auto b = static_cast<std::size_t>(rng.uniform_int(0, m - 1));
    if (a == b || adjacent[a][b]) continue;
    t.add_bidirectional(a, b);
    adjacent[a][b] = adjacent[b][a] = true;
    ++cables;
  }
  t.build_routes();
  return t;
}

Topology Topology::custom(
    std::size_t m,
    const std::vector<std::pair<std::size_t, std::size_t>>& cables) {
  CAFT_CHECK_MSG(m >= 1, "a platform needs at least one processor");
  Topology t(m);
  for (const auto& [a, b] : cables) t.add_bidirectional(a, b);
  t.build_routes();
  return t;
}

void Topology::add_bidirectional(std::size_t a, std::size_t b) {
  CAFT_CHECK(a < proc_count_ && b < proc_count_ && a != b);
  links_.push_back(LinkDef{ProcId(static_cast<ProcId::value_type>(a)),
                           ProcId(static_cast<ProcId::value_type>(b))});
  links_.push_back(LinkDef{ProcId(static_cast<ProcId::value_type>(b)),
                           ProcId(static_cast<ProcId::value_type>(a))});
}

void Topology::build_routes() {
  const std::size_t m = proc_count_;
  direct_.assign(m * m, LinkId::invalid());
  for (std::size_t l = 0; l < links_.size(); ++l) {
    const LinkDef& def = links_[l];
    direct_[def.from.index() * m + def.to.index()] =
        LinkId(static_cast<LinkId::value_type>(l));
  }

  route_begin_.assign(m * m + 1, 0);
  route_links_.clear();
  // BFS per source over the directed adjacency; neighbours are visited in
  // link-insertion order, so routes are deterministic. Pairs are filled in
  // (src, dst) order, so each route is appended right after the previous.
  std::vector<std::vector<LinkId>> outgoing(m);
  for (std::size_t l = 0; l < links_.size(); ++l)
    outgoing[links_[l].from.index()].push_back(
        LinkId(static_cast<LinkId::value_type>(l)));

  for (std::size_t src = 0; src < m; ++src) {
    std::vector<LinkId> via(m, LinkId::invalid());
    std::vector<bool> seen(m, false);
    seen[src] = true;
    std::deque<std::size_t> queue{src};
    while (!queue.empty()) {
      const std::size_t cur = queue.front();
      queue.pop_front();
      for (const LinkId l : outgoing[cur]) {
        const std::size_t next = links_[l.index()].to.index();
        if (seen[next]) continue;
        seen[next] = true;
        via[next] = l;
        queue.push_back(next);
      }
    }
    for (std::size_t dst = 0; dst < m; ++dst) {
      const std::size_t first = route_links_.size();
      if (dst != src && seen[dst]) {
        for (std::size_t cur = dst; cur != src;) {
          const LinkId l = via[cur];
          route_links_.push_back(l);
          cur = links_[l.index()].from.index();
        }
        std::reverse(route_links_.begin() + static_cast<std::ptrdiff_t>(first),
                     route_links_.end());
      }
      route_begin_[src * m + dst + 1] = route_links_.size();
    }
  }
}

LinkId Topology::direct_link(ProcId a, ProcId b) const {
  CAFT_CHECK(a.index() < proc_count_ && b.index() < proc_count_);
  if (a == b) return LinkId::invalid();
  return direct_[a.index() * proc_count_ + b.index()];
}

bool Topology::connected() const {
  for (std::size_t a = 0; a < proc_count_; ++a)
    for (std::size_t b = 0; b < proc_count_; ++b)
      if (a != b && route_begin_[a * proc_count_ + b] ==
                        route_begin_[a * proc_count_ + b + 1])
        return false;
  return true;
}

bool Topology::is_clique() const {
  for (std::size_t a = 0; a < proc_count_; ++a)
    for (std::size_t b = 0; b < proc_count_; ++b)
      if (a != b && !direct_[a * proc_count_ + b].valid()) return false;
  return true;
}

}  // namespace caft
