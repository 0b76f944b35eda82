/// \file platform.hpp
/// The target parallel heterogeneous system of the paper's Section 2: a
/// finite processor set P = {P_1, ..., P_m} connected by a dedicated network.
/// The Platform couples the processor count with an interconnect Topology;
/// per-(task, processor) execution times and per-link delays live in the
/// CostModel so several cost scenarios can share one physical platform.
#pragma once

#include <cstddef>
#include <vector>

#include "common/ids.hpp"
#include "platform/topology.hpp"

namespace caft {

/// Most processors a platform may have: replica supports are 64-bit masks
/// with one bit per processor.
inline constexpr std::size_t kMaxProcessors = 64;

/// Processor set plus interconnect.
class Platform {
 public:
  /// Fully-connected platform of `m` processors (the paper's setting).
  explicit Platform(std::size_t m) : topology_(Topology::clique(m)) {}
  /// Platform over an explicit (possibly sparse) topology.
  explicit Platform(Topology topology) : topology_(std::move(topology)) {}

  [[nodiscard]] std::size_t proc_count() const { return topology_.proc_count(); }
  [[nodiscard]] const Topology& topology() const { return topology_; }

  /// All processor ids, 0..m-1.
  [[nodiscard]] std::vector<ProcId> all_procs() const {
    std::vector<ProcId> procs(proc_count());
    for (std::size_t i = 0; i < procs.size(); ++i)
      procs[i] = ProcId(static_cast<ProcId::value_type>(i));
    return procs;
  }

 private:
  Topology topology_;
};

}  // namespace caft
