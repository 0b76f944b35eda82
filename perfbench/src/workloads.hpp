/// \file workloads.hpp
/// The benchmark's four workloads. Each one builds its inputs from the
/// workload seed, issues a stream of operations through one of the
/// library's entry points, and checks the outputs:
///
///   uniform-k     Session campaigns under the paper's crash model
///   crash-window  Session campaigns under crash-at-θ scenarios
///   paper-figure  run_experiment on the paper's Figure 3 protocol
///   service-mix   CampaignServer requests over loopback sockets
///
/// Every workload runs two legs: one busy thread (or client), then N.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "api/api.hpp"
#include "harness.hpp"
#include "sim/crash_sim.hpp"

namespace perfbench {

/// What the per-layer probes run against: the workload's own instance and
/// campaign spec, plus a generator of instances of the same family.
struct LayerSubject {
  const ftsched::Instance* instance = nullptr;
  /// Campaign and server probes run this spec (its algorithms, sampler,
  /// replays and ε override).
  ftsched::CampaignSpec spec;
  /// Processors dead from t = 0 in the dead-mask kernel probe.
  std::size_t dead_k = 2;
  /// Builds one more instance of the workload's family (dag.instance_ms).
  std::function<ftsched::Instance(std::uint64_t seed)> make_instance;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds inputs (instances, schedules, servers). The benchmark times it
  /// and calls it several times; the last set-up is the one measured.
  virtual void setup() = 0;
  /// Closed-loop clients a leg with `threads` busy threads uses.
  [[nodiscard]] virtual std::size_t clients(std::size_t threads) const {
    (void)threads;
    return 1;
  }
  /// Ops cycle through a pool of inputs whose costs differ, so rates weigh
  /// every input equally (see leg_rates).
  [[nodiscard]] virtual bool pooled() const { return false; }
  /// Called before each leg (e.g. to set the experiment thread count).
  virtual void prepare_leg(std::size_t threads) { (void)threads; }
  /// One operation: the client's k-th op of leg `leg` at `threads`.
  [[nodiscard]] virtual OpSample op(std::size_t threads, std::size_t leg,
                                    std::size_t client, std::size_t k) = 0;
  /// Output checks that need both legs (identity, reference reports).
  virtual void check(Gates& gates, const LegResult& one,
                     const LegResult& many) = 0;
  [[nodiscard]] virtual LayerSubject subject() const = 0;
};

/// The named workload; null for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      const Options& options);

/// Canonical bytes of a report: the server's report document.
[[nodiscard]] std::string report_bytes(const ftsched::CampaignReport& report);
/// Proposition 5.2 on every run: replays with at most ε crashes succeed.
[[nodiscard]] bool within_eps_all_succeed(
    const ftsched::CampaignReport& report);
/// Bit-exact equality of two crash replays (the oracle spot-check).
[[nodiscard]] bool same_result(const caft::CrashResult& a,
                               const caft::CrashResult& b);
/// Serialized instance file (io/instance_io format).
[[nodiscard]] std::string instance_bytes(const ftsched::Instance& instance);

}  // namespace perfbench
