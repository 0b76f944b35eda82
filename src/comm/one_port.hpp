/// \file one_port.hpp
/// The bi-directional one-port engine (paper Sections 2 and 4.3). Mutable
/// state per resource:
///
///   SF(P) — sending free time: P's network card can start a new emission;
///   RF(P) — receiving free time: P can start a new reception;
///   R(l)  — link ready time: the latest finish of any message on link l.
///
/// A message of volume V from P_k to P_h with payload ready at time d:
///
///   S(c, l) = max(SF(P_k), d, R(l))                     (equation (4))
///   F(c, l) = S(c, l) + V · d(l)
///   reception start = max(RF(P_h), S(c, l))              (equation (6))
///   A(c, P_h) = reception start + V · d(l)
///
/// then SF(P_k) = F(c, l), R(l) = F(c, l), RF(P_h) = A(c, P_h). Reception may
/// overlap the wire transfer (cut-through: when every port is free, A = F),
/// but two receptions at the same processor never overlap.
///
/// Interpretation note (docs/architecture.md, "Modelling decisions"):
/// equation (6) as printed keeps RF(P) fixed while walking the sorted
/// predecessor list, which would let two receptions overlap, violating
/// inequality (3). We therefore update RF(P) after every arrival — posting
/// messages in the paper's sorted order reproduces its accounting while
/// strictly enforcing (3).
///
/// On sparse topologies (Section 7 extension) a message crosses its route
/// link by link: segment i may enter link l_i only after leaving l_{i-1},
/// each link carries one message at a time, the sender port is held for the
/// first segment and the reception happens on the last. On the paper's
/// clique every route has one hop and the equations above apply verbatim.
#pragma once

#include "comm/engine.hpp"

namespace caft {

/// Contention-aware engine enforcing the one-port constraints (1)-(3).
class OnePortEngine final : public CommEngine {
 public:
  OnePortEngine(const Platform& platform, const CostModel& costs);

  CommTimes post_comm(ProcId from, ProcId to, double volume,
                      double data_ready,
                      std::vector<LinkOccupancy>* hops = nullptr) override;

  [[nodiscard]] double peek_link_finish(ProcId from, ProcId to, double volume,
                                        double data_ready) const override;

  /// SF(P): earliest time P may start emitting a new message.
  [[nodiscard]] double sending_free(ProcId p) const;
  /// RF(P): earliest time P may start receiving a new message.
  [[nodiscard]] double receiving_free(ProcId p) const;
  /// R(l): ready time of link l.
  [[nodiscard]] double link_ready(LinkId l) const;

 private:
  std::vector<double> sending_free_;
  std::vector<double> receiving_free_;
  std::vector<double> link_ready_;
};

}  // namespace caft
