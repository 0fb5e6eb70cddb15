// Performance models of the five parallel MMM algorithms (paper §IV-B,
// Eqs. 2–9), evaluated on arbitrary partitions.
//
// Each model turns a partition's communication metrics and per-processor
// computation loads into predicted execution time on a Machine, under a
// fully-connected or star topology. The models share the paper's structure:
//
//   SCB:  T = VoC·T_send                         + max_X comp_X
//   PCB:  T = max_X d_X·T_send                   + max_X comp_X
//   SCO:  T = max(Σ_X d_X·T_send, max_X o_X)     + max_X rem_X
//   PCO:  T = max(max_X d_X·T_send, max_X o_X)   + max_X rem_X
//   PIO:  T = comm(1) + Σ_k max(comm(k+1), max_X step_X) + max_X step_X
//
// where d_X is processor X's *send* volume derived from the directed pair
// volumes (so Σ_X d_X equals the Eq. 1 VoC exactly — the paper's algebraic
// d_X in Eq. 6 counts coverage rather than directed copies; see DESIGN.md),
// o_X is the bulk-overlap computation X performs for the C elements whose
// pivot rows and columns it owns entirely, rem_X the remaining computation,
// and comm(k) the per-pivot-step volume N(c_k_row−1) + N(c_k_col−1).
//
// Star topology: spoke↔spoke traffic relays through the hub. Serial volumes
// count relayed elements twice; parallel per-processor volumes charge the
// hub with the forwarded traffic.
#pragma once

#include "grid/descriptor.hpp"
#include "grid/partition.hpp"
#include "model/algo.hpp"
#include "model/machine.hpp"
#include "model/topology.hpp"

namespace pushpart {

/// Predicted timing decomposition for one (algorithm, partition) pair.
struct ModelResult {
  double commSeconds = 0.0;     ///< Pre-barrier / overlapped communication.
  double overlapSeconds = 0.0;  ///< Computation overlapped with comm (SCO/PCO).
  double compSeconds = 0.0;     ///< Post-communication computation.
  double execSeconds = 0.0;     ///< Modeled total execution time.

  /// Exact (bitwise) comparison — the serve cache guarantees hits replay the
  /// cold computation's numbers verbatim.
  friend bool operator==(const ModelResult&, const ModelResult&) = default;
};

/// Evaluates the Eq. 2–9 model for `algo` on `q`. The partition's element
/// counts drive computation time; its row/column occupancy drives
/// communication. `machine.ratio` supplies processor speeds. One body serves
/// the grid (Partition) and a descriptor's LineCounts — both expose the same
/// O(1) counters — so their results are bit-identical by construction.
template <typename Q>
ModelResult evalModel(Algo algo, const Q& q, const Machine& machine,
                      Topology topology = Topology::kFullyConnected,
                      StarConfig star = {});

extern template ModelResult evalModel(Algo, const Partition&, const Machine&,
                                      Topology, StarConfig);
extern template ModelResult evalModel(Algo, const LineCounts&, const Machine&,
                                      Topology, StarConfig);

/// Communication seconds only (the Fig. 14 quantity) — the comm term of the
/// chosen algorithm's model.
double commSeconds(Algo algo, const Partition& q, const Machine& machine,
                   Topology topology = Topology::kFullyConnected,
                   StarConfig star = {});

/// Blocked PIO (paper §II: data is sent "a row and a column — or k rows and
/// columns — at a time"): pivots are grouped into blocks of `blockSize`;
/// block b's data moves while block b−1 computes. blockSize = 1 reproduces
/// evalModel(kPIO); blockSize = N degenerates to SCB (one bulk exchange,
/// then all computation). Intermediate sizes trade pipelining overlap
/// against fewer, larger messages.
ModelResult evalPioBlocked(const Partition& q, const Machine& machine,
                           int blockSize,
                           Topology topology = Topology::kFullyConnected,
                           StarConfig star = {});

}  // namespace pushpart
