// Processor identifiers.
//
// The paper (§IV) names the three heterogeneous processors P, R and S with
// speed ratio P_r : R_r : S_r, S_r = 1 and P fastest, and encodes a partition
// as q(i,j) ∈ {0 = R, 1 = S, 2 = P}. We keep that encoding so partitions
// serialize exactly as the paper's q function.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace pushpart {

/// One of the three heterogeneous processors. Values match the paper's
/// q(i,j) encoding: R=0, S=1, P=2.
enum class Proc : std::uint8_t { R = 0, S = 1, P = 2 };

inline constexpr int kNumProcs = 3;

/// All processors in q-encoding order {R, S, P}.
inline constexpr std::array<Proc, kNumProcs> kAllProcs = {Proc::R, Proc::S,
                                                          Proc::P};

/// The two slower processors — the only legal *active* processors for a Push
/// (paper §VI-C: elements of the largest processor are never moved).
inline constexpr std::array<Proc, 2> kSlowProcs = {Proc::R, Proc::S};

/// The owner set of the three-processor states (Partition, RlePartition),
/// inherited so the engine templates in push/engine.hpp can read it from the
/// state: how many owners there are, which one is the fastest (never
/// pushed) and which slow ones the engine moves, in beautify order.
struct ProcOwners {
  static constexpr int procs() { return kNumProcs; }
  static constexpr Proc fastest() { return Proc::P; }
  static constexpr const std::array<Proc, 2>& slowOwners() {
    return kSlowProcs;
  }
};

/// Index of a processor into per-processor arrays.
constexpr int procIndex(Proc p) { return static_cast<int>(p); }

/// procIndex as an unsigned array slot (avoids sign-conversion noise at
/// subscript sites).
constexpr std::size_t procSlot(Proc p) { return static_cast<std::size_t>(p); }

/// Inverse of procIndex. `i` must be in [0, kNumProcs).
constexpr Proc procFromIndex(int i) { return static_cast<Proc>(i); }

/// Single-letter name: 'R', 'S' or 'P'.
constexpr char procName(Proc p) {
  switch (p) {
    case Proc::R: return 'R';
    case Proc::S: return 'S';
    case Proc::P: return 'P';
  }
  return '?';
}

}  // namespace pushpart
