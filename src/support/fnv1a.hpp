// 64-bit FNV-1a, the one hash behind state identities (Partition,
// RlePartition and NPartition hash()), plan-cache shard and ring routing, and
// the line checksums of the plan-cache snapshot and atlas files. The values
// are persisted in those files, so the constants and byte order must never
// change.
#pragma once

#include <cstdint>
#include <string_view>

namespace pushpart {

/// The standard 64-bit FNV offset basis.
inline constexpr std::uint64_t kFnv1aOffsetBasis = 0xcbf29ce484222325ull;

/// Incremental 64-bit FNV-1a: feed bytes in order, read value.
struct Fnv1a {
  std::uint64_t value = kFnv1aOffsetBasis;

  constexpr void add(std::uint8_t byte) {
    value ^= byte;
    value *= 0x100000001b3ull;  // FNV prime
  }
};

/// FNV-1a of the bytes of `text`, starting from `basis` (only the atlas
/// checksums start elsewhere; see atlas/io.cpp).
constexpr std::uint64_t fnv1a(std::string_view text,
                              std::uint64_t basis = kFnv1aOffsetBasis) {
  Fnv1a h{basis};
  for (const char c : text) h.add(static_cast<std::uint8_t>(c));
  return h.value;
}

}  // namespace pushpart
