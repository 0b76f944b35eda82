/// \file hash.hpp
/// FNV-1a 64-bit content hashing — the repo's one content-address
/// derivation. The campaign server's content-addressed cache and the
/// Session batch coordinator key instance payloads by the same function so
/// "same bytes" means "same key" everywhere an instance crosses a process
/// or connection boundary.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace caft {

/// FNV-1a over `bytes`; deterministic across platforms and runs (no seed,
/// no pointer mixing) — safe to use as a wire-visible content address.
[[nodiscard]] inline std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace caft
