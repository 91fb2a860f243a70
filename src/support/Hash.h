//===- support/Hash.h - 64-bit key mixing -----------------------*- C++ -*-===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one integer-key hash shared by the Datalog engine's join-index map
/// and the solver's open-addressing interning indexes.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_HASH_H
#define SUPPORT_HASH_H

#include <cstdint>

namespace intro {

/// splitmix64-style finalizer for packed (high, low) index keys.  The
/// obvious `(RelationIndex << 8) ^ Mask` scheme collided whole families of
/// keys — (rel 1, mask 0x100) and (rel 2, mask 0x200) both land on 0, and
/// every analysis with more than a handful of indexed relations degenerated
/// some unordered_map bucket into a linked list.  A full-avalanche mix makes
/// the hash depend on every bit of both fields, so its low bits can index a
/// power-of-two table directly.
inline uint64_t mixIndexKeyBits(uint64_t Packed) {
  Packed += 0x9e3779b97f4a7c15ull;
  Packed = (Packed ^ (Packed >> 30)) * 0xbf58476d1ce4e5b9ull;
  Packed = (Packed ^ (Packed >> 27)) * 0x94d049bb133111ebull;
  return Packed ^ (Packed >> 31);
}

} // namespace intro

#endif // SUPPORT_HASH_H
