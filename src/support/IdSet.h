//===- support/IdSet.h - Adaptive dense-handle set --------------*- C++ -*-===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The solver's points-to sets are sets of dense 32-bit handles with a
/// bimodal size distribution: most sets stay tiny, a few hub sets grow to
/// thousands of elements and absorb the bulk of the propagation work.  IdSet
/// adapts its representation to that shape:
///
///   - below the promotion threshold it is a sorted, duplicate-free vector
///     (SetUtils.h semantics: cache-friendly, 4 bytes per element);
///   - at the threshold — and only when the bitmap would be at least as
///     element-dense as one bit per 64-bit word — it switches to a packed
///     bitmap, making membership O(1) and set union a word-wise OR.
///
/// The density condition bounds bitmap storage by 2x the vector bytes, so
/// promotion never loses the compactness of the sorted vector by more than a
/// constant factor; a sparse outlier handle (e.g. UINT32_MAX landing in a
/// small dense set) demotes back to the vector instead of allocating a
/// gigantic bitmap.
///
/// The API mirrors SetUtils.h (contains / insert) plus the batched
/// primitive the solver's difference propagation is built on:
/// unionWithDelta(Src, NewElements) merges a whole source set in one pass
/// and appends exactly the genuinely new elements, in ascending order, to
/// NewElements.  A small-set union whose result would promote builds the
/// bitmap directly; any other small-set union merges in place.  Iteration is
/// always in ascending handle order in both representations, so results
/// derived from an IdSet keep the canonical sorted encoding.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_IDSET_H
#define SUPPORT_IDSET_H

#include "support/SetUtils.h"

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

namespace intro {

/// An adaptive set of dense 32-bit handles: sorted vector when small,
/// packed bitmap when large and dense.  See the file comment.
class IdSet {
public:
  /// Default element count at which promotion to the bitmap representation
  /// is first considered.  Calibrated with bench/micro_engine's BM_IdSet*
  /// benchmarks: below ~48 elements the sorted vector's linear memory wins;
  /// above it, mid-vector insertion shifts start to dominate and the
  /// word-wise union is strictly cheaper (DESIGN.md section 11).
  static constexpr uint32_t DefaultPromoteThreshold = 48;

  IdSet() = default;
  /// \p PromoteThreshold overrides the promotion size (tests use tiny
  /// thresholds to exercise both representations cheaply).  A threshold of
  /// 0 behaves like 1: any insert may promote, density permitting.
  explicit IdSet(uint32_t PromoteThreshold) : Threshold(PromoteThreshold) {}

  /// \returns true if the set contains \p Value.
  bool contains(uint32_t Value) const {
    if (!Dense)
      return setContains(Small, Value);
    size_t Word = Value >> 6;
    return Word < Words.size() &&
           (Words[Word] >> (Value & 63)) & uint64_t(1);
  }

  /// Inserts \p Value. \returns true if it was newly added.
  bool insert(uint32_t Value);

  /// Merges \p Src into this set.  Every genuinely new element is appended
  /// to \p NewElements in ascending order (the vector is not cleared).
  /// \returns the number of elements added.  \p Src may be *this (no-op).
  size_t unionWithDelta(const IdSet &Src, SortedIdSet &NewElements);

  /// Merges the sorted duplicate-free range [\p Begin, \p End) into this
  /// set, appending new elements to \p NewElements.  \returns the number
  /// added.
  size_t unionWithDelta(const uint32_t *Begin, const uint32_t *End,
                        SortedIdSet &NewElements);
  size_t unionWithDelta(const SortedIdSet &Src, SortedIdSet &NewElements) {
    return unionWithDelta(Src.data(), Src.data() + Src.size(), NewElements);
  }

  /// Merges the sorted duplicate-free \p Values, all of which must be
  /// absent from the set (the caller already knows they are new — e.g. the
  /// solver inserting a union's delta into a node's pending-delta set).
  void insertNewSorted(const SortedIdSet &Values);

  size_t size() const { return Dense ? Count : Small.size(); }
  bool empty() const { return size() == 0; }

  /// Resets to an empty small-representation set, releasing storage.
  void clear() {
    Small.clear();
    Small.shrink_to_fit();
    Words.clear();
    Words.shrink_to_fit();
    Count = 0;
    Dense = false;
  }

  /// \returns true if the set currently uses the bitmap representation.
  bool isDense() const { return Dense; }

  /// Deterministic payload-storage estimate in bytes: element storage for
  /// the vector representation, word storage for the bitmap.  Based on
  /// logical sizes, not allocator capacities, so budget decisions derived
  /// from it are identical across platforms and library implementations.
  uint64_t approxBytes() const {
    return Dense ? Words.size() * sizeof(uint64_t)
                 : Small.size() * sizeof(uint32_t);
  }

  /// Calls \p Fn(uint32_t) for every element in ascending order.
  template <typename FnT> void forEach(FnT &&Fn) const {
    if (!Dense) {
      for (uint32_t Value : Small)
        Fn(Value);
      return;
    }
    for (size_t Word = 0; Word < Words.size(); ++Word) {
      uint64_t Bits = Words[Word];
      while (Bits != 0) {
        unsigned Bit = static_cast<unsigned>(__builtin_ctzll(Bits));
        Fn(static_cast<uint32_t>((Word << 6) + Bit));
        Bits &= Bits - 1;
      }
    }
  }

  /// \returns the contents as a sorted vector.
  SortedIdSet toVector() const {
    if (!Dense)
      return Small;
    SortedIdSet Out;
    Out.reserve(Count);
    forEach([&Out](uint32_t Value) { Out.push_back(Value); });
    return Out;
  }

  /// Ascending-order forward iteration over both representations.
  class const_iterator {
  public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = uint32_t;
    using difference_type = std::ptrdiff_t;
    using pointer = const uint32_t *;
    using reference = uint32_t;

    uint32_t operator*() const {
      return Parent->Dense ? static_cast<uint32_t>(Pos) : Parent->Small[Pos];
    }
    const_iterator &operator++() {
      if (Parent->Dense)
        Pos = Parent->findBitFrom(Pos + 1);
      else
        ++Pos;
      return *this;
    }
    bool operator==(const const_iterator &Other) const {
      return Pos == Other.Pos;
    }
    bool operator!=(const const_iterator &Other) const {
      return Pos != Other.Pos;
    }

  private:
    friend class IdSet;
    const_iterator(const IdSet *Parent, uint64_t Pos)
        : Parent(Parent), Pos(Pos) {}
    const IdSet *Parent;
    uint64_t Pos; ///< Vector index (small) or bit position (dense).
  };

  const_iterator begin() const {
    return {this, Dense ? findBitFrom(0) : 0};
  }
  const_iterator end() const {
    return {this, Dense ? static_cast<uint64_t>(Words.size()) * 64
                        : Small.size()};
  }

  /// Structural equality over the logical contents (representations may
  /// differ).
  bool operator==(const IdSet &Other) const;
  bool operator!=(const IdSet &Other) const { return !(*this == Other); }

private:
  /// First set bit at or after \p From; Words.size()*64 when none.
  uint64_t findBitFrom(uint64_t From) const;

  /// Number of 64-bit words a bitmap holding \p MaxValue needs.
  static size_t wordsFor(uint32_t MaxValue) {
    return static_cast<size_t>(MaxValue >> 6) + 1;
  }

  /// The promotion rule: \returns true if a small set of \p Size elements
  /// whose largest is \p MaxValue is past the threshold AND at least one
  /// element per word dense, which bounds bitmap bytes by 2x the vector
  /// bytes.
  bool promotes(size_t Size, uint32_t MaxValue) const;

  /// Switches the small set to a bitmap of \p WordCount words (enough for
  /// its maximum) holding the same elements.
  void toBitmap(size_t WordCount);

  /// Promotes the small set to the bitmap representation if promotes().
  void maybePromote();

  /// ORs the first \p WordCount words of the bitmap \p Src into this
  /// bitmap, which must have at least that many; appends the new elements
  /// to \p NewElements.  \returns how many there were.
  size_t orWords(const IdSet &Src, size_t WordCount, SortedIdSet &NewElements);

  /// Adds the sorted values [\p Begin, \p End) — non-empty, none present,
  /// not aliasing Small — to the small set.  When the result promotes, the
  /// bitmap (wordsFor(max) words, as maybePromote sizes it) is built
  /// straight from the old and new elements; otherwise the vector grows and
  /// the two runs merge in place from the back.
  void mergeNewSorted(const uint32_t *Begin, const uint32_t *End);

  /// Rebuilds the sorted vector from the bitmap (sparse-outlier fallback).
  void demote();

  /// Grows the bitmap to cover \p MaxValue, unless the result would be
  /// sparser than the 16-bytes-per-element cap given \p FinalCount elements
  /// — in that case demotes to the vector representation and \returns
  /// false (the caller must reissue the operation on the small path).
  bool ensureDenseCapacity(uint32_t MaxValue, size_t FinalCount);

  SortedIdSet Small;           ///< Sorted-vector representation.
  std::vector<uint64_t> Words; ///< Bitmap representation.
  size_t Count = 0;            ///< Element count (bitmap representation).
  uint32_t Threshold = DefaultPromoteThreshold;
  bool Dense = false;
};

} // namespace intro

#endif // SUPPORT_IDSET_H
