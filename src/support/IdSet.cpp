//===- support/IdSet.cpp - Adaptive dense-handle set ----------------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/IdSet.h"

#include <algorithm>
#include <cassert>

using namespace intro;

uint64_t IdSet::findBitFrom(uint64_t From) const {
  uint64_t End = static_cast<uint64_t>(Words.size()) * 64;
  if (From >= End)
    return End;
  size_t Word = static_cast<size_t>(From >> 6);
  uint64_t Bits = Words[Word] >> (From & 63);
  if (Bits != 0)
    return From + static_cast<uint64_t>(__builtin_ctzll(Bits));
  for (++Word; Word < Words.size(); ++Word)
    if (Words[Word] != 0)
      return (static_cast<uint64_t>(Word) << 6) +
             static_cast<uint64_t>(__builtin_ctzll(Words[Word]));
  return End;
}

bool IdSet::promotes(size_t Size, uint32_t MaxValue) const {
  // Density condition: the bitmap may not be sparser than one element per
  // word, i.e. 8 bitmap bytes per at most 8 vector bytes (2x overhead cap).
  return Size >= std::max<uint32_t>(Threshold, 1) &&
         wordsFor(MaxValue) <= Size;
}

void IdSet::toBitmap(size_t WordCount) {
  Words.assign(WordCount, 0);
  for (uint32_t Value : Small)
    Words[Value >> 6] |= uint64_t(1) << (Value & 63);
  Count = Small.size();
  Small.clear();
  Small.shrink_to_fit();
  Dense = true;
}

void IdSet::maybePromote() {
  if (!Dense && !Small.empty() && promotes(Small.size(), Small.back()))
    toBitmap(wordsFor(Small.back()));
}

size_t IdSet::orWords(const IdSet &Src, size_t WordCount,
                      SortedIdSet &NewElements) {
  size_t Added = 0;
  for (size_t Word = 0; Word < WordCount; ++Word) {
    // The new elements of each word are Src & ~this.
    uint64_t Fresh = Src.Words[Word] & ~Words[Word];
    if (Fresh == 0)
      continue;
    Words[Word] |= Fresh;
    Added += static_cast<size_t>(__builtin_popcountll(Fresh));
    while (Fresh != 0) {
      unsigned Bit = static_cast<unsigned>(__builtin_ctzll(Fresh));
      NewElements.push_back(static_cast<uint32_t>((Word << 6) + Bit));
      Fresh &= Fresh - 1;
    }
  }
  Count += Added;
  return Added;
}

void IdSet::mergeNewSorted(const uint32_t *Begin, const uint32_t *End) {
  assert(!Dense && Begin != End && "merge into a small set");
  size_t Old = Small.size();
  size_t Final = Old + static_cast<size_t>(End - Begin);
  uint32_t MaxValue = *(End - 1);
  if (Old != 0)
    MaxValue = std::max(MaxValue, Small.back());
  // The promotion test comes first: a sparse outlier must not allocate.
  if (promotes(Final, MaxValue)) {
    // The merged vector would promote at once: build the bitmap from both
    // runs instead, sized exactly as maybePromote would size it.
    toBitmap(wordsFor(MaxValue));
    for (const uint32_t *It = Begin; It != End; ++It) {
      assert(!(Words[*It >> 6] >> (*It & 63) & 1) && "element already present");
      Words[*It >> 6] |= uint64_t(1) << (*It & 63);
    }
    Count = Final;
    return;
  }
  // In-place merge from the back: the larger head of either run moves to
  // the end of the grown vector, so no element is overwritten unread.  The
  // vector grows to exactly Final, never geometrically: growth slack on
  // every small set raised the sweep's peak RSS by 2%.
  if (Final > Small.capacity())
    Small.reserve(Final);
  Small.resize(Final);
  size_t Out = Final;
  size_t SmallIt = Old;
  for (const uint32_t *It = End; It != Begin;) {
    if (SmallIt != 0 && Small[SmallIt - 1] > *(It - 1)) {
      Small[--Out] = Small[--SmallIt];
    } else {
      assert((SmallIt == 0 || Small[SmallIt - 1] != *(It - 1)) &&
             "element already present");
      Small[--Out] = *--It;
    }
  }
}

void IdSet::demote() {
  assert(Dense && "demote of a small set");
  Small = toVector();
  Words.clear();
  Words.shrink_to_fit();
  Count = 0;
  Dense = false;
}

bool IdSet::ensureDenseCapacity(uint32_t MaxValue, size_t FinalCount) {
  size_t Needed = wordsFor(MaxValue);
  if (Needed <= Words.size())
    return true;
  // Sparse-outlier guard: a handle far beyond the populated range must not
  // balloon the bitmap (16 bytes per element is the cap — twice the 2x
  // bound the promotion condition guarantees, leaving room for growth).
  if (Needed > 2 * FinalCount) {
    demote();
    return false;
  }
  size_t Grown = std::max(Needed, Words.size() * 2);
  Words.resize(Grown, 0);
  return true;
}

bool IdSet::insert(uint32_t Value) {
  if (Dense) {
    if (!ensureDenseCapacity(Value, Count + 1))
      return setInsert(Small, Value); // Demoted: past threshold, low density.
    uint64_t &Word = Words[Value >> 6];
    uint64_t Mask = uint64_t(1) << (Value & 63);
    if (Word & Mask)
      return false;
    Word |= Mask;
    ++Count;
    return true;
  }
  if (!setInsert(Small, Value))
    return false;
  maybePromote();
  return true;
}

size_t IdSet::unionWithDelta(const uint32_t *Begin, const uint32_t *End,
                             SortedIdSet &NewElements) {
  if (Begin == End)
    return 0;
  if (Dense) {
    // The range is sorted, so its maximum is the last element; settle the
    // capacity (or the demotion) once, before touching any bits.
    if (!ensureDenseCapacity(*(End - 1),
                             Count + static_cast<size_t>(End - Begin)))
      return unionWithDelta(Begin, End, NewElements); // Now on the small path.
    size_t Added = 0;
    for (const uint32_t *It = Begin; It != End; ++It) {
      uint64_t &Word = Words[*It >> 6];
      uint64_t Mask = uint64_t(1) << (*It & 63);
      if (Word & Mask)
        continue;
      Word |= Mask;
      NewElements.push_back(*It);
      ++Added;
    }
    Count += Added;
    return Added;
  }
  size_t FirstNew = NewElements.size();
  std::set_difference(Begin, End, Small.begin(), Small.end(),
                      std::back_inserter(NewElements));
  size_t Added = NewElements.size() - FirstNew;
  if (Added != 0)
    mergeNewSorted(NewElements.data() + FirstNew,
                   NewElements.data() + NewElements.size());
  return Added;
}

size_t IdSet::unionWithDelta(const IdSet &Src, SortedIdSet &NewElements) {
  if (&Src == this || Src.empty())
    return 0;
  if (!Src.Dense)
    return unionWithDelta(Src.Small.data(),
                          Src.Small.data() + Src.Small.size(), NewElements);

  if (Dense) {
    // Word-wise OR.  Both sets satisfy the density invariant, so growing to
    // the wider of the two cannot trip the sparse-outlier cap — settle
    // capacity directly.
    if (Src.Words.size() > Words.size())
      Words.resize(Src.Words.size(), 0);
    return orWords(Src, Src.Words.size(), NewElements);
  }

  // Small destination, dense source.  Count the new elements and find the
  // union's maximum first, allocating nothing: if the union promotes, the
  // small set becomes a bitmap of exactly wordsFor(max) words and Src is
  // OR-ed in word by word (Src's words past that are zero).
  size_t Common = 0;
  for (uint32_t Value : Small)
    Common += Src.contains(Value) ? 1 : 0;
  if (Common == Src.Count)
    return 0;
  size_t Top = Src.Words.size();
  while (Src.Words[Top - 1] == 0)
    --Top;
  uint32_t MaxValue = static_cast<uint32_t>(
      (Top - 1) * 64 + 63 -
      static_cast<size_t>(__builtin_clzll(Src.Words[Top - 1])));
  if (!Small.empty())
    MaxValue = std::max(MaxValue, Small.back());
  if (promotes(Small.size() + Src.Count - Common, MaxValue)) {
    toBitmap(wordsFor(MaxValue));
    return orWords(Src, Top, NewElements);
  }
  // Otherwise the new elements are Src minus Small, found in one ascending
  // pass over both, and merged in place.
  size_t FirstNew = NewElements.size();
  auto SmallIt = Small.begin();
  Src.forEach([&](uint32_t Value) {
    while (SmallIt != Small.end() && *SmallIt < Value)
      ++SmallIt;
    if (SmallIt != Small.end() && *SmallIt == Value)
      return;
    NewElements.push_back(Value);
  });
  size_t Added = NewElements.size() - FirstNew;
  if (Added != 0)
    mergeNewSorted(NewElements.data() + FirstNew,
                   NewElements.data() + NewElements.size());
  return Added;
}

void IdSet::insertNewSorted(const SortedIdSet &Values) {
  if (Values.empty())
    return;
  if (Dense) {
    if (!ensureDenseCapacity(Values.back(), Count + Values.size())) {
      insertNewSorted(Values); // Demoted: redo on the small path.
      return;
    }
    for (uint32_t Value : Values) {
      assert(!(Words[Value >> 6] >> (Value & 63) & 1) &&
             "insertNewSorted element already present");
      Words[Value >> 6] |= uint64_t(1) << (Value & 63);
    }
    Count += Values.size();
    return;
  }
  mergeNewSorted(Values.data(), Values.data() + Values.size());
}

bool IdSet::operator==(const IdSet &Other) const {
  if (size() != Other.size())
    return false;
  auto It = Other.begin();
  for (uint32_t Value : *this) {
    if (Value != *It)
      return false;
    ++It;
  }
  return true;
}
