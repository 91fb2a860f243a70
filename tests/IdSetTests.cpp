//===- tests/IdSetTests.cpp - Adaptive points-to set unit tests -----------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// support/IdSet.h unit tests: the vector <-> bitmap promotion boundary,
/// every mixed-representation union pairing, empty/duplicate/max-handle
/// edges, the sparse-outlier demotion guard, direct promotion of small-set
/// unions checked against merge-then-promote, and a property test of random
/// operation interleavings against a std::set reference model.
///
//===----------------------------------------------------------------------===//

#include "support/IdSet.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <vector>

using namespace intro;

namespace {

/// \returns an IdSet holding [0, Count) with \p Threshold, densely packed
/// (consecutive handles, so it promotes as soon as the threshold allows).
IdSet denseSet(uint32_t Count, uint32_t Threshold) {
  IdSet Set(Threshold);
  for (uint32_t Value = 0; Value < Count; ++Value)
    Set.insert(Value);
  return Set;
}

std::vector<uint32_t> contents(const IdSet &Set) { return Set.toVector(); }

} // namespace

TEST(IdSet, StaysSortedVectorBelowThreshold) {
  IdSet Set(/*PromoteThreshold=*/8);
  for (uint32_t Value = 0; Value < 7; ++Value) {
    EXPECT_TRUE(Set.insert(Value * 3));
    EXPECT_FALSE(Set.isDense());
  }
  EXPECT_EQ(Set.size(), 7u);
  EXPECT_TRUE(Set.contains(6));
  EXPECT_FALSE(Set.contains(7));
}

TEST(IdSet, PromotesAtThresholdWhenDenseEnough) {
  // Consecutive handles: at the 8th insert the bitmap needs 1 word for 8
  // elements, easily within the 1-element-per-word density requirement.
  IdSet Set(/*PromoteThreshold=*/8);
  for (uint32_t Value = 0; Value < 8; ++Value)
    Set.insert(Value);
  EXPECT_TRUE(Set.isDense());
  EXPECT_EQ(Set.size(), 8u);
  for (uint32_t Value = 0; Value < 8; ++Value)
    EXPECT_TRUE(Set.contains(Value));
  EXPECT_FALSE(Set.contains(8));
}

TEST(IdSet, StaysVectorPastThresholdWhenSparse) {
  // Handles 64 words apart: the bitmap would need one word per element
  // (4096 bytes for 16 elements), failing the density condition.
  IdSet Set(/*PromoteThreshold=*/8);
  for (uint32_t Value = 0; Value < 16; ++Value)
    Set.insert(Value * 4096);
  EXPECT_FALSE(Set.isDense());
  EXPECT_EQ(Set.size(), 16u);
  // approxBytes reflects vector storage.
  EXPECT_EQ(Set.approxBytes(), 16u * sizeof(uint32_t));
}

TEST(IdSet, PromotionPreservesContentsAndOrder) {
  IdSet Set(/*PromoteThreshold=*/4);
  std::vector<uint32_t> Expected;
  // Insert descending so promotion happens mid-sequence.
  for (uint32_t Value = 20; Value-- > 0;) {
    Set.insert(Value);
    Expected.push_back(Value);
  }
  std::sort(Expected.begin(), Expected.end());
  EXPECT_TRUE(Set.isDense());
  EXPECT_EQ(contents(Set), Expected);
  // Iterator and forEach agree and ascend.
  std::vector<uint32_t> Iterated(Set.begin(), Set.end());
  EXPECT_EQ(Iterated, Expected);
}

TEST(IdSet, DuplicateInsertsAreRejectedInBothRepresentations) {
  IdSet Small(/*PromoteThreshold=*/100);
  EXPECT_TRUE(Small.insert(5));
  EXPECT_FALSE(Small.insert(5));
  EXPECT_EQ(Small.size(), 1u);

  IdSet Dense = denseSet(64, /*Threshold=*/4);
  ASSERT_TRUE(Dense.isDense());
  EXPECT_FALSE(Dense.insert(63));
  EXPECT_TRUE(Dense.insert(64));
  EXPECT_EQ(Dense.size(), 65u);
}

TEST(IdSet, MaxHandleLandsInVectorMode) {
  IdSet Set(/*PromoteThreshold=*/4);
  constexpr uint32_t Max = std::numeric_limits<uint32_t>::max();
  EXPECT_TRUE(Set.insert(Max));
  EXPECT_TRUE(Set.contains(Max));
  // A lone max handle must never promote: the bitmap would need 2^26 words.
  for (uint32_t Value = 0; Value < 32; ++Value)
    Set.insert(Value);
  EXPECT_FALSE(Set.isDense());
  EXPECT_EQ(Set.size(), 33u);
  EXPECT_TRUE(Set.contains(Max));
}

TEST(IdSet, SparseOutlierDemotesDenseSet) {
  // A compact dense set hit with a far-away handle must fall back to the
  // vector representation rather than allocate a ~512 MB bitmap.
  IdSet Set = denseSet(64, /*Threshold=*/4);
  ASSERT_TRUE(Set.isDense());
  constexpr uint32_t Outlier = std::numeric_limits<uint32_t>::max() - 1;
  EXPECT_TRUE(Set.insert(Outlier));
  EXPECT_FALSE(Set.isDense());
  EXPECT_EQ(Set.size(), 65u);
  EXPECT_TRUE(Set.contains(Outlier));
  EXPECT_TRUE(Set.contains(0));
  EXPECT_TRUE(Set.contains(63));
  // Storage stayed proportional to the element count, not the key range.
  EXPECT_EQ(Set.approxBytes(), 65u * sizeof(uint32_t));
}

TEST(IdSet, ClearResetsToEmptySmallSet) {
  IdSet Set = denseSet(64, /*Threshold=*/4);
  ASSERT_TRUE(Set.isDense());
  Set.clear();
  EXPECT_TRUE(Set.empty());
  EXPECT_FALSE(Set.isDense());
  EXPECT_EQ(Set.approxBytes(), 0u);
  EXPECT_TRUE(Set.insert(3));
  EXPECT_EQ(Set.size(), 1u);
}

// --- unionWithDelta: all four representation pairings ----------------------

namespace {

/// Exercises Dst.unionWithDelta(Src) and checks: final contents are the set
/// union, the reported delta is exactly the genuinely new elements in
/// ascending order, and the return value matches the delta size.
void checkUnion(IdSet Dst, const IdSet &Src) {
  std::set<uint32_t> Model(Dst.begin(), Dst.end());
  std::vector<uint32_t> ExpectedDelta;
  for (uint32_t Value : Src)
    if (Model.insert(Value).second)
      ExpectedDelta.push_back(Value);

  SortedIdSet Delta;
  size_t Added = Dst.unionWithDelta(Src, Delta);
  EXPECT_EQ(Added, ExpectedDelta.size());
  EXPECT_EQ(Delta, ExpectedDelta);
  EXPECT_EQ(contents(Dst),
            std::vector<uint32_t>(Model.begin(), Model.end()));
}

} // namespace

TEST(IdSet, UnionSmallIntoSmall) {
  IdSet Dst(/*PromoteThreshold=*/100);
  IdSet Src(/*PromoteThreshold=*/100);
  for (uint32_t Value : {2u, 4u, 6u, 8u})
    Dst.insert(Value);
  for (uint32_t Value : {1u, 4u, 9u})
    Src.insert(Value);
  ASSERT_FALSE(Dst.isDense());
  ASSERT_FALSE(Src.isDense());
  checkUnion(Dst, Src);
}

TEST(IdSet, UnionDenseIntoSmall) {
  IdSet Dst(/*PromoteThreshold=*/1000);
  for (uint32_t Value = 0; Value < 20; Value += 2)
    Dst.insert(Value);
  IdSet Src = denseSet(128, /*Threshold=*/4);
  ASSERT_FALSE(Dst.isDense());
  ASSERT_TRUE(Src.isDense());
  checkUnion(Dst, Src);
}

TEST(IdSet, UnionSmallIntoDense) {
  IdSet Dst = denseSet(128, /*Threshold=*/4);
  IdSet Src(/*PromoteThreshold=*/1000);
  for (uint32_t Value : {3u, 127u, 128u, 200u})
    Src.insert(Value);
  ASSERT_TRUE(Dst.isDense());
  ASSERT_FALSE(Src.isDense());
  checkUnion(Dst, Src);
}

TEST(IdSet, UnionDenseIntoDense) {
  IdSet Dst = denseSet(128, /*Threshold=*/4);
  IdSet Src(/*Threshold=*/4);
  for (uint32_t Value = 64; Value < 256; ++Value)
    Src.insert(Value);
  ASSERT_TRUE(Dst.isDense());
  ASSERT_TRUE(Src.isDense());
  checkUnion(Dst, Src);
}

TEST(IdSet, UnionWithSelfAndEmptyAreNoOps) {
  IdSet Set = denseSet(100, /*Threshold=*/4);
  SortedIdSet Delta;
  EXPECT_EQ(Set.unionWithDelta(Set, Delta), 0u);
  EXPECT_TRUE(Delta.empty());
  EXPECT_EQ(Set.size(), 100u);

  IdSet Empty;
  EXPECT_EQ(Set.unionWithDelta(Empty, Delta), 0u);
  EXPECT_TRUE(Delta.empty());

  // Empty destination adopts everything.
  IdSet Fresh;
  EXPECT_EQ(Fresh.unionWithDelta(Set, Delta), 100u);
  EXPECT_EQ(Delta.size(), 100u);
  EXPECT_EQ(Fresh, Set);
}

TEST(IdSet, UnionDeltaAppendsWithoutClearing) {
  // The solver reuses one scratch vector across edges; unionWithDelta must
  // append, not clear.
  IdSet A(/*PromoteThreshold=*/100);
  IdSet B(/*PromoteThreshold=*/100);
  A.insert(1);
  B.insert(2);
  IdSet Dst(/*PromoteThreshold=*/100);
  SortedIdSet Delta;
  Dst.unionWithDelta(A, Delta);
  Dst.unionWithDelta(B, Delta);
  EXPECT_EQ(Delta, (SortedIdSet{1, 2}));
}

TEST(IdSet, UnionPromotesSmallDestinationPastThreshold) {
  IdSet Dst(/*PromoteThreshold=*/8);
  Dst.insert(0);
  IdSet Src = denseSet(64, /*Threshold=*/4);
  SortedIdSet Delta;
  EXPECT_EQ(Dst.unionWithDelta(Src, Delta), 63u);
  EXPECT_TRUE(Dst.isDense());
  EXPECT_EQ(Dst.size(), 64u);
}

TEST(IdSet, UnionSparseRangeDemotesDenseDestination) {
  // Merging far-flung handles into a compact dense set trips the outlier
  // guard mid-union; the operation must complete on the vector path with
  // nothing lost or double-reported.
  IdSet Dst = denseSet(64, /*Threshold=*/4);
  ASSERT_TRUE(Dst.isDense());
  SortedIdSet Sparse;
  for (uint32_t Value = 0; Value < 8; ++Value)
    Sparse.push_back(1u << (20 + Value));
  SortedIdSet Delta;
  EXPECT_EQ(Dst.unionWithDelta(Sparse, Delta), 8u);
  EXPECT_FALSE(Dst.isDense());
  EXPECT_EQ(Dst.size(), 72u);
  EXPECT_EQ(Delta, Sparse);
  for (uint32_t Value : Sparse)
    EXPECT_TRUE(Dst.contains(Value));
}

TEST(IdSet, InsertNewSortedInBothRepresentations) {
  IdSet Small(/*PromoteThreshold=*/100);
  Small.insert(5);
  Small.insertNewSorted({1, 3, 9});
  EXPECT_EQ(contents(Small), (std::vector<uint32_t>{1, 3, 5, 9}));
  // Append-after-back fast path.
  Small.insertNewSorted({10, 11});
  EXPECT_EQ(Small.size(), 6u);

  IdSet Dense = denseSet(64, /*Threshold=*/4);
  Dense.insertNewSorted({70, 80});
  EXPECT_TRUE(Dense.contains(70));
  EXPECT_TRUE(Dense.contains(80));
  EXPECT_EQ(Dense.size(), 66u);

  Small.insertNewSorted({});
  EXPECT_EQ(Small.size(), 6u);
}

TEST(IdSet, EqualityIsRepresentationIndependent) {
  // Same contents, one promoted and one held as a vector.
  IdSet Vector(/*PromoteThreshold=*/1000);
  IdSet Bitmap(/*PromoteThreshold=*/4);
  for (uint32_t Value = 0; Value < 100; ++Value) {
    Vector.insert(Value);
    Bitmap.insert(Value);
  }
  ASSERT_FALSE(Vector.isDense());
  ASSERT_TRUE(Bitmap.isDense());
  EXPECT_EQ(Vector, Bitmap);
  Bitmap.insert(100);
  EXPECT_NE(Vector, Bitmap);
}

TEST(IdSet, DenseApproxBytesStaysWithinVectorFactor) {
  // The promotion density condition bounds bitmap bytes by 2x the vector
  // bytes at promotion time.
  IdSet Set(/*PromoteThreshold=*/48);
  for (uint32_t Value = 0; Value < 48; ++Value)
    Set.insert(Value * 2); // Density: 32 elements per 64-bit word span.
  ASSERT_TRUE(Set.isDense());
  EXPECT_LE(Set.approxBytes(), 2 * 48 * sizeof(uint32_t));
}

TEST(IdSet, DefaultThresholdBoundary47_48_49) {
  // The default-threshold promotion boundary, pinned element by element:
  // 47 consecutive handles stay a sorted vector, the 48th insert promotes
  // (density 48 elements in one word span is ample), the 49th extends the
  // bitmap.  Contents and order must be identical across the flip.
  static_assert(IdSet::DefaultPromoteThreshold == 48,
                "boundary test tracks the default threshold");
  IdSet Set; // Default threshold.
  std::vector<uint32_t> Expected;
  for (uint32_t Value = 0; Value < 47; ++Value) {
    EXPECT_TRUE(Set.insert(Value));
    Expected.push_back(Value);
  }
  EXPECT_FALSE(Set.isDense());
  EXPECT_EQ(Set.size(), 47u);
  EXPECT_EQ(contents(Set), Expected);

  EXPECT_TRUE(Set.insert(47));
  Expected.push_back(47);
  EXPECT_TRUE(Set.isDense());
  EXPECT_EQ(Set.size(), 48u);
  EXPECT_EQ(contents(Set), Expected);

  EXPECT_TRUE(Set.insert(48));
  Expected.push_back(48);
  EXPECT_TRUE(Set.isDense());
  EXPECT_EQ(Set.size(), 49u);
  EXPECT_EQ(contents(Set), Expected);

  // Duplicates at and around the boundary never double-count.
  EXPECT_FALSE(Set.insert(47));
  EXPECT_FALSE(Set.insert(48));
  EXPECT_EQ(Set.size(), 49u);
  std::vector<uint32_t> Iterated(Set.begin(), Set.end());
  EXPECT_EQ(Iterated, Expected);
}

TEST(IdSet, UnionDeltaAcrossDefaultThresholdBoundary) {
  // A batched union that lands the set exactly on, then one past, the
  // default promotion boundary: deltas must stay exact while the
  // representation flips mid-sequence.
  IdSet Set;
  SortedIdSet First47, Delta;
  for (uint32_t Value = 0; Value < 47; ++Value)
    First47.push_back(Value);
  EXPECT_EQ(Set.unionWithDelta(First47, Delta), 47u);
  EXPECT_EQ(Delta, First47);
  EXPECT_FALSE(Set.isDense());

  Delta.clear();
  EXPECT_EQ(Set.unionWithDelta(SortedIdSet{46, 47}, Delta), 1u);
  EXPECT_EQ(Delta, SortedIdSet{47});
  EXPECT_EQ(Set.size(), 48u);

  Delta.clear();
  EXPECT_EQ(Set.unionWithDelta(SortedIdSet{48}, Delta), 1u);
  EXPECT_EQ(Delta, SortedIdSet{48});
  EXPECT_EQ(Set.size(), 49u);
  for (uint32_t Value = 0; Value < 49; ++Value)
    EXPECT_TRUE(Set.contains(Value));
  EXPECT_FALSE(Set.contains(49));
}

TEST(IdSet, RandomOpInterleavingsMatchStdSetModel) {
  // Property test: arbitrary interleavings of insert / unionWithDelta /
  // clear across random thresholds must track a std::set model exactly,
  // and every reported union delta must be exactly the new elements.
  for (uint64_t Seed = 0; Seed < 12; ++Seed) {
    Rng R(0x1d5e7 + Seed);
    uint32_t Threshold = R.range(1, 64);
    uint32_t KeyRange = R.range(64, 4096);
    IdSet Set(Threshold);
    std::set<uint32_t> Model;

    for (int Op = 0; Op < 400; ++Op) {
      switch (R.below(8)) {
      case 0: { // Occasional sparse outlier insert.
        uint32_t Value = std::numeric_limits<uint32_t>::max() - R.below(1000);
        EXPECT_EQ(Set.insert(Value), Model.insert(Value).second);
        break;
      }
      case 1: { // Union with a random batch (sorted range overload).
        SortedIdSet Batch;
        for (uint32_t Index = R.below(100); Index-- > 0;)
          Batch.push_back(R.below(KeyRange));
        std::sort(Batch.begin(), Batch.end());
        Batch.erase(std::unique(Batch.begin(), Batch.end()), Batch.end());
        std::vector<uint32_t> ExpectedDelta;
        for (uint32_t Value : Batch)
          if (Model.insert(Value).second)
            ExpectedDelta.push_back(Value);
        SortedIdSet Delta;
        EXPECT_EQ(Set.unionWithDelta(Batch, Delta), ExpectedDelta.size());
        EXPECT_EQ(Delta, ExpectedDelta);
        break;
      }
      case 2: { // Union with a random IdSet.
        IdSet Other(R.range(1, 32));
        for (uint32_t Index = R.below(150); Index-- > 0;)
          Other.insert(R.below(KeyRange));
        std::vector<uint32_t> ExpectedDelta;
        for (uint32_t Value : Other)
          if (Model.insert(Value).second)
            ExpectedDelta.push_back(Value);
        SortedIdSet Delta;
        EXPECT_EQ(Set.unionWithDelta(Other, Delta), ExpectedDelta.size());
        EXPECT_EQ(Delta, ExpectedDelta);
        break;
      }
      case 3: { // Membership probe.
        uint32_t Value = R.below(KeyRange);
        EXPECT_EQ(Set.contains(Value), Model.count(Value) == 1);
        break;
      }
      case 4: {
        if (R.below(20) == 0) { // Rare full reset.
          Set.clear();
          Model.clear();
        }
        break;
      }
      default: { // Plain insert.
        uint32_t Value = R.below(KeyRange);
        EXPECT_EQ(Set.insert(Value), Model.insert(Value).second);
        break;
      }
      }
    }

    EXPECT_EQ(Set.size(), Model.size());
    EXPECT_EQ(contents(Set),
              std::vector<uint32_t>(Model.begin(), Model.end()));
    std::vector<uint32_t> Iterated(Set.begin(), Set.end());
    EXPECT_EQ(Iterated, std::vector<uint32_t>(Model.begin(), Model.end()));
  }
}

// --- Direct promotion: small-set unions that land past the threshold ------

namespace {

/// What a union into a small set must produce, computed the slow way:
/// merge into a sorted vector, then apply the promotion rule once — a
/// bitmap of wordsFor(max) words iff the size reaches the threshold and
/// wordsFor(max) <= size.
struct MergeThenPromote {
  std::vector<uint32_t> Contents;
  std::vector<uint32_t> NewElements;
  bool Dense = false;
  uint64_t Bytes = 0;
};

MergeThenPromote mergeThenPromote(const std::vector<uint32_t> &Dst,
                                  const std::vector<uint32_t> &Src) {
  MergeThenPromote Expected;
  std::set<uint32_t> Merged(Dst.begin(), Dst.end());
  for (uint32_t Value : Src) // Src ascends, so the new elements do too.
    if (Merged.insert(Value).second)
      Expected.NewElements.push_back(Value);
  Expected.Contents.assign(Merged.begin(), Merged.end());
  uint64_t Words = Expected.Contents.back() / 64 + 1;
  Expected.Dense = Expected.Contents.size() >= IdSet::DefaultPromoteThreshold &&
                   Words <= Expected.Contents.size();
  Expected.Bytes = Expected.Dense ? Words * sizeof(uint64_t)
                                  : Expected.Contents.size() * sizeof(uint32_t);
  return Expected;
}

void expectSame(const IdSet &Set, const SortedIdSet &NewElements,
                const MergeThenPromote &Expected, const std::string &Label) {
  EXPECT_EQ(contents(Set), Expected.Contents) << Label;
  EXPECT_EQ(NewElements, Expected.NewElements) << Label;
  EXPECT_EQ(Set.isDense(), Expected.Dense) << Label;
  EXPECT_EQ(Set.approxBytes(), Expected.Bytes) << Label;
  EXPECT_EQ(Set.size(), Expected.Contents.size()) << Label;
}

/// \p Count distinct ascending handles whose largest needs exactly
/// \p WordCount bitmap words: floor(i * max / (Count - 1)) for max =
/// 64 * (WordCount - 1), or [0, Count) when WordCount is 1.
std::vector<uint32_t> spreadHandles(uint32_t Count, uint32_t WordCount) {
  uint32_t Max = WordCount == 1 ? Count - 1 : 64 * (WordCount - 1);
  std::vector<uint32_t> Handles;
  for (uint64_t Index = 0; Index < Count; ++Index)
    Handles.push_back(static_cast<uint32_t>(Index * Max / (Count - 1)));
  return Handles;
}

/// A small (default-threshold) set built one insert at a time.
IdSet smallSet(const std::vector<uint32_t> &Values) {
  IdSet Set;
  for (uint32_t Value : Values)
    Set.insert(Value);
  EXPECT_FALSE(Set.isDense());
  return Set;
}

/// The union layouts: every final size around the default threshold, at
/// the density edge (wordsFor(max) = size), one word past it, and compact.
struct Layout {
  uint32_t Final;
  uint32_t WordCount;
};

std::vector<Layout> layouts() {
  std::vector<Layout> All;
  for (uint32_t Final : {47u, 48u, 49u})
    for (uint32_t WordCount : {Final, Final + 1, 1u})
      All.push_back({Final, WordCount});
  return All;
}

std::string label(const char *Path, Layout L, const char *Split) {
  return std::string(Path) + " final " + std::to_string(L.Final) + " words " +
         std::to_string(L.WordCount) + " " + Split;
}

} // namespace

TEST(IdSetDirectPromotion, SortedRangeIntoSmallMatchesMergeThenPromote) {
  for (Layout L : layouts()) {
    std::vector<uint32_t> All = spreadHandles(L.Final, L.WordCount);
    uint32_t Half = L.Final / 2;
    // The source overlaps the destination by three handles, and the
    // maximum sits in the source or in the destination.
    for (bool MaxInSource : {true, false}) {
      std::vector<uint32_t> Low(All.begin(), All.begin() + Half + 3);
      std::vector<uint32_t> High(All.begin() + Half, All.end());
      const std::vector<uint32_t> &Dst = MaxInSource ? Low : High;
      const std::vector<uint32_t> &Src = MaxInSource ? High : Low;
      IdSet Set = smallSet(Dst);
      SortedIdSet NewElements;
      EXPECT_EQ(Set.unionWithDelta(Src, NewElements), L.Final - Dst.size());
      expectSame(Set, NewElements, mergeThenPromote(Dst, Src),
                 label("range", L, MaxInSource ? "max in src" : "max in dst"));
    }
  }
}

TEST(IdSetDirectPromotion, DenseSourceIntoSmallMatchesMergeThenPromote) {
  for (Layout L : layouts()) {
    std::vector<uint32_t> All = spreadHandles(L.Final, L.WordCount);
    uint32_t Half = L.Final / 2;
    // A low prefix is as dense as a bitmap may be; the destination holds
    // the rest, the maximum, and three of the source's handles.
    std::vector<uint32_t> Low(All.begin(), All.begin() + Half + 3);
    std::vector<uint32_t> High(All.begin() + Half, All.end());
    IdSet Src(/*PromoteThreshold=*/1);
    for (uint32_t Value : Low)
      Src.insert(Value);
    ASSERT_TRUE(Src.isDense()) << label("dense", L, "");
    IdSet Set = smallSet(High);
    SortedIdSet NewElements;
    EXPECT_EQ(Set.unionWithDelta(Src, NewElements), L.Final - High.size());
    expectSame(Set, NewElements, mergeThenPromote(High, Low),
               label("dense", L, "max in dst"));
  }
}

TEST(IdSetDirectPromotion, InsertNewSortedIntoSmallMatchesMergeThenPromote) {
  for (Layout L : layouts()) {
    std::vector<uint32_t> All = spreadHandles(L.Final, L.WordCount);
    uint32_t Half = L.Final / 2;
    for (bool MaxInSource : {true, false}) {
      // Disjoint halves, interleaved so the merge really interleaves.
      std::vector<uint32_t> Even, Odd;
      for (uint32_t Index = 0; Index < L.Final; ++Index)
        (Index % 2 == 0 ? Even : Odd).push_back(All[Index]);
      bool MaxIsEven = (L.Final - 1) % 2 == 0;
      const std::vector<uint32_t> &Src = MaxIsEven == MaxInSource ? Even : Odd;
      const std::vector<uint32_t> &Dst = MaxIsEven == MaxInSource ? Odd : Even;
      IdSet Set = smallSet(Dst);
      Set.insertNewSorted(Src);
      expectSame(Set, Src, mergeThenPromote(Dst, Src),
                 label("insertNewSorted", L,
                       MaxInSource ? "max in src" : "max in dst"));
      // The append-after-back shape: every new handle above the set's.
      std::vector<uint32_t> Below(All.begin(), All.begin() + Half);
      std::vector<uint32_t> Above(All.begin() + Half, All.end());
      IdSet Appended = smallSet(Below);
      Appended.insertNewSorted(Above);
      expectSame(Appended, Above, mergeThenPromote(Below, Above),
                 label("insertNewSorted", L, "append"));
    }
  }
}

TEST(IdSetDirectPromotion, SparseOutlierStaysAVector) {
  // Past the threshold, but one handle near UINT32_MAX would need a 2^26
  // word bitmap: every entry point must keep the vector (and must not try
  // to allocate the bitmap first).
  constexpr uint32_t Outlier = std::numeric_limits<uint32_t>::max() - 1;
  std::vector<uint32_t> Dst, Src;
  for (uint32_t Value = 0; Value < 30; ++Value)
    Dst.push_back(2 * Value);
  for (uint32_t Value = 0; Value < 25; ++Value)
    Src.push_back(2 * Value + 1);
  Src.push_back(Outlier);

  IdSet Range = smallSet(Dst);
  SortedIdSet NewElements;
  EXPECT_EQ(Range.unionWithDelta(Src, NewElements), Src.size());
  expectSame(Range, NewElements, mergeThenPromote(Dst, Src), "range outlier");
  EXPECT_FALSE(Range.isDense());

  IdSet Inserted = smallSet(Dst);
  Inserted.insertNewSorted(Src);
  expectSame(Inserted, Src, mergeThenPromote(Dst, Src),
             "insertNewSorted outlier");
  EXPECT_FALSE(Inserted.isDense());

  // A dense source cannot hold an outlier, but the small destination can.
  std::vector<uint32_t> Compact(64);
  for (uint32_t Value = 0; Value < 64; ++Value)
    Compact[Value] = Value;
  IdSet DenseSrc(/*PromoteThreshold=*/1);
  for (uint32_t Value : Compact)
    DenseSrc.insert(Value);
  ASSERT_TRUE(DenseSrc.isDense());
  std::vector<uint32_t> WithOutlier = {100, Outlier};
  IdSet FromDense = smallSet(WithOutlier);
  NewElements.clear();
  EXPECT_EQ(FromDense.unionWithDelta(DenseSrc, NewElements), 64u);
  expectSame(FromDense, NewElements, mergeThenPromote(WithOutlier, Compact),
             "dense source, outlier in dst");
  EXPECT_FALSE(FromDense.isDense());
}
