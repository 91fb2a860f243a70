//===- tests/SupportTests.cpp - Support library unit tests ----------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Ids.h"
#include "support/Overflow.h"
#include "support/ParseNum.h"
#include "support/Rng.h"
#include "support/SetUtils.h"
#include "support/StringInterner.h"
#include "support/TableWriter.h"
#include "support/Timer.h"
#include "support/TupleInterner.h"

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <sstream>
#include <type_traits>

using namespace intro;

TEST(Ids, DefaultIsInvalid) {
  VarId Var;
  EXPECT_FALSE(Var.isValid());
  EXPECT_EQ(Var, VarId::invalid());
}

TEST(Ids, IndexRoundTrip) {
  HeapId Heap(42);
  EXPECT_TRUE(Heap.isValid());
  EXPECT_EQ(Heap.index(), 42u);
  EXPECT_EQ(Heap.raw(), 42u);
}

TEST(Ids, Ordering) {
  EXPECT_LT(MethodId(1), MethodId(2));
  EXPECT_NE(MethodId(1), MethodId(2));
  EXPECT_EQ(MethodId(3), MethodId(3));
}

TEST(Ids, Hashable) {
  std::hash<VarId> Hasher;
  EXPECT_EQ(Hasher(VarId(7)), Hasher(VarId(7)));
}

TEST(StringInterner, DeduplicatesAndRoundTrips) {
  StringInterner Interner;
  uint32_t A = Interner.intern("alpha");
  uint32_t B = Interner.intern("beta");
  uint32_t A2 = Interner.intern("alpha");
  EXPECT_EQ(A, A2);
  EXPECT_NE(A, B);
  EXPECT_EQ(Interner.text(A), "alpha");
  EXPECT_EQ(Interner.text(B), "beta");
  EXPECT_EQ(Interner.size(), 2u);
}

TEST(StringInterner, ViewsSurviveGrowth) {
  StringInterner Interner;
  uint32_t First = Interner.intern("s0");
  std::string_view View = Interner.text(First);
  for (int Index = 0; Index < 1000; ++Index)
    Interner.intern("s" + std::to_string(Index));
  EXPECT_EQ(View, "s0");
  EXPECT_EQ(Interner.text(First), "s0");
}

TEST(TupleInterner, EmptyTupleIsValid) {
  TupleInterner Interner;
  uint32_t Empty = Interner.intern({});
  EXPECT_EQ(Empty, 0u);
  EXPECT_TRUE(Interner.elements(Empty).empty());
  EXPECT_EQ(Interner.intern({}), Empty);
}

TEST(TupleInterner, DeduplicatesByContent) {
  TupleInterner Interner;
  std::vector<uint32_t> T1 = {1, 2, 3};
  std::vector<uint32_t> T2 = {1, 2, 4};
  uint32_t H1 = Interner.intern(T1);
  uint32_t H2 = Interner.intern(T2);
  uint32_t H3 = Interner.intern(T1);
  EXPECT_EQ(H1, H3);
  EXPECT_NE(H1, H2);
  auto Elements = Interner.elements(H2);
  ASSERT_EQ(Elements.size(), 3u);
  EXPECT_EQ(Elements[2], 4u);
}

TEST(TupleInterner, FindDoesNotInsert) {
  TupleInterner Interner;
  std::vector<uint32_t> T = {9, 9};
  EXPECT_EQ(Interner.find(T), TupleInterner::NotFound);
  EXPECT_EQ(Interner.size(), 0u);
  uint32_t H = Interner.intern(T);
  EXPECT_EQ(Interner.find(T), H);
}

TEST(TupleInterner, SelfAliasingInternIsSafe) {
  TupleInterner Interner;
  std::vector<uint32_t> Seed = {10, 20, 30};
  uint32_t H = Interner.intern(Seed);
  // Intern a truncated view of an existing tuple many times; the arena grows
  // underneath the input span.
  for (int Round = 0; Round < 100; ++Round) {
    auto View = Interner.elements(H);
    uint32_t Sub = Interner.intern(View.subspan(0, 2));
    auto SubElements = Interner.elements(Sub);
    ASSERT_EQ(SubElements.size(), 2u);
    EXPECT_EQ(SubElements[0], 10u);
    EXPECT_EQ(SubElements[1], 20u);
    // Grow the arena with fresh tuples.
    std::vector<uint32_t> Fresh = {static_cast<uint32_t>(Round), 7u, 8u, 9u};
    Interner.intern(Fresh);
  }
}

TEST(Rng, Deterministic) {
  Rng A(123);
  Rng B(123);
  for (int Index = 0; Index < 100; ++Index)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, BelowIsInRange) {
  Rng R(7);
  for (int Index = 0; Index < 1000; ++Index)
    EXPECT_LT(R.below(10), 10u);
}

TEST(Rng, RangeInclusive) {
  Rng R(11);
  bool SawLo = false;
  bool SawHi = false;
  for (int Index = 0; Index < 2000; ++Index) {
    uint32_t Value = R.range(3, 5);
    EXPECT_GE(Value, 3u);
    EXPECT_LE(Value, 5u);
    SawLo |= Value == 3;
    SawHi |= Value == 5;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng A(1);
  Rng B(2);
  bool Diverged = false;
  for (int Index = 0; Index < 10 && !Diverged; ++Index)
    Diverged = A.next() != B.next();
  EXPECT_TRUE(Diverged);
}

TEST(SetUtils, InsertAndContains) {
  SortedIdSet Set;
  EXPECT_TRUE(setInsert(Set, 5));
  EXPECT_TRUE(setInsert(Set, 1));
  EXPECT_TRUE(setInsert(Set, 9));
  EXPECT_FALSE(setInsert(Set, 5));
  EXPECT_TRUE(setContains(Set, 1));
  EXPECT_TRUE(setContains(Set, 5));
  EXPECT_FALSE(setContains(Set, 2));
  EXPECT_EQ(Set, (SortedIdSet{1, 5, 9}));
}

TEST(SetUtils, NormalizeSortsAndDedupes) {
  SortedIdSet Values = {5, 1, 5, 3, 1};
  setNormalize(Values);
  EXPECT_EQ(Values, (SortedIdSet{1, 3, 5}));
}

TEST(TableWriter, AlignsColumns) {
  TableWriter Table({"name", "value"});
  Table.addRow({"x", "1"});
  Table.addRow({"longer", "22"});
  std::ostringstream Out;
  Table.print(Out);
  std::string Text = Out.str();
  EXPECT_NE(Text.find("| name   | value |"), std::string::npos);
  EXPECT_NE(Text.find("| longer | 22    |"), std::string::npos);
}

TEST(TableWriter, Formatters) {
  EXPECT_EQ(TableWriter::num(3.14159, 2), "3.14");
  EXPECT_EQ(TableWriter::num(uint64_t(42)), "42");
  EXPECT_EQ(TableWriter::percent(12.34), "12.3 %");
}

TEST(Timer, BackedByMonotonicClock) {
  // The budget enforcement contract: a wall-clock adjustment (NTP, DST,
  // manual change) mid-solve must not move elapsed time.  steady_clock is
  // the only standard clock guaranteeing that.
  static_assert(std::is_same_v<Timer::Clock, std::chrono::steady_clock>,
                "Timer must use std::chrono::steady_clock");
  EXPECT_TRUE(Timer::Clock::is_steady);
}

TEST(Timer, ElapsedIsNonNegativeAndMonotone) {
  Timer Clock;
  double Previous = 0.0;
  for (int Sample = 0; Sample < 10000; ++Sample) {
    double Now = Clock.seconds();
    ASSERT_GE(Now, Previous) << "elapsed time went backwards";
    Previous = Now;
  }
  EXPECT_GE(Clock.millis(), Previous * 1000.0);
  Clock.reset();
  EXPECT_GE(Clock.seconds(), 0.0);
}

TEST(Overflow, SaturatingMulExactWhenInRange) {
  EXPECT_EQ(saturatingMul(6, 7), 42u);
  EXPECT_EQ(saturatingMul(0, std::numeric_limits<uint64_t>::max()), 0u);
  EXPECT_EQ(saturatingMul(std::numeric_limits<uint64_t>::max(), 1),
            std::numeric_limits<uint64_t>::max());
}

TEST(Overflow, SaturatingMulClampsOnOverflow) {
  // 2^32 * 2^32 = 2^64 wraps to 0 under plain uint64 multiplication — the
  // exact bug class that disarmed the TupleInflation budget check.
  EXPECT_EQ(saturatingMul(uint64_t(1) << 32, uint64_t(1) << 32),
            std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(saturatingMul(std::numeric_limits<uint64_t>::max(), 2),
            std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(saturatingMul(std::numeric_limits<uint64_t>::max(),
                          std::numeric_limits<uint64_t>::max()),
            std::numeric_limits<uint64_t>::max());
}

TEST(Overflow, SaturatingAdd) {
  EXPECT_EQ(saturatingAdd(40, 2), 42u);
  EXPECT_EQ(saturatingAdd(std::numeric_limits<uint64_t>::max(), 1),
            std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(saturatingAdd(std::numeric_limits<uint64_t>::max(),
                          std::numeric_limits<uint64_t>::max()),
            std::numeric_limits<uint64_t>::max());
}

// --- Strict numeric CLI parsing (support/ParseNum.h) -------------------------

TEST(ParseNum, AcceptsPlainDecimals) {
  uint64_t U64 = 0;
  uint32_t U32 = 0;
  double F64 = 0;
  std::string Error;
  EXPECT_TRUE(parseU64("--seed", "0", 0, 10, U64, Error));
  EXPECT_EQ(U64, 0u);
  EXPECT_TRUE(parseU64("--seed", "18446744073709551615", 0,
                       std::numeric_limits<uint64_t>::max(), U64, Error));
  EXPECT_EQ(U64, std::numeric_limits<uint64_t>::max());
  EXPECT_TRUE(parseU32("--workers", "4294967295", 0,
                       std::numeric_limits<uint32_t>::max(), U32, Error));
  EXPECT_EQ(U32, std::numeric_limits<uint32_t>::max());
  EXPECT_TRUE(parseF64("--deadline", "1.5", 0, 10, F64, Error));
  EXPECT_EQ(F64, 1.5);
  EXPECT_TRUE(Error.empty());
}

TEST(ParseNum, RejectsGarbageWithANamedFlagDiagnostic) {
  // `--retries=x` must produce a named-flag error, not escape as
  // std::invalid_argument (which an outer try/catch misreports as an
  // internal error, exit 3 instead of exit 2).
  uint64_t Out = 7;
  std::string Error;
  EXPECT_FALSE(parseU64("--retries", "x", 0, 100, Out, Error));
  EXPECT_NE(Error.find("--retries"), std::string::npos);
  EXPECT_NE(Error.find("'x'"), std::string::npos);
  EXPECT_EQ(Out, 7u) << "output must be untouched on failure";
}

TEST(ParseNum, RejectsWhatStoulWouldAccept) {
  // Every one of these passes std::stoul but is not a flag value a user
  // meant: signs, whitespace, trailing garbage, hex.
  uint64_t Out = 0;
  std::string Error;
  for (const char *Bad : {"", "-1", "+1", " 1", "1 ", "12x", "0x10", "1.0"})
    EXPECT_FALSE(parseU64("--n", Bad, 0, 1000, Out, Error)) << Bad;
}

TEST(ParseNum, RejectsSixtyFourBitOverflowInsteadOfWrapping) {
  uint64_t Out = 0;
  std::string Error;
  EXPECT_FALSE(parseU64("--seed", "18446744073709551616", 0,
                        std::numeric_limits<uint64_t>::max(), Out, Error));
  EXPECT_NE(Error.find("64 bits"), std::string::npos);
}

TEST(ParseNum, U32RejectsValuesAboveTheCallersRange) {
  // On LP64, std::stoul happily parses 2^32 and a later static_cast
  // truncates it to 0; the checked parse must reject it instead.
  uint32_t Out = 0;
  std::string Error;
  EXPECT_FALSE(parseU32("--workers", "4294967296", 1,
                        std::numeric_limits<uint32_t>::max(), Out, Error));
  EXPECT_NE(Error.find("--workers"), std::string::npos);
}

TEST(ParseNum, EnforcesTheInclusiveRange) {
  uint64_t Out = 0;
  std::string Error;
  EXPECT_FALSE(parseU64("--max-attempts", "0", 1, 10, Out, Error));
  EXPECT_NE(Error.find("[1, 10]"), std::string::npos);
  EXPECT_TRUE(parseU64("--max-attempts", "1", 1, 10, Out, Error));
  EXPECT_TRUE(parseU64("--max-attempts", "10", 1, 10, Out, Error));
  EXPECT_FALSE(parseU64("--max-attempts", "11", 1, 10, Out, Error));
}

TEST(ParseNum, F64RejectsNonPlainDecimals) {
  double Out = 0;
  std::string Error;
  for (const char *Bad : {"", "inf", "nan", "1e5", "-1.0", " 1.0", "1.0.0",
                          "0x1p3"})
    EXPECT_FALSE(parseF64("--deadline", Bad, 0, 1e9, Out, Error)) << Bad;
  EXPECT_FALSE(parseF64("--deadline", "10.1", 0, 10, Out, Error));
  EXPECT_NE(Error.find("--deadline"), std::string::npos);
}
