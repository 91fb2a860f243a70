//===- tests/PropertyTests.cpp - Randomized property tests ----------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property-based tests over random programs (workload/Random.h), swept by
/// seed with TEST_P:
///   - structural validity of every generated program;
///   - solver == Datalog reference, tuple for tuple, per context flavor;
///   - soundness: dynamic facts are a subset of every analysis result;
///   - abstraction: context-sensitive results project into insensitive ones;
///   - frontend round-trip preserves analysis outcomes;
///   - result assembly: every context-collapsed projection equals the
///     sort-unique projection of its tuple dump.
///
//===----------------------------------------------------------------------===//

#include "analysis/ContextPolicy.h"
#include "analysis/DatalogReference.h"
#include "analysis/PrecisionMetrics.h"
#include "analysis/Solver.h"
#include "frontend/Parser.h"
#include "frontend/Printer.h"
#include "fuzz/Generator.h"
#include "introspect/Heuristics.h"
#include "ir/Interpreter.h"
#include "ir/ProgramBuilder.h"
#include "ir/Validator.h"
#include "workload/DaCapo.h"
#include "workload/Generator.h"
#include "workload/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <type_traits>

using namespace intro;

namespace {

class RandomProgramProperty : public ::testing::TestWithParam<uint64_t> {
protected:
  Program makeProgram() const { return generateRandomProgram(GetParam()); }
};

std::vector<std::unique_ptr<ContextPolicy>> allFlavors(const Program &Prog) {
  std::vector<std::unique_ptr<ContextPolicy>> Policies;
  Policies.push_back(makeInsensitivePolicy());
  Policies.push_back(makeCallSitePolicy(1, 0));
  Policies.push_back(makeCallSitePolicy(2, 1));
  Policies.push_back(makeObjectPolicy(Prog, 1, 0));
  Policies.push_back(makeObjectPolicy(Prog, 2, 1));
  Policies.push_back(makeTypePolicy(Prog, 1, 0));
  Policies.push_back(makeTypePolicy(Prog, 2, 1));
  Policies.push_back(makeHybridPolicy(Prog, 2, 1));
  return Policies;
}

} // namespace

TEST_P(RandomProgramProperty, GeneratedProgramIsValid) {
  Program Prog = makeProgram();
  auto Errors = validateProgram(Prog);
  EXPECT_TRUE(Errors.empty()) << (Errors.empty() ? "" : Errors[0].c_str());
}

TEST_P(RandomProgramProperty, SolverMatchesDatalogReference) {
  Program Prog = makeProgram();
  for (auto &Policy : allFlavors(Prog)) {
    ContextTable Table;
    SolverOptions Options;
    Options.KeepTuples = true;
    PointsToResult Solver = solvePointsTo(Prog, *Policy, Table, Options);
    ASSERT_EQ(Solver.Status, SolveStatus::Completed);
    DatalogReferenceResult Reference =
        runDatalogReference(Prog, *Policy, Table);
    ASSERT_FALSE(Reference.BudgetExceeded);

    auto Sorted = [](auto Tuples) {
      std::sort(Tuples.begin(), Tuples.end());
      return Tuples;
    };
    EXPECT_EQ(Sorted(Solver.VarPointsTo), Reference.VarPointsTo)
        << "seed " << GetParam() << " flavor " << Policy->name();
    EXPECT_EQ(Sorted(Solver.FieldPointsTo), Reference.FieldPointsTo)
        << "seed " << GetParam() << " flavor " << Policy->name();
    EXPECT_EQ(Sorted(Solver.Reachable), Reference.Reachable)
        << "seed " << GetParam() << " flavor " << Policy->name();
    EXPECT_EQ(Sorted(Solver.CallGraph), Reference.CallGraph)
        << "seed " << GetParam() << " flavor " << Policy->name();
    EXPECT_EQ(Sorted(Solver.ThrowPointsTo), Reference.ThrowPointsTo)
        << "seed " << GetParam() << " flavor " << Policy->name();
    EXPECT_EQ(Sorted(Solver.StaticFieldPointsTo),
              Reference.StaticFieldPointsTo)
        << "seed " << GetParam() << " flavor " << Policy->name();
  }
}

TEST_P(RandomProgramProperty, IntrospectiveSolverMatchesDatalogReference) {
  Program Prog = makeProgram();
  auto Coarse = makeInsensitivePolicy();
  auto Refined = makeObjectPolicy(Prog, 2, 1);

  // Derive a nontrivial refinement split from the seed: exclude every third
  // heap and every (site, target) pair whose site index is even.
  RefinementExceptions Exceptions;
  for (uint32_t Heap = 0; Heap < Prog.numHeaps(); Heap += 3)
    Exceptions.NoRefineHeaps.insert(Heap);
  {
    ContextTable Probe;
    PointsToResult Insens = solvePointsTo(Prog, *Coarse, Probe);
    for (uint32_t Site = 0; Site < Prog.numSites(); Site += 2)
      for (uint32_t Target : Insens.callTargets(SiteId(Site)))
        Exceptions.NoRefineSites.insert(
            RefinementExceptions::packSite(SiteId(Site), MethodId(Target)));
  }

  auto Intro =
      makeIntrospectivePolicy("introtest", *Coarse, *Refined, Exceptions);
  ContextTable Table;
  SolverOptions Options;
  Options.KeepTuples = true;
  PointsToResult Solver = solvePointsTo(Prog, *Intro, Table, Options);
  DatalogReferenceResult Reference =
      runDatalogReference(Prog, *Coarse, *Refined, Exceptions, Table);

  auto Sorted = [](auto Tuples) {
    std::sort(Tuples.begin(), Tuples.end());
    return Tuples;
  };
  EXPECT_EQ(Sorted(Solver.VarPointsTo), Reference.VarPointsTo);
  EXPECT_EQ(Sorted(Solver.FieldPointsTo), Reference.FieldPointsTo);
  EXPECT_EQ(Sorted(Solver.Reachable), Reference.Reachable);
  EXPECT_EQ(Sorted(Solver.CallGraph), Reference.CallGraph);
}

TEST_P(RandomProgramProperty, AnalysesAreSoundAgainstInterpreter) {
  Program Prog = makeProgram();
  DynamicFacts Facts = interpret(Prog);
  for (auto &Policy : allFlavors(Prog)) {
    ContextTable Table;
    PointsToResult Result = solvePointsTo(Prog, *Policy, Table);
    ASSERT_EQ(Result.Status, SolveStatus::Completed);

    for (auto [Var, Heap] : Facts.VarPointsTo)
      EXPECT_TRUE(setContains(Result.pointsTo(Var), Heap.index()))
          << "seed " << GetParam() << " flavor " << Policy->name()
          << ": dynamic " << Prog.varName(Var) << " -> "
          << Prog.heapName(Heap);
    for (MethodId Method : Facts.ReachedMethods)
      EXPECT_TRUE(Result.isReachable(Method))
          << "seed " << GetParam() << " flavor " << Policy->name();
    for (auto [Site, Target] : Facts.CallEdges)
      EXPECT_TRUE(setContains(Result.callTargets(Site), Target.index()))
          << "seed " << GetParam() << " flavor " << Policy->name();
    for (auto [Field, Heap] : Facts.StaticFieldPointsTo) {
      auto It = Result.StaticFieldHeaps.find(Field.index());
      ASSERT_NE(It, Result.StaticFieldHeaps.end())
          << "seed " << GetParam() << " flavor " << Policy->name();
      EXPECT_TRUE(setContains(It->second, Heap.index()))
          << "seed " << GetParam() << " flavor " << Policy->name();
    }
    for (auto [Method, Heap] : Facts.MethodThrows)
      EXPECT_TRUE(setContains(Result.throwsOf(Method), Heap.index()))
          << "seed " << GetParam() << " flavor " << Policy->name()
          << ": exception from " << Prog.methodName(Method);
  }
}

TEST_P(RandomProgramProperty, ContextSensitiveProjectsIntoInsensitive) {
  Program Prog = makeProgram();
  auto Insens = makeInsensitivePolicy();
  ContextTable Table;
  PointsToResult Base = solvePointsTo(Prog, *Insens, Table);
  for (auto &Policy : allFlavors(Prog)) {
    ContextTable Inner;
    PointsToResult Result = solvePointsTo(Prog, *Policy, Inner);
    for (uint32_t Var = 0; Var < Prog.numVars(); ++Var)
      for (uint32_t Heap : Result.pointsTo(VarId(Var)))
        EXPECT_TRUE(setContains(Base.pointsTo(VarId(Var)), Heap))
            << "seed " << GetParam() << " flavor " << Policy->name();
    for (uint32_t Site = 0; Site < Prog.numSites(); ++Site)
      for (uint32_t Target : Result.callTargets(SiteId(Site)))
        EXPECT_TRUE(setContains(Base.callTargets(SiteId(Site)), Target))
            << "seed " << GetParam() << " flavor " << Policy->name();
  }
}

TEST_P(RandomProgramProperty, DeeperContextNeverLosesPrecision) {
  // Counts of the three paper metrics never increase when moving from
  // insensitive to a deep analysis (they are derived from projections).
  Program Prog = makeProgram();
  auto Insens = makeInsensitivePolicy();
  ContextTable T0;
  PrecisionMetrics Base =
      computePrecision(Prog, solvePointsTo(Prog, *Insens, T0));
  for (auto &Policy : allFlavors(Prog)) {
    ContextTable Table;
    PrecisionMetrics Deep =
        computePrecision(Prog, solvePointsTo(Prog, *Policy, Table));
    EXPECT_LE(Deep.PolymorphicVirtualCallSites,
              Base.PolymorphicVirtualCallSites);
    EXPECT_LE(Deep.ReachableMethods, Base.ReachableMethods);
    EXPECT_LE(Deep.CastsThatMayFail, Base.CastsThatMayFail);
  }
}

TEST_P(RandomProgramProperty, FrontendRoundTripPreservesAnalysis) {
  Program Prog = makeProgram();
  std::string Text = printProgram(Prog);
  ParseResult Reparsed = parseProgram(Text);
  ASSERT_TRUE(Reparsed.ok()) << Reparsed.Errors[0];
  EXPECT_EQ(printProgram(Reparsed.Prog), Text) << "seed " << GetParam();

  auto Insens = makeInsensitivePolicy();
  ContextTable T1;
  ContextTable T2;
  PointsToResult R1 = solvePointsTo(Prog, *Insens, T1);
  PointsToResult R2 = solvePointsTo(Reparsed.Prog, *Insens, T2);
  EXPECT_EQ(R1.Stats.VarPointsToTuples, R2.Stats.VarPointsToTuples);
  EXPECT_EQ(R1.Stats.CallGraphEdges, R2.Stats.CallGraphEdges);
  PrecisionMetrics M1 = computePrecision(Prog, R1);
  PrecisionMetrics M2 = computePrecision(Reparsed.Prog, R2);
  EXPECT_EQ(M1.PolymorphicVirtualCallSites, M2.PolymorphicVirtualCallSites);
  EXPECT_EQ(M1.CastsThatMayFail, M2.CastsThatMayFail);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramProperty,
                         ::testing::Range<uint64_t>(1, 33));

// --- Larger random programs: stress the engines harder -----------------------

class LargeRandomProgramProperty : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(LargeRandomProgramProperty, OracleAgreementAtScale) {
  RandomProgramOptions Options;
  Options.NumClasses = 12;
  Options.NumVirtualSigs = 5;
  Options.NumStaticMethods = 6;
  Options.InstructionsPerBody = 14;
  Options.LocalsPerMethod = 6;
  Program Prog = generateRandomProgram(GetParam(), Options);
  ASSERT_TRUE(validateProgram(Prog).empty());

  bool ComparedAny = false;
  for (auto &Policy :
       {makeInsensitivePolicy(), makeObjectPolicy(Prog, 2, 1),
        makeCallSitePolicy(2, 1)}) {
    ContextTable Table;
    SolverOptions SOptions;
    SOptions.KeepTuples = true;
    // Random programs can be genuinely pathological (that is the point of
    // the paper!); cap the work and only compare completed runs.
    SOptions.Budget.MaxTuples = 2'000'000;
    PointsToResult Solver = solvePointsTo(Prog, *Policy, Table, SOptions);
    if (!isCompleted(Solver.Status))
      continue; // A partial fixpoint cannot be compared to the oracle.
    ComparedAny = true;
    DatalogReferenceResult Reference =
        runDatalogReference(Prog, *Policy, Table);
    ASSERT_FALSE(Reference.BudgetExceeded);
    auto Sorted = [](auto Tuples) {
      std::sort(Tuples.begin(), Tuples.end());
      return Tuples;
    };
    EXPECT_EQ(Sorted(Solver.VarPointsTo), Reference.VarPointsTo)
        << "seed " << GetParam() << " flavor " << Policy->name();
    EXPECT_EQ(Sorted(Solver.FieldPointsTo), Reference.FieldPointsTo)
        << "seed " << GetParam() << " flavor " << Policy->name();
    EXPECT_EQ(Sorted(Solver.ThrowPointsTo), Reference.ThrowPointsTo)
        << "seed " << GetParam() << " flavor " << Policy->name();
    EXPECT_EQ(Sorted(Solver.StaticFieldPointsTo),
              Reference.StaticFieldPointsTo)
        << "seed " << GetParam() << " flavor " << Policy->name();
    EXPECT_EQ(Sorted(Solver.CallGraph), Reference.CallGraph)
        << "seed " << GetParam() << " flavor " << Policy->name();
  }
  EXPECT_TRUE(ComparedAny)
      << "every flavor blew the cap on seed " << GetParam()
      << " -- shrink the generator options";
}

INSTANTIATE_TEST_SUITE_P(LargeSeeds, LargeRandomProgramProperty,
                         ::testing::Range<uint64_t>(100, 108));

// --- Dense hub workloads: oracle agreement with bitmap-backed sets -----------

TEST(DenseHubProperty, OracleAgreementWithPromotedSets) {
  // Random programs keep points-to sets small, so the adaptive sets stay in
  // vector mode there.  This workload funnels enough interleaved allocation
  // sites through a hub (with loads, stores, casts, and dispatch hanging
  // off it) that the hot sets cross the promotion threshold, then demands
  // tuple-for-tuple oracle agreement while the solver is in bitmap mode.
  constexpr uint32_t NumObjects = 96;
  constexpr uint32_t NumSources = 4;
  constexpr uint32_t NumConsumers = 8;

  ProgramBuilder B;
  TypeId Object = B.cls("Object");
  TypeId Base = B.cls("Base", Object);
  TypeId Payload = B.cls("Payload", Base);
  TypeId Other = B.cls("Other", Base);
  FieldId Link = B.field(Base, "link");
  MethodBuilder Poke = B.method(Base, "poke", 0);
  (void)Poke;
  MethodBuilder Main = B.method(Object, "main", 0, /*IsStatic=*/true);
  B.entry(Main.id());

  std::vector<VarId> Sources;
  for (uint32_t Index = 0; Index < NumSources; ++Index)
    Sources.push_back(Main.local("s" + std::to_string(Index)));
  // Interleaved allocation over two sibling types so the cast filter below
  // genuinely splits the hub set.
  for (uint32_t Index = 0; Index < NumObjects; ++Index)
    Main.alloc(Sources[Index % NumSources],
               Index % 2 == 0 ? Payload : Other);
  VarId Hub = Main.local("hub");
  for (VarId Source : Sources)
    Main.move(Hub, Source);
  for (uint32_t Index = 0; Index < NumConsumers; ++Index)
    Main.move(Main.local("c" + std::to_string(Index)), Hub);
  // Field flow through the dense set: every hub object's link field holds
  // the whole hub set, read back through a load.
  Main.store(Hub, Link, Hub);
  Main.load(Main.local("back"), Hub, Link);
  // A checked cast filters the dense set by type.
  Main.cast(Main.local("narrowed"), Hub, Payload);
  // Dispatch over the dense receiver set.
  Main.vcall(VarId::invalid(), Hub, "poke", {});
  Program Prog = B.take();
  ASSERT_TRUE(validateProgram(Prog).empty());

  for (auto &Policy : {makeInsensitivePolicy(), makeObjectPolicy(Prog, 2, 1)}) {
    ContextTable Table;
    SolverOptions Options;
    Options.KeepTuples = true;
    PointsToResult Solver = solvePointsTo(Prog, *Policy, Table, Options);
    ASSERT_EQ(Solver.Status, SolveStatus::Completed);
    // The point of this workload: the solver really ran on bitmap sets.
    EXPECT_GT(Solver.Stats.DensePointsToSets, 0u) << Policy->name();
    EXPECT_GT(Solver.Stats.BatchUnions, 0u) << Policy->name();

    DatalogReferenceResult Reference =
        runDatalogReference(Prog, *Policy, Table);
    ASSERT_FALSE(Reference.BudgetExceeded);
    auto Sorted = [](auto Tuples) {
      std::sort(Tuples.begin(), Tuples.end());
      return Tuples;
    };
    EXPECT_EQ(Sorted(Solver.VarPointsTo), Reference.VarPointsTo)
        << Policy->name();
    EXPECT_EQ(Sorted(Solver.FieldPointsTo), Reference.FieldPointsTo)
        << Policy->name();
    EXPECT_EQ(Sorted(Solver.Reachable), Reference.Reachable)
        << Policy->name();
    EXPECT_EQ(Sorted(Solver.CallGraph), Reference.CallGraph)
        << Policy->name();
  }
}

// --- Result assembly: the projections are the tuple dumps, collapsed ---------

namespace {

/// The sort-unique projection of a tuple dump: KeyOf(tuple) -> the sorted
/// distinct values of the tuple's heap column.
template <typename TupleT, typename KeyFnT>
std::map<uint64_t, SortedIdSet> projectDump(const std::vector<TupleT> &Dump,
                                            KeyFnT KeyOf, size_t HeapColumn) {
  std::map<uint64_t, SortedIdSet> Projection;
  for (const TupleT &Tuple : Dump)
    Projection[KeyOf(Tuple)].push_back(Tuple[HeapColumn]);
  for (auto &Entry : Projection)
    setNormalize(Entry.second);
  return Projection;
}

bool strictlyIncreasing(const SortedIdSet &Set) {
  return std::adjacent_find(Set.begin(), Set.end(),
                            std::greater_equal<uint32_t>()) == Set.end();
}

/// Checks one projected map against its dump's projection: every dump key
/// is present with exactly the projected set, every other entry is empty
/// (a node whose points-to set stayed empty), and every set is strictly
/// increasing.  \p Sets is a vector (indexed by key) or an unordered_map.
template <typename SetsT>
void expectProjection(const SetsT &Sets,
                      const std::map<uint64_t, SortedIdSet> &Projection,
                      const std::string &Label) {
  size_t Matched = 0;
  auto Check = [&](uint64_t Key, const SortedIdSet &Heaps) {
    EXPECT_TRUE(strictlyIncreasing(Heaps)) << Label << " key " << Key;
    auto It = Projection.find(Key);
    if (It == Projection.end()) {
      EXPECT_TRUE(Heaps.empty()) << Label << " key " << Key;
      return;
    }
    ++Matched;
    EXPECT_EQ(Heaps, It->second) << Label << " key " << Key;
  };
  if constexpr (std::is_same_v<SetsT, std::vector<SortedIdSet>>) {
    for (size_t Key = 0; Key < Sets.size(); ++Key)
      Check(Key, Sets[Key]);
  } else {
    for (const auto &[Key, Heaps] : Sets)
      Check(Key, Heaps);
  }
  EXPECT_EQ(Matched, Projection.size()) << Label << ": dump keys missing";
}

/// Asserts that all four projected maps of \p R equal the sort-unique
/// projections of its tuple dumps.
void expectProjectionsMatchDumps(const PointsToResult &R,
                                 const std::string &Label) {
  expectProjection(
      R.VarHeaps,
      projectDump(R.VarPointsTo, [](const auto &T) { return T[0]; }, 2),
      Label + " VarHeaps");
  expectProjection(R.FieldHeaps,
                   projectDump(
                       R.FieldPointsTo,
                       [](const auto &T) {
                         return PointsToResult::fieldKey(HeapId(T[0]),
                                                         FieldId(T[2]));
                       },
                       3),
                   Label + " FieldHeaps");
  expectProjection(
      R.StaticFieldHeaps,
      projectDump(R.StaticFieldPointsTo, [](const auto &T) { return T[0]; },
                  1),
      Label + " StaticFieldHeaps");
  expectProjection(
      R.MethodThrows,
      projectDump(R.ThrowPointsTo, [](const auto &T) { return T[0]; }, 2),
      Label + " MethodThrows");
}

/// Solves \p Prog with tuple dumps under insens, 2objH, 2typeH, 2callH and
/// 2objH-IntroB, and checks every projection against its dump.  \returns
/// how many elements Heuristic B left context-insensitive.
size_t expectProjectionsForFlavors(const Program &Prog,
                                   const HeuristicBParams &ParamsB,
                                   const std::string &Label) {
  auto Insens = makeInsensitivePolicy();
  auto Object = makeObjectPolicy(Prog, 2, 1);
  ContextTable FirstTable;
  PointsToResult First = solvePointsTo(Prog, *Insens, FirstTable);
  IntrospectionMetrics Metrics = computeIntrospectionMetrics(Prog, First);
  std::vector<std::unique_ptr<ContextPolicy>> Policies;
  Policies.push_back(makeInsensitivePolicy());
  Policies.push_back(makeObjectPolicy(Prog, 2, 1));
  Policies.push_back(makeTypePolicy(Prog, 2, 1));
  Policies.push_back(makeCallSitePolicy(2, 1));
  RefinementExceptions Exceptions =
      applyHeuristicB(Prog, First, Metrics, ParamsB);
  size_t Excluded =
      Exceptions.NoRefineHeaps.size() + Exceptions.NoRefineSites.size();
  Policies.push_back(makeIntrospectivePolicy("2objH-IntroB", *Insens, *Object,
                                             std::move(Exceptions)));
  for (const auto &Policy : Policies) {
    ContextTable Table;
    SolverOptions Options;
    Options.KeepTuples = true;
    PointsToResult R = solvePointsTo(Prog, *Policy, Table, Options);
    expectProjectionsMatchDumps(R, Label + " " + Policy->name());
  }
  return Excluded;
}

} // namespace

TEST(ResultAssembly, ProjectionsMatchDumpsOnFuzzPrograms) {
  // Low Heuristic-B thresholds so the introspective flavor really mixes
  // refined and coarse elements on these small programs.
  HeuristicBParams ParamsB;
  ParamsB.P = 8;
  ParamsB.Q = 8;
  size_t Excluded = 0;
  for (size_t BiasIndex = 0; BiasIndex < fuzz::NumFuzzBiases; ++BiasIndex) {
    auto Bias = static_cast<fuzz::FuzzBias>(BiasIndex);
    for (uint64_t Seed = 1; Seed <= 4; ++Seed)
      Excluded += expectProjectionsForFlavors(
          fuzz::generateFuzzProgram(Seed, Bias), ParamsB,
          std::string(fuzz::fuzzBiasName(Bias)) + " seed " +
              std::to_string(Seed));
  }
  EXPECT_GT(Excluded, 0u) << "Heuristic B refined everything everywhere";
}

TEST(ResultAssembly, ProjectionsMatchDumpsOnChart) {
  EXPECT_GT(expectProjectionsForFlavors(
                generateWorkload(dacapoProfile("chart")), HeuristicBParams(),
                "chart"),
            0u);
}

TEST(ResultAssembly, OneHeapUnderManyContextsProjectsOnce) {
  // One allocation site reaches var `x` of Ider.id under four var contexts
  // (one per Ider receiver) and, in each, under 64 heap contexts (one per
  // Maker receiver) — enough that x's points-to sets are bitmap-backed.
  // The same objects fill one field key, one static field and one throw
  // set through many nodes each.  Every projection is the single heap.
  constexpr uint32_t NumMakers = 64;
  constexpr uint32_t NumIders = 4;

  ProgramBuilder B;
  TypeId Object = B.cls("Object");
  TypeId Payload = B.cls("Payload", Object);
  TypeId Maker = B.cls("Maker", Object);
  TypeId Ider = B.cls("Ider", Object);
  FieldId Held = B.field(Payload, "held");
  FieldId Shared = B.field(Ider, "shared");

  MethodBuilder Make = B.method(Maker, "make", 0);
  HeapId PayloadHeap = Make.alloc(Make.returnVar(), Payload);

  MethodBuilder Id = B.method(Ider, "id", 1);
  VarId X = Id.formal(0);
  Id.move(Id.returnVar(), X);
  Id.store(X, Held, X);
  Id.sstore(Shared, X);
  Id.throwStmt(X);

  MethodBuilder Main = B.method(Object, "main", 0, /*IsStatic=*/true);
  B.entry(Main.id());
  VarId Hub = Main.local("hub");
  for (uint32_t Index = 0; Index < NumMakers; ++Index) {
    VarId M = Main.local("m" + std::to_string(Index));
    Main.alloc(M, Maker);
    VarId R = Main.local("r" + std::to_string(Index));
    Main.vcall(R, M, "make", {});
    Main.move(Hub, R);
  }
  for (uint32_t Index = 0; Index < NumIders; ++Index) {
    VarId D = Main.local("d" + std::to_string(Index));
    Main.alloc(D, Ider);
    Main.vcall(Main.local("o" + std::to_string(Index)), D, "id", {Hub});
  }
  Program Prog = B.take();
  ASSERT_TRUE(validateProgram(Prog).empty());

  auto Policy = makeObjectPolicy(Prog, 2, 1);
  ContextTable Table;
  SolverOptions Options;
  Options.KeepTuples = true;
  PointsToResult R = solvePointsTo(Prog, *Policy, Table, Options);
  ASSERT_EQ(R.Status, SolveStatus::Completed);
  EXPECT_GT(R.Stats.DensePointsToSets, 0u);

  std::set<uint32_t> Ctxs, HCtxs;
  for (const auto &Tuple : R.VarPointsTo)
    if (Tuple[0] == X.index()) {
      Ctxs.insert(Tuple[1]);
      HCtxs.insert(Tuple[3]);
    }
  EXPECT_EQ(Ctxs.size(), NumIders);
  EXPECT_EQ(HCtxs.size(), NumMakers);

  const SortedIdSet Single = {PayloadHeap.index()};
  EXPECT_EQ(R.pointsTo(X), Single);
  EXPECT_EQ(R.pointsTo(Hub), Single);
  EXPECT_EQ(R.FieldHeaps.at(PointsToResult::fieldKey(PayloadHeap, Held)),
            Single);
  EXPECT_EQ(R.StaticFieldHeaps.at(Shared.index()), Single);
  EXPECT_EQ(R.throwsOf(Id.id()), Single);
  EXPECT_EQ(R.throwsOf(Main.id()), Single);
  expectProjectionsMatchDumps(R, "many-contexts");
}

TEST(ResultAssembly, WideSlotsReadBackByScanningBesideSmallSlots) {
  // 256 allocation sites flow into one hub var and, through two receivers,
  // into Sink.put's formal under two contexts and into two field keys.  Each
  // of those slots holds more distinct heaps than finish()'s heap bitmap has
  // words, so it is read back by scanning the bitmap; every site's own var
  // and the static field hold one heap each and are read back by sorting.
  // Slots are visited in var-id order, then fields, then static fields, so
  // small slots follow wide ones and see whatever bits a wide one left.
  constexpr uint32_t NumSites = 256;

  ProgramBuilder B;
  TypeId Object = B.cls("Object");
  TypeId Item = B.cls("Item", Object);
  TypeId Sink = B.cls("Sink", Object);
  FieldId Held = B.field(Sink, "held");
  FieldId Shared = B.field(Sink, "shared");

  MethodBuilder Put = B.method(Sink, "put", 1);
  VarId X = Put.formal(0);
  Put.store(Put.thisVar(), Held, X);

  MethodBuilder Main = B.method(Object, "main", 0, /*IsStatic=*/true);
  B.entry(Main.id());
  VarId Hub = Main.local("hub");
  std::vector<VarId> Singles;
  for (uint32_t Index = 0; Index < NumSites; ++Index) {
    VarId T = Main.local("t" + std::to_string(Index));
    Main.alloc(T, Item);
    Main.move(Hub, T);
    Singles.push_back(T);
  }
  for (uint32_t Index = 0; Index < 2; ++Index) {
    VarId S = Main.local("s" + std::to_string(Index));
    Main.alloc(S, Sink);
    Main.vcall(Main.local("u" + std::to_string(Index)), S, "put", {Hub});
  }
  Main.sstore(Shared, Singles.back());
  Program Prog = B.take();
  ASSERT_TRUE(validateProgram(Prog).empty());

  auto Policy = makeObjectPolicy(Prog, 2, 1);
  ContextTable Table;
  SolverOptions Options;
  Options.KeepTuples = true;
  PointsToResult R = solvePointsTo(Prog, *Policy, Table, Options);
  ASSERT_EQ(R.Status, SolveStatus::Completed);

  size_t BitmapWords = (Prog.numHeaps() + 63) / 64;
  EXPECT_EQ(R.pointsTo(Hub).size(), NumSites);
  EXPECT_EQ(R.pointsTo(X).size(), NumSites);
  EXPECT_GT(R.pointsTo(X).size(), BitmapWords);
  size_t WideFields = 0;
  for (const auto &[Key, Heaps] : R.FieldHeaps)
    WideFields += Heaps.size() > BitmapWords ? 1 : 0;
  EXPECT_EQ(WideFields, 2u);
  for (VarId T : Singles)
    EXPECT_EQ(R.pointsTo(T).size(), 1u);
  EXPECT_EQ(R.StaticFieldHeaps.at(Shared.index()),
            R.pointsTo(Singles.back()));
  expectProjectionsMatchDumps(R, "wide-slots");
}
