//===- tests/ResilientTests.cpp - Degradation ladder and cancellation -----===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the resilience layer: the runResilient degradation ladder
/// (exercised rung by rung via deterministic fault injection), cooperative
/// cancellation (including the watchdog latency guarantee), the approximate
/// memory budget, and the sound-prefix consistency of budget-exhausted
/// results in both passes of runIntrospective.
///
//===----------------------------------------------------------------------===//

#include "analysis/ContextPolicy.h"
#include "analysis/Solver.h"
#include "introspect/Driver.h"
#include "introspect/Resilient.h"
#include "ir/Program.h"
#include "support/Json.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"
#include "workload/DaCapo.h"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <limits>
#include <thread>
#include <vector>

using namespace intro;

namespace {

Program chartProgram() { return generateWorkload(dacapoProfile("chart")); }

/// A fault plan that fails deterministically early with \p Status.
FaultPlan failFast(SolveStatus Status = SolveStatus::TupleBudgetExceeded) {
  FaultPlan Plan;
  Plan.FailAtPop = 1;
  Plan.FailStatus = Status;
  return Plan;
}

/// Asserts that a (possibly budget-truncated) result is an internally
/// consistent sound prefix: all projection tables have program-shaped
/// sizes, every set is sorted and duplicate-free, every id is in range,
/// and the call graph only touches reachable methods.
void expectConsistent(const Program &Prog, const PointsToResult &R) {
  ASSERT_EQ(R.VarHeaps.size(), Prog.numVars());
  ASSERT_EQ(R.SiteTargets.size(), Prog.numSites());
  ASSERT_EQ(R.MethodThrows.size(), Prog.numMethods());
  ASSERT_EQ(R.MethodReachable.size(), Prog.numMethods());

  auto ExpectSortedSet = [](const SortedIdSet &Set, size_t Limit) {
    for (size_t Index = 0; Index < Set.size(); ++Index) {
      EXPECT_LT(Set[Index], Limit);
      if (Index > 0) {
        EXPECT_LT(Set[Index - 1], Set[Index]) << "not sorted/unique";
      }
    }
  };
  for (const SortedIdSet &Heaps : R.VarHeaps)
    ExpectSortedSet(Heaps, Prog.numHeaps());
  for (const auto &[Key, Heaps] : R.FieldHeaps)
    ExpectSortedSet(Heaps, Prog.numHeaps());
  for (const auto &[Key, Heaps] : R.StaticFieldHeaps)
    ExpectSortedSet(Heaps, Prog.numHeaps());
  for (const SortedIdSet &Heaps : R.MethodThrows)
    ExpectSortedSet(Heaps, Prog.numHeaps());
  for (const SortedIdSet &Targets : R.SiteTargets)
    ExpectSortedSet(Targets, Prog.numMethods());

  // Entry methods are enqueued before the first iteration, so they stay
  // reachable in any prefix.
  for (MethodId Entry : Prog.entries())
    EXPECT_TRUE(R.isReachable(Entry));

  // Call-graph edges only leave reachable callers and only enter
  // reachable callees (both are recorded before any budget stop).
  for (uint32_t SiteRaw = 0; SiteRaw < Prog.numSites(); ++SiteRaw) {
    if (R.SiteTargets[SiteRaw].empty())
      continue;
    EXPECT_TRUE(R.isReachable(Prog.site(SiteId(SiteRaw)).InMethod));
    for (uint32_t MethodRaw : R.SiteTargets[SiteRaw])
      EXPECT_TRUE(R.isReachable(MethodId(MethodRaw)));
  }
}

} // namespace

// --- Fault injection in the solver ------------------------------------------

TEST(FaultInjection, FailAtPopStopsWithInjectedStatus) {
  Program Prog = chartProgram();
  auto Policy = makeInsensitivePolicy();
  for (SolveStatus Injected :
       {SolveStatus::TupleBudgetExceeded, SolveStatus::TimeBudgetExceeded,
        SolveStatus::MemoryBudgetExceeded}) {
    ContextTable Table;
    SolverOptions Options;
    Options.Faults.FailAtPop = 100;
    Options.Faults.FailStatus = Injected;
    PointsToResult R = solvePointsTo(Prog, *Policy, Table, Options);
    EXPECT_EQ(R.Status, Injected);
    EXPECT_EQ(R.Stats.WorklistPops, 100u);
    expectConsistent(Prog, R);
  }
}

TEST(FaultInjection, InertPlanChangesNothing) {
  Program Prog = chartProgram();
  auto Policy = makeInsensitivePolicy();
  ContextTable TableA, TableB;
  PointsToResult Plain = solvePointsTo(Prog, *Policy, TableA);
  SolverOptions Options; // Default FaultPlan is inert.
  EXPECT_FALSE(Options.Faults.armed());
  PointsToResult Faulted = solvePointsTo(Prog, *Policy, TableB, Options);
  EXPECT_EQ(Faulted.Status, SolveStatus::Completed);
  EXPECT_EQ(Faulted.Stats.VarPointsToTuples, Plain.Stats.VarPointsToTuples);
  EXPECT_EQ(Faulted.Stats.WorklistPops, Plain.Stats.WorklistPops);
}

TEST(FaultInjection, TupleInflationTripsTheBudgetEarly) {
  Program Prog = chartProgram();
  auto Policy = makeInsensitivePolicy();
  ContextTable Table;
  SolverOptions Options;
  // The real run stays far below the default budget; a pathological
  // inflation factor makes the very same run look like an explosion.
  Options.Faults.TupleInflation = 1'000'000'000;
  EXPECT_TRUE(Options.Faults.armed());
  PointsToResult R = solvePointsTo(Prog, *Policy, Table, Options);
  EXPECT_EQ(R.Status, SolveStatus::TupleBudgetExceeded);
  // Reported statistics stay honest: only budget enforcement is inflated.
  EXPECT_LT(R.Stats.VarPointsToTuples + R.Stats.FieldPointsToTuples,
            Options.Budget.MaxTuples);
  expectConsistent(Prog, R);
}

// --- Memory budget ----------------------------------------------------------

TEST(MemoryBudget, TinyBudgetExhaustsWithDistinctStatus) {
  Program Prog = chartProgram();
  auto Policy = makeInsensitivePolicy();
  ContextTable Table;
  SolverOptions Options;
  Options.Budget.MaxBytes = 10'000;
  PointsToResult R = solvePointsTo(Prog, *Policy, Table, Options);
  EXPECT_EQ(R.Status, SolveStatus::MemoryBudgetExceeded);
  EXPECT_FALSE(isCompleted(R.Status));
  EXPECT_GT(R.Stats.ApproxBytes, Options.Budget.MaxBytes);
  expectConsistent(Prog, R);
}

TEST(MemoryBudget, CompletedRunReportsFootprintAndRespectsRoomyBudget) {
  Program Prog = chartProgram();
  auto Policy = makeInsensitivePolicy();
  ContextTable Table;
  SolverOptions Options;
  Options.Budget.MaxBytes = 4ull << 30;
  PointsToResult R = solvePointsTo(Prog, *Policy, Table, Options);
  EXPECT_EQ(R.Status, SolveStatus::Completed);
  EXPECT_GT(R.Stats.ApproxBytes, 0u);
  EXPECT_LT(R.Stats.ApproxBytes, Options.Budget.MaxBytes);
}

// --- Cooperative cancellation ------------------------------------------------

TEST(Cancellation, PreCancelledTokenReturnsCancelledStatus) {
  Program Prog = chartProgram();
  auto Policy = makeInsensitivePolicy();
  ContextTable Table;
  CancellationToken Token;
  Token.cancel();
  SolverOptions Options;
  Options.Cancel = &Token;
  Options.CancelInterval = 1;
  PointsToResult R = solvePointsTo(Prog, *Policy, Table, Options);
  EXPECT_EQ(R.Status, SolveStatus::Cancelled);
  EXPECT_FALSE(isCompleted(R.Status));
  expectConsistent(Prog, R);
}

TEST(Cancellation, TokenIsReusableAfterReset) {
  CancellationToken Token;
  EXPECT_FALSE(Token.isCancelled());
  Token.cancel();
  Token.cancel(); // Idempotent.
  EXPECT_TRUE(Token.isCancelled());
  Token.reset();
  EXPECT_FALSE(Token.isCancelled());
}

TEST(Cancellation, WatchdogAbortsExplodingSolvePromptly) {
  // hsqldb under 2objH is a genuine blow-up (Figure 5): with the budgets
  // effectively disabled it would run for minutes.  A watchdog cancels it
  // shortly after launch; the solver must return within 250 ms of the
  // signal with the distinct Cancelled status, not a timeout.  The signal
  // fires 50 ms in: far enough to be deep inside the hot loop, early
  // enough that the bound measures cancellation latency rather than how
  // much exploded state result assembly has to walk (the batched solver
  // covers several times more of the blow-up per wall-clock second).
  Program Prog = generateWorkload(dacapoProfile("hsqldb"));
  auto Policy = makeObjectPolicy(Prog, 2, 1);
  CancellationToken Token;

  PointsToResult R;
  std::thread Solve([&] {
    ContextTable Table;
    SolverOptions Options;
    Options.Budget.MaxTuples = ~0ull;
    Options.Budget.MaxSeconds = 1e9;
    Options.Cancel = &Token;
    R = solvePointsTo(Prog, *Policy, Table, Options);
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Timer SinceSignal;
  Token.cancel();
  Solve.join();
  EXPECT_LT(SinceSignal.millis(), 250.0);
  EXPECT_EQ(R.Status, SolveStatus::Cancelled);
  expectConsistent(Prog, R);
}

// --- The degradation ladder ---------------------------------------------------

TEST(Resilient, HappyPathStopsAtDeepRung) {
  Program Prog = chartProgram();
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  ResilientOutcome Out = runResilient(Prog, *Refined);
  EXPECT_TRUE(Out.completed());
  EXPECT_EQ(Out.Level, DegradationLevel::Deep);
  EXPECT_EQ(Out.Result.AnalysisName, "2objH");
  ASSERT_EQ(Out.Trace.size(), 1u);
  EXPECT_EQ(Out.Trace[0].Level, DegradationLevel::Deep);
  EXPECT_EQ(Out.Trace[0].Status, SolveStatus::Completed);
  // The happy path never runs the pre-analysis or the metric queries.
  EXPECT_TRUE(Out.Metrics.InFlow.empty());
  EXPECT_EQ(Out.MetricSeconds, 0.0);
  EXPECT_FALSE(Out.Cancelled);
}

TEST(Resilient, EveryRungIsForcedDownToInsensitive) {
  // Force all four refined rungs to fail; the ladder must degrade to the
  // context-insensitive result and record the full trace in rung order.
  Program Prog = chartProgram();
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  ResilientOptions Options;
  Options.TightenedRounds = 2;
  Options.faultsFor(DegradationLevel::Deep) =
      failFast(SolveStatus::TupleBudgetExceeded);
  Options.faultsFor(DegradationLevel::IntroB) =
      failFast(SolveStatus::TimeBudgetExceeded);
  Options.faultsFor(DegradationLevel::IntroA) =
      failFast(SolveStatus::MemoryBudgetExceeded);
  Options.faultsFor(DegradationLevel::TightenedIntroA) =
      failFast(SolveStatus::TupleBudgetExceeded);

  ResilientOutcome Out = runResilient(Prog, *Refined, Options);

  EXPECT_TRUE(Out.completed());
  EXPECT_EQ(Out.Level, DegradationLevel::Insensitive);
  EXPECT_EQ(Out.Result.AnalysisName, "insens");
  EXPECT_FALSE(Out.Cancelled);
  expectConsistent(Prog, Out.Result);

  // Full trace: deep, the insensitive pre-analysis, introB, introA, and
  // both tightened rounds — six attempts, statuses as injected.
  ASSERT_EQ(Out.Trace.size(), 6u);
  EXPECT_EQ(Out.Trace[0].Level, DegradationLevel::Deep);
  EXPECT_EQ(Out.Trace[0].Status, SolveStatus::TupleBudgetExceeded);
  EXPECT_EQ(Out.Trace[1].Level, DegradationLevel::Insensitive);
  EXPECT_EQ(Out.Trace[1].Status, SolveStatus::Completed);
  EXPECT_EQ(Out.Trace[2].Level, DegradationLevel::IntroB);
  EXPECT_EQ(Out.Trace[2].Status, SolveStatus::TimeBudgetExceeded);
  EXPECT_EQ(Out.Trace[2].AnalysisName, "2objH-IntroB");
  EXPECT_EQ(Out.Trace[3].Level, DegradationLevel::IntroA);
  EXPECT_EQ(Out.Trace[3].Status, SolveStatus::MemoryBudgetExceeded);
  EXPECT_EQ(Out.Trace[3].AnalysisName, "2objH-IntroA");
  EXPECT_EQ(Out.Trace[4].Level, DegradationLevel::TightenedIntroA);
  EXPECT_EQ(Out.Trace[4].TightenedRound, 1u);
  EXPECT_EQ(Out.Trace[4].AnalysisName, "2objH-IntroA-tight1");
  EXPECT_EQ(Out.Trace[5].Level, DegradationLevel::TightenedIntroA);
  EXPECT_EQ(Out.Trace[5].TightenedRound, 2u);
  for (const Attempt &A : Out.Trace)
    EXPECT_GE(A.Seconds, 0.0);

  // The formatted trace mentions every rung and every status.
  std::string Rendered = formatAttemptTrace(Out.Trace);
  EXPECT_NE(Rendered.find("deep"), std::string::npos);
  EXPECT_NE(Rendered.find("introB"), std::string::npos);
  EXPECT_NE(Rendered.find("introA-tightened#2"), std::string::npos);
  EXPECT_NE(Rendered.find("insensitive"), std::string::npos);
  EXPECT_NE(Rendered.find("MemoryBudgetExceeded"), std::string::npos);
}

TEST(Resilient, ReturnsDeepestRungThatCompletes) {
  Program Prog = chartProgram();
  auto Refined = makeObjectPolicy(Prog, 2, 1);

  struct Case {
    std::vector<DegradationLevel> Failing;
    DegradationLevel Expected;
    const char *ExpectedName;
  };
  const Case Cases[] = {
      {{DegradationLevel::Deep}, DegradationLevel::IntroB, "2objH-IntroB"},
      {{DegradationLevel::Deep, DegradationLevel::IntroB},
       DegradationLevel::IntroA,
       "2objH-IntroA"},
      {{DegradationLevel::Deep, DegradationLevel::IntroB,
        DegradationLevel::IntroA},
       DegradationLevel::TightenedIntroA,
       "2objH-IntroA-tight1"},
  };
  for (const Case &C : Cases) {
    ResilientOptions Options;
    for (DegradationLevel Level : C.Failing)
      Options.faultsFor(Level) = failFast();
    ResilientOutcome Out = runResilient(Prog, *Refined, Options);
    EXPECT_TRUE(Out.completed());
    EXPECT_EQ(Out.Level, C.Expected);
    EXPECT_EQ(Out.Result.AnalysisName, C.ExpectedName);
    expectConsistent(Prog, Out.Result);
    // Earlier rungs appear in the trace as failed attempts.
    ASSERT_GE(Out.Trace.size(), C.Failing.size() + 1);
    EXPECT_EQ(Out.Trace.back().Status, SolveStatus::Completed);
  }
}

TEST(Resilient, SkippingRungsStartsTheLadderLower) {
  Program Prog = chartProgram();
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  ResilientOptions Options;
  Options.AttemptDeep = false;
  Options.AttemptIntroB = false;
  ResilientOutcome Out = runResilient(Prog, *Refined, Options);
  EXPECT_TRUE(Out.completed());
  EXPECT_EQ(Out.Level, DegradationLevel::IntroA);
  EXPECT_EQ(Out.Result.AnalysisName, "2objH-IntroA");
  // Trace: the pre-analysis, then the IntroA rung.
  ASSERT_EQ(Out.Trace.size(), 2u);
  EXPECT_EQ(Out.Trace[0].Level, DegradationLevel::Insensitive);
  EXPECT_EQ(Out.Trace[1].Level, DegradationLevel::IntroA);
  EXPECT_FALSE(Out.Metrics.InFlow.empty());
  // The winning rung's exceptions are reported.
  EXPECT_FALSE(Out.Exceptions.NoRefineHeaps.empty() &&
               Out.Exceptions.NoRefineSites.empty());
}

TEST(Resilient, TightenedRoundsExcludeMoreEachTime) {
  // With absurdly tight backoff the tightened rungs must exclude at least
  // as many elements as plain IntroA does (monotone thresholds).
  Program Prog = chartProgram();
  PointsToResult Insens = [&] {
    auto Policy = makeInsensitivePolicy();
    ContextTable Table;
    return solvePointsTo(Prog, *Policy, Table);
  }();
  IntrospectionMetrics M = computeIntrospectionMetrics(Prog, Insens);
  HeuristicAParams Base;
  RefinementExceptions Loose = applyHeuristicA(Prog, Insens, M, Base);
  HeuristicAParams Tight;
  Tight.K = Base.K / 16;
  Tight.L = Base.L / 16;
  Tight.M = Base.M / 16;
  RefinementExceptions Tightened = applyHeuristicA(Prog, Insens, M, Tight);
  EXPECT_GE(Tightened.NoRefineHeaps.size(), Loose.NoRefineHeaps.size());
  EXPECT_GE(Tightened.NoRefineSites.size(), Loose.NoRefineSites.size());
}

TEST(Resilient, NonsenseBackoffMultiplierIsClampedToNoTightening) {
  // A multiplier of 0 (or any value <= 1) cannot tighten; the ladder must
  // clamp it rather than cast inf/negative quotients to integers.  With
  // the IntroA rung faulted, the first tightened round then repeats plain
  // IntroA's thresholds exactly, so it reproduces plain IntroA's result.
  Program Prog = chartProgram();
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  ResilientOptions Plain;
  Plain.AttemptDeep = false;
  Plain.AttemptIntroB = false;
  ResilientOutcome Baseline = runResilient(Prog, *Refined, Plain);
  ASSERT_TRUE(Baseline.completed());
  for (double Multiplier : {0.0, -2.0, 0.5}) {
    ResilientOptions Options = Plain;
    Options.faultsFor(DegradationLevel::IntroA).FailAtPop = 1;
    Options.BackoffMultiplier = Multiplier;
    ResilientOutcome Out = runResilient(Prog, *Refined, Options);
    ASSERT_TRUE(Out.completed()) << "multiplier " << Multiplier;
    EXPECT_EQ(Out.Level, DegradationLevel::TightenedIntroA);
    EXPECT_EQ(Out.Result.Stats.VarPointsToTuples,
              Baseline.Result.Stats.VarPointsToTuples)
        << "multiplier " << Multiplier;
  }
}

TEST(Resilient, CancellationStopsTheLadderInsteadOfDegrading) {
  Program Prog = chartProgram();
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  CancellationToken Token;
  Token.cancel();
  ResilientOptions Options;
  Options.Cancel = &Token;
  ResilientOutcome Out = runResilient(Prog, *Refined, Options);
  EXPECT_TRUE(Out.Cancelled);
  EXPECT_FALSE(Out.completed());
  EXPECT_EQ(Out.Result.Status, SolveStatus::Cancelled);
  // Only the deep attempt ran: no degradation after a cancel.
  ASSERT_EQ(Out.Trace.size(), 1u);
  EXPECT_EQ(Out.Trace[0].Level, DegradationLevel::Deep);
}

TEST(Resilient, CancellationMidLadderFallsBackToCompletedPreAnalysis) {
  // Disable in-solver polling so the (pre-fired) cancel is observed only
  // between rungs: the deep rung fails on its injected fault, the
  // pre-analysis completes, and the ladder then stops before IntroB,
  // handing back the completed insensitive result instead of degrading
  // through the remaining rungs.
  Program Prog = chartProgram();
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  CancellationToken Token;
  Token.cancel();
  ResilientOptions Options;
  Options.Cancel = &Token;
  Options.CancelInterval = 0xFFFFFFFFu;
  Options.faultsFor(DegradationLevel::Deep) = failFast();
  ResilientOutcome Out = runResilient(Prog, *Refined, Options);
  EXPECT_TRUE(Out.Cancelled);
  EXPECT_TRUE(Out.completed());
  EXPECT_EQ(Out.Level, DegradationLevel::Insensitive);
  EXPECT_EQ(Out.Result.AnalysisName, "insens");
  ASSERT_EQ(Out.Trace.size(), 2u);
  EXPECT_EQ(Out.Trace[0].Status, SolveStatus::TupleBudgetExceeded);
  EXPECT_EQ(Out.Trace[1].Status, SolveStatus::Completed);
}

// --- Budget-exhausted runs stay consistent (both introspective passes) ------

TEST(BudgetExhaustion, FirstPassTupleBudgetYieldsSoundPrefix) {
  Program Prog = chartProgram();
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  IntrospectiveOptions Options;
  Options.FirstPassBudget.MaxTuples = 500;
  IntrospectiveOutcome Out = runIntrospective(Prog, *Refined, Options);
  EXPECT_EQ(Out.FirstPass.Status, SolveStatus::TupleBudgetExceeded);
  expectConsistent(Prog, Out.FirstPass);
  // The second pass still runs (with junk exceptions) and stays consistent.
  expectConsistent(Prog, Out.SecondPass);
}

TEST(BudgetExhaustion, SecondPassTupleBudgetYieldsSoundPrefix) {
  Program Prog = chartProgram();
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  IntrospectiveOptions Options;
  Options.SecondPassBudget.MaxTuples = 500;
  IntrospectiveOutcome Out = runIntrospective(Prog, *Refined, Options);
  EXPECT_EQ(Out.FirstPass.Status, SolveStatus::Completed);
  EXPECT_EQ(Out.SecondPass.Status, SolveStatus::TupleBudgetExceeded);
  expectConsistent(Prog, Out.SecondPass);
}

TEST(BudgetExhaustion, TimeBudgetYieldsSoundPrefixInBothPasses) {
  Program Prog = chartProgram();
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  for (bool FirstPass : {true, false}) {
    IntrospectiveOptions Options;
    // A zero wall-clock budget trips at the first 1024-iteration clock
    // checkpoint: deterministic without being machine-dependent.
    (FirstPass ? Options.FirstPassBudget : Options.SecondPassBudget)
        .MaxSeconds = 0.0;
    IntrospectiveOutcome Out = runIntrospective(Prog, *Refined, Options);
    const PointsToResult &Truncated =
        FirstPass ? Out.FirstPass : Out.SecondPass;
    EXPECT_EQ(Truncated.Status, SolveStatus::TimeBudgetExceeded);
    expectConsistent(Prog, Truncated);
  }
}

// --- The outcome report's "won" flag ----------------------------------------

namespace {

/// Serializes \p Out and returns the parsed "attempts" array.
JsonValue outcomeAttemptsJson(const ResilientOutcome &Out) {
  std::ostringstream Text;
  JsonWriter J(Text);
  writeResilientOutcomeJson(J, Out);
  JsonParseResult Parsed = parseJson(Text.str());
  EXPECT_TRUE(Parsed.ok()) << Parsed.Error;
  const JsonValue *Attempts = Parsed.Value.get("attempts");
  EXPECT_NE(Attempts, nullptr);
  return Attempts ? *Attempts : JsonValue();
}

} // namespace

TEST(ResilientOutcomeJson, ExactlyOneWonFlagSitsOnTheWinningRow) {
  // The deep rung fails fast, so the ladder walks on and IntroB wins.  The
  // report marks exactly that attempt, not the failed deep row or the
  // completed pre-analysis row before it.
  Program Prog = chartProgram();
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  ResilientOptions Options;
  Options.faultsFor(DegradationLevel::Deep) = failFast();

  ResilientOutcome Out = runResilient(Prog, *Refined, Options);
  ASSERT_TRUE(Out.completed());
  EXPECT_EQ(Out.Level, DegradationLevel::IntroB);
  JsonValue Attempts = outcomeAttemptsJson(Out);
  ASSERT_TRUE(Attempts.isArray());
  ASSERT_EQ(Attempts.elements().size(), Out.Trace.size());
  size_t WonCount = 0;
  for (size_t Index = 0; Index < Out.Trace.size(); ++Index) {
    bool Won = false;
    ASSERT_TRUE(Attempts.elements()[Index].getBool("won", Won));
    if (!Won)
      continue;
    ++WonCount;
    EXPECT_EQ(Out.Trace[Index].Level, Out.Level) << "row " << Index;
    EXPECT_EQ(Out.Trace[Index].Status, SolveStatus::Completed);
    EXPECT_EQ(Out.Trace[Index].AnalysisName, Out.Result.AnalysisName);
  }
  EXPECT_EQ(WonCount, 1u);
}

TEST(ResilientOutcomeJson, AllRungsFaultedLeavesNoWonFlag) {
  // When even the pre-analysis faults, nothing completes: the ladder hands
  // back the partial insensitive result, runs no refined rung on top of a
  // dead floor, and marks no attempt as the winner.
  Program Prog = chartProgram();
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  ResilientOptions Options;
  for (DegradationLevel Level :
       {DegradationLevel::Deep, DegradationLevel::IntroB,
        DegradationLevel::IntroA, DegradationLevel::TightenedIntroA})
    Options.faultsFor(Level) = failFast();
  Options.faultsFor(DegradationLevel::Insensitive) =
      failFast(SolveStatus::MemoryBudgetExceeded);

  ResilientOutcome Out = runResilient(Prog, *Refined, Options);
  EXPECT_FALSE(Out.completed());
  EXPECT_FALSE(Out.Cancelled);
  EXPECT_EQ(Out.Level, DegradationLevel::Insensitive);
  EXPECT_EQ(Out.Result.Status, SolveStatus::MemoryBudgetExceeded);
  expectConsistent(Prog, Out.Result);
  ASSERT_EQ(Out.Trace.size(), 2u);
  EXPECT_EQ(Out.Trace[1].Level, DegradationLevel::Insensitive);
  EXPECT_EQ(Out.Trace[1].Status, SolveStatus::MemoryBudgetExceeded);

  JsonValue Attempts = outcomeAttemptsJson(Out);
  ASSERT_TRUE(Attempts.isArray());
  for (const JsonValue &A : Attempts.elements()) {
    bool Won = true;
    ASSERT_TRUE(A.getBool("won", Won));
    EXPECT_FALSE(Won);
  }
}

TEST(PointsToResult, SharedEmptySetIsSafeForConcurrentReaders) {
  // PointsToResult::emptySet() is the shared fallback that readers on
  // several threads (the sweep runners' workers, say) may touch at once;
  // all threads must observe one fully-constructed object at a single
  // address (C++11 magic statics).
  PointsToResult Result; // No tables: every query hits the fallback.
  const SortedIdSet *Addresses[8] = {};
  {
    ThreadPool Pool(4);
    std::vector<std::future<void>> Reads;
    for (size_t Reader = 0; Reader < 8; ++Reader)
      Reads.push_back(Pool.submit([&Result, &Addresses, Reader] {
        const SortedIdSet &Empty = Result.pointsTo(VarId(12345));
        EXPECT_TRUE(Empty.empty());
        EXPECT_TRUE(Result.callTargets(SiteId(7)).empty());
        EXPECT_TRUE(Result.throwsOf(MethodId(9)).empty());
        Addresses[Reader] = &Empty;
      }));
    for (auto &Read : Reads)
      Read.get();
  }
  for (size_t Reader = 1; Reader < 8; ++Reader)
    EXPECT_EQ(Addresses[Reader], Addresses[0]);
}

TEST(FaultInjection, TupleInflationDegradesPastTheInflatedRung) {
  // TupleInflation makes the budget check see exploding points-to sets:
  // the inflated IntroB rung trips its tuple budget and the ladder settles
  // on IntroA.
  Program Prog = chartProgram();
  auto Refined = makeObjectPolicy(Prog, 2, 1);
  ResilientOptions Options;
  Options.faultsFor(DegradationLevel::Deep) = failFast();
  Options.faultsFor(DegradationLevel::IntroB).TupleInflation = 1000000;
  Options.RefinedBudget.MaxTuples = 10000000;

  ResilientOutcome Out = runResilient(Prog, *Refined, Options);
  EXPECT_EQ(Out.Level, DegradationLevel::IntroA);
  expectConsistent(Prog, Out.Result);
  bool SawIntroB = false;
  for (const Attempt &A : Out.Trace)
    if (A.Level == DegradationLevel::IntroB) {
      SawIntroB = true;
      EXPECT_EQ(A.Status, SolveStatus::TupleBudgetExceeded);
    }
  EXPECT_TRUE(SawIntroB);
}

TEST(FaultInjection, TupleInflationSaturatesInsteadOfWrapping) {
  // A pathological inflation factor whose product with the tuple count
  // overflows uint64 must saturate and trip the budget — wrapping would
  // make the product tiny and silently disarm the check.
  Program Prog = chartProgram();
  auto Policy = makeInsensitivePolicy();
  ContextTable Table;
  SolverOptions Options;
  Options.Faults.TupleInflation = std::numeric_limits<uint64_t>::max();
  Options.Budget.MaxTuples = std::numeric_limits<uint64_t>::max() - 1;
  PointsToResult R = solvePointsTo(Prog, *Policy, Table, Options);
  EXPECT_EQ(R.Status, SolveStatus::TupleBudgetExceeded);
  expectConsistent(Prog, R);
}
