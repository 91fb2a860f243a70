//===- analysis/Result.h - Points-to analysis results -----------*- C++ -*-===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The output of one solver run: status (completed or budget-exhausted, the
/// moral equivalent of the paper's 90-minute timeout), size statistics, the
/// context-insensitive projections every client consumes, and — optionally —
/// the full context-sensitive tuple dump used by the Datalog oracle tests.
///
//===----------------------------------------------------------------------===//

#ifndef ANALYSIS_RESULT_H
#define ANALYSIS_RESULT_H

#include "support/Ids.h"
#include "support/SetUtils.h"

#include <array>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace intro {

/// Why the solver stopped.
enum class SolveStatus : uint8_t {
  Completed,            ///< Fixpoint reached.
  TupleBudgetExceeded,  ///< Relation sizes blew past the budget ("timeout").
  TimeBudgetExceeded,   ///< Wall clock blew past the budget ("timeout").
  MemoryBudgetExceeded, ///< Approximate solver footprint blew past MaxBytes.
  Cancelled,            ///< Aborted via a CancellationToken, not a budget.
};

/// \returns true if \p Status denotes a completed (non-timeout) run.
inline bool isCompleted(SolveStatus Status) {
  return Status == SolveStatus::Completed;
}

/// \returns a stable human-readable name for \p Status.
inline const char *statusName(SolveStatus Status) {
  switch (Status) {
  case SolveStatus::Completed:
    return "Completed";
  case SolveStatus::TupleBudgetExceeded:
    return "TupleBudgetExceeded";
  case SolveStatus::TimeBudgetExceeded:
    return "TimeBudgetExceeded";
  case SolveStatus::MemoryBudgetExceeded:
    return "MemoryBudgetExceeded";
  case SolveStatus::Cancelled:
    return "Cancelled";
  }
  return "?";
}

/// Inverse of statusName: \returns true and stores into \p Status when
/// \p Name matches a status name exactly.  Used when decoding reports.
inline bool statusFromName(std::string_view Name, SolveStatus &Status) {
  static constexpr SolveStatus All[] = {
      SolveStatus::Completed, SolveStatus::TupleBudgetExceeded,
      SolveStatus::TimeBudgetExceeded, SolveStatus::MemoryBudgetExceeded,
      SolveStatus::Cancelled};
  for (SolveStatus Candidate : All)
    if (Name == statusName(Candidate)) {
      Status = Candidate;
      return true;
    }
  return false;
}

/// Resource budget for a solver run.  Exceeding any limit aborts the run
/// with the matching exhaustion status; the paper's blow-ups are detected
/// primarily via the (machine-independent) tuple limit.
struct SolveBudget {
  uint64_t MaxTuples = 100'000'000; ///< VarPointsTo + FldPointsTo tuples.
  double MaxSeconds = 300.0;        ///< Wall-clock limit.
  /// Approximate solver heap footprint limit in bytes (nodes, points-to
  /// sets, edges, and index entries; book-kept incrementally, not measured
  /// from the allocator).  0 disables the limit.
  uint64_t MaxBytes = 0;
};

/// Size/performance counters of a solver run.
struct SolverStats {
  double Seconds = 0.0;
  uint64_t VarPointsToTuples = 0;   ///< Context-sensitive |VARPOINTSTO|.
  uint64_t FieldPointsToTuples = 0; ///< Context-sensitive |FLDPOINTSTO|.
  uint64_t ThrowPointsToTuples = 0; ///< Context-sensitive |THROWPOINTSTO|.
  uint64_t StaticFieldTuples = 0;   ///< |SFLDPOINTSTO|.
  uint64_t NumVarNodes = 0;         ///< Distinct (var, ctx) pairs.
  uint64_t NumFieldNodes = 0;       ///< Distinct (object, field) pairs.
  uint64_t NumObjects = 0;          ///< Distinct (heap, hctx) pairs.
  uint64_t NumContexts = 0;         ///< |C| materialized.
  uint64_t NumHeapContexts = 0;     ///< |HC| materialized.
  uint64_t ReachableMethodContexts = 0; ///< |REACHABLE| (meth, ctx) pairs.
  uint64_t CallGraphEdges = 0;      ///< Insensitive (site, target) edges.
  uint64_t WorklistPops = 0;        ///< Solver iterations.
  uint64_t ApproxBytes = 0;         ///< Book-kept solver footprint estimate.

  // In-memory-only propagation diagnostics.  Deliberately EXCLUDED from the
  // stats JSON (Reports.cpp) and the Pass-A result-cache entry encoding
  // (ResultCache.cpp): they describe how the fixpoint was computed, not what
  // it is, and serializing them would invalidate cache entries written by
  // earlier builds and perturb byte-identical report sections.  On a
  // cache-warm run they read as zero.
  uint64_t BatchUnions = 0;    ///< Whole-delta set unions (batched edges).
  uint64_t ElementProbes = 0;  ///< Single-element insert attempts.
  uint64_t DensePointsToSets = 0; ///< Nodes whose Pts ended bitmap-backed.
};

/// The result of a points-to analysis run.  Every projected set below is
/// strictly increasing (sorted, duplicate-free): the solver assembles each
/// one from the context-qualified tuples of its nodes, keeping each heap
/// once.
class PointsToResult {
public:
  SolveStatus Status = SolveStatus::Completed;
  SolverStats Stats;
  std::string AnalysisName;

  /// Per-variable points-to set, projected to allocation sites (contexts
  /// collapsed).  Indexed by VarId; values are raw HeapIds.
  std::vector<SortedIdSet> VarHeaps;

  /// Per-(base heap, field) points-to set, contexts collapsed.  Key is
  /// (baseHeap << 32 | field); values are raw HeapIds.  Every (object,
  /// field) node the solver created has an entry, possibly empty.  Keys are
  /// inserted in the order their first node was created, so iteration
  /// order is a function of the program and policy alone.
  std::unordered_map<uint64_t, SortedIdSet> FieldHeaps;

  /// Reachability per method (in any context).
  std::vector<bool> MethodReachable;

  /// Per-static-field points-to set, contexts collapsed.  Key is the raw
  /// FieldId; values are raw HeapIds.  Entries and iteration order follow
  /// the FieldHeaps rule.
  std::unordered_map<uint32_t, SortedIdSet> StaticFieldHeaps;

  /// Per-method escaping-exception set, contexts collapsed.  Indexed by
  /// MethodId; values are raw HeapIds.
  std::vector<SortedIdSet> MethodThrows;

  /// Per-call-site resolved targets (contexts collapsed).  Indexed by
  /// SiteId; values are raw MethodIds.  Static sites have exactly their
  /// fixed target once their caller is reachable.
  std::vector<SortedIdSet> SiteTargets;

  /// Full tuple dumps; populated only when SolverOptions::KeepTuples.
  /// VARPOINTSTO(var, ctx, heap, hctx)
  std::vector<std::array<uint32_t, 4>> VarPointsTo;
  /// FLDPOINTSTO(baseHeap, baseHCtx, fld, heap, hctx)
  std::vector<std::array<uint32_t, 5>> FieldPointsTo;
  /// REACHABLE(meth, ctx)
  std::vector<std::array<uint32_t, 2>> Reachable;
  /// CALLGRAPH(invo, callerCtx, meth, calleeCtx)
  std::vector<std::array<uint32_t, 4>> CallGraph;
  /// THROWPOINTSTO(meth, ctx, heap, hctx)
  std::vector<std::array<uint32_t, 4>> ThrowPointsTo;
  /// SFLDPOINTSTO(fld, heap, hctx)
  std::vector<std::array<uint32_t, 3>> StaticFieldPointsTo;

  /// \returns true if \p Method is reachable in any context.
  bool isReachable(MethodId Method) const {
    return Method.raw() < MethodReachable.size() &&
           MethodReachable[Method.raw()];
  }

  /// \returns the heaps that \p Var may point to (contexts collapsed).
  /// Out-of-range (or invalid) ids yield the shared empty set.
  const SortedIdSet &pointsTo(VarId Var) const {
    return Var.raw() < VarHeaps.size() ? VarHeaps[Var.raw()] : emptySet();
  }

  /// \returns the methods that the call at \p Site may invoke.
  /// Out-of-range (or invalid) ids yield the shared empty set.
  const SortedIdSet &callTargets(SiteId Site) const {
    return Site.raw() < SiteTargets.size() ? SiteTargets[Site.raw()]
                                           : emptySet();
  }

  /// \returns the exception objects escaping \p Method (ctxs collapsed).
  /// Out-of-range (or invalid) ids yield the shared empty set.
  const SortedIdSet &throwsOf(MethodId Method) const {
    return Method.raw() < MethodThrows.size() ? MethodThrows[Method.raw()]
                                              : emptySet();
  }

  /// The shared empty set returned for ids outside the analyzed program.
  /// Deliberately a function-local `static const`: initialization is
  /// guaranteed thread-safe (C++11 magic statics) and the object is
  /// immutable afterwards, so concurrent readers — e.g. the portfolio
  /// engine's racing rungs, or clients querying a result from several
  /// threads — can all hold references to it without synchronization.
  static const SortedIdSet &emptySet() {
    static const SortedIdSet Empty;
    return Empty;
  }

  /// Packs a FieldHeaps key.
  static uint64_t fieldKey(HeapId BaseHeap, FieldId Field) {
    return (static_cast<uint64_t>(BaseHeap.index()) << 32) | Field.index();
  }
};

} // namespace intro

#endif // ANALYSIS_RESULT_H
