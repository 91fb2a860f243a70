//===- analysis/Solver.cpp - Context-sensitive points-to solver -----------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Solver.h"

#include "analysis/ContextPolicy.h"
#include "ir/Program.h"
#include "support/Hash.h"
#include "support/IdSet.h"
#include "support/Overflow.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <unordered_map>

using namespace intro;

namespace {

constexpr uint8_t NodeKindVar = 0;
constexpr uint8_t NodeKindField = 1;
constexpr uint8_t NodeKindStaticField = 2;
constexpr uint8_t NodeKindThrow = 3;

uint64_t pack(uint32_t High, uint32_t Low) {
  return (static_cast<uint64_t>(High) << 32) | Low;
}

/// The solver's interning index: a map from a packed u64 key to a u32
/// value (a node or object number), or a plain key set when the value is
/// unused.  Open addressing with linear probing over a power-of-two table
/// of at most half-full slots, hashed with mixIndexKeyBits.  Nothing ever
/// iterates an index — the solver only inserts and reads size() — so the
/// slot order cannot leak into any result.
class FlatIndex {
public:
  /// No packed key equals EmptyKey: every key's high half is a valid id or
  /// an object number, and neither is ever 0xFFFFFFFF (Ids.h reserves that
  /// value as the invalid id, and index() asserts on it).
  static constexpr uint64_t EmptyKey = ~uint64_t(0);

  /// Inserts \p Key with \p Value unless it is present.  \returns the
  /// stored value and whether it was inserted.
  std::pair<uint32_t, bool> emplace(uint64_t Key, uint32_t Value) {
    assert(Key != EmptyKey && "a packed key collided with the empty slot");
    if (2 * (Count + 1) > Slots.size())
      grow();
    size_t Mask = Slots.size() - 1;
    for (size_t I = mixIndexKeyBits(Key) & Mask;; I = (I + 1) & Mask) {
      Slot &S = Slots[I];
      if (S.Key == Key)
        return {S.Value, false};
      if (S.Key == EmptyKey) {
        S = {Key, Value};
        ++Count;
        return {Value, true};
      }
    }
  }

  size_t size() const { return Count; }

private:
  struct Slot {
    uint64_t Key = EmptyKey;
    uint32_t Value = 0;
  };

  void grow() {
    std::vector<Slot> Old(std::max<size_t>(16, 2 * Slots.size()));
    Old.swap(Slots);
    size_t Mask = Slots.size() - 1;
    for (const Slot &S : Old) {
      if (S.Key == EmptyKey)
        continue;
      size_t I = mixIndexKeyBits(S.Key) & Mask;
      while (Slots[I].Key != EmptyKey)
        I = (I + 1) & Mask;
      Slots[I] = S;
    }
  }

  std::vector<Slot> Slots;
  size_t Count = 0;
};

/// One constraint-graph node: a (var, ctx) pair or an (object, field) pair.
///
/// Pts and Delta are adaptive sets (support/IdSet.h): sorted vectors while
/// small, packed bitmaps once a hub node's set grows large and dense.  The
/// difference-propagation invariant is Delta SUBSETOF Pts: an object enters
/// Delta exactly when it first enters Pts, and is drained (propagated to
/// every outgoing edge) exactly once, by processNode.
struct Node {
  IdSet Pts;          ///< All objects known to flow here.
  IdSet Delta;        ///< Subset of Pts not yet propagated.
  SortedIdSet Succ;   ///< Subset edges: Pts flows into these nodes.
  /// Filtered (checked-cast / catch) edges, packed as (dst << 32 | type);
  /// only objects compatible with type flow across.  Sorted for dedup.
  std::vector<uint64_t> FilterSucc;
  /// Complement-filtered edges (uncaught-exception propagation): only
  /// objects NOT compatible with type flow across.  Sorted for dedup.
  std::vector<uint64_t> NegFilterSucc;
  /// For var nodes holding a Load base: (field, destination node).
  std::vector<std::pair<uint32_t, uint32_t>> LoadUses;
  /// For var nodes holding a Store base: (field, source node).
  std::vector<std::pair<uint32_t, uint32_t>> StoreUses;
  /// For var nodes that are virtual-call receivers: the call sites.
  std::vector<uint32_t> CallUses;
  uint32_t CtxRaw = 0; ///< Calling context (var nodes only).
  bool InWorklist = false;
};

class Solver {
public:
  Solver(const Program &Prog, const ContextPolicy &Policy, ContextTable &Ctxs,
         const SolverOptions &Opts)
      : Prog(Prog), Policy(Policy), Ctxs(Ctxs), Opts(Opts) {
    // Degenerate-knob clamp: CancelInterval is a modulus in the stop check;
    // 0 means "poll every iteration", exactly like 1.  Make that explicit
    // here (and observable in the trace) rather than relying on the
    // short-circuit in stopRequested().
    if (this->Opts.CancelInterval == 0) {
      this->Opts.CancelInterval = 1;
      TRACE_INSTANT("solve.clamp.cancel_interval", 1);
    }
  }

  PointsToResult run() {
    TRACE_SPAN("solve.run");
    CtxId Initial = Policy.initialContext(Ctxs);
    for (MethodId Entry : Prog.entries())
      enqueueReachable(Entry, Initial);

    uint64_t Checkpoint = 0;
    while (!PendingReachable.empty() || !Worklist.empty()) {
      // The tuple/memory budgets and the fault plan are cheap integer tests,
      // so test them every iteration; the clock costs a syscall and runs
      // only every 1024 iterations; cancellation is a relaxed atomic load,
      // polled every CancelInterval iterations.
      ++Checkpoint;
      if (stopRequested(Checkpoint))
        break;
      if (!PendingReachable.empty()) {
        auto [Method, Ctx] = PendingReachable.back();
        PendingReachable.pop_back();
        instantiate(MethodId(Method), CtxId(Ctx));
        continue;
      }
      processNode(popWorklist());
    }
    return finish();
  }

private:
  // --- Budget, fault injection, and cancellation -------------------------

  /// Tests every stop condition, cheapest first.  Sets Status and \returns
  /// true if the run must abort at this iteration.
  bool stopRequested(uint64_t Checkpoint) {
    BudgetChecks = Checkpoint;
    if (Opts.Faults.FailAtPop != 0 && Pops >= Opts.Faults.FailAtPop &&
        Opts.Faults.FailStatus != SolveStatus::Completed) {
      Status = Opts.Faults.FailStatus;
      TRACE_INSTANT("solve.trip.fault", Pops);
      return true;
    }
    // Saturating multiply: a pathological inflation factor must trip the
    // budget, not wrap uint64_t and silently disarm it.  A zero factor
    // (below the documented minimum of 1) is treated as the inert 1.
    if (saturatingMul(TotalTuples, std::max<uint64_t>(
                                       Opts.Faults.TupleInflation, 1)) >
        Opts.Budget.MaxTuples) {
      Status = SolveStatus::TupleBudgetExceeded;
      TRACE_INSTANT("solve.trip.tuple_budget", TotalTuples);
      return true;
    }
    if (Opts.Budget.MaxBytes != 0 && ApproxBytes > Opts.Budget.MaxBytes) {
      Status = SolveStatus::MemoryBudgetExceeded;
      TRACE_INSTANT("solve.trip.memory_budget", ApproxBytes);
      return true;
    }
    if (Checkpoint % 1024 == 0) {
      // Piggyback the periodic delta-relation sample on the existing clock
      // checkpoint so tracing adds no modulus of its own to the hot loop.
      // For a single-threaded solve both values are schedule-independent,
      // so the sample sequence is deterministic (see DESIGN.md §8).
      TRACE_INSTANT("solve.sample.tuples", TotalTuples);
      TRACE_INSTANT("solve.sample.worklist_depth", Worklist.size());
      if (Clock.seconds() > Opts.Budget.MaxSeconds) {
        Status = SolveStatus::TimeBudgetExceeded;
        TRACE_INSTANT("solve.trip.time_budget", Pops);
        return true;
      }
    }
    if (Opts.Cancel &&
        (Opts.CancelInterval <= 1 || Checkpoint % Opts.CancelInterval == 0) &&
        Opts.Cancel->isCancelled()) {
      Status = SolveStatus::Cancelled;
      TRACE_INSTANT("solve.trip.cancelled", Pops);
      return true;
    }
    return false;
  }

  /// Estimated bytes of index bookkeeping per interned entry.  A constant
  /// so that the memory budget is deterministic across platforms and
  /// allocators.  48 prices a chained hash-map entry (bucket slot, key/value
  /// pair, chaining pointer); a FlatIndex entry takes less, but the charge
  /// stays so that budgets and reported approx_bytes stay comparable.
  static constexpr uint64_t IndexEntryBytes = 48;

  // --- Node and object interning ------------------------------------------

  uint32_t getObject(HeapId Heap, HCtxId HCtx) {
    uint64_t Key = pack(Heap.index(), HCtx.index());
    auto [Object, Inserted] =
        ObjIndex.emplace(Key, static_cast<uint32_t>(Objects.size()));
    if (Inserted) {
      Objects.push_back({Heap.index(), HCtx.index()});
      ApproxBytes += sizeof(Objects[0]) + IndexEntryBytes;
    }
    return Object;
  }

  /// Interns the node \p Key of \p Kind in \p Index, creating it (with
  /// the next node number) on first sight.
  uint32_t internNode(FlatIndex &Index, uint8_t Kind, uint64_t Key,
                      uint32_t CtxRaw) {
    auto [N, Inserted] =
        Index.emplace(Key, static_cast<uint32_t>(Nodes.size()));
    if (!Inserted)
      return N;
    Nodes.emplace_back();
    Nodes.back().CtxRaw = CtxRaw;
    NodeKind.push_back(Kind);
    NodeKey.push_back(Key);
    ApproxBytes += sizeof(Node) + sizeof(uint8_t) + sizeof(uint64_t) +
                   IndexEntryBytes;
    return N;
  }

  uint32_t varNode(VarId Var, CtxId Ctx) {
    return internNode(VarNodeIndex, NodeKindVar,
                      pack(Var.index(), Ctx.index()), Ctx.index());
  }

  uint32_t fieldNode(uint32_t Object, FieldId Field) {
    return internNode(FieldNodeIndex, NodeKindField,
                      pack(Object, Field.index()), 0);
  }

  /// Static fields are single global cells (Doop: StaticFieldPointsTo has
  /// no base object and no context).
  uint32_t staticFieldNode(FieldId Field) {
    return internNode(StaticFieldNodeIndex, NodeKindStaticField,
                      Field.index(), 0);
  }

  /// The set of exception objects escaping (method, ctx) — the paper
  /// [11]-style THROWPOINTSTO relation.
  uint32_t throwNode(MethodId Method, CtxId Ctx) {
    return internNode(ThrowNodeIndex, NodeKindThrow,
                      pack(Method.index(), Ctx.index()), Ctx.index());
  }

  // --- Core propagation ----------------------------------------------------

  void pushWorklist(uint32_t N) {
    if (Nodes[N].InWorklist)
      return;
    Nodes[N].InWorklist = true;
    Worklist.push_back(N);
  }

  uint32_t popWorklist() {
    uint32_t N = Worklist.back();
    Worklist.pop_back();
    Nodes[N].InWorklist = false;
    ++Pops;
    return N;
  }

  /// Combined payload estimate of a node's two sets, the quantity tracked
  /// incrementally into ApproxBytes.
  static uint64_t setBytes(const Node &N) {
    return N.Pts.approxBytes() + N.Delta.approxBytes();
  }

  /// Accounts growth of node \p N's set payload between \p Before and the
  /// current setBytes.  Monotone: representation switches that *shrink* the
  /// payload (vector -> denser bitmap) do not refund — ApproxBytes is a
  /// cumulative high-water estimate, mirroring the original per-entry
  /// bookkeeping, so budget trips never un-trip.
  void accountSetGrowth(const Node &N, uint64_t Before) {
    uint64_t After = setBytes(N);
    if (After > Before)
      ApproxBytes += After - Before;
  }

  /// Adds \p Object to node \p N.  \returns true if it was new.  The
  /// single-element path — batch propagation goes through unionInto.
  bool addObjectTo(uint32_t N, uint32_t Object) {
    Node &Target = Nodes[N];
    ++ElementProbes;
    uint64_t Before = setBytes(Target);
    if (!Target.Pts.insert(Object))
      return false;
    ++TotalTuples;
    Target.Delta.insert(Object);
    accountSetGrowth(Target, Before);
    pushWorklist(N);
    return true;
  }

  /// Batched difference propagation: merges \p Src (an IdSet or a sorted
  /// duplicate-free SortedIdSet) into node \p DstN in one union, records
  /// exactly the genuinely new elements in the node's Delta, and enqueues
  /// the node if anything changed.  One call replaces |Src| addObjectTo
  /// probes; the worklist push happens iff the per-element loop would have
  /// pushed, so the pop sequence (and thus every deterministic counter) is
  /// identical to per-element propagation.
  template <typename SrcSetT> void unionInto(uint32_t DstN, const SrcSetT &Src) {
    Node &Dst = Nodes[DstN];
    ++BatchUnions;
    uint64_t Before = setBytes(Dst);
    UnionScratch.clear();
    if (Dst.Pts.unionWithDelta(Src, UnionScratch) == 0)
      return;
    TotalTuples += UnionScratch.size();
    Dst.Delta.insertNewSorted(UnionScratch);
    accountSetGrowth(Dst, Before);
    pushWorklist(DstN);
  }

  /// Adds the subset edge \p Src -> \p Dst, propagating existing objects
  /// with a single batched union (no per-object re-insertion, no snapshot
  /// copy of the source set).
  void addEdge(uint32_t Src, uint32_t Dst) {
    if (Src == Dst)
      return; // pts(n) <= pts(n) holds trivially.
    if (!setInsert(Nodes[Src].Succ, Dst))
      return;
    ApproxBytes += sizeof(uint32_t);
    // Safe to read Nodes[Src].Pts in place: unionInto never creates nodes,
    // so Nodes cannot reallocate under it (and Src != Dst).
    unionInto(Dst, Nodes[Src].Pts);
  }

  /// \returns true if \p Object (a (heap, hctx) pair) is a subtype of
  /// \p CastTypeRaw — the checked-cast filter.
  bool castAdmits(uint32_t Object, uint32_t CastTypeRaw) const {
    return Prog.isSubtypeOf(Prog.heap(HeapId(Objects[Object].first)).Type,
                            TypeId(CastTypeRaw));
  }

  /// Adds a type-filtered edge \p Src -> \p Dst: \p Negated=false admits
  /// subtypes of \p FilterType (checked cast, catch), Negated=true admits
  /// the complement (uncaught-exception propagation).  The admitted subset
  /// is materialized once and merged with one batched union.
  void addFilteredEdge(uint32_t Src, uint32_t Dst, TypeId FilterType,
                       bool Negated = false) {
    uint64_t Packed = pack(Dst, FilterType.index());
    auto &Edges = Negated ? Nodes[Src].NegFilterSucc : Nodes[Src].FilterSucc;
    auto It = std::lower_bound(Edges.begin(), Edges.end(), Packed);
    if (It != Edges.end() && *It == Packed)
      return;
    Edges.insert(It, Packed);
    ApproxBytes += sizeof(uint64_t);
    FilterScratch.clear();
    Nodes[Src].Pts.forEach([&](uint32_t Object) {
      if (castAdmits(Object, FilterType.index()) != Negated)
        FilterScratch.push_back(Object);
    });
    unionInto(Dst, FilterScratch);
  }

  void processNode(uint32_t N) {
    IdSet Delta = std::move(Nodes[N].Delta);
    Nodes[N].Delta.clear();
    if (Delta.empty())
      return;

    // Nothing here copies an edge or use list.  The use lists are walked by
    // index, re-reading Nodes[N] at every step, because fieldNode and
    // dispatch can create nodes and so reallocate Nodes; their lengths stay
    // fixed, because only instantiate appends uses, and instantiate runs
    // from the main loop, never from inside processNode.  The edge lists are
    // walked in place: unionInto creates neither nodes nor edges.
    //
    // LOAD / STORE / VCALL are inherently per-object (each object selects a
    // different field node or callee), so they stay element-wise.
    // LOAD rule: to = base.fld joins FLDPOINTSTO of every new base object.
    for (size_t I = 0; I < Nodes[N].LoadUses.size(); ++I) {
      auto [FieldRaw, Dst] = Nodes[N].LoadUses[I];
      Delta.forEach([&](uint32_t Object) {
        addEdge(fieldNode(Object, FieldId(FieldRaw)), Dst);
      });
    }
    // STORE rule: base.fld = from feeds FLDPOINTSTO of every new object.
    for (size_t I = 0; I < Nodes[N].StoreUses.size(); ++I) {
      auto [FieldRaw, Src] = Nodes[N].StoreUses[I];
      Delta.forEach([&](uint32_t Object) {
        addEdge(Src, fieldNode(Object, FieldId(FieldRaw)));
      });
    }
    // VCALL rule: dispatch on every new receiver object.
    CtxId Ctx(Nodes[N].CtxRaw);
    for (size_t I = 0; I < Nodes[N].CallUses.size(); ++I) {
      SiteId Site(Nodes[N].CallUses[I]);
      Delta.forEach([&](uint32_t Object) { dispatch(Site, Ctx, Object); });
    }
    // Copy edges (MOVE / INTERPROCASSIGN / field flow): one batched union
    // of the whole delta per edge.  Delta is a drained local, so a
    // self-edge target can never alias it.
    for (uint32_t Dst : Nodes[N].Succ)
      unionInto(Dst, Delta);
    // Type-filtered edges (checked casts, catch clauses) and their
    // complements (uncaught-exception propagation): materialize the
    // admitted subset of the delta once per edge, then one batched union.
    for (bool Negated : {false, true}) {
      for (uint64_t Packed :
           Negated ? Nodes[N].NegFilterSucc : Nodes[N].FilterSucc) {
        uint32_t Dst = static_cast<uint32_t>(Packed >> 32);
        uint32_t FilterTypeRaw = static_cast<uint32_t>(Packed);
        FilterScratch.clear();
        Delta.forEach([&](uint32_t Object) {
          if (castAdmits(Object, FilterTypeRaw) != Negated)
            FilterScratch.push_back(Object);
        });
        unionInto(Dst, FilterScratch);
      }
    }
  }

  // --- Call handling --------------------------------------------------------

  void recordCallEdge(SiteId Site, CtxId CallerCtx, MethodId Callee,
                      CtxId CalleeCtx) {
    if (CallEdgeProjection.emplace(pack(Site.index(), Callee.index()), 0)
            .second)
      SiteTargets[Site.index()].push_back(Callee.index());
    if (Opts.KeepTuples)
      CallGraphTuples.insert(
          {Site.index(), CallerCtx.index(), Callee.index(), CalleeCtx.index()});
  }

  void bindArguments(const SiteInfo &Site, CtxId CallerCtx, MethodId Callee,
                     CtxId CalleeCtx) {
    const MethodInfo &Target = Prog.method(Callee);
    size_t NumArgs = std::min(Site.Actuals.size(), Target.Formals.size());
    for (size_t Index = 0; Index < NumArgs; ++Index)
      addEdge(varNode(Site.Actuals[Index], CallerCtx),
              varNode(Target.Formals[Index], CalleeCtx));
    if (Site.Result.isValid() && Target.Return.isValid())
      addEdge(varNode(Target.Return, CalleeCtx),
              varNode(Site.Result, CallerCtx));

    // Exception flow: objects escaping the callee either bind to the
    // site's catch variable (subtype of the catch type) or escape the
    // caller as well (complement).  Without a catch clause, everything
    // escapes upward.
    uint32_t CalleeThrow = throwNode(Callee, CalleeCtx);
    if (Site.CatchVar.isValid()) {
      addFilteredEdge(CalleeThrow, varNode(Site.CatchVar, CallerCtx),
                      Site.CatchType);
      addFilteredEdge(CalleeThrow, throwNode(Site.InMethod, CallerCtx),
                      Site.CatchType, /*Negated=*/true);
    } else {
      addEdge(CalleeThrow, throwNode(Site.InMethod, CallerCtx));
    }
  }

  void dispatch(SiteId SiteHandle, CtxId CallerCtx, uint32_t Object) {
    const SiteInfo &Site = Prog.site(SiteHandle);
    auto [HeapRaw, HCtxRaw] = Objects[Object];
    HeapId Heap(HeapRaw);
    MethodId Callee = Prog.lookup(Prog.heap(Heap).Type, Site.Sig);
    if (!Callee.isValid())
      return; // No method matches the signature: dispatch failure.

    CtxId CalleeCtx = Policy.merge(Heap, HCtxId(HCtxRaw), SiteHandle, Callee,
                                   CallerCtx, Ctxs);
    recordCallEdge(SiteHandle, CallerCtx, Callee, CalleeCtx);
    enqueueReachable(Callee, CalleeCtx);
    addObjectTo(varNode(Prog.method(Callee).This, CalleeCtx), Object);
    bindArguments(Site, CallerCtx, Callee, CalleeCtx);
  }

  // --- Method instantiation --------------------------------------------------

  void enqueueReachable(MethodId Method, CtxId Ctx) {
    if (!ReachableSet.emplace(pack(Method.index(), Ctx.index()), 0).second)
      return;
    ReachableList.push_back({Method.index(), Ctx.index()});
    PendingReachable.push_back({Method.index(), Ctx.index()});
    ApproxBytes += 2 * sizeof(ReachableList[0]) + IndexEntryBytes;
  }

  /// Applies the body of \p Method under \p Ctx: the ALLOC/MOVE rules fire
  /// immediately; LOAD/STORE/VCALL register trigger lists on their base
  /// variables; static calls resolve on the spot.
  void instantiate(MethodId Method, CtxId Ctx) {
    const MethodInfo &Info = Prog.method(Method);
    for (const Instruction &Instr : Info.Body) {
      switch (Instr.Kind) {
      case InstrKind::Alloc: {
        HCtxId HCtx = Policy.record(Instr.Heap, Ctx, Ctxs);
        addObjectTo(varNode(Instr.To, Ctx), getObject(Instr.Heap, HCtx));
        break;
      }
      case InstrKind::Move:
        addEdge(varNode(Instr.From, Ctx), varNode(Instr.To, Ctx));
        break;
      case InstrKind::Cast:
        if (Opts.FilterCasts)
          addFilteredEdge(varNode(Instr.From, Ctx), varNode(Instr.To, Ctx),
                          Instr.CastType);
        else
          addEdge(varNode(Instr.From, Ctx), varNode(Instr.To, Ctx));
        break;
      case InstrKind::Load: {
        uint32_t Base = varNode(Instr.Base, Ctx);
        uint32_t Dst = varNode(Instr.To, Ctx);
        Nodes[Base].LoadUses.push_back({Instr.Field.index(), Dst});
        ApproxBytes += sizeof(Nodes[Base].LoadUses[0]);
        SortedIdSet Snapshot = Nodes[Base].Pts.toVector();
        for (uint32_t Object : Snapshot)
          addEdge(fieldNode(Object, Instr.Field), Dst);
        break;
      }
      case InstrKind::Store: {
        uint32_t Base = varNode(Instr.Base, Ctx);
        uint32_t Src = varNode(Instr.From, Ctx);
        Nodes[Base].StoreUses.push_back({Instr.Field.index(), Src});
        ApproxBytes += sizeof(Nodes[Base].StoreUses[0]);
        SortedIdSet Snapshot = Nodes[Base].Pts.toVector();
        for (uint32_t Object : Snapshot)
          addEdge(Src, fieldNode(Object, Instr.Field));
        break;
      }
      case InstrKind::SLoad:
        addEdge(staticFieldNode(Instr.Field), varNode(Instr.To, Ctx));
        break;
      case InstrKind::SStore:
        addEdge(varNode(Instr.From, Ctx), staticFieldNode(Instr.Field));
        break;
      case InstrKind::Throw:
        addEdge(varNode(Instr.From, Ctx), throwNode(Method, Ctx));
        break;
      case InstrKind::Call: {
        const SiteInfo &Site = Prog.site(Instr.Site);
        if (Site.IsStatic) {
          MethodId Callee = Site.StaticTarget;
          CtxId CalleeCtx = Policy.mergeStatic(Instr.Site, Callee, Ctx, Ctxs);
          recordCallEdge(Instr.Site, Ctx, Callee, CalleeCtx);
          enqueueReachable(Callee, CalleeCtx);
          bindArguments(Site, Ctx, Callee, CalleeCtx);
          break;
        }
        uint32_t Base = varNode(Site.Base, Ctx);
        Nodes[Base].CallUses.push_back(Instr.Site.index());
        ApproxBytes += sizeof(uint32_t);
        SortedIdSet Snapshot = Nodes[Base].Pts.toVector();
        for (uint32_t Object : Snapshot)
          dispatch(Instr.Site, Ctx, Object);
        break;
      }
      }
    }
  }

  // --- Result assembly ---------------------------------------------------------

  PointsToResult finish() {
    // Counters are accumulated in the existing locals (Pops, TotalTuples,
    // ...) and published once here — the hot loop pays nothing for them.
    TRACE_COUNTER("solve.runs", 1);
    TRACE_COUNTER("solve.pops", Pops);
    TRACE_COUNTER("solve.tuples", TotalTuples);
    TRACE_COUNTER("solve.budget_checks", BudgetChecks);
    TRACE_COUNTER("solve.reachable_method_contexts", ReachableList.size());
    TRACE_COUNTER("solve.call_graph_edges", CallEdgeProjection.size());
    TRACE_COUNTER("solve.nodes", Nodes.size());
    TRACE_COUNTER("solve.objects", Objects.size());

    PointsToResult Result;
    Result.Status = Status;
    Result.AnalysisName = Policy.name();

    Result.VarHeaps.resize(Prog.numVars());
    Result.MethodReachable.assign(Prog.numMethods(), false);
    Result.SiteTargets.resize(Prog.numSites());
    for (uint32_t SiteIndex = 0; SiteIndex < Prog.numSites(); ++SiteIndex) {
      Result.SiteTargets[SiteIndex] = std::move(SiteTargets[SiteIndex]);
      setNormalize(Result.SiteTargets[SiteIndex]);
    }

    Result.MethodThrows.resize(Prog.numMethods());
    uint64_t VarTuples = 0;
    uint64_t FieldTuples = 0;
    uint64_t ThrowTuples = 0;
    uint64_t StaticTuples = 0;
    uint64_t DenseSets = 0;

    // Projection (DESIGN.md §11 "Result assembly").  Each output set is a
    // slot: a var's slot is its id, a method's throw slot follows the vars,
    // and field / static-field slots are numbered after those in
    // first-appearance node order.  Their map keys are inserted in that
    // order too, which fixes the maps' iteration order.
    std::vector<SortedIdSet *> SlotSets;
    SlotSets.reserve(Prog.numVars() + Prog.numMethods());
    for (SortedIdSet &Heaps : Result.VarHeaps)
      SlotSets.push_back(&Heaps);
    for (SortedIdSet &Heaps : Result.MethodThrows)
      SlotSets.push_back(&Heaps);
    std::unordered_map<uint64_t, uint32_t> FieldSlots;
    std::unordered_map<uint32_t, uint32_t> StaticSlots;
    auto keyedSlot = [&SlotSets](auto &Slots, auto &Sets, auto Key) {
      auto [It, Inserted] = Slots.try_emplace(Key, SlotSets.size());
      if (Inserted)
        SlotSets.push_back(&Sets[Key]);
      return It->second;
    };
    std::vector<uint32_t> NodeSlot(Nodes.size());
    for (uint32_t N = 0; N < Nodes.size(); ++N) {
      const Node &NodeRef = Nodes[N];
      // NodeKey halves: (var, ctx), (object, field), (0, field) or
      // (method, ctx), by kind.
      uint32_t High = static_cast<uint32_t>(NodeKey[N] >> 32);
      uint32_t Low = static_cast<uint32_t>(NodeKey[N]);
      DenseSets += NodeRef.Pts.isDense() ? 1 : 0;
      switch (NodeKind[N]) {
      case NodeKindVar:
        VarTuples += NodeRef.Pts.size();
        NodeSlot[N] = High;
        if (Opts.KeepTuples)
          for (uint32_t Object : NodeRef.Pts)
            Result.VarPointsTo.push_back({High, NodeRef.CtxRaw,
                                          Objects[Object].first,
                                          Objects[Object].second});
        break;
      case NodeKindField: {
        FieldTuples += NodeRef.Pts.size();
        auto [BaseHeap, BaseHCtx] = Objects[High];
        NodeSlot[N] =
            keyedSlot(FieldSlots, Result.FieldHeaps, pack(BaseHeap, Low));
        if (Opts.KeepTuples)
          for (uint32_t Object : NodeRef.Pts)
            Result.FieldPointsTo.push_back({BaseHeap, BaseHCtx, Low,
                                            Objects[Object].first,
                                            Objects[Object].second});
        break;
      }
      case NodeKindStaticField:
        StaticTuples += NodeRef.Pts.size();
        NodeSlot[N] = keyedSlot(StaticSlots, Result.StaticFieldHeaps, Low);
        if (Opts.KeepTuples)
          for (uint32_t Object : NodeRef.Pts)
            Result.StaticFieldPointsTo.push_back(
                {Low, Objects[Object].first, Objects[Object].second});
        break;
      case NodeKindThrow:
        ThrowTuples += NodeRef.Pts.size();
        NodeSlot[N] = Prog.numVars() + High;
        if (Opts.KeepTuples)
          for (uint32_t Object : NodeRef.Pts)
            Result.ThrowPointsTo.push_back({High, NodeRef.CtxRaw,
                                            Objects[Object].first,
                                            Objects[Object].second});
        break;
      }
    }

    // Counting sort of the nodes by slot.  Filling back to front leaves
    // SlotBegin[S] at slot S's first entry and each slot in node order.
    std::vector<uint32_t> SlotBegin(SlotSets.size() + 1, 0);
    for (uint32_t Slot : NodeSlot)
      ++SlotBegin[Slot];
    for (size_t Slot = 1; Slot < SlotBegin.size(); ++Slot)
      SlotBegin[Slot] += SlotBegin[Slot - 1];
    std::vector<uint32_t> BySlot(Nodes.size());
    for (uint32_t N = static_cast<uint32_t>(Nodes.size()); N-- > 0;)
      BySlot[--SlotBegin[NodeSlot[N]]] = N;

    // One pass over every tuple: a set bit in Seen marks a heap the current
    // slot already holds, so only distinct heaps are pushed.  The slot's
    // bits are then read back in ascending order and cleared for the next
    // slot: a slot with more distinct heaps than Seen has words scans the
    // words (zeroing each), a smaller one sorts its heaps and clears just
    // their bits.  Either way the cost is at most linear in the heaps.
    std::vector<uint64_t> Seen((Prog.numHeaps() + 63) / 64, 0);
    for (uint32_t Slot = 0; Slot < SlotSets.size(); ++Slot) {
      SortedIdSet &Heaps = *SlotSets[Slot];
      for (uint32_t I = SlotBegin[Slot]; I < SlotBegin[Slot + 1]; ++I)
        Nodes[BySlot[I]].Pts.forEach([&](uint32_t Object) {
          uint32_t Heap = Objects[Object].first;
          uint64_t Bit = uint64_t(1) << (Heap & 63);
          if (!(Seen[Heap >> 6] & Bit)) {
            Seen[Heap >> 6] |= Bit;
            Heaps.push_back(Heap);
          }
        });
      if (Heaps.size() > Seen.size()) {
        size_t Next = 0;
        for (size_t Word = 0; Word < Seen.size(); ++Word) {
          for (uint64_t Bits = Seen[Word]; Bits != 0; Bits &= Bits - 1)
            Heaps[Next++] = static_cast<uint32_t>(
                (Word << 6) + static_cast<size_t>(__builtin_ctzll(Bits)));
          Seen[Word] = 0;
        }
      } else {
        std::sort(Heaps.begin(), Heaps.end());
        for (uint32_t Heap : Heaps)
          Seen[Heap >> 6] &= ~(uint64_t(1) << (Heap & 63));
      }
    }

    for (auto [MethodRaw, CtxRaw] : ReachableList) {
      Result.MethodReachable[MethodRaw] = true;
      if (Opts.KeepTuples)
        Result.Reachable.push_back({MethodRaw, CtxRaw});
    }
    if (Opts.KeepTuples)
      Result.CallGraph.assign(CallGraphTuples.begin(), CallGraphTuples.end());

    Result.Stats.Seconds = Clock.seconds();
    Result.Stats.VarPointsToTuples = VarTuples;
    Result.Stats.FieldPointsToTuples = FieldTuples;
    Result.Stats.ThrowPointsToTuples = ThrowTuples;
    Result.Stats.StaticFieldTuples = StaticTuples;
    uint64_t NumFieldNodes = FieldNodeIndex.size();
    Result.Stats.NumVarNodes = VarNodeIndex.size();
    Result.Stats.NumFieldNodes = NumFieldNodes;
    Result.Stats.NumObjects = Objects.size();
    Result.Stats.NumContexts = Ctxs.numContexts();
    Result.Stats.NumHeapContexts = Ctxs.numHeapContexts();
    Result.Stats.ReachableMethodContexts = ReachableList.size();
    Result.Stats.CallGraphEdges = CallEdgeProjection.size();
    Result.Stats.WorklistPops = Pops;
    Result.Stats.ApproxBytes = ApproxBytes;
    Result.Stats.BatchUnions = BatchUnions;
    Result.Stats.ElementProbes = ElementProbes;
    Result.Stats.DensePointsToSets = DenseSets;
    return Result;
  }

  const Program &Prog;
  const ContextPolicy &Policy;
  ContextTable &Ctxs;
  SolverOptions Opts;
  Timer Clock;

  std::vector<Node> Nodes;
  std::vector<uint8_t> NodeKind;
  std::vector<uint64_t> NodeKey;
  FlatIndex VarNodeIndex;
  FlatIndex FieldNodeIndex;
  FlatIndex StaticFieldNodeIndex;
  FlatIndex ThrowNodeIndex;

  FlatIndex ObjIndex;
  std::vector<std::pair<uint32_t, uint32_t>> Objects;

  std::vector<uint32_t> Worklist;
  std::vector<std::pair<uint32_t, uint32_t>> PendingReachable;
  FlatIndex ReachableSet;
  std::vector<std::pair<uint32_t, uint32_t>> ReachableList;

  FlatIndex CallEdgeProjection;
  std::vector<SortedIdSet> SiteTargets =
      std::vector<SortedIdSet>(Prog.numSites());
  std::set<std::array<uint32_t, 4>> CallGraphTuples;

  /// Batched-propagation scratch, reused across unionInto / addFilteredEdge
  /// calls so the hot loop performs no per-edge allocation once warm.
  SortedIdSet UnionScratch;
  SortedIdSet FilterScratch;

  uint64_t TotalTuples = 0;
  uint64_t ApproxBytes = 0;
  uint64_t Pops = 0;
  uint64_t BudgetChecks = 0;
  uint64_t BatchUnions = 0;   ///< unionInto invocations (whole-delta merges).
  uint64_t ElementProbes = 0; ///< Single-element addObjectTo attempts.
  SolveStatus Status = SolveStatus::Completed;
};

} // namespace

PointsToResult intro::solvePointsTo(const Program &Prog,
                                    const ContextPolicy &Policy,
                                    ContextTable &Table,
                                    const SolverOptions &Options) {
  return Solver(Prog, Policy, Table, Options).run();
}
