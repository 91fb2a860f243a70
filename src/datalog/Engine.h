//===- datalog/Engine.h - Semi-naive Datalog evaluation ---------*- C++ -*-===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small semi-naive Datalog engine with one extension beyond textbook
/// Datalog: *constructor functors* — external functions evaluated after a
/// rule body matches, binding fresh head variables.  This is exactly the
/// device the paper's model needs for the RECORD/MERGE context constructors
/// of Figure 2 ("RECORD (heap, ctx) = newHCtx"), mirroring LogicBlox
/// functional predicates.
///
/// Supported features: multiple head atoms per rule, negation on extensional
/// (never-derived) relations, hash-indexed joins, and a tuple budget.  This
/// engine is the *oracle* implementation of the analysis — the hand-tuned
/// worklist solver is cross-checked against it on randomized programs.
///
//===----------------------------------------------------------------------===//

#ifndef DATALOG_ENGINE_H
#define DATALOG_ENGINE_H

#include "datalog/Relation.h"
#include "support/Hash.h"

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace intro::datalog {

/// The join-index map hashes its (relation, mask) keys with the shared
/// finalizer (support/Hash.h).
using intro::mixIndexKeyBits;

/// A term in an atom: either a rule variable or a constant.
struct Term {
  bool IsVar;
  uint32_t Value; ///< Variable number or constant value.

  static Term var(uint32_t Number) { return Term{true, Number}; }
  static Term cst(uint32_t Value) { return Term{false, Value}; }
};

/// One atom: RELATION(term, term, ...), possibly negated in a body.
struct Atom {
  uint32_t RelationIndex;
  std::vector<Term> Terms;
  bool Negated = false;
};

/// A functor application `OutVar = functor(Inputs...)`, evaluated after the
/// body matches.  Inputs must be bound; OutVar may be fresh.
struct FunctorCall {
  uint32_t FunctorIndex;
  uint32_t OutVar;
  std::vector<Term> Inputs;
};

/// A rule: Heads <- Body, with Functors evaluated in between.
struct Rule {
  std::vector<Atom> Heads;
  std::vector<Atom> Body;
  std::vector<FunctorCall> Functors;
};

/// Evaluation statistics for one run() call.
struct EngineStats {
  uint64_t Rounds = 0;
  uint64_t TuplesDerived = 0;
  bool BudgetExceeded = false;
};

/// The Datalog engine: relations, functors, rules, fixpoint evaluation.
class Engine {
public:
  using Functor = std::function<uint32_t(std::span<const uint32_t>)>;

  /// Declares a relation. \returns its index.
  uint32_t addRelation(std::string Name, uint32_t Arity);

  /// Registers an external functor. \returns its index.
  uint32_t addFunctor(Functor Fn);

  /// Adds a rule.  Head relations become intensional; negation is only
  /// permitted on relations that no rule derives (checked in run()).
  void addRule(Rule NewRule);

  /// Access to a relation, e.g. for loading input facts or reading results.
  Relation &relation(uint32_t Index) { return Relations[Index]; }
  const Relation &relation(uint32_t Index) const { return Relations[Index]; }

  /// Runs to fixpoint (or until \p MaxTuples total facts exist).
  EngineStats run(uint64_t MaxTuples = 50'000'000);

private:
  struct IndexKey {
    uint32_t RelationIndex;
    uint32_t Mask; // Bit i set: position i is bound at lookup time.
    bool operator==(const IndexKey &Other) const {
      return RelationIndex == Other.RelationIndex && Mask == Other.Mask;
    }
  };
  struct IndexKeyHash {
    size_t operator()(const IndexKey &Key) const {
      return static_cast<size_t>(
          mixIndexKeyBits((static_cast<uint64_t>(Key.RelationIndex) << 32) |
                          Key.Mask));
    }
  };
  /// A hash index of a relation on a set of bound positions.
  struct JoinIndex {
    uint64_t BuiltAtVersion = ~0ull;
    uint32_t BuiltSize = 0;
    std::unordered_multimap<uint64_t, uint32_t> Map; // value-hash -> tuple.
  };

  const JoinIndex &getIndex(uint32_t RelationIndex, uint32_t Mask);
  static uint64_t hashBound(std::span<const uint32_t> Tuple, uint32_t Mask);

  /// Recursively matches Body[AtomIndex..] under the binding environment;
  /// on a full match evaluates functors and inserts head tuples.
  void matchAtoms(const Rule &RuleRef, size_t AtomIndex, int DeltaAtom,
                  uint32_t DeltaBegin, uint32_t DeltaEnd,
                  std::vector<uint32_t> &Env, std::vector<bool> &Bound,
                  bool &Changed);

  void fireRule(const Rule &RuleRef, std::vector<uint32_t> &Env,
                std::vector<bool> &Bound, bool &Changed);

  static uint32_t numVars(const Rule &RuleRef);

  std::vector<Relation> Relations;
  std::vector<Functor> Functors;
  std::vector<Rule> Rules;
  std::vector<bool> Intensional; // Derived by some rule head.
  std::unordered_map<IndexKey, JoinIndex, IndexKeyHash> Indexes;
  uint64_t TotalTuples = 0;
  uint64_t MaxTuples = 0;
};

} // namespace intro::datalog

#endif // DATALOG_ENGINE_H
