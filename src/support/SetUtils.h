//===- support/SetUtils.h - Sorted-vector set operations --------*- C++ -*-===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Points-to sets are represented as sorted vectors of dense 32-bit handles.
/// This header provides the handful of sorted-vector operations the rest of
/// the code needs: membership, insertion and normalization.  The solver's
/// batched union lives in IdSet (support/IdSet.h).
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_SETUTILS_H
#define SUPPORT_SETUTILS_H

#include <algorithm>
#include <cstdint>
#include <vector>

namespace intro {

/// A set of dense handles stored as a sorted, duplicate-free vector.
using SortedIdSet = std::vector<uint32_t>;

/// \returns true if \p Set contains \p Value.
inline bool setContains(const SortedIdSet &Set, uint32_t Value) {
  return std::binary_search(Set.begin(), Set.end(), Value);
}

/// Inserts \p Value into \p Set. \returns true if it was newly added.
inline bool setInsert(SortedIdSet &Set, uint32_t Value) {
  auto It = std::lower_bound(Set.begin(), Set.end(), Value);
  if (It != Set.end() && *It == Value)
    return false;
  Set.insert(It, Value);
  return true;
}

/// Sorts \p Values and removes duplicates in place.
inline void setNormalize(SortedIdSet &Values) {
  std::sort(Values.begin(), Values.end());
  Values.erase(std::unique(Values.begin(), Values.end()), Values.end());
}

} // namespace intro

#endif // SUPPORT_SETUTILS_H
