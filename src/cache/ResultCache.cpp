//===- cache/ResultCache.cpp - Content-addressed Pass-A store -------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "cache/ResultCache.h"

#include "support/Trace.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#include <fcntl.h>
#include <unistd.h>

using namespace intro;
using namespace intro::cache;

namespace fs = std::filesystem;

namespace {

//===----------------------------------------------------------------------===//
// Byte-level encoding.  Explicit little-endian, no struct memcpy — the
// format must not depend on host padding or endianness.
//===----------------------------------------------------------------------===//

uint64_t fnv1a(const uint8_t *Data, size_t Size) {
  uint64_t Acc = 1469598103934665603ull;
  for (size_t Index = 0; Index < Size; ++Index) {
    Acc ^= Data[Index];
    Acc *= 1099511628211ull;
  }
  return Acc;
}

struct ByteWriter {
  std::vector<uint8_t> Bytes;

  void u8(uint8_t V) { Bytes.push_back(V); }
  void u32(uint32_t V) {
    for (int Shift = 0; Shift < 32; Shift += 8)
      Bytes.push_back(static_cast<uint8_t>(V >> Shift));
  }
  void u64(uint64_t V) {
    for (int Shift = 0; Shift < 64; Shift += 8)
      Bytes.push_back(static_cast<uint8_t>(V >> Shift));
  }
  void f64(double V) {
    uint64_t Raw;
    static_assert(sizeof(Raw) == sizeof(V));
    std::memcpy(&Raw, &V, sizeof(Raw));
    u64(Raw);
  }
  void str(const std::string &Text) {
    u64(Text.size());
    Bytes.insert(Bytes.end(), Text.begin(), Text.end());
  }
  void idSet(const SortedIdSet &Set) {
    u64(Set.size());
    for (uint32_t Id : Set)
      u32(Id);
  }
  void idSetVector(const std::vector<SortedIdSet> &Sets) {
    u64(Sets.size());
    for (const SortedIdSet &Set : Sets)
      idSet(Set);
  }
  void u64Vector(const std::vector<uint64_t> &Values) {
    u64(Values.size());
    for (uint64_t Value : Values)
      u64(Value);
  }
  void boolVector(const std::vector<bool> &Values) {
    u64(Values.size());
    for (bool Value : Values)
      u8(Value ? 1 : 0);
  }
  template <size_t N>
  void tupleVector(const std::vector<std::array<uint32_t, N>> &Rows) {
    u64(Rows.size());
    for (const std::array<uint32_t, N> &Row : Rows)
      for (uint32_t Column : Row)
        u32(Column);
  }
};

/// Bounds-checked reader.  Every accessor fails soft: once Ok is false all
/// further reads return zero values, and the caller checks Ok (plus full
/// consumption) at the end — decoding garbage never touches memory out of
/// range.
struct ByteReader {
  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
  bool Ok = true;

  ByteReader(const uint8_t *Data, size_t Size) : Data(Data), Size(Size) {}

  bool take(size_t Count) {
    if (!Ok || Count > Size - Pos) {
      Ok = false;
      return false;
    }
    return true;
  }
  uint8_t u8() {
    if (!take(1))
      return 0;
    return Data[Pos++];
  }
  uint32_t u32() {
    if (!take(4))
      return 0;
    uint32_t V = 0;
    for (int Shift = 0; Shift < 32; Shift += 8)
      V |= static_cast<uint32_t>(Data[Pos++]) << Shift;
    return V;
  }
  uint64_t u64() {
    if (!take(8))
      return 0;
    uint64_t V = 0;
    for (int Shift = 0; Shift < 64; Shift += 8)
      V |= static_cast<uint64_t>(Data[Pos++]) << Shift;
    return V;
  }
  double f64() {
    uint64_t Raw = u64();
    double V;
    std::memcpy(&V, &Raw, sizeof(V));
    return V;
  }
  std::string str() {
    uint64_t Count = u64();
    if (!take(Count))
      return {};
    std::string Text(reinterpret_cast<const char *>(Data + Pos), Count);
    Pos += Count;
    return Text;
  }
  /// Guard for element counts: a corrupted length field must not trigger a
  /// huge up-front allocation.  Each element of the claimed count occupies
  /// at least MinElemBytes in the remaining payload, so anything larger is
  /// provably corrupt.
  bool plausibleCount(uint64_t Count, size_t MinElemBytes) {
    if (!Ok || Count > (Size - Pos) / MinElemBytes) {
      Ok = false;
      return false;
    }
    return true;
  }
  SortedIdSet idSet() {
    uint64_t Count = u64();
    SortedIdSet Set;
    if (!plausibleCount(Count, 4))
      return Set;
    Set.reserve(Count);
    for (uint64_t Index = 0; Index < Count && Ok; ++Index)
      Set.push_back(u32());
    return Set;
  }
  std::vector<SortedIdSet> idSetVector() {
    uint64_t Count = u64();
    std::vector<SortedIdSet> Sets;
    if (!plausibleCount(Count, 8))
      return Sets;
    Sets.reserve(Count);
    for (uint64_t Index = 0; Index < Count && Ok; ++Index)
      Sets.push_back(idSet());
    return Sets;
  }
  std::vector<uint64_t> u64Vector() {
    uint64_t Count = u64();
    std::vector<uint64_t> Values;
    if (!plausibleCount(Count, 8))
      return Values;
    Values.reserve(Count);
    for (uint64_t Index = 0; Index < Count && Ok; ++Index)
      Values.push_back(u64());
    return Values;
  }
  std::vector<bool> boolVector() {
    uint64_t Count = u64();
    std::vector<bool> Values;
    if (!plausibleCount(Count, 1))
      return Values;
    Values.reserve(Count);
    for (uint64_t Index = 0; Index < Count && Ok; ++Index)
      Values.push_back(u8() != 0);
    return Values;
  }
  template <size_t N> std::vector<std::array<uint32_t, N>> tupleVector() {
    uint64_t Count = u64();
    std::vector<std::array<uint32_t, N>> Rows;
    if (!plausibleCount(Count, 4 * N))
      return Rows;
    Rows.reserve(Count);
    for (uint64_t Index = 0; Index < Count && Ok; ++Index) {
      std::array<uint32_t, N> Row;
      for (size_t Column = 0; Column < N; ++Column)
        Row[Column] = u32();
      Rows.push_back(Row);
    }
    return Rows;
  }
};

//===----------------------------------------------------------------------===//
// Section payloads.
//===----------------------------------------------------------------------===//

// The field list below is part of the on-disk entry format: adding a field
// here would orphan every entry written by earlier builds.  Propagation
// diagnostics (SolverStats::BatchUnions / ElementProbes /
// DensePointsToSets) are deliberately NOT encoded — they describe the
// solver's internal strategy, not the result, and must read as zero on a
// cache hit.
void encodeStats(ByteWriter &W, const SolverStats &Stats) {
  W.f64(Stats.Seconds);
  W.u64(Stats.VarPointsToTuples);
  W.u64(Stats.FieldPointsToTuples);
  W.u64(Stats.ThrowPointsToTuples);
  W.u64(Stats.StaticFieldTuples);
  W.u64(Stats.NumVarNodes);
  W.u64(Stats.NumFieldNodes);
  W.u64(Stats.NumObjects);
  W.u64(Stats.NumContexts);
  W.u64(Stats.NumHeapContexts);
  W.u64(Stats.ReachableMethodContexts);
  W.u64(Stats.CallGraphEdges);
  W.u64(Stats.WorklistPops);
  W.u64(Stats.ApproxBytes);
}

SolverStats decodeStats(ByteReader &R) {
  SolverStats Stats;
  Stats.Seconds = R.f64();
  Stats.VarPointsToTuples = R.u64();
  Stats.FieldPointsToTuples = R.u64();
  Stats.ThrowPointsToTuples = R.u64();
  Stats.StaticFieldTuples = R.u64();
  Stats.NumVarNodes = R.u64();
  Stats.NumFieldNodes = R.u64();
  Stats.NumObjects = R.u64();
  Stats.NumContexts = R.u64();
  Stats.NumHeapContexts = R.u64();
  Stats.ReachableMethodContexts = R.u64();
  Stats.CallGraphEdges = R.u64();
  Stats.WorklistPops = R.u64();
  Stats.ApproxBytes = R.u64();
  return Stats;
}

std::vector<uint8_t> encodeResultSection(const PointsToResult &Result) {
  ByteWriter W;
  W.u8(static_cast<uint8_t>(Result.Status));
  encodeStats(W, Result.Stats);
  W.str(Result.AnalysisName);
  W.idSetVector(Result.VarHeaps);

  // Unordered maps are emitted in sorted-key order: equal results must
  // encode to identical bytes regardless of hash-table iteration order.
  {
    std::vector<uint64_t> Keys;
    Keys.reserve(Result.FieldHeaps.size());
    for (const auto &[Key, Set] : Result.FieldHeaps)
      Keys.push_back(Key);
    std::sort(Keys.begin(), Keys.end());
    W.u64(Keys.size());
    for (uint64_t Key : Keys) {
      W.u64(Key);
      W.idSet(Result.FieldHeaps.at(Key));
    }
  }

  W.boolVector(Result.MethodReachable);

  {
    std::vector<uint32_t> Keys;
    Keys.reserve(Result.StaticFieldHeaps.size());
    for (const auto &[Key, Set] : Result.StaticFieldHeaps)
      Keys.push_back(Key);
    std::sort(Keys.begin(), Keys.end());
    W.u64(Keys.size());
    for (uint32_t Key : Keys) {
      W.u32(Key);
      W.idSet(Result.StaticFieldHeaps.at(Key));
    }
  }

  W.idSetVector(Result.MethodThrows);
  W.idSetVector(Result.SiteTargets);

  W.tupleVector(Result.VarPointsTo);
  W.tupleVector(Result.FieldPointsTo);
  W.tupleVector(Result.Reachable);
  W.tupleVector(Result.CallGraph);
  W.tupleVector(Result.ThrowPointsTo);
  W.tupleVector(Result.StaticFieldPointsTo);
  return std::move(W.Bytes);
}

bool decodeResultSection(const uint8_t *Data, size_t Size,
                         PointsToResult &Result) {
  ByteReader R(Data, Size);
  uint8_t RawStatus = R.u8();
  if (RawStatus > static_cast<uint8_t>(SolveStatus::Cancelled))
    return false;
  Result.Status = static_cast<SolveStatus>(RawStatus);
  Result.Stats = decodeStats(R);
  Result.AnalysisName = R.str();
  Result.VarHeaps = R.idSetVector();

  {
    uint64_t Count = R.u64();
    if (!R.plausibleCount(Count, 16))
      return false;
    Result.FieldHeaps.clear();
    Result.FieldHeaps.reserve(Count);
    for (uint64_t Index = 0; Index < Count && R.Ok; ++Index) {
      uint64_t Key = R.u64();
      Result.FieldHeaps[Key] = R.idSet();
    }
  }

  Result.MethodReachable = R.boolVector();

  {
    uint64_t Count = R.u64();
    if (!R.plausibleCount(Count, 12))
      return false;
    Result.StaticFieldHeaps.clear();
    Result.StaticFieldHeaps.reserve(Count);
    for (uint64_t Index = 0; Index < Count && R.Ok; ++Index) {
      uint32_t Key = R.u32();
      Result.StaticFieldHeaps[Key] = R.idSet();
    }
  }

  Result.MethodThrows = R.idSetVector();
  Result.SiteTargets = R.idSetVector();

  Result.VarPointsTo = R.tupleVector<4>();
  Result.FieldPointsTo = R.tupleVector<5>();
  Result.Reachable = R.tupleVector<2>();
  Result.CallGraph = R.tupleVector<4>();
  Result.ThrowPointsTo = R.tupleVector<4>();
  Result.StaticFieldPointsTo = R.tupleVector<3>();

  return R.Ok && R.Pos == R.Size;
}

std::vector<uint8_t> encodeMetricsSection(const IntrospectionMetrics &M) {
  ByteWriter W;
  W.u64Vector(M.InFlow);
  W.u64Vector(M.MethodTotalVolume);
  W.u64Vector(M.MethodMaxVarPointsTo);
  W.u64Vector(M.ObjectMaxFieldPointsTo);
  W.u64Vector(M.ObjectTotalFieldPointsTo);
  W.u64Vector(M.MethodMaxVarFieldPointsTo);
  W.u64Vector(M.PointedByVars);
  W.u64Vector(M.PointedByObjs);
  return std::move(W.Bytes);
}

bool decodeMetricsSection(const uint8_t *Data, size_t Size,
                          IntrospectionMetrics &M) {
  ByteReader R(Data, Size);
  M.InFlow = R.u64Vector();
  M.MethodTotalVolume = R.u64Vector();
  M.MethodMaxVarPointsTo = R.u64Vector();
  M.ObjectMaxFieldPointsTo = R.u64Vector();
  M.ObjectTotalFieldPointsTo = R.u64Vector();
  M.MethodMaxVarFieldPointsTo = R.u64Vector();
  M.PointedByVars = R.u64Vector();
  M.PointedByObjs = R.u64Vector();
  return R.Ok && R.Pos == R.Size;
}

/// Writes all of \p Bytes to \p Fd, retrying short writes and EINTR.
bool writeAll(int Fd, const std::vector<uint8_t> &Bytes) {
  size_t Done = 0;
  while (Done < Bytes.size()) {
    ssize_t Count = ::write(Fd, Bytes.data() + Done, Bytes.size() - Done);
    if (Count < 0 && errno == EINTR)
      continue;
    if (Count <= 0)
      return false;
    Done += static_cast<size_t>(Count);
  }
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Whole-entry encode/decode.
//===----------------------------------------------------------------------===//

std::vector<uint8_t> cache::encodeEntry(const Fingerprint &Fp,
                                        const CachedPassA &Entry) {
  ByteWriter W;
  W.Bytes.insert(W.Bytes.end(), EntryMagic, EntryMagic + sizeof(EntryMagic));
  W.u32(FormatVersion);
  W.u64(Fp.Hi);
  W.u64(Fp.Lo);

  std::vector<std::pair<uint32_t, std::vector<uint8_t>>> Sections;
  Sections.emplace_back(SectionResult, encodeResultSection(Entry.Insens));
  Sections.emplace_back(SectionMetrics, encodeMetricsSection(Entry.Metrics));

  W.u32(static_cast<uint32_t>(Sections.size()));
  for (const auto &[Tag, Payload] : Sections) {
    W.u32(Tag);
    W.u64(Payload.size());
    W.u64(fnv1a(Payload.data(), Payload.size()));
    W.Bytes.insert(W.Bytes.end(), Payload.begin(), Payload.end());
  }
  return std::move(W.Bytes);
}

bool cache::decodeEntry(const std::vector<uint8_t> &Bytes,
                        const Fingerprint &Expect, CachedPassA &Out) {
  ByteReader R(Bytes.data(), Bytes.size());
  if (!R.take(sizeof(EntryMagic)))
    return false;
  if (std::memcmp(Bytes.data(), EntryMagic, sizeof(EntryMagic)) != 0)
    return false;
  R.Pos = sizeof(EntryMagic);

  if (R.u32() != FormatVersion)
    return false;
  Fingerprint Echo;
  Echo.Hi = R.u64();
  Echo.Lo = R.u64();
  if (!R.Ok || Echo != Expect)
    return false;

  uint32_t SectionCount = R.u32();
  bool HaveResult = false, HaveMetrics = false;
  CachedPassA Decoded;
  for (uint32_t Index = 0; Index < SectionCount && R.Ok; ++Index) {
    uint32_t Tag = R.u32();
    uint64_t Length = R.u64();
    uint64_t Checksum = R.u64();
    if (!R.take(Length))
      return false;
    const uint8_t *Payload = Bytes.data() + R.Pos;
    R.Pos += Length;
    if (fnv1a(Payload, Length) != Checksum)
      return false;
    switch (Tag) {
    case SectionResult:
      if (!decodeResultSection(Payload, Length, Decoded.Insens))
        return false;
      HaveResult = true;
      break;
    case SectionMetrics:
      if (!decodeMetricsSection(Payload, Length, Decoded.Metrics))
        return false;
      HaveMetrics = true;
      break;
    default:
      // Unknown (future) sections are skipped: the checksum already
      // validated them, and version skew in the other direction is caught
      // by FormatVersion.
      break;
    }
  }
  if (!R.Ok || R.Pos != R.Size || !HaveResult || !HaveMetrics)
    return false;
  Out = std::move(Decoded);
  return true;
}

//===----------------------------------------------------------------------===//
// ResultCache.
//===----------------------------------------------------------------------===//

std::string ResultCache::entryPath(const Fingerprint &Fp) const {
  return (fs::path(Opts.Directory) / (toHex(Fp) + ".pac")).string();
}

bool ResultCache::lookup(const Fingerprint &Fp, CachedPassA &Out) {
  TRACE_SPAN("cache.lookup");
  TRACE_COUNTER("cache.probe", 1);
  NProbes.fetch_add(1, std::memory_order_relaxed);

  std::string Path = entryPath(Fp);
  std::vector<uint8_t> Bytes;
  {
    std::ifstream In(Path, std::ios::binary);
    if (!In) {
      TRACE_COUNTER("cache.miss", 1);
      NMisses.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    In.seekg(0, std::ios::end);
    std::streamoff Size = In.tellg();
    if (Size < 0) {
      TRACE_COUNTER("cache.miss", 1);
      NMisses.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    In.seekg(0, std::ios::beg);
    Bytes.resize(static_cast<size_t>(Size));
    if (Size > 0 && !In.read(reinterpret_cast<char *>(Bytes.data()), Size)) {
      TRACE_COUNTER("cache.miss", 1);
      TRACE_COUNTER("cache.miss_corrupt", 1);
      NMisses.fetch_add(1, std::memory_order_relaxed);
      NCorrupt.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }

  if (!decodeEntry(Bytes, Fp, Out)) {
    // The file existed but did not decode: short write, bit rot, foreign
    // format, or version skew.  All of these are "corrupt" for counting
    // purposes — and all are a plain miss for the caller.
    TRACE_COUNTER("cache.miss", 1);
    TRACE_COUNTER("cache.miss_corrupt", 1);
    NMisses.fetch_add(1, std::memory_order_relaxed);
    NCorrupt.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  TRACE_COUNTER("cache.hit", 1);
  NHits.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool ResultCache::store(const Fingerprint &Fp, const CachedPassA &Entry) {
  TRACE_SPAN("cache.store");
  std::lock_guard<std::mutex> Lock(StoreMutex);

  std::error_code Ec;
  fs::create_directories(Opts.Directory, Ec);
  if (Ec) {
    TRACE_COUNTER("cache.store_failure", 1);
    NStoreFailures.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  std::vector<uint8_t> Bytes = encodeEntry(Fp, Entry);

  // Each store writes a temp file it created exclusively (O_EXCL), so no
  // two writers — other processes, or other handles in this one — ever
  // share a temp file; the final rename is atomic within the directory:
  // last write wins, readers never see a torn entry.
  std::string TempPath;
  int Fd;
  do {
    TempPath =
        (fs::path(Opts.Directory) /
         (toHex(Fp) + ".tmp." + std::to_string(::getpid()) + "." +
          std::to_string(TempSeq.fetch_add(1, std::memory_order_relaxed))))
            .string();
    Fd = ::open(TempPath.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC,
                0666);
  } while (Fd < 0 && (errno == EEXIST || errno == EINTR));
  if (Fd < 0) {
    TRACE_COUNTER("cache.store_failure", 1);
    NStoreFailures.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  bool Written = writeAll(Fd, Bytes);
  if (::close(Fd) != 0 || !Written) {
    TRACE_COUNTER("cache.store_failure", 1);
    NStoreFailures.fetch_add(1, std::memory_order_relaxed);
    std::remove(TempPath.c_str());
    return false;
  }
  std::string FinalPath = entryPath(Fp);
  fs::rename(TempPath, FinalPath, Ec);
  if (Ec) {
    // The publish step itself failed (read-only directory, the final path
    // occupied by a directory, a filesystem boundary).  Distinct instant
    // from the plain counter so a trace shows *which* store died and with
    // what errno — a silent miss here used to look like cache churn.
    TRACE_INSTANT("cache.store_rename_failed", Ec.value());
    TRACE_COUNTER("cache.store_failure", 1);
    NStoreFailures.fetch_add(1, std::memory_order_relaxed);
    std::remove(TempPath.c_str());
    return false;
  }

  TRACE_COUNTER("cache.store", 1);
  NStores.fetch_add(1, std::memory_order_relaxed);

  if (Opts.MaxEntries > 0) {
    // Deterministic eviction: sorted-filename order, never the entry just
    // stored.  (A pure LRU would depend on probe timing; this cap is a
    // size guard, not a tuning knob.)
    std::string KeepName = toHex(Fp) + ".pac";
    std::vector<std::string> Names;
    for (const fs::directory_entry &DirEntry :
         fs::directory_iterator(Opts.Directory, Ec)) {
      if (Ec)
        break;
      std::string Name = DirEntry.path().filename().string();
      if (Name.size() == 36 && Name.ends_with(".pac"))
        Names.push_back(Name);
    }
    if (Names.size() > Opts.MaxEntries) {
      std::sort(Names.begin(), Names.end());
      size_t Surplus = Names.size() - Opts.MaxEntries;
      for (const std::string &Name : Names) {
        if (Surplus == 0)
          break;
        if (Name == KeepName)
          continue;
        fs::remove(fs::path(Opts.Directory) / Name, Ec);
        if (!Ec) {
          --Surplus;
          TRACE_COUNTER("cache.evict", 1);
          NEvictions.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  }
  return true;
}

CacheStats ResultCache::stats() const {
  CacheStats Stats;
  Stats.Probes = NProbes.load(std::memory_order_relaxed);
  Stats.Hits = NHits.load(std::memory_order_relaxed);
  Stats.Misses = NMisses.load(std::memory_order_relaxed);
  Stats.CorruptEntries = NCorrupt.load(std::memory_order_relaxed);
  Stats.Stores = NStores.load(std::memory_order_relaxed);
  Stats.StoreFailures = NStoreFailures.load(std::memory_order_relaxed);
  Stats.Evictions = NEvictions.load(std::memory_order_relaxed);
  return Stats;
}
