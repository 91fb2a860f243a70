//===- perfbench/harness.cpp - Workload runner of the repo benchmark ------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one benchmark workload against the repo's public API and writes
/// every raw measurement as one JSON document; perfbench/run.py turns that
/// document into metrics and checks it.  The harness only measures — it
/// computes no percentiles and judges no outputs.
///
///   perfbench_harness --workload=sweep|batch-cold|serve-mix --seed=N
///                     --seconds=S --trace=0|1 --out=FILE --work-dir=DIR
///                     [--serve-bin=PATH]
///
/// Workloads:
///   sweep       the Figures 5-7 matrix in process, one thread, no cache;
///   batch-cold  runSupervisedBatch over a seeded corpus, 2 workers, a
///               fresh Pass-A cache directory per batch, --no-deep ladder;
///   serve-mix   an intro_serve daemon fed a seeded open-loop Poisson
///               schedule over at most 4 client connections, the client
///               and the daemon pinned to one CPU.
///
/// With --trace=1 the harness additionally times one traced pass: a span
/// around every call it makes into a module's public functions, grouped
/// by cell or job, kept in memory and written with the document.  The
/// program under test is not instrumented.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "analysis/ContextPolicy.h"
#include "analysis/Solver.h"
#include "cache/Fingerprint.h"
#include "cache/ResultCache.h"
#include "frontend/Parser.h"
#include "frontend/Printer.h"
#include "fuzz/Generator.h"
#include "introspect/Driver.h"
#include "ir/Validator.h"
#include "serve/Client.h"
#include "supervise/Supervise.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "support/Socket.h"
#include "support/Timer.h"
#include "workload/DaCapo.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <csignal>
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace intro;
using intro::bench::deepBudget;
using intro::bench::Flavor;
using intro::bench::makeFlavor;
namespace fs = std::filesystem;

namespace {

/// Set-up runs this many times per run; run.py reports the median.
constexpr int SetupRepeats = 15;

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Out;
  std::string WorkDir;
  std::string ServeBin;
};

/// Seconds since the harness started, on the steady clock every span and
/// schedule timestamp shares.
const Timer &epoch() {
  static const Timer Epoch;
  return Epoch;
}
double now() { return epoch().seconds(); }

//===----------------------------------------------------------------------===//
// Spans: in-memory, written out once at the end.
//===----------------------------------------------------------------------===//

struct SpanRecord {
  std::string Name; ///< "<layer>.<public function>".
  uint64_t Group;   ///< The cell or job the call served.
  double Start, End;
  int64_t Parent; ///< Index of the enclosing span on this thread, or -1.
};

class SpanLog {
public:
  bool Enabled = false;

  class Scope {
  public:
    Scope(SpanLog &Log, const char *Name, uint64_t Group) : Log(Log) {
      if (!Log.Enabled)
        return;
      Index = Log.open(Name, Group);
    }
    ~Scope() {
      if (Index >= 0)
        Log.close(Index);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanLog &Log;
    int64_t Index = -1;
  };

  void write(JsonWriter &J) const {
    J.beginArray();
    for (const SpanRecord &S : Spans) {
      J.beginObject();
      J.key("name");
      J.value(S.Name);
      J.key("group");
      J.value(S.Group);
      J.key("start");
      J.value(S.Start);
      J.key("end");
      J.value(S.End);
      J.key("parent");
      J.value(static_cast<int64_t>(S.Parent));
      J.endObject();
    }
    J.endArray();
  }

private:
  int64_t open(const char *Name, uint64_t Group) {
    std::lock_guard<std::mutex> Lock(Mutex);
    int64_t Index = static_cast<int64_t>(Spans.size());
    Spans.push_back({Name, Group, now(), 0, Current});
    Current = Index;
    return Index;
  }
  void close(int64_t Index) {
    double End = now();
    std::lock_guard<std::mutex> Lock(Mutex);
    Spans[Index].End = End;
    Current = Spans[Index].Parent;
  }

  std::mutex Mutex; ///< Guards Spans.
  std::vector<SpanRecord> Spans;
  static thread_local int64_t Current;
};
thread_local int64_t SpanLog::Current = -1;

SpanLog Spans;

#define SPAN_CAT2(A, B) A##B
#define SPAN_CAT(A, B) SPAN_CAT2(A, B)
#define SPAN(Name, Group)                                                      \
  SpanLog::Scope SPAN_CAT(SpanScope, __LINE__)(Spans, Name, Group)

//===----------------------------------------------------------------------===//
// Small helpers.
//===----------------------------------------------------------------------===//

void writeSolve(JsonWriter &J, const SolverStats &S, bool Completed) {
  J.beginObject();
  J.key("seconds");
  J.value(S.Seconds);
  J.key("completed");
  J.value(Completed);
  J.key("tuples");
  J.value(S.VarPointsToTuples + S.FieldPointsToTuples);
  J.key("worklist_pops");
  J.value(S.WorklistPops);
  J.key("nodes");
  J.value(S.NumVarNodes + S.NumFieldNodes);
  J.key("contexts");
  J.value(S.NumContexts);
  J.key("reachable_method_contexts");
  J.value(S.ReachableMethodContexts);
  J.key("call_graph_edges");
  J.value(S.CallGraphEdges);
  J.key("batch_unions");
  J.value(S.BatchUnions);
  J.key("element_probes");
  J.value(S.ElementProbes);
  J.key("dense_sets");
  J.value(S.DensePointsToSets);
  J.key("approx_bytes");
  J.value(S.ApproxBytes);
  J.endObject();
}

void writeCacheStats(JsonWriter &J, const cache::CacheStats &C) {
  J.beginObject();
  J.key("probes");
  J.value(C.Probes);
  J.key("hits");
  J.value(C.Hits);
  J.key("corrupt");
  J.value(C.CorruptEntries);
  J.key("stores");
  J.value(C.Stores);
  J.key("store_failures");
  J.value(C.StoreFailures);
  J.endObject();
}

/// A seeded fuzz program as text.  Seed and index pick the generator seed;
/// the index also rotates through every bias.
std::string fuzzSource(uint64_t Seed, uint64_t Index) {
  auto Bias = static_cast<fuzz::FuzzBias>(Index % fuzz::NumFuzzBiases);
  return printProgram(fuzz::generateFuzzProgram(
      Seed * 1'000'003ull + Index, Bias));
}

/// The serve program pool is fixed; the seed draws the schedule from it,
/// so the tail does not depend on which shapes one seed generated.
constexpr uint64_t PoolSeed = 1;

/// A program of the serve pool: the uniform bias only, so every job costs
/// about the same and the latency spread is the serve path's own (the
/// batch corpus covers the other biases).
std::string poolSource(uint64_t Index) {
  return printProgram(fuzz::generateFuzzProgram(
      PoolSeed * 1'000'003ull + Index, fuzz::FuzzBias::Uniform));
}

/// Options every supervised job of the benchmark runs under: the
/// intro_batch / intro_serve defaults plus --no-deep and 2 workers.
supervise::BatchOptions jobOptions(const std::string &CacheDir) {
  supervise::BatchOptions Options;
  Options.Ladder.AttemptDeep = false;
  Options.Limits.WallDeadlineSeconds = 60;
  Options.Workers = 2;
  Options.CacheDir = CacheDir;
  return Options;
}

/// Runs \p Jobs through runSupervisedBatch, keeping each job's final
/// report line (the last line of its last attempt that carries a schema).
supervise::BatchResult runBatchKeepingReports(
    const std::vector<supervise::JobSpec> &Jobs,
    const supervise::BatchOptions &Options, std::vector<std::string> &Lines) {
  std::vector<std::string> Buffers(Jobs.size());
  Lines.assign(Jobs.size(), std::string());
  supervise::BatchResult Batch = supervise::runSupervisedBatch(
      Jobs, Options, [&](size_t Index) {
        supervise::JobHooks Hooks;
        Hooks.OnChildOutput = [&, Index](uint32_t, std::string_view Chunk) {
          std::string &Buffer = Buffers[Index];
          Buffer.append(Chunk);
          size_t Newline;
          while ((Newline = Buffer.find('\n')) != std::string::npos) {
            std::string Line = Buffer.substr(0, Newline);
            Buffer.erase(0, Newline + 1);
            if (Line.find("\"schema\"") != std::string::npos)
              Lines[Index] = std::move(Line);
          }
        };
        return Hooks;
      });
  return Batch;
}

/// Pins the calling thread, and every thread and process it starts while
/// pinned, to the last CPU it may run on; the destructor restores the
/// affinity it found.  On a shared virtual machine short work, and work
/// that hands off between threads, is far steadier on one CPU than spread
/// over several whose speed and wake-up latency drift apart with the
/// host's load (README.md): every set-up runs pinned, and serve-mix runs
/// pinned throughout.
class PinnedToOneCpu {
public:
  PinnedToOneCpu() {
    if (sched_getaffinity(0, sizeof(Saved), &Saved) != 0)
      return;
    for (int Cpu = CPU_SETSIZE - 1; Cpu >= 0; --Cpu)
      if (CPU_ISSET(Cpu, &Saved)) {
        cpu_set_t One;
        CPU_ZERO(&One);
        CPU_SET(Cpu, &One);
        Pinned = sched_setaffinity(0, sizeof(One), &One) == 0;
        return;
      }
  }
  ~PinnedToOneCpu() {
    if (Pinned)
      sched_setaffinity(0, sizeof(Saved), &Saved);
  }
  PinnedToOneCpu(const PinnedToOneCpu &) = delete;
  PinnedToOneCpu &operator=(const PinnedToOneCpu &) = delete;

private:
  cpu_set_t Saved;
  bool Pinned = false;
};

uint64_t ParsedBytes = 0; ///< Source bytes the replica parsed.

/// The in-process replica of one job's front half: the calls a supervised
/// child makes around its solver (parse, validate, fingerprint, Pass-A
/// probe, store), each in its own span.  The replica probes \p Replica, a
/// cache that starts empty, so a program's first job misses and its
/// repeats hit, as the real jobs did; on a miss it stores the entry the
/// real job left in \p Filled (read untimed).
void replicateJobFrontHalf(const std::string &Source, uint64_t Group,
                           cache::ResultCache &Filled,
                           cache::ResultCache &Replica) {
  ParsedBytes += Source.size();
  ParseResult Parsed;
  {
    SPAN("frontend.parseProgram", Group);
    Parsed = parseProgram(Source);
  }
  if (!Parsed.Errors.empty())
    return;
  {
    SPAN("ir.validateProgram", Group);
    if (!validateProgram(Parsed.Prog).empty())
      return;
  }
  cache::Fingerprint Key;
  {
    SPAN("cache.fingerprintProgram", Group);
    Key = cache::fingerprintProgram(Parsed.Prog);
  }
  cache::CachedPassA Entry;
  bool Hit;
  {
    SPAN("cache.probe", Group);
    Hit = Replica.lookup(Key, Entry);
  }
  if (!Hit && Filled.lookup(Key, Entry)) {
    SPAN("cache.store", Group);
    Replica.store(Key, Entry);
  }
}

//===----------------------------------------------------------------------===//
// sweep: the Figures 5-7 matrix in process.
//===----------------------------------------------------------------------===//

constexpr Flavor Flavors[] = {Flavor::Object, Flavor::Type, Flavor::CallSite};
constexpr const char *CellKinds[] = {"insens", "IntroA", "IntroB", "full"};

/// One matrix cell: flavor, subject and analysis kind, in figure order.
struct Cell {
  size_t FlavorIndex, Subject, Kind;
};

void runCell(JsonWriter &J, const Cell &C, const Program &Prog,
             const std::string &SubjectName, uint64_t Group) {
  Flavor F = Flavors[C.FlavorIndex];
  J.beginObject();
  J.key("figure");
  J.value(static_cast<uint64_t>(5 + C.FlavorIndex));
  J.key("subject");
  J.value(SubjectName);
  J.key("kind");
  J.value(CellKinds[C.Kind]);
  Timer Wall;
  if (C.Kind == 0 || C.Kind == 3) {
    auto Policy = C.Kind == 0 ? makeInsensitivePolicy() : makeFlavor(F, Prog);
    ContextTable Table;
    SolverOptions Options;
    Options.Budget = deepBudget();
    PointsToResult Result;
    {
      SPAN("analysis.solvePointsTo", Group);
      Result = solvePointsTo(Prog, *Policy, Table, Options);
    }
    double Seconds = Wall.seconds();
    J.key("wall_seconds");
    J.value(Seconds);
    J.key("analysis");
    J.value(Policy->name());
    J.key("status");
    J.value(statusName(Result.Status));
    J.key("final");
    writeSolve(J, Result.Stats, isCompleted(Result.Status));
    J.key("solves");
    J.beginArray();
    writeSolve(J, Result.Stats, isCompleted(Result.Status));
    J.endArray();
  } else {
    IntrospectiveOptions Options;
    Options.Heuristic = C.Kind == 1 ? HeuristicKind::A : HeuristicKind::B;
    Options.SecondPassBudget = deepBudget();
    auto Refined = makeFlavor(F, Prog);
    IntrospectiveOutcome Out;
    {
      SPAN("introspect.runIntrospective", Group);
      Out = runIntrospective(Prog, *Refined, Options);
    }
    double Seconds = Wall.seconds();
    J.key("wall_seconds");
    J.value(Seconds);
    J.key("analysis");
    J.value(Out.SecondPass.AnalysisName);
    J.key("status");
    J.value(statusName(Out.SecondPass.Status));
    J.key("final");
    writeSolve(J, Out.SecondPass.Stats, isCompleted(Out.SecondPass.Status));
    J.key("solves");
    J.beginArray();
    writeSolve(J, Out.FirstPass.Stats, isCompleted(Out.FirstPass.Status));
    writeSolve(J, Out.SecondPass.Stats, isCompleted(Out.SecondPass.Status));
    J.endArray();
    J.key("pass_a_seconds");
    J.value(Out.FirstPassSeconds);
    J.key("metric_seconds");
    J.value(Out.MetricSeconds);
    J.key("pass_b_seconds");
    J.value(Out.SecondPassSeconds);
  }
  J.endObject();
}

void runSweep(const Args &A, JsonWriter &J) {
  std::vector<WorkloadProfile> Subjects = scalabilitySubjects();
  std::vector<Program> Programs;
  J.key("setup_seconds");
  J.beginArray();
  {
    PinnedToOneCpu Pin;
    for (int Rep = 0; Rep < SetupRepeats; ++Rep) {
      Timer Setup;
      Programs.clear();
      for (const WorkloadProfile &Profile : Subjects)
        Programs.push_back(generateWorkload(Profile));
      J.value(Setup.seconds());
    }
  }
  J.endArray();

  // The figures' own cells in figure order; the matrix has no seeded
  // input (a seeded order would only add cache and allocator noise).
  std::vector<Cell> Cells;
  for (size_t F = 0; F < 3; ++F)
    for (size_t S = 0; S < Subjects.size(); ++S)
      for (size_t K = 0; K < 4; ++K)
        Cells.push_back({F, S, K});

  auto Pass = [&](bool Traced) {
    Spans.Enabled = Traced;
    J.beginObject();
    J.key("traced");
    J.value(Traced);
    J.key("cells");
    J.beginArray();
    Timer Wall;
    for (size_t Index = 0; Index < Cells.size(); ++Index) {
      const Cell &C = Cells[Index];
      runCell(J, C, Programs[C.Subject], Subjects[C.Subject].Name, Index);
    }
    J.endArray();
    double Seconds = Wall.seconds();
    J.key("wall_seconds");
    J.value(Seconds);
    J.endObject();
    Spans.Enabled = false;
    return Seconds;
  };

  J.key("passes");
  J.beginArray();
  Timer Measure;
  double Last = Pass(false);
  if (A.Trace)
    Pass(true);
  else
    while (Measure.seconds() + Last <= A.Seconds)
      Last = Pass(false);
  J.endArray();
}

//===----------------------------------------------------------------------===//
// batch-cold: supervised local batches over a seeded corpus.
//===----------------------------------------------------------------------===//

/// Small batches, repeated until --seconds is spent: the run's median
/// batch is then robust to how many batches fit.
constexpr size_t FuzzJobsPerBatch = 246;
/// Chart-shaped programs per batch (fixed variants of the DaCapo chart
/// profile, whose --no-deep ladder completes in about 0.15 s; the exploding
/// jython and hsqldb profiles are left out).  Eight of 255 jobs, so the
/// batch's p99 job is one of them: its tail is analysis work, not the
/// scheduling noise of the tiny jobs.
constexpr size_t HeavyJobsPerBatch = 8;

struct CorpusJob {
  supervise::JobSpec Spec;
  std::string Expected; ///< The outcome class the job must end with.
};

std::vector<CorpusJob> makeCorpus(uint64_t Seed, const fs::path &Dir) {
  struct CorpusFile {
    std::string Name;
    const char *Expected; ///< The outcome class the job must end with.
    std::function<std::string()> Text;
  };
  std::vector<CorpusFile> Files;
  // Heavy jobs spread evenly through the batch, so no worker ends the
  // batch with a queue of them.
  size_t Heavy = 0;
  for (size_t Index = 0; Index < FuzzJobsPerBatch; ++Index) {
    if (Index % (FuzzJobsPerBatch / HeavyJobsPerBatch) == 0 &&
        Heavy < HeavyJobsPerBatch) {
      // Fixed variants: the batch tail is these jobs, and it should not
      // move with the seed.
      Files.push_back({"chart-" + std::to_string(Heavy), "clean", [Heavy] {
                         WorkloadProfile Profile = dacapoProfile("chart");
                         Profile.Seed = 1'000'003ull + Heavy;
                         return printProgram(generateWorkload(Profile));
                       }});
      ++Heavy;
    }
    Files.push_back({"fuzz-" + std::to_string(Index), "clean",
                     [Seed, Index] { return fuzzSource(Seed, Index); }});
  }
  // One input cut off mid-program: the supervisor must classify it as bad
  // input without retrying it.
  Files.push_back({"broken", "bad_input", [Seed] {
                     std::string Text = fuzzSource(Seed, FuzzJobsPerBatch);
                     return Text.substr(0, Text.size() / 2);
                   }});

  fs::create_directories(Dir);
  for (const CorpusFile &File : Files)
    std::ofstream(Dir / (File.Name + ".intro"), std::ios::binary)
        << File.Text();

  // Read the corpus back, as intro_batch does.
  std::vector<CorpusJob> Jobs;
  for (const CorpusFile &File : Files) {
    std::ifstream In(Dir / (File.Name + ".intro"), std::ios::binary);
    std::ostringstream Text;
    Text << In.rdbuf();
    Jobs.push_back({{File.Name, Text.str(), {}}, File.Expected});
  }
  return Jobs;
}

/// Writes one job's record, leaving the object open for the caller's
/// extra members.
void writeJobResult(JsonWriter &J, const supervise::JobResult &R,
                    const std::string &Expected) {
  J.beginObject();
  J.key("name");
  J.value(R.Name);
  J.key("expected");
  J.value(Expected);
  J.key("class");
  J.value(supervise::jobOutcomeClassName(R.FinalClass));
  J.key("attempt_seconds");
  J.beginArray();
  for (const supervise::JobAttempt &Attempt : R.Attempts)
    J.value(Attempt.Seconds);
  J.endArray();
  J.key("ladder");
  J.beginArray();
  if (!R.Attempts.empty())
    for (const Attempt &Rung : R.Attempts.back().Ladder) {
      J.beginObject();
      J.key("level");
      J.value(degradationLevelName(Rung.Level));
      J.key("status");
      J.value(statusName(Rung.Status));
      J.key("solve");
      writeSolve(J, Rung.Stats, isCompleted(Rung.Status));
      J.endObject();
    }
  J.endArray();
  cache::CacheStats Cache;
  for (const supervise::JobAttempt &Attempt : R.Attempts) {
    Cache.Probes += Attempt.Cache.Probes;
    Cache.Hits += Attempt.Cache.Hits;
    Cache.CorruptEntries += Attempt.Cache.CorruptEntries;
    Cache.Stores += Attempt.Cache.Stores;
    Cache.StoreFailures += Attempt.Cache.StoreFailures;
  }
  J.key("cache");
  writeCacheStats(J, Cache);
}

void runBatch(const Args &A, JsonWriter &J) {
  std::vector<CorpusJob> Corpus;
  J.key("setup_seconds");
  J.beginArray();
  auto CorpusDir = [&](int Rep) {
    return fs::path(A.WorkDir) / ("corpus-" + std::to_string(Rep));
  };
  {
    PinnedToOneCpu Pin;
    for (int Rep = 0; Rep < SetupRepeats; ++Rep) {
      // A fresh directory each time; the previous one is removed untimed.
      if (Rep > 0)
        fs::remove_all(CorpusDir(Rep - 1));
      ::sync(); // Start from no dirty pages, as each batch pass does.
      Timer Setup;
      Corpus = makeCorpus(A.Seed, CorpusDir(Rep));
      J.value(Setup.seconds());
    }
  }
  J.endArray();
  std::vector<supervise::JobSpec> Jobs;
  for (const CorpusJob &Job : Corpus)
    Jobs.push_back(Job.Spec);

  size_t PassIndex = 0;
  auto Pass = [&](bool Traced) {
    std::string CacheDir =
        (fs::path(A.WorkDir) / ("cache-" + std::to_string(PassIndex++)))
            .string();
    supervise::BatchOptions Options = jobOptions(CacheDir);
    // Every pass starts with no dirty pages left from the one before, so
    // its cache writes do not queue behind a predecessor's writeback.
    ::sync();
    Spans.Enabled = Traced;
    supervise::BatchResult Batch;
    std::vector<std::string> Lines;
    Timer Wall;
    if (Traced) {
      SPAN("supervise.runSupervisedBatch", 0);
      Batch = runBatchKeepingReports(Jobs, Options, Lines);
    } else {
      Batch = supervise::runSupervisedBatch(Jobs, Options);
    }
    double Seconds = Wall.seconds();
    J.beginObject();
    J.key("traced");
    J.value(Traced);
    J.key("wall_seconds");
    J.value(Seconds);
    J.key("jobs");
    J.beginArray();
    for (size_t Index = 0; Index < Batch.Jobs.size(); ++Index) {
      writeJobResult(J, Batch.Jobs[Index], Corpus[Index].Expected);
      if (Traced) {
        J.key("report");
        J.value(Lines[Index]);
      }
      J.endObject();
    }
    J.endArray();
    J.endObject();
    if (Traced) {
      // Spans of the front half of every job, group = job index + 1.
      fs::path Replica = fs::path(A.WorkDir) / "replica-cache";
      cache::ResultCache Filled({CacheDir, 0});
      cache::ResultCache Fresh({Replica.string(), 0});
      for (size_t Index = 0; Index < Jobs.size(); ++Index)
        replicateJobFrontHalf(Jobs[Index].Source, Index + 1, Filled, Fresh);
      fs::remove_all(Replica);
    }
    Spans.Enabled = false;
    fs::remove_all(CacheDir);
    return Seconds;
  };

  J.key("passes");
  J.beginArray();
  Timer Measure;
  double Last = Pass(false);
  if (A.Trace)
    Pass(true);
  else
    while (Measure.seconds() + Last <= A.Seconds)
      Last = Pass(false);
  J.endArray();
}

//===----------------------------------------------------------------------===//
// serve-mix: an intro_serve daemon under an open loop.
//===----------------------------------------------------------------------===//

/// Offered load of the open loop, in submits per second.
constexpr double OfferedRate = 10;
constexpr unsigned Connections = 4;
constexpr uint32_t HotPrograms = 16;

/// A spawned intro_serve process; the destructor stops and reaps it.
class Daemon {
public:
  Daemon(const std::string &Bin, const std::string &Socket,
         const std::string &CacheDir) {
    int Pipe[2];
    if (pipe2(Pipe, O_CLOEXEC) != 0)
      throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t Actions;
    posix_spawn_file_actions_init(&Actions);
    posix_spawn_file_actions_adddup2(&Actions, Pipe[1], STDOUT_FILENO);
    std::vector<std::string> Argv = {Bin, "--socket=" + Socket, "--workers=2",
                                     "--no-deep", "--cache-dir=" + CacheDir};
    std::vector<char *> Raw;
    for (std::string &Arg : Argv)
      Raw.push_back(Arg.data());
    Raw.push_back(nullptr);
    int Error = posix_spawn(&Pid, Bin.c_str(), &Actions, nullptr, Raw.data(),
                            environ);
    posix_spawn_file_actions_destroy(&Actions);
    ::close(Pipe[1]);
    if (Error != 0) {
      ::close(Pipe[0]);
      Pid = -1;
      throw std::runtime_error("cannot start " + Bin);
    }
    OutFd = Pipe[0];
    try {
      waitListening();
    } catch (...) {
      stop();
      throw;
    }
    Drainer = std::thread([Fd = OutFd] {
      char Buffer[512];
      while (::read(Fd, Buffer, sizeof(Buffer)) > 0) {
      }
    });
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

private:
  /// Reads stdout until the "listening" line; the drainer thread then
  /// keeps reading so the daemon never blocks on a full pipe.
  void waitListening() {
    std::string Seen;
    Timer Waited;
    while (Seen.find("listening") == std::string::npos) {
      pollfd P{OutFd, POLLIN, 0};
      if (Waited.seconds() > 30 || poll(&P, 1, 1000) < 0)
        throw std::runtime_error("daemon did not start listening");
      if (!P.revents)
        continue;
      char Buffer[512];
      ssize_t Got = ::read(OutFd, Buffer, sizeof(Buffer));
      if (Got <= 0)
        throw std::runtime_error("daemon exited before listening");
      Seen.append(Buffer, static_cast<size_t>(Got));
    }
  }

  /// SIGTERM (the daemon drains and exits), SIGKILL after 20 s; reaps the
  /// process and joins the drainer.
  void stop() {
    if (Pid > 0) {
      ::kill(Pid, SIGTERM);
      int Status = 0;
      Timer Waited;
      while (waitpid(Pid, &Status, WNOHANG) == 0) {
        if (Waited.seconds() > 20) {
          ::kill(Pid, SIGKILL);
          waitpid(Pid, &Status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      Pid = -1;
    }
    if (Drainer.joinable())
      Drainer.join();
    if (OutFd >= 0)
      ::close(OutFd);
    OutFd = -1;
  }

  pid_t Pid = -1;
  int OutFd = -1;
  std::thread Drainer;
};

struct Submit {
  double Due;          ///< Offset into the schedule, seconds.
  uint32_t Program;    ///< Index into the pool.
};

struct SubmitRecord {
  double Due = 0, Dispatch = 0, FirstLine = -1, FinalLine = -1, Done = 0;
  bool Ok = false;
  std::string Error;
  serve::SubmitOutcome Outcome;
};

/// The seeded Poisson schedule at OfferedRate for \p Seconds.  Half the
/// submits draw from HotPrograms repeated programs (warm Pass-A hits), the
/// rest take the pool's next first-seen program (misses and stores); one
/// in twenty repeats its predecessor's program at the same instant (a
/// concurrent duplicate).  These proportions are an assumed mix, not a
/// measured one; run.py reports the hit share they produce.
std::vector<Submit> makeSchedule(uint64_t Seed, double Seconds,
                                 uint32_t &PoolSize) {
  // A Poisson process conditioned on its count: OfferedRate * Seconds
  // arrivals at sorted uniform instants, so every seed offers the same load.
  Rng R(Seed ^ 0x5e27e);
  std::vector<double> Dues(static_cast<size_t>(OfferedRate * Seconds));
  for (double &Due : Dues)
    Due = static_cast<double>(R.next() >> 11) * 0x1.0p-53 * Seconds;
  std::sort(Dues.begin(), Dues.end());
  std::vector<Submit> Schedule;
  uint32_t NextCold = HotPrograms;
  for (double Due : Dues) {
    bool Duplicate = !Schedule.empty() && R.chance(50);
    uint32_t Program = Duplicate        ? Schedule.back().Program
                       : R.chance(500) ? R.below(HotPrograms)
                                        : NextCold++;
    Schedule.push_back({Duplicate ? Schedule.back().Due : Due, Program});
  }
  PoolSize = NextCold;
  return Schedule;
}

std::string programName(uint32_t Program) {
  return (Program < HotPrograms ? "hot-" : "cold-") + std::to_string(Program);
}

/// Feeds \p Schedule to the daemon at \p Socket over Connections client
/// connections.  Each connection takes the next due submit, waits until
/// it is due, and sends it; when every connection is busy the generator
/// runs late, and the lateness is recorded (Dispatch - Due).
std::vector<SubmitRecord> runOpenLoop(const std::string &Socket,
                                      const std::vector<Submit> &Schedule,
                                      const std::vector<std::string> &Pool,
                                      bool Traced) {
  std::vector<SubmitRecord> Records(Schedule.size());
  std::atomic<size_t> Next{0};
  double Start = now() + 0.05;
  auto Connection = [&] {
    serve::Client Client;
    std::string ConnectError;
    bool Connected = Client.connect(Socket, ConnectError);
    while (true) {
      size_t Index = Next.fetch_add(1);
      if (Index >= Schedule.size())
        return;
      SubmitRecord &R = Records[Index];
      R.Due = Start + Schedule[Index].Due;
      // Sleep to within 2 ms of the due time, then spin: a sleeping
      // thread can wake a millisecond late on an idle machine, and that
      // would be the generator's lateness, not the daemon's.
      double Wait = R.Due - now() - 0.002;
      if (Wait > 0)
        std::this_thread::sleep_for(std::chrono::duration<double>(Wait));
      while (now() < R.Due) {
      }
      R.Dispatch = now();
      if (!Connected) {
        R.Error = "connect: " + ConnectError;
        R.Done = now();
        continue;
      }
      uint32_t Program = Schedule[Index].Program;
      SPAN("serve.Client.submit", Index + 1);
      R.Ok = Client.submit(
          programName(Program), Pool[Program], 60, "",
          [&R](uint64_t, const std::string &Line) {
            double At = now();
            if (R.FirstLine < 0)
              R.FirstLine = At;
            if (Line.find("\"schema\"") != std::string::npos)
              R.FinalLine = At;
          },
          R.Outcome, R.Error);
      R.Done = now();
    }
  };
  Spans.Enabled = Traced;
  std::vector<std::thread> Threads;
  for (unsigned Index = 0; Index < Connections; ++Index)
    Threads.emplace_back(Connection);
  for (std::thread &T : Threads)
    T.join();
  Spans.Enabled = false;
  return Records;
}

/// The daemon's `stats` op, as its raw JSON frame.
std::string serverStats(const std::string &Socket) {
  serve::Client Client;
  std::string Error, Reply;
  if (!Client.connect(Socket, Error) ||
      !Client.send("{\"op\": \"stats\"}", Error) || !Client.recv(Reply, Error))
    return "{}";
  return Reply;
}

void runServe(const Args &A, JsonWriter &J) {
  // The client, the daemon, its workers and the job children share one
  // CPU, which the client's pre-dispatch spin keeps awake: a submit's
  // thread hand-offs then never wait for an idle virtual CPU to be woken.
  PinnedToOneCpu Pin;
  uint32_t PoolSize = 0;
  std::vector<Submit> Schedule;
  std::vector<std::string> Pool;
  std::optional<Daemon> Server;
  size_t DaemonCount = 0;
  auto Fresh = [&](const char *What) {
    std::string Tag = std::string(What) + std::to_string(DaemonCount++);
    return (fs::path(A.WorkDir) / Tag).string();
  };
  std::string Socket, CacheDir;

  J.key("setup_seconds");
  J.beginArray();
  for (int Rep = 0; Rep < SetupRepeats; ++Rep) {
    Server.reset();
    Timer Setup;
    Schedule = makeSchedule(A.Seed, A.Seconds, PoolSize);
    Pool.clear();
    for (uint32_t Program = 0; Program < PoolSize; ++Program)
      Pool.push_back(poolSource(Program));
    Socket = Fresh("s") + ".sock";
    CacheDir = Fresh("cache-");
    Server.emplace(A.ServeBin, Socket, CacheDir);
    J.value(Setup.seconds());
  }
  J.endArray();

  std::vector<bool> Served(PoolSize, false);
  auto Pass = [&](bool Traced) {
    std::vector<SubmitRecord> Records =
        runOpenLoop(Socket, Schedule, Pool, Traced);
    std::string Stats = serverStats(Socket);
    J.beginObject();
    J.key("traced");
    J.value(Traced);
    J.key("server_stats");
    J.value(Stats);
    J.key("submits");
    J.beginArray();
    for (size_t Index = 0; Index < Records.size(); ++Index) {
      const SubmitRecord &R = Records[Index];
      Served[Schedule[Index].Program] = true;
      J.beginObject();
      J.key("name");
      J.value(programName(Schedule[Index].Program));
      J.key("due");
      J.value(R.Due);
      J.key("dispatch");
      J.value(R.Dispatch);
      J.key("first_line");
      J.value(R.FirstLine);
      J.key("final_line");
      J.value(R.FinalLine);
      J.key("done");
      J.value(R.Done);
      J.key("ok");
      J.value(R.Ok);
      J.key("error");
      J.value(R.Error);
      J.key("state");
      J.value(R.Outcome.State);
      J.key("class");
      J.value(R.Outcome.FinalClass);
      J.key("attempts");
      J.value(R.Outcome.Attempts);
      J.key("cache");
      writeCacheStats(J, R.Outcome.Cache);
      J.key("report");
      J.value(R.Outcome.FinalReportLine);
      J.endObject();
    }
    J.endArray();
    J.endObject();
    if (Traced) {
      // Spans of the front half of every served job, in schedule order:
      // a program's first submit misses and stores, its repeats hit.
      fs::path Replica = fs::path(A.WorkDir) / "replica-cache";
      cache::ResultCache Filled({CacheDir, 0});
      cache::ResultCache Fresh({Replica.string(), 0});
      Spans.Enabled = true;
      for (size_t Index = 0; Index < Schedule.size(); ++Index)
        replicateJobFrontHalf(Pool[Schedule[Index].Program], Index + 1,
                              Filled, Fresh);
      Spans.Enabled = false;
      fs::remove_all(Replica);
    }
  };

  J.key("passes");
  J.beginArray();
  Pass(false);
  if (A.Trace) {
    // The traced pass starts from an empty cache too.
    Server.reset();
    Socket = Fresh("s") + ".sock";
    CacheDir = Fresh("cache-");
    Server.emplace(A.ServeBin, Socket, CacheDir);
    Pass(true);
  }
  J.endArray();
  Server.reset();

  // The reference every served report is checked against: a local
  // supervised run of each served program, without a cache.
  std::vector<supervise::JobSpec> Local;
  for (uint32_t Program = 0; Program < PoolSize; ++Program)
    if (Served[Program])
      Local.push_back({programName(Program), Pool[Program], {}});
  std::vector<std::string> Lines;
  runBatchKeepingReports(Local, jobOptions(""), Lines);
  J.key("local_reports");
  J.beginObject();
  for (size_t Index = 0; Index < Local.size(); ++Index) {
    J.key(Local[Index].Name);
    J.value(Lines[Index]);
  }
  J.endObject();
}

bool parseArgs(int argc, char **argv, Args &A) {
  for (int Index = 1; Index < argc; ++Index) {
    std::string Arg = argv[Index];
    auto Value = [&](const char *Flag, std::string &Out) {
      std::string Prefix = std::string(Flag) + "=";
      if (Arg.compare(0, Prefix.size(), Prefix) != 0)
        return false;
      Out = Arg.substr(Prefix.size());
      return true;
    };
    std::string Text;
    if (Value("--workload", A.Workload) || Value("--out", A.Out) ||
        Value("--work-dir", A.WorkDir) || Value("--serve-bin", A.ServeBin))
      continue;
    if (Value("--seed", Text)) {
      A.Seed = std::stoull(Text);
      continue;
    }
    if (Value("--seconds", Text)) {
      A.Seconds = std::stod(Text);
      continue;
    }
    if (Value("--trace", Text)) {
      A.Trace = Text == "1";
      continue;
    }
    std::cerr << "error: unknown argument '" << Arg << "'\n";
    return false;
  }
  return !A.Workload.empty() && !A.Out.empty() && !A.WorkDir.empty();
}

} // namespace

int main(int argc, char **argv) try {
  ignoreSigPipe();
  Args A;
  if (!parseArgs(argc, argv, A)) {
    std::cerr << "usage: perfbench_harness --workload=W --seed=N --seconds=S "
                 "--trace=0|1 --out=FILE --work-dir=DIR [--serve-bin=PATH]\n";
    return 2;
  }
  fs::create_directories(A.WorkDir);
  std::ofstream Out(A.Out);
  JsonWriter J(Out);
  J.beginObject();
  J.key("workload");
  J.value(A.Workload);
  if (A.Workload == "sweep")
    runSweep(A, J);
  else if (A.Workload == "batch-cold")
    runBatch(A, J);
  else if (A.Workload == "serve-mix")
    runServe(A, J);
  else {
    std::cerr << "error: unknown workload '" << A.Workload << "'\n";
    return 2;
  }
  J.key("parsed_bytes");
  J.value(ParsedBytes);
  J.key("spans");
  Spans.write(J);
  J.endObject();
  Out << '\n';
  return Out ? 0 : 1;
} catch (const std::exception &Error) {
  std::cerr << "perfbench_harness: " << Error.what() << "\n";
  return 1;
}
