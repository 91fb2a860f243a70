//===- support/Subprocess.cpp - Supervised child processes ----------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Subprocess.h"

#include "support/Timer.h"
#include "support/Trace.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <mutex>
#include <new>
#include <streambuf>

#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace intro;

const char *intro::childStatusName(ChildStatus Status) {
  switch (Status) {
  case ChildStatus::CleanExit:
    return "clean-exit";
  case ChildStatus::NonzeroExit:
    return "nonzero-exit";
  case ChildStatus::Signalled:
    return "signalled";
  case ChildStatus::OutOfMemory:
    return "out-of-memory";
  case ChildStatus::WatchdogKill:
    return "watchdog-kill";
  }
  return "?";
}

namespace {

/// Unbuffered streambuf over a pipe write end: every overflow/xsputn goes
/// straight to write(2), so whatever the child managed to emit before a
/// crash is visible to the parent — no stdio buffer dies with the process.
class FdStreamBuf : public std::streambuf {
public:
  explicit FdStreamBuf(int Fd) : Fd(Fd) {}

private:
  int_type overflow(int_type Ch) override {
    if (Ch == traits_type::eof())
      return traits_type::not_eof(Ch);
    char Byte = static_cast<char>(Ch);
    return writeAll(&Byte, 1) ? Ch : traits_type::eof();
  }

  std::streamsize xsputn(const char *Data, std::streamsize Count) override {
    return writeAll(Data, static_cast<size_t>(Count))
               ? Count
               : std::streamsize(0);
  }

  bool writeAll(const char *Data, size_t Count) {
    while (Count > 0) {
      ssize_t Written = ::write(Fd, Data, Count);
      if (Written < 0) {
        if (errno == EINTR)
          continue;
        return false; // Parent gone (EPIPE with SIGPIPE ignored) — drop.
      }
      Data += Written;
      Count -= static_cast<size_t>(Written);
    }
    return true;
  }

  int Fd;
};

/// Applies the rlimit guards inside the child.  Failures are ignored on
/// purpose: a container that forbids setrlimit should degrade to "no hard
/// limit", not to "no analysis".
void applyChildLimits(const ChildLimits &Limits) {
  if (Limits.MaxAddressSpaceBytes > 0) {
    rlimit Limit;
    Limit.rlim_cur = static_cast<rlim_t>(Limits.MaxAddressSpaceBytes);
    Limit.rlim_max = static_cast<rlim_t>(Limits.MaxAddressSpaceBytes);
    (void)setrlimit(RLIMIT_AS, &Limit);
  }
  if (Limits.MaxCpuSeconds > 0) {
    rlimit Limit;
    Limit.rlim_cur = Limits.MaxCpuSeconds;
    // Hard limit one second above soft: if the SIGXCPU default disposition
    // was somehow masked, the kernel follows up with SIGKILL.
    Limit.rlim_max = Limits.MaxCpuSeconds + 1;
    (void)setrlimit(RLIMIT_CPU, &Limit);
  }
}

/// The child side of runSupervisedChild: runs the payload with the report
/// stream and never returns.  _exit (not exit) keeps the parent's atexit
/// handlers, stdio flushes, and static destructors from running twice.
[[noreturn]] void runChild(int WriteFd, const ChildLimits &Limits,
                           const ChildPayload &Payload) {
  // Keep stdio and the report pipe (moved to fd 3), close everything
  // else: a descriptor inherited through fork — another supervisor
  // thread's report pipe, a daemon's sockets — must not live as long as
  // this child does.
  ::dup2(WriteFd, 3);
  WriteFd = 3;
  ::close_range(4, ~0U, 0);
  // A parent that gave up must not turn our report write into SIGPIPE.
  ::signal(SIGPIPE, SIG_IGN);
  applyChildLimits(Limits);
  int Code = ChildExceptionExitCode;
  try {
    FdStreamBuf Buf(WriteFd);
    std::ostream Report(&Buf);
    Code = Payload(Report);
  } catch (const std::bad_alloc &) {
    Code = OomExitCode;
  } catch (...) {
    Code = ChildExceptionExitCode;
  }
  ::close(WriteFd);
  ::_exit(Code);
}

/// fork() is serialized across supervisor threads: glibc makes
/// malloc-after-fork safe via atfork handlers, but two simultaneous forks
/// copying pipe fds racing with fcntl would be needless exposure.
std::mutex &forkMutex() {
  static std::mutex M;
  return M;
}

/// Turns the raw waitpid status into a ChildStatus.  Two deliberate
/// wrinkles: (a) a watchdog kill wins over whatever the status word says —
/// the parent pulled the trigger, so the signal is ours, not the child's;
/// (b) under an armed RLIMIT_AS, SIGABRT is read as out-of-memory, because
/// sanitizer runtimes abort on allocation failure instead of letting
/// std::bad_alloc propagate to the harness.
void classify(ChildResult &Result, int Status, bool WatchdogFired,
              const ChildLimits &Limits) {
  if (WatchdogFired) {
    Result.Status = ChildStatus::WatchdogKill;
    Result.TermSignal = SIGKILL;
    return;
  }
  if (WIFEXITED(Status)) {
    Result.ExitCode = WEXITSTATUS(Status);
    if (Result.ExitCode == 0)
      Result.Status = ChildStatus::CleanExit;
    else if (Result.ExitCode == OomExitCode)
      Result.Status = ChildStatus::OutOfMemory;
    else
      Result.Status = ChildStatus::NonzeroExit;
    return;
  }
  if (WIFSIGNALED(Status)) {
    Result.TermSignal = WTERMSIG(Status);
    if (Result.TermSignal == SIGABRT && Limits.MaxAddressSpaceBytes > 0)
      Result.Status = ChildStatus::OutOfMemory;
    else
      Result.Status = ChildStatus::Signalled;
    return;
  }
  // Stopped/continued should be impossible without WUNTRACED; treat as a
  // nonzero exit so the supervisor retries rather than trusting garbage.
  Result.Status = ChildStatus::NonzeroExit;
  Result.ExitCode = ChildExceptionExitCode;
}

} // namespace

ChildResult intro::runSupervisedChild(const ChildLimits &Limits,
                                      const ChildPayload &Payload,
                                      const ChildOutputSink &Sink) {
  TRACE_SPAN("supervise.launch");
  ChildResult Result;
  Timer Clock;

  int Pipe[2];
  if (::pipe(Pipe) != 0) {
    Result.Status = ChildStatus::NonzeroExit;
    Result.ExitCode = ChildExceptionExitCode;
    Result.Output = "";
    return Result;
  }

  // Buffered stdout/stderr must not be duplicated into the child (it would
  // replay the parent's pending output on its own exit path via write(2)
  // inside the payload's own printing, if any).
  std::fflush(stdout);
  std::fflush(stderr);

  pid_t Pid;
  {
    std::lock_guard<std::mutex> Lock(forkMutex());
    Pid = ::fork();
  }
  if (Pid < 0) {
    ::close(Pipe[0]);
    ::close(Pipe[1]);
    Result.Status = ChildStatus::NonzeroExit;
    Result.ExitCode = ChildExceptionExitCode;
    return Result;
  }
  if (Pid == 0) {
    ::close(Pipe[0]);
    runChild(Pipe[1], Limits, Payload); // Never returns.
  }

  // --- Parent: one wait loop over the report pipe and the child's pidfd. ---
  // The loop ends once the child is reaped and the pipe drained.  A reaped
  // child's output is complete, so the pipe is emptied without blocking
  // and closed even if someone else (a grandchild) still holds the write
  // end.  Without a pidfd (EMFILE, ...) the slot is -1, which poll()
  // ignores, and the reap probe runs once per 50 ms slice instead.
  pollfd Fds[2] = {{Pipe[0], POLLIN, 0},
                   {static_cast<int>(::syscall(SYS_pidfd_open, Pid, 0)),
                    POLLIN, 0}};
  ::close(Pipe[1]);
  ::fcntl(Pipe[0], F_SETFL, O_NONBLOCK);
  bool WatchdogFired = false;
  bool Killed = false; // By the watchdog or by the cancel switch.
  bool Reaped = false;
  int Status = 0;
  {
    TRACE_SPAN("supervise.wait");
    char Buffer[4096];
    while (!Reaped) {
      double Remaining = -1;
      if (!Killed && Limits.WallDeadlineSeconds > 0) {
        Remaining = Limits.WallDeadlineSeconds - Clock.seconds();
        if (Remaining <= 0) {
          TRACE_SPAN("supervise.kill");
          TRACE_INSTANT("supervise.watchdog_fired", 1);
          ::kill(Pid, SIGKILL);
          WatchdogFired = Killed = true;
        }
      }
      // Cancel kill switch: like the watchdog the parent pulls the trigger,
      // but the classification stays Signalled/SIGKILL — a cancel is the
      // caller's decision, not a resource verdict, and callers that cancel
      // interpret the death themselves.
      if (!Killed && Limits.Cancel &&
          Limits.Cancel->load(std::memory_order_relaxed)) {
        TRACE_INSTANT("supervise.cancel_kill", 1);
        ::kill(Pid, SIGKILL);
        Killed = true;
      }
      // Slice the wait so the deadline and the cancel flag are sampled at
      // least every 50 ms; once a kill is in flight (or with nothing to
      // sample) only the pipe and the pidfd wake the loop.
      int TimeoutMs = -1;
      if (!Killed && Remaining > 0)
        TimeoutMs =
            std::max(1, static_cast<int>(std::min(Remaining, 0.05) * 1000));
      else if ((!Killed && Limits.Cancel) || Fds[1].fd < 0)
        TimeoutMs = 50;
      // A failed or interrupted poll costs one spurious round: every probe
      // below is non-blocking.
      (void)::poll(Fds, 2, TimeoutMs);
      // Reap before reading: a child reaped here wrote everything it ever
      // will, so the drain below sees all of it.
      pid_t Got = ::waitpid(Pid, &Status, WNOHANG);
      Reaped = Got == Pid || (Got < 0 && errno != EINTR);
      while (Fds[0].fd >= 0) {
        ssize_t Count = ::read(Fds[0].fd, Buffer, sizeof(Buffer));
        if (Count > 0) {
          Result.Output.append(Buffer, static_cast<size_t>(Count));
          if (Sink)
            Sink(std::string_view(Buffer, static_cast<size_t>(Count)));
          continue;
        }
        if (Count < 0 && errno == EINTR)
          continue;
        if (Count < 0 && errno == EAGAIN && !Reaped)
          break; // Drained for now; the child is still running.
        ::close(Fds[0].fd); // EOF, hard error, or reaped and emptied.
        Fds[0].fd = -1;
      }
    }
  }
  if (Fds[1].fd >= 0)
    ::close(Fds[1].fd);
  classify(Result, Status, WatchdogFired, Limits);
  Result.Seconds = Clock.seconds();
  return Result;
}
