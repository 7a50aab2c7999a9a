// Tasks (threads) and processes (thread groups), mirroring the Linux split
// that matters to SUD: SUD state is *per task*, and is reset on clone, fork,
// and execve — which is why lazypoline must re-arm it in every new task
// (paper §IV-B "Multiprocessing and Multithreading").
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/rng.hpp"
#include "bpf/bpf.hpp"
#include "cpu/block_cache.hpp"
#include "cpu/context.hpp"
#include "cpu/data_tlb.hpp"
#include "cpu/decode_cache.hpp"
#include "kernel/profile_sink.hpp"
#include "kernel/signals.hpp"
#include "memory/address_space.hpp"

namespace lzp::kern {

using Tid = std::uint32_t;
using Pid = std::uint32_t;

enum class TaskState : std::uint8_t { kRunnable, kExited };

// Per-task Syscall User Dispatch configuration (prctl
// PR_SET_SYSCALL_USER_DISPATCH).
struct SudState {
  bool enabled = false;
  std::uint64_t selector_addr = 0;  // user byte: kSudAllow / kSudBlock
  std::uint64_t allow_start = 0;    // syscalls from this range never dispatch
  std::uint64_t allow_len = 0;

  [[nodiscard]] bool in_allowed_range(std::uint64_t addr) const noexcept {
    return addr >= allow_start && addr - allow_start < allow_len;
  }
};

// Open file description table entry.
struct FdEntry {
  enum class Kind : std::uint8_t { kFile, kListener, kConn, kEpoll, kSpecial };
  Kind kind = Kind::kFile;
  std::string path;          // kFile
  std::uint64_t offset = 0;  // kFile read/seek position
  int net_id = -1;           // kListener / kConn
  int epoll_watch = -1;      // kEpoll: listener net id being watched
};

// Shared state of a thread group. Threads share this; fork deep-copies it.
struct Process {
  Pid pid = 0;
  std::array<SigAction, kNumSignals> sigactions{};
  std::map<int, FdEntry> fds;
  std::map<int, int> net_to_fd;  // reverse map for epoll event -> fd
  int next_fd = 3;
  bool exited = false;
  int exit_code = 0;
  std::string program_name;
  std::string console;  // bytes written to fd 1/2

  [[nodiscard]] std::shared_ptr<Process> fork_copy(Pid new_pid) const {
    auto copy = std::make_shared<Process>(*this);
    copy->pid = new_pid;
    return copy;
  }

  int install_fd(FdEntry entry) {
    const int fd = next_fd++;
    fds[fd] = std::move(entry);
    return fd;
  }

  // Installs at a specific fd (harness convention, e.g. the listening
  // socket at fd 3) without letting later install_fd() calls collide.
  void install_fd_at(int fd, FdEntry entry) {
    fds[fd] = std::move(entry);
    if (fd >= next_fd) next_fd = fd + 1;
  }
};

struct Task {
  Tid tid = 0;
  // Atomic because SMP-mode kernel paths on one simulated CPU read another
  // CPU's task state (thread-group exit scans, liveness checks). Writes stay
  // CPU-local under gang placement; the atomic makes the cross-CPU reads
  // well-defined. std::atomic's implicit conversions keep call sites plain.
  std::atomic<TaskState> state{TaskState::kRunnable};
  std::shared_ptr<Process> process;
  std::shared_ptr<mem::AddressSpace> mem;
  cpu::CpuContext ctx;

  // Per-task decoded-instruction cache for the step() hot loop. Per-task —
  // not per-address-space — so CLONE_VM siblings each keep their own cache
  // over the shared space (invalidated through the shared page generations
  // when a sibling rewrites code), fork children start cold against their
  // deep-copied space, and execve's fresh space flushes via its new asid.
  cpu::DecodeCache dcache;

  // Superblock cache for the batched execution fast path, and the data-side
  // TLB for its loads/stores. Per-task for the same reasons as dcache: the
  // block cache invalidates through shared page generations, and the D-TLB
  // through layout generations + asid (see cpu/block_cache.hpp,
  // cpu/data_tlb.hpp).
  cpu::BlockCache bcache;
  cpu::DataTlb dtlb;

  SudState sud;
  // seccomp filters attached to this task (newest last, all run, most
  // restrictive action wins — matching the kernel). Programs are shared
  // copy-on-attach across clone/fork.
  std::vector<std::shared_ptr<const std::vector<bpf::Insn>>> seccomp;

  // Signal machinery.
  std::uint64_t sigmask = 0;
  AltStack altstack;
  std::vector<SignalFrame> signal_frames;  // innermost last
  std::vector<SigInfo> pending_signals;

  // ptrace: host-side tracer attached (see Machine::attach_tracer).
  bool ptraced = false;

  // set_tid_address bookkeeping (glibc pthread init uses it).
  std::uint64_t clear_child_tid = 0;
  std::uint64_t robust_list_head = 0;

  // --- SMP substrate (kernel/smp.hpp) ---------------------------------------
  // Simulated CPU this task is placed on; 0 outside run_smp.
  unsigned cpu = 0;
  // Per-task entropy stream used for sys_getrandom while run_smp is active,
  // so concurrent draws never contend on (or nondeterministically interleave
  // through) the machine-global stream. Seeded from the SMP seed and the tid.
  Xoshiro256 smp_rng{0};
  // Per-sender sequence number for cross-CPU signal sends, giving the
  // barrier's mailbox drain a deterministic total order.
  std::uint64_t smp_sig_seq = 0;
  // Generation epochs this CPU has observed for the task's address space;
  // the barrier's shootdown pass compares them against the live counters and
  // flushes the task's TLBs when a remote CPU moved them (IPI model).
  std::uint64_t smp_seen_code_gen = 0;
  std::uint64_t smp_seen_layout_gen = 0;

  // --- cycle attribution (kernel/profile_sink.hpp) --------------------------
  // Class every Machine::charge() against this task is attributed to, plus a
  // qualifier (syscall nr / host address / sentinel — see kDetail*). Scoped
  // via ScopedCycleClass; per task so SMP lanes never share attribution
  // state. Pure observability: no kernel path reads these.
  CycleClass cycle_class = CycleClass::kGuest;
  std::uint64_t cycle_detail = kDetailNone;
  // Bumped by every attribution change (ScopedCycleClass enter/exit), so
  // charge() can detect "same attribution as the previous charge" with one
  // integer compare instead of comparing class and detail.
  std::uint64_t attr_epoch = 0;
  // Profile-mirror coalescing (Machine::charge): cycles charged under one
  // (class, detail) attribution accumulate here and reach the sink as a
  // single on_cycles call when the attribution changes or the run loop
  // exits. Per task, so SMP lanes — which only ever charge their own tasks —
  // never share mirror state.
  CycleClass pending_cls = CycleClass::kGuest;
  std::uint64_t pending_detail = kDetailNone;
  std::uint64_t pending_epoch = ~0ULL;  // attr_epoch the pending run was under
  std::uint64_t pending_cycles = 0;
  // Guest %rbp at the run's first charge: the frame-walk context the cycles
  // were charged under. A non-guest run's coalesced on_cycles call fires at
  // the first charge of the *next* attribution — possibly a guest
  // instruction later, by which time the frame chain may already be torn
  // down — so sinks fold non-guest runs under this snapshot. (Plain-guest
  // runs flush before any register moves; their live ctx is the context.)
  std::uint64_t pending_rbp = 0;
  // Step-engine site-probe batching (see step_once): cycles accumulate here
  // and every Nth retired instruction carries the batch to on_guest_insn,
  // N = the sink's step_sample_period().
  std::uint64_t insn_probe_cycles = 0;
  std::uint64_t insn_probe_count = 0;

  // Accounting.
  std::uint64_t cycles = 0;
  std::uint64_t insns_retired = 0;
  std::uint64_t syscalls_entered = 0;   // entries into the kernel syscall path
  std::uint64_t syscalls_dispatched = 0;
  std::uint64_t sud_sigsys_count = 0;   // SUD interceptions delivered
  int exit_code = 0;

  [[nodiscard]] bool runnable() const noexcept {
    return state == TaskState::kRunnable;
  }
};

// RAII attribution scope: charges against `task` between construction and
// destruction are attributed to `cls` (qualified by `detail`). Scopes nest —
// e.g. a host interposer handler (kInterposer) performing a syscall enters a
// kKernel scope, and charges inside it correctly belong to the kernel.
class ScopedCycleClass {
 public:
  ScopedCycleClass(Task& task, CycleClass cls,
                   std::uint64_t detail = kDetailNone) noexcept
      : task_(task),
        prev_class_(task.cycle_class),
        prev_detail_(task.cycle_detail) {
    task.cycle_class = cls;
    task.cycle_detail = detail;
    ++task.attr_epoch;
  }
  ~ScopedCycleClass() {
    task_.cycle_class = prev_class_;
    task_.cycle_detail = prev_detail_;
    ++task_.attr_epoch;
  }
  ScopedCycleClass(const ScopedCycleClass&) = delete;
  ScopedCycleClass& operator=(const ScopedCycleClass&) = delete;

 private:
  Task& task_;
  CycleClass prev_class_;
  std::uint64_t prev_detail_;
};

}  // namespace lzp::kern
