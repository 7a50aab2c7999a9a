// The Machine: simulated CPU execution + Linux-like kernel.
//
// Owns tasks, the VFS, the virtual network, host-function bindings (native
// C++ code reachable from simulated code — how interposer runtimes are
// modeled, mirroring real interposers whose handlers are native code inside
// the process), the syscall entry path of Figure 1 (ptrace -> seccomp ->
// SUD -> dispatch), signal delivery, and cycle accounting.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "base/rng.hpp"
#include "base/status.hpp"
#include "isa/assemble.hpp"
#include "kernel/costs.hpp"
#include "kernel/net.hpp"
#include "kernel/profile_sink.hpp"
#include "kernel/smp.hpp"
#include "kernel/syscalls.hpp"
#include "kernel/task.hpp"
#include "kernel/trace_sink.hpp"
#include "kernel/vfs.hpp"

namespace lzp::kern {

class Machine;

// Execution context handed to host-bound functions. A host function is the
// simulation's stand-in for native runtime code (interposer entry points,
// signal handler wrappers): it runs with full access to the task but charges
// costs explicitly, because its work would be real instructions in reality.
struct HostFrame {
  Machine& machine;
  Task& task;
  cpu::CpuContext& ctx;

  // Performs a syscall exactly as if the host code executed a SYSCALL
  // instruction: the full kernel entry path runs, including ptrace, seccomp,
  // and SUD checks against `task` (the instruction pointer reported to
  // filters is the host binding's address). Returns the rax result. If SUD
  // intercepts it (selector == BLOCK), the process is killed with a
  // diagnostic: in reality this is unbounded SIGSYS recursion, and making it
  // fatal keeps interposer bugs loud (see MachineTest.RecursiveSudIsFatal).
  std::uint64_t syscall(std::uint64_t nr, std::array<std::uint64_t, 6> args = {});

  // Pop the 8-byte return address off the stack into rip (native RET).
  void ret();

  void charge(std::uint64_t cycles);
};

using HostFn = std::function<void(HostFrame&)>;

// Host-side ptrace tracer. The tracer itself is native code (like a real
// tracer process); the model charges the context switches and per-stop
// ptrace requests that dominate ptrace's cost (paper §II-A).
struct TracerHooks {
  std::function<void(Task&, cpu::CpuContext&)> on_syscall_entry;
  // Entry-stop suppression: returning true skips kernel-side execution and
  // forces *result into the tracee's rax — the tracer rewrote orig_rax to -1
  // and will materialize the result itself (rr's injection pattern). The
  // exit-stop hook does not run for a suppressed syscall.
  std::function<bool(Task&, cpu::CpuContext&, std::uint64_t nr,
                     const std::array<std::uint64_t, 6>& args,
                     std::uint64_t* result)>
      on_syscall_suppress;
  // `nr`/`args` are the dispatched syscall (real ptrace exposes them as
  // orig_rax + entry registers — the post-execution context is NOT a valid
  // source: rt_sigreturn and execve replace it wholesale). `result` is the
  // value about to be written back to the tracee's rax; the tracer may
  // rewrite it (PTRACE_SETREGS before resuming).
  std::function<void(Task&, cpu::CpuContext&, std::uint64_t nr,
                     const std::array<std::uint64_t, 6>& args,
                     std::uint64_t& result)>
      on_syscall_exit;
};

// Outcome classification for a finished run.
struct RunStats {
  std::uint64_t insns = 0;
  bool all_exited = false;
};

class Machine {
 public:
  explicit Machine(CostModel costs = {});

  CostModel& costs() noexcept { return costs_; }
  const CostModel& costs() const noexcept { return costs_; }
  Vfs& vfs() noexcept { return vfs_; }
  Net& net() noexcept { return net_; }

  // Linux vm.mmap_min_addr. zpoline requires this to be 0 so the trampoline
  // can occupy virtual address 0 (the paper's deployments set it via sysctl).
  std::uint64_t mmap_min_addr = 0x10000;

  // Kept only for perfbench, which reads it: there is no per-step decode
  // cache any more, so this always returns zeros.
  [[nodiscard]] cpu::DecodeCacheStats decode_cache_totals() const {
    return {};
  }

  // Superblock execution engine (cpu/block_cache.hpp): run_slice executes
  // cached straight-line decodes as batches — accounting hoisted to block
  // boundaries — whenever exactness permits, and falls back to the
  // per-instruction reference engine (step_once) when it does not:
  // per-instruction observers, ptrace, host code at rip, or a deliverable
  // pending signal. Slice observers and the replay schedule hook leave it on.
  // A long nop run (the zpoline sled) executes in O(1) per slice. On by
  // default; the engine is a runtime choice only, and `false` runs every
  // slice through the reference engine (the oracle the tests and perfbench
  // compare against).
  bool block_exec_enabled = true;
  // Block-cache / data-TLB counters summed over every task.
  [[nodiscard]] cpu::BlockCacheStats block_cache_totals() const;
  [[nodiscard]] cpu::DataTlbStats data_tlb_totals() const;

  // --- host function registry ---------------------------------------------
  // `cls` is the cycle-attribution class charges take while the bound
  // function runs (kernel/profile_sink.hpp). Interposer runtimes use the
  // default; app harnesses modeling *application* compute as host code
  // (webserver work loop, jitcc compile) bind with CycleClass::kGuest.
  std::uint64_t bind_host(std::string name, HostFn fn,
                          CycleClass cls = CycleClass::kInterposer);
  [[nodiscard]] bool is_host_addr(std::uint64_t addr) const noexcept;
  [[nodiscard]] std::string host_name(std::uint64_t addr) const;
  static constexpr std::uint64_t kHostRegionBase = 0xFFFF'8000'0000'0000ULL;
  // Index usable in a HOSTCALL instruction for a bound host address.
  [[nodiscard]] static constexpr std::uint32_t host_index(std::uint64_t addr) noexcept {
    return static_cast<std::uint32_t>((addr - kHostRegionBase) / 16);
  }

  // Fixed layout constants for loaded programs.
  static constexpr std::uint64_t kDataRegionBase = 0x0000'0000'0060'0000ULL;
  static constexpr std::uint64_t kDataRegionSize = 256 * 1024;
  static constexpr std::uint64_t kStackTop = 0x0000'7FFF'FFFF'F000ULL;
  static constexpr std::uint64_t kSliceInsns = 64;

  // --- process management ---------------------------------------------------
  // Creates a new process + main task running `program`. Applies the preload
  // hook (LD_PRELOAD model) before the first instruction.
  Result<Tid> load(const isa::Program& program);
  // LD_PRELOAD model: invoked for every load()/execve() image so an
  // interposer runtime can initialize inside the fresh process.
  using PreloadHook = std::function<void(Machine&, Task&, const isa::Program&)>;
  void set_preload(PreloadHook hook) { preload_ = std::move(hook); }

  Task* find_task(Tid tid);
  // Also searches tasks created by clone/fork that have not been scheduled
  // yet (interposer runtimes patch up children right after clone returns).
  Task* find_task_any(Tid tid);
  [[nodiscard]] std::vector<Tid> task_ids() const;
  [[nodiscard]] std::size_t live_task_count() const;

  // --- execution -------------------------------------------------------------
  // Round-robin over runnable tasks until all exit or the instruction budget
  // is exhausted.
  RunStats run(std::uint64_t max_total_insns = kDefaultInsnBudget);
  // Multi-CPU execution (kernel/smp.hpp, implemented in smp.cpp): places
  // tasks onto config.cpus simulated CPUs and runs their queues between
  // deterministic barriers, on host lanes when they measure cheaper than the
  // calling thread and on the calling thread otherwise. config.cpus <= 1
  // delegates to run() — bit-identical to the single-threaded engine by
  // construction.
  // Replay (schedule hook / slice observers) and insn observers are
  // incompatible with batching across CPUs and must not be armed.
  SmpStats run_smp(const SmpConfig& config,
                   std::uint64_t max_total_steps = kDefaultInsnBudget);
  // True while run_smp's parallel phases may be executing: kernel paths use
  // it to route cross-CPU effects through deterministic channels (signal
  // mailbox, per-CPU tid ranges, per-task entropy).
  [[nodiscard]] bool smp_active() const noexcept { return smp_active_; }
  // Executes at most `max_insns` machine steps (see total_steps()) on one
  // task.
  void run_slice(Task& task, std::uint64_t max_insns);
  static constexpr std::uint64_t kDefaultInsnBudget = 500'000'000ULL;
  // Machine-global count of *retired* simulated instructions — always equal
  // to the sum of every task's insns_retired. Host-fn steps, faulting
  // execution attempts, and signal-kill steps do not advance it (they retire
  // nothing).
  [[nodiscard]] std::uint64_t total_insns() const noexcept { return total_insns_; }
  // Machine-global count of scheduling *steps*: every step_once iteration —
  // retired instruction, host-fn dispatch, fault attempt, or signal-kill —
  // advances it by one (the superblock path advances it by the number of
  // instructions a per-step run would have used, so the counter is identical
  // with the engine on or off). This is the time base scheduling slices and
  // signal-delivery points are recorded against: unlike total_insns() it
  // never stalls, so "step N" names a unique point even across work that
  // retires nothing.
  [[nodiscard]] std::uint64_t total_steps() const noexcept { return total_steps_; }

  // --- observers --------------------------------------------------------------
  // Every observer kind is a multicast list: add_* registers a callback and
  // returns a token; remove_* unregisters it. Multiple clients (replay's
  // Recorder, the trace subsystem, pintool, user code) compose freely —
  // callbacks fire in registration order.
  using ObserverId = std::uint64_t;  // 0 is never a valid id

  // Called for every retired *simulated* instruction (pintool attaches here).
  using InsnObserver =
      std::function<void(const Task&, const isa::Instruction&)>;
  ObserverId add_insn_observer(InsnObserver observer) {
    return insn_observers_.add(std::move(observer), &next_observer_id_);
  }
  void remove_insn_observer(ObserverId id) { insn_observers_.remove(id); }
  // Called for every syscall that reaches the dispatcher, with its origin.
  enum class SyscallOrigin : std::uint8_t { kSimCode, kHostCode };
  using SyscallObserver = std::function<void(const Task&, std::uint64_t nr,
                                             const std::array<std::uint64_t, 6>&,
                                             SyscallOrigin)>;
  ObserverId add_syscall_observer(SyscallObserver observer) {
    return syscall_observers_.add(std::move(observer), &next_observer_id_);
  }
  void remove_syscall_observer(ObserverId id) { syscall_observers_.remove(id); }

  // --- record/replay hooks (src/replay) ---------------------------------------
  // Called after every scheduling slice run() executes, with the number of
  // machine steps (total_steps_ delta) the slice consumed — the recorder's
  // view of the scheduler's decisions.
  using SliceObserver = std::function<void(const Task&, std::uint64_t steps)>;
  ObserverId add_slice_observer(SliceObserver observer) {
    return slice_observers_.add(std::move(observer), &next_observer_id_);
  }
  void remove_slice_observer(ObserverId id) { slice_observers_.remove(id); }
  // Replaces run()'s round-robin scheduler: run() repeatedly asks the hook
  // which task to run next and for how many steps, until it returns nullopt
  // (or the instruction budget is exhausted). Newly cloned tasks are merged
  // before every decision so the hook can schedule them immediately.
  // Deliberately single-slot: two schedulers cannot both be in charge.
  struct SchedSlice {
    Tid tid = 0;
    std::uint64_t max_steps = kSliceInsns;
  };
  using ScheduleHook = std::function<std::optional<SchedSlice>(Machine&)>;
  void set_schedule_hook(ScheduleHook hook) { schedule_hook_ = std::move(hook); }
  // Called at every signal delivery attempt against a runnable task, before
  // disposition is applied. `info.external` distinguishes signals queued via
  // post_signal() from ones the simulation generated itself.
  using SignalObserver = std::function<void(const Task&, const SigInfo&)>;
  ObserverId add_signal_observer(SignalObserver observer) {
    return signal_observers_.add(std::move(observer), &next_observer_id_);
  }
  void remove_signal_observer(ObserverId id) { signal_observers_.remove(id); }
  // Queues an asynchronous signal from outside the simulation (a timer, an
  // operator, an unmodeled process). Marked external so a recorder knows the
  // delivery point must be re-forced on replay rather than re-derived.
  Status post_signal(Tid tid, SigInfo info);

  // Sources of nondeterministic input a syscall can consume. Everything else
  // the kernel does is a pure function of task + machine state.
  enum class NondetSource : std::uint8_t { kRng, kTime, kNet };
  // Audit hook: called whenever a dispatched syscall consumes one of the
  // sources above. A recorder installs this to flag nondeterministic input
  // flowing into the simulation outside its capture window (satellite:
  // "flags uncaptured nondeterminism in record mode").
  using NondetObserver =
      std::function<void(const Task&, std::uint64_t nr, NondetSource)>;
  ObserverId add_nondet_observer(NondetObserver observer) {
    return nondet_observers_.add(std::move(observer), &next_observer_id_);
  }
  void remove_nondet_observer(ObserverId id) { nondet_observers_.remove(id); }

  // --- trace probe (kernel/trace_sink.hpp) -------------------------------------
  // The low-level observability sink the Machine and the interposer runtimes
  // report into. One sink at a time (the sink itself may fan out); not owned.
  // Filters out a disabled sink here, so call sites pay one load + branch
  // instead of a virtual probe call that immediately returns.
  [[nodiscard]] TraceSink* trace_sink() const noexcept {
    return (trace_sink_ != nullptr && trace_sink_->enabled()) ? trace_sink_
                                                              : nullptr;
  }
  void set_trace_sink(TraceSink* sink) noexcept { trace_sink_ = sink; }

  // --- profiling probe (kernel/profile_sink.hpp) -------------------------------
  // The cycle-attribution sink: every charge() is mirrored to it with the
  // task's current CycleClass, and the execution engines report guest
  // retirement sites (per block / per instruction). One sink at a time, not
  // owned; a disabled sink is filtered here exactly like the trace sink.
  // Probes never charge cycles — attaching one leaves every counter
  // bit-identical.
  [[nodiscard]] ProfileSink* profile_sink() const noexcept {
    return (profile_sink_ != nullptr && profile_sink_->enabled())
               ? profile_sink_
               : nullptr;
  }
  void set_profile_sink(ProfileSink* sink) noexcept {
    flush_profile_mirror();  // pending cycles belong to the outgoing sink
    profile_sink_ = sink;
    profile_step_period_ =
        sink != nullptr ? std::max<std::uint64_t>(1, sink->step_sample_period())
                        : 1;
  }
  // Delivers every task's coalesced pending charges to the sink (see
  // charge()). Called at run-loop exit; a sink's result accessors call it
  // too, so per-class sums match total_cycles() however the machine was
  // driven.
  void flush_profile_mirror() noexcept;

  // The machine-owned deterministic entropy stream: every kernel-side random
  // draw (sys_getrandom) comes from here, so "nondeterminism" is a seeded,
  // recordable input rather than ambient host state.
  Xoshiro256& rng() noexcept { return rng_; }
  void reseed_rng(std::uint64_t seed) noexcept { rng_.reseed(seed); }
  // The seed a fresh Machine's rng starts from.
  static constexpr std::uint64_t kDefaultRngSeed = 0x1A5F'9E37ULL;

  // --- ptrace (host tracer) ----------------------------------------------------
  void attach_tracer(Tid tid, TracerHooks hooks);
  void detach_tracer(Tid tid);

  // --- seccomp user-notification supervisor (host side) -------------------------
  using UserNotifHandler = std::function<std::uint64_t(
      Task&, std::uint64_t nr, const std::array<std::uint64_t, 6>&)>;
  void set_user_notif_handler(UserNotifHandler handler) {
    user_notif_ = std::move(handler);
  }

  // --- program registry (execve targets) ----------------------------------------
  void register_program(const isa::Program& program);
  [[nodiscard]] const isa::Program* find_program(const std::string& name) const;

  // Internal services used by the clone/fork implementation. In SMP mode
  // tids/pids come from disjoint per-CPU ranges so concurrent clones are
  // deterministic; `cpu` is ignored otherwise.
  void adopt_task(std::unique_ptr<Task> task);
  Tid allocate_tid(unsigned cpu = 0);
  Pid allocate_pid(unsigned cpu = 0);

  // --- services used by HostFrame and the interposer runtimes -------------------
  std::uint64_t syscall_from_host(Task& task, std::uint64_t nr,
                                  const std::array<std::uint64_t, 6>& args,
                                  std::uint64_t host_ip);
  // Executes a syscall on behalf of `task` from a supervisor context (the
  // seccomp USER_NOTIF pattern): no interception pipeline runs, because the
  // supervisor's own syscalls are not subject to the target's filters.
  std::uint64_t supervised_dispatch(Task& task, std::uint64_t nr,
                                    const std::array<std::uint64_t, 6>& args);
  void charge(Task& task, std::uint64_t cycles) noexcept;
  [[nodiscard]] std::uint64_t total_cycles() const noexcept { return total_cycles_; }

  // Kill a whole process (uncatchable), e.g. on interposer recursion.
  void kill_process(Process& process, int exit_code, const std::string& reason);

  // Signal delivery (used internally and by tgkill/tests).
  void deliver_signal(Task& task, const SigInfo& info);

  // The last fatal diagnostic (empty if none) — surfaced to tests.
  [[nodiscard]] const std::string& last_fatal() const noexcept { return last_fatal_; }

 private:
  friend struct HostFrame;

  // Flushes one task's coalesced profile-mirror charges (charge()).
  void flush_profile(Task& task) noexcept;

  // One step of the reference engine: host call or one instruction. Returns
  // false when the task can no longer run. `steps` is the step counter this
  // execution lane advances: total_steps_ on the single-threaded path, a
  // per-CPU lane counter under run_smp (merged into total_steps_ at
  // barriers).
  bool step_once(Task& task, std::uint64_t& steps);
  // The one slice loop, against an explicit lane counter: block runs while
  // can_batch_execute allows, step_once otherwise.
  void run_slice_counted(Task& task, std::uint64_t max_insns,
                         std::uint64_t& steps);

  // True when a pending signal exists that the task's sigmask does not
  // block — the only case where the delivery scan in step_once can do
  // anything. A single OR-reduction over the pending list, so a task whose
  // mask blocks everything pays no per-signal branch in the hot loop.
  [[nodiscard]] static bool deliverable_signal_pending(const Task& task) noexcept;

  // True when run_slice may execute `task` through the superblock engine
  // without observable divergence from per-instruction stepping.
  [[nodiscard]] bool can_batch_execute(const Task& task) const noexcept;
  // Charges `cycles` and runs the host function bound at `addr`, both under
  // the binding's cycle class. False (nothing charged) when `addr` is
  // unbound.
  bool call_host(Task& task, std::uint64_t addr, std::uint64_t cycles);
  // Handles an instruction that ended a run without retiring (HOSTCALL, HLT,
  // INT3 and the faults) for both engines: `insn_addr` is its address,
  // `fault` the memory fault (kMemFault only) and `host_index` the HOSTCALL
  // immediate (kHostCall only). The caller checks task.runnable() after.
  void dispatch_exit(Task& task, cpu::ExecKind kind, std::uint64_t insn_addr,
                     const mem::MemFault& fault, std::int64_t host_index);

  // Figure 1: the syscall kernel entry path for a SYSCALL instruction
  // executed by simulated code.
  void syscall_entry_from_sim(Task& task);

  // Common path once interception says "dispatch": runs the handler.
  std::uint64_t dispatch(Task& task, std::uint64_t nr,
                         const std::array<std::uint64_t, 6>& args,
                         SyscallOrigin origin);

  // Interception pipeline shared by sim- and host-originated syscalls.
  // Returns true if the syscall should proceed to dispatch; false if it was
  // intercepted (SIGSYS delivered / errno forced / task killed). When
  // intercepted with a forced result, *forced_rax is set.
  bool intercept(Task& task, std::uint64_t nr,
                 const std::array<std::uint64_t, 6>& args, std::uint64_t ip,
                 bool from_host, std::uint64_t* forced_rax);

  // Individual syscall implementations (machine_syscalls.cpp).
  std::uint64_t sys_dispatch_table(Task& task, std::uint64_t nr,
                                   const std::array<std::uint64_t, 6>& args);
  std::uint64_t do_clone(Task& parent, std::uint64_t flags, std::uint64_t stack);
  std::uint64_t do_execve(Task& task, std::uint64_t path_ptr);

  // Signal helpers (machine_signals.cpp).
  void handle_fault_signal(Task& task, int sig, const SigInfo& info);
  std::uint64_t do_rt_sigreturn(Task& task);
  void exit_task(Task& task, int code);
  void exit_process(Task& task, int code);

  CostModel costs_;
  Vfs vfs_;
  Net net_;

  std::map<Tid, std::unique_ptr<Task>> tasks_;
  Tid next_tid_ = 100;
  Pid next_pid_ = 100;

  struct HostBinding {
    std::string name;
    HostFn fn;
    CycleClass cls = CycleClass::kInterposer;
  };
  std::map<std::uint64_t, HostBinding> host_fns_;
  std::uint64_t next_host_addr_ = kHostRegionBase;

  // Last-hit host-binding cache: interposer-heavy workloads dispatch the
  // same entry point back to back, so one compare replaces a map lookup on
  // nearly every host step. Safe to cache raw pointers: host_fns_ is
  // insert-only and std::map nodes never move.
  [[nodiscard]] HostBinding* find_host_binding(std::uint64_t addr) noexcept;
  std::uint64_t host_cache_addr_ = ~0ULL;
  HostBinding* host_cache_ = nullptr;

  std::map<Tid, TracerHooks> tracers_;

  // Multicast observer list: ordered (registration order), id-addressed.
  template <typename Fn>
  struct ObserverList {
    struct Slot {
      ObserverId id;
      Fn fn;
    };
    std::vector<Slot> slots;

    ObserverId add(Fn fn, ObserverId* next_id) {
      const ObserverId id = (*next_id)++;
      slots.push_back(Slot{id, std::move(fn)});
      return id;
    }
    void remove(ObserverId id) {
      std::erase_if(slots, [id](const Slot& slot) { return slot.id == id; });
    }
    [[nodiscard]] bool empty() const noexcept { return slots.empty(); }
    template <typename... Args>
    void notify(Args&&... args) const {
      for (const auto& slot : slots) slot.fn(args...);
    }
  };

  PreloadHook preload_;
  ObserverId next_observer_id_ = 1;
  ObserverList<InsnObserver> insn_observers_;
  ObserverList<SyscallObserver> syscall_observers_;
  ObserverList<SliceObserver> slice_observers_;
  ScheduleHook schedule_hook_;
  ObserverList<SignalObserver> signal_observers_;
  ObserverList<NondetObserver> nondet_observers_;
  UserNotifHandler user_notif_;
  TraceSink* trace_sink_ = nullptr;
  // Last tid handed a slice by run(), for task-switch trace events.
  Tid last_sliced_tid_ = 0;
  // Cycle-attribution sink (see profile_sink() above). Written only while no
  // run is active; SMP lanes read the invariant pointer lock-free.
  ProfileSink* profile_sink_ = nullptr;
  // Cached sink->step_sample_period() (>= 1), read per retired instruction
  // under the step engine.
  std::uint64_t profile_step_period_ = 1;
  // Installs the block-cache invalidation probe on a freshly created task.
  void attach_bcache_probe(Task& task);
  // Emits a kSwitch trace event when the scheduler picks a different task.
  void note_task_switch(const Task& task);
  Xoshiro256 rng_{kDefaultRngSeed};
  // Program registry; mutable so the find path can cache images parsed from
  // their on-disk (VFS) LZPF form.
  mutable std::map<std::string, isa::Program> programs_;

  std::uint64_t total_cycles_ = 0;
  std::uint64_t total_insns_ = 0;
  std::uint64_t total_steps_ = 0;
  std::string last_fatal_;

  // Tasks created during the current scheduling pass (clone/fork) — merged
  // into tasks_ between slices to keep iteration stable.
  std::vector<std::unique_ptr<Task>> nursery_;
  void merge_nursery();
  void notify_nondet(const Task& task, std::uint64_t nr, NondetSource source) {
    nondet_observers_.notify(task, nr, source);
  }

  // --- SMP substrate (smp.cpp) ------------------------------------------------
  // True only while run_smp's parallel phases may be running. Guards the
  // machine-global counters (stale between barriers, recomputed from task
  // sums at each one), routes cross-CPU signals through the mailbox, switches
  // tid/pid allocation to per-CPU ranges, and disables the single-entry
  // host-binding cache (shared mutable state).
  bool smp_active_ = false;
  std::uint64_t smp_seed_ = 0;
  // Per-CPU tid/pid allocators: CPU c hands out 1'000'000 * (c + 1) + n,
  // disjoint from the single-threaded 100+ range and from every other CPU.
  std::vector<Tid> smp_next_tid_;
  std::vector<Pid> smp_next_pid_;
  // Cross-CPU signal send (kill/tgkill targeting a task on another simulated
  // CPU): queued here and applied at the next barrier in (target, sender,
  // seq) order — the deterministic IPI model.
  struct RemoteSignal {
    Tid target = 0;
    Tid sender = 0;
    std::uint64_t seq = 0;
    SigInfo info;
  };
  std::vector<RemoteSignal> signal_mailbox_;
  std::mutex mailbox_mu_;
  void smp_post_remote_signal(Task& sender, Tid target, const SigInfo& info);
  // Locks for machine tables a parallel phase can touch from several lanes.
  // Lock order (see DESIGN.md §10): none of these nest within each other.
  std::mutex nursery_mu_;           // nursery_ (clone/fork vs. liveness scans)
  std::mutex fatal_mu_;             // last_fatal_
  mutable std::mutex programs_mu_;  // programs_ (execve image cache)
};

}  // namespace lzp::kern
