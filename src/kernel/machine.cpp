#include "kernel/machine.hpp"

#include <algorithm>

#include "base/log.hpp"
#include "bpf/seccomp_filter.hpp"
#include "cpu/execute.hpp"
#include "isa/objfile.hpp"

namespace lzp::kern {

Machine::Machine(CostModel costs) : costs_(costs) {}

// ---------------------------------------------------------------------------
// Host function registry
// ---------------------------------------------------------------------------

std::uint64_t Machine::bind_host(std::string name, HostFn fn, CycleClass cls) {
  const std::uint64_t addr = next_host_addr_;
  next_host_addr_ += 16;  // host entry points are 16 bytes apart
  host_fns_.emplace(addr, HostBinding{std::move(name), std::move(fn), cls});
  return addr;
}

bool Machine::is_host_addr(std::uint64_t addr) const noexcept {
  return addr >= kHostRegionBase;
}

std::string Machine::host_name(std::uint64_t addr) const {
  auto it = host_fns_.find(addr);
  return it == host_fns_.end() ? "<unbound>" : it->second.name;
}

Machine::HostBinding* Machine::find_host_binding(std::uint64_t addr) noexcept {
  // The last-hit cache is one shared slot, so SMP lanes bypass it and pay the
  // map lookup: host_fns_ is insert-only and never mutated during run_smp
  // (bind_host during a run is unsupported), so lock-free lookups are safe.
  if (smp_active_) {
    auto it = host_fns_.find(addr);
    return it == host_fns_.end() ? nullptr : &it->second;
  }
  if (addr == host_cache_addr_) return host_cache_;
  auto it = host_fns_.find(addr);
  if (it == host_fns_.end()) return nullptr;  // misses are not cached
  host_cache_addr_ = addr;
  host_cache_ = &it->second;
  return host_cache_;
}

// ---------------------------------------------------------------------------
// HostFrame services
// ---------------------------------------------------------------------------

std::uint64_t HostFrame::syscall(std::uint64_t nr,
                                 std::array<std::uint64_t, 6> args) {
  return machine.syscall_from_host(task, nr, args, ctx.rip);
}

void HostFrame::ret() {
  auto target = task.mem->read_u64(ctx.rsp());
  if (!target) {
    machine.kill_process(*task.process, 139,
                         "host ret: stack read failed: " + target.status().to_string());
    return;
  }
  ctx.set_rsp(ctx.rsp() + 8);
  ctx.rip = target.value();
}

void HostFrame::charge(std::uint64_t cycles) { machine.charge(task, cycles); }

// ---------------------------------------------------------------------------
// Process management
// ---------------------------------------------------------------------------

Result<Tid> Machine::load(const isa::Program& program) {
  auto process = std::make_shared<Process>();
  process->pid = next_pid_++;
  process->program_name = program.name;

  auto task = std::make_unique<Task>();
  task->tid = next_tid_++;
  task->process = process;
  task->mem = std::make_shared<mem::AddressSpace>();

  // Text+rodata image, executable (and readable, like a normal ELF segment).
  auto text = task->mem->map(program.base, program.image.size(),
                             mem::kProtRead | mem::kProtExec, /*fixed=*/true);
  if (!text) return text.status();
  if (Status write = task->mem->write_force(program.base, program.image);
      !write.is_ok()) {
    return write;
  }

  // A fixed scratch data region (programs use it for globals/buffers).
  auto data = task->mem->map(kDataRegionBase, kDataRegionSize,
                             mem::kProtRead | mem::kProtWrite, /*fixed=*/true);
  if (!data) return data.status();

  // Stack.
  const std::uint64_t stack_size = std::max<std::uint64_t>(program.stack_size, 4096);
  auto stack = task->mem->map(kStackTop - stack_size, stack_size,
                              mem::kProtRead | mem::kProtWrite, /*fixed=*/true);
  if (!stack) return stack.status();

  task->ctx.rip = program.entry;
  task->ctx.set_rsp(kStackTop - 64);

  Task& ref = *task;
  tasks_.emplace(ref.tid, std::move(task));
  attach_dcache_probe(ref);
  if (auto* sink = trace_sink()) {
    sink->on_task_event(ref, TraceSink::TaskEvent::kStart, program.entry);
  }
  if (preload_) preload_(*this, ref, program);
  return ref.tid;
}

Task* Machine::find_task(Tid tid) {
  auto it = tasks_.find(tid);
  return it == tasks_.end() ? nullptr : it->second.get();
}

Task* Machine::find_task_any(Tid tid) {
  if (Task* task = find_task(tid)) return task;
  std::lock_guard<std::mutex> lock(nursery_mu_);
  for (auto& task : nursery_) {
    if (task->tid == tid) return task.get();
  }
  return nullptr;
}

std::vector<Tid> Machine::task_ids() const {
  std::vector<Tid> ids;
  ids.reserve(tasks_.size());
  for (const auto& [tid, task] : tasks_) ids.push_back(tid);
  return ids;
}

std::size_t Machine::live_task_count() const {
  std::size_t count = 0;
  for (const auto& [tid, task] : tasks_) {
    if (task->runnable()) ++count;
  }
  return count;
}

Status Machine::post_signal(Tid tid, SigInfo info) {
  Task* task = find_task_any(tid);
  if (task == nullptr) {
    return Status{StatusCode::kNotFound,
                  "post_signal: no task " + std::to_string(tid)};
  }
  if (!task->runnable()) {
    return Status{StatusCode::kFailedPrecondition,
                  "post_signal: task " + std::to_string(tid) + " not runnable"};
  }
  info.external = true;
  task->pending_signals.push_back(info);
  return Status::ok();
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

void Machine::merge_nursery() {
  std::lock_guard<std::mutex> lock(nursery_mu_);
  for (auto& task : nursery_) {
    Tid tid = task->tid;
    tasks_.emplace(tid, std::move(task));
  }
  nursery_.clear();
}

RunStats Machine::run(std::uint64_t max_total_insns) {
  // The budget and the per-slice bookkeeping are in *steps* (total_steps_),
  // not retirements: a step always advances it, so host-fn loops and fault
  // storms hit the deadline instead of spinning forever, and every slice —
  // even one that only runs host code or delivers a killing signal — is
  // visible to slice observers with a non-zero width.
  const std::uint64_t deadline = total_steps_ + max_total_insns;

  if (schedule_hook_) {
    // Externally driven scheduling (trace replay): the hook dictates which
    // task runs next and for how many steps; clone children are merged
    // before every decision so the hook can schedule them immediately.
    while (total_steps_ < deadline) {
      merge_nursery();
      const auto slice = schedule_hook_(*this);
      if (!slice) break;
      Task* task = find_task(slice->tid);
      if (task == nullptr || !task->runnable()) continue;
      note_task_switch(*task);
      run_slice(*task, slice->max_steps);
    }
  } else {
    bool any_runnable = true;
    while (any_runnable && total_steps_ < deadline) {
      any_runnable = false;
      for (auto& [tid, task] : tasks_) {
        if (!task->runnable()) continue;
        any_runnable = true;
        const std::uint64_t steps_before = total_steps_;
        note_task_switch(*task);
        run_slice(*task, kSliceInsns);
        if (total_steps_ > steps_before) {
          slice_observers_.notify(*task, total_steps_ - steps_before);
        }
        if (total_steps_ >= deadline) break;
      }
      if (!nursery_.empty()) {
        merge_nursery();
        any_runnable = true;
      }
    }
  }
  merge_nursery();
  flush_profile_mirror();
  RunStats stats;
  stats.insns = total_insns_;
  stats.all_exited = live_task_count() == 0;
  return stats;
}

void Machine::run_slice(Task& task, std::uint64_t max_insns) {
  // The single-threaded entry point advances the machine-global step counter
  // directly, so observers that read total_steps_ mid-slice (replay's signal
  // delivery points) see it move step by step; SMP lanes call
  // run_slice_counted with a per-CPU counter, merged at barriers.
  run_slice_counted(task, max_insns, total_steps_);
}

void Machine::run_slice_counted(Task& task, std::uint64_t max_insns,
                                std::uint64_t& steps) {
  // The budget is in steps: the slice ends after max_insns step-counter
  // advances (or when the task stops running). A block run consumes exactly
  // as many steps as a per-instruction run of the same instructions would,
  // so slice boundaries are identical with the engine on or off.
  const std::uint64_t start = steps;
  while (steps - start < max_insns) {
    const cpu::DecodedBlock* block =
        can_batch_execute(task)
            ? task.bcache.lookup_or_build(*task.mem, task.ctx.rip)
            : nullptr;
    if (block == nullptr) {
      if (!step_once(task, steps)) return;
      continue;
    }
    const cpu::BlockRun run = cpu::run_block(
        task.ctx, *task.mem, *block, max_insns - (steps - start), &task.dtlb);
    // Batched accounting. Identical totals to per-instruction stepping: cost
    // is linear in (retired, nops), the counters are plain sums, and every
    // executed instruction is one machine step whether it retired or not.
    steps += run.executed;
    if (run.retired > 0) {
      if (!smp_active_) total_insns_ += run.retired;
      task.insns_retired += run.retired;
      const std::uint64_t batch_cycles = (run.retired - run.nops) * costs_.insn +
                                         run.nops * costs_.insn_nop;
      // Site probe first, then the charge: the sink uses the probe to
      // establish the site/stack context the charge's on_cycles mirror is
      // folded under.
      if (auto* sink = profile_sink()) {
        sink->on_guest_block(task, block->start, run.retired, batch_cycles);
      }
      charge(task, batch_cycles);
    }
    if (run.kind == cpu::ExecKind::kSyscall) {
      syscall_entry_from_sim(task);
    } else if (run.kind != cpu::ExecKind::kContinue) {
      dispatch_exit(task, run.kind, run.insn_addr, run.fault, run.last->imm);
    }
    if (!task.runnable()) return;
  }
}

bool Machine::deliverable_signal_pending(const Task& task) noexcept {
  if (task.pending_signals.empty()) return false;
  std::uint64_t bits = 0;
  for (const SigInfo& info : task.pending_signals) {
    bits |= 1ULL << (info.signo & 63);
  }
  return (bits & ~task.sigmask) != 0;
}

bool Machine::can_batch_execute(const Task& task) const noexcept {
  // Every condition here names a client that needs per-instruction
  // precision; the per-step path is the reference semantics and anything
  // that observes or perturbs individual steps gets it. Slice observers and
  // the replay schedule hook are not among them: observers are notified
  // after run_slice returns, the hook only sets slice budgets, and block
  // runs end slices on the same step as the per-step path.
  return block_exec_enabled && insn_observers_.empty() && !task.ptraced &&
         !is_host_addr(task.ctx.rip) && !deliverable_signal_pending(task);
}

bool Machine::call_host(Task& task, std::uint64_t addr, std::uint64_t cycles) {
  HostBinding* binding = find_host_binding(addr);
  if (binding == nullptr) return false;
  // The dispatch and the native function charge under the binding's class:
  // interposer trampolines by default, guest for app harnesses that model
  // application compute as host code.
  ScopedCycleClass scope(task, binding->cls, addr);
  charge(task, cycles);
  HostFrame frame{*this, task, task.ctx};
  binding->fn(frame);
  return true;
}

void Machine::dispatch_exit(Task& task, cpu::ExecKind kind,
                            std::uint64_t insn_addr, const mem::MemFault& fault,
                            std::int64_t host_index) {
  auto raise = [&](int signo, std::uint64_t fault_addr) {
    SigInfo info;
    info.fault_addr = fault_addr;
    handle_fault_signal(task, signo, info);
  };
  switch (kind) {
    case cpu::ExecKind::kContinue:
    case cpu::ExecKind::kSyscall:
      return;  // retiring kinds: the engines handle them
    case cpu::ExecKind::kHostCall: {
      // A HOSTCALL instruction in simulated code: dispatch to the bound
      // native function (rip is already past the instruction; the function
      // may redirect it, e.g. the trampoline's entry performing RET).
      const std::uint64_t addr =
          kHostRegionBase + 16 * static_cast<std::uint64_t>(host_index);
      if (!call_host(task, addr, costs_.insn + costs_.host_glue)) {
        kill_process(*task.process, 139, "HOSTCALL to unbound index");
      }
      return;
    }
    case cpu::ExecKind::kHlt:
      return exit_process(task, 0);
    case cpu::ExecKind::kTrap:
      return raise(kSigtrap, 0);  // INT3 carries no address (SI_KERNEL)
    case cpu::ExecKind::kMemFault:
      return raise(kSigsegv, fault.address);
    case cpu::ExecKind::kInvalidOpcode:
      return raise(kSigill, insn_addr);
    case cpu::ExecKind::kDivideError:
      return raise(kSigfpe, insn_addr);
  }
}

bool Machine::step_once(Task& task, std::uint64_t& steps) {
  if (!task.runnable()) return false;
  ++steps;

  // Deliver one pending, unblocked signal before resuming user code. The
  // deliverable_signal_pending pre-check makes this skip-free for a task
  // whose sigmask blocks everything currently queued.
  if (deliverable_signal_pending(task)) {
    for (std::size_t i = 0; i < task.pending_signals.size(); ++i) {
      const SigInfo info = task.pending_signals[i];
      if ((task.sigmask >> info.signo) & 1) continue;
      task.pending_signals.erase(task.pending_signals.begin() +
                                 static_cast<std::ptrdiff_t>(i));
      deliver_signal(task, info);
      if (!task.runnable()) return false;
      break;
    }
  }

  // Host-bound code: native runtime (interposer entry points, wrappers).
  // Host steps retire no simulated instruction and do not advance
  // total_insns_.
  if (is_host_addr(task.ctx.rip)) {
    const std::uint64_t entry_rip = task.ctx.rip;
    if (!call_host(task, entry_rip, costs_.host_glue)) {
      kill_process(*task.process, 139,
                   "jump to unbound host address " + std::to_string(entry_rip));
      return false;
    }
    // A host function that did not redirect control behaves like RET.
    if (task.runnable() && task.ctx.rip == entry_rip) {
      HostFrame{*this, task, task.ctx}.ret();
    }
    return task.runnable();
  }

  const cpu::ExecResult result =
      cpu::step(task.ctx, *task.mem,
                decode_cache_enabled ? &task.dcache : nullptr, &task.dtlb);
  if (result.kind != cpu::ExecKind::kContinue &&
      result.kind != cpu::ExecKind::kSyscall) {
    dispatch_exit(task, result.kind, result.insn_addr, result.fault,
                  result.insn ? result.insn->imm : 0);
    return task.runnable();
  }
  const std::uint64_t insn_cycles =
      result.insn && result.insn->op == isa::Op::kNop ? costs_.insn_nop
                                                      : costs_.insn;
  // Site probe before the charge (see run_slice_counted). Sampled at the
  // sink's period: cycles accumulate per task and the every-Nth probe
  // carries the whole batch, so site-map sums stay exact while the virtual
  // call amortizes (the sink's step-engine overhead knob).
  if (auto* sink = profile_sink()) {
    task.insn_probe_cycles += insn_cycles;
    if (++task.insn_probe_count >= profile_step_period_) {
      sink->on_guest_insn(task, result.insn_addr, task.insn_probe_cycles);
      task.insn_probe_cycles = 0;
      task.insn_probe_count = 0;
    }
  }
  charge(task, insn_cycles);
  if (!smp_active_) ++total_insns_;
  ++task.insns_retired;
  if (!insn_observers_.empty() && result.insn) {
    insn_observers_.notify(task, *result.insn);
  }
  if (result.kind == cpu::ExecKind::kSyscall) syscall_entry_from_sim(task);
  return task.runnable();
}

// ---------------------------------------------------------------------------
// Syscall entry (Figure 1)
// ---------------------------------------------------------------------------

void Machine::syscall_entry_from_sim(Task& task) {
  ++task.syscalls_entered;
  const std::uint64_t entry_nr = task.ctx.syscall_number();
  // Kernel-class scope for the whole entry path; SIGSYS-style interception
  // re-enters interposer scopes from inside it (nesting restores correctly).
  ScopedCycleClass scope(task, CycleClass::kKernel, entry_nr);
  charge(task, costs_.kernel_entry);

  const std::uint64_t nr = task.ctx.syscall_number();
  std::array<std::uint64_t, 6> args;
  for (std::size_t i = 0; i < 6; ++i) args[i] = task.ctx.syscall_arg(i);
  const std::uint64_t ip = task.ctx.rip;  // already advanced past the insn

  std::uint64_t forced_rax = 0;
  if (!intercept(task, nr, args, ip, /*from_host=*/false, &forced_rax)) {
    if (task.runnable() && task.ctx.rip == ip) {
      // Intercepted with a forced result (seccomp ERRNO / tracer-suppressed);
      // SIGSYS delivery instead redirects rip, and then rax must stay
      // untouched. The SYSCALL instruction itself already executed, so the
      // rcx/r11 clobber happens exactly as on the dispatch path.
      task.ctx.set_syscall_result(forced_rax);
      task.ctx.set_reg(isa::Gpr::rcx, ip);
      task.ctx.set_reg(isa::Gpr::r11, 0x246);
    }
    charge(task, costs_.kernel_exit);
    return;
  }

  const std::uint64_t result = dispatch(task, nr, args, SyscallOrigin::kSimCode);
  if (!task.runnable()) return;
  // sigreturn replaces the whole context, and so does a *successful* execve;
  // everything else (including a failed execve) returns a value in rax and
  // clobbers rcx/r11 like the real SYSCALL ABI.
  const bool context_replaced =
      nr == kSysRtSigreturn || (nr == kSysExecve && !is_error_result(result));
  if (!context_replaced) {
    task.ctx.set_syscall_result(result);
    task.ctx.set_reg(isa::Gpr::rcx, ip);
    task.ctx.set_reg(isa::Gpr::r11, 0x246);
  }
  charge(task, costs_.kernel_exit);
}

std::uint64_t Machine::syscall_from_host(Task& task, std::uint64_t nr,
                                         const std::array<std::uint64_t, 6>& args,
                                         std::uint64_t host_ip) {
  ++task.syscalls_entered;
  // A host interposer performing a syscall: kernel-class work nested inside
  // the caller's interposer scope.
  ScopedCycleClass scope(task, CycleClass::kKernel, nr);
  charge(task, costs_.kernel_entry);

  std::uint64_t forced_rax = errno_result(kENOSYS);
  if (!intercept(task, nr, args, host_ip, /*from_host=*/true, &forced_rax)) {
    charge(task, costs_.kernel_exit);
    return forced_rax;
  }
  const std::uint64_t result = dispatch(task, nr, args, SyscallOrigin::kHostCode);
  charge(task, costs_.kernel_exit);
  return result;
}

std::uint64_t Machine::supervised_dispatch(Task& task, std::uint64_t nr,
                                           const std::array<std::uint64_t, 6>& args) {
  ScopedCycleClass scope(task, CycleClass::kKernel, nr);
  charge(task, costs_.kernel_entry);
  const std::uint64_t result = dispatch(task, nr, args, SyscallOrigin::kHostCode);
  charge(task, costs_.kernel_exit);
  return result;
}

bool Machine::intercept(Task& task, std::uint64_t nr,
                        const std::array<std::uint64_t, 6>& args,
                        std::uint64_t ip, bool from_host,
                        std::uint64_t* forced_rax) {
  const bool any_interception =
      task.ptraced || !task.seccomp.empty() || task.sud.enabled;
  if (!any_interception) return true;
  // The entry path slows down as soon as any interception work is armed,
  // even for syscalls that end up exempt (paper Table II, "baseline with
  // SUD enabled").
  charge(task, costs_.intercept_check);

  // 1. ptrace syscall-entry stop.
  if (task.ptraced) {
    auto it = tracers_.find(task.tid);
    if (it != tracers_.end() && it->second.on_syscall_entry) {
      // The tracer round trip is interposer work: context switches into the
      // host tracer, per-stop ptrace requests, and the tracer's own code.
      ScopedCycleClass scope(task, CycleClass::kInterposer, kDetailPtraceStop);
      charge(task, 2 * costs_.context_switch +
                       costs_.ptrace_requests_per_stop * costs_.ptrace_request);
      it->second.on_syscall_entry(task, task.ctx);
    }
    if (it != tracers_.end() && it->second.on_syscall_suppress) {
      ScopedCycleClass scope(task, CycleClass::kInterposer, kDetailPtraceStop);
      std::uint64_t forced = errno_result(kENOSYS);
      if (it->second.on_syscall_suppress(task, task.ctx, nr, args, &forced)) {
        // The tracer rewrote orig_rax to -1: the kernel skips execution and
        // the tracer's chosen rax is materialized. No exit stop runs.
        *forced_rax = forced;
        return false;
      }
    }
  }

  // 2. seccomp filters (newest first; most restrictive action wins).
  if (!task.seccomp.empty()) {
    std::uint32_t decisive = bpf::SECCOMP_RET_ALLOW;
    auto rank = [](std::uint32_t action) {
      const std::uint32_t base = action & bpf::SECCOMP_RET_ACTION_FULL;
      switch (base) {
        case bpf::SECCOMP_RET_KILL_PROCESS: return 0;
        case bpf::SECCOMP_RET_KILL_THREAD: return 1;
        case bpf::SECCOMP_RET_TRAP: return 2;
        case bpf::SECCOMP_RET_ERRNO: return 3;
        case bpf::SECCOMP_RET_USER_NOTIF: return 4;
        case bpf::SECCOMP_RET_TRACE: return 5;
        case bpf::SECCOMP_RET_LOG: return 6;
        default: return 7;  // ALLOW
      }
    };
    bpf::SeccompData data;
    data.nr = static_cast<std::int32_t>(nr);
    data.arch = bpf::kAuditArchX86_64;
    data.instruction_pointer = ip;
    for (std::size_t i = 0; i < 6; ++i) data.args[i] = args[i];
    const auto bytes = data.serialize();
    for (const auto& filter : task.seccomp) {
      charge(task, costs_.seccomp_setup);
      auto run = bpf::run(*filter, bytes);
      std::uint32_t action = bpf::SECCOMP_RET_KILL_PROCESS;
      if (run) {
        charge(task, run.value().insns_executed * costs_.seccomp_insn);
        action = run.value().value;
      }
      if (rank(action) < rank(decisive)) decisive = action;
    }
    if (auto* sink = trace_sink()) {
      sink->on_seccomp_decision(task, nr, decisive);
    }
    const std::uint32_t base = decisive & bpf::SECCOMP_RET_ACTION_FULL;
    if (base == bpf::SECCOMP_RET_KILL_PROCESS) {
      kill_process(*task.process, 128 + kSigsys, "seccomp: kill process");
      return false;
    }
    if (base == bpf::SECCOMP_RET_KILL_THREAD) {
      exit_task(task, 128 + kSigsys);
      return false;
    }
    if (base == bpf::SECCOMP_RET_ERRNO) {
      *forced_rax = errno_result(
          static_cast<std::int64_t>(decisive & bpf::SECCOMP_RET_DATA));
      return false;
    }
    if (base == bpf::SECCOMP_RET_TRAP) {
      if (from_host) {
        kill_process(*task.process, 128 + kSigsys,
                     "seccomp TRAP on host interposer syscall (recursion)");
        return false;
      }
      SigInfo info;
      info.signo = kSigsys;
      info.code = kSigsysSeccomp;
      info.syscall_nr = nr;
      for (std::size_t i = 0; i < 6; ++i) info.syscall_args[i] = args[i];
      info.ip_after_syscall = ip;
      deliver_signal(task, info);
      return false;
    }
    if (base == bpf::SECCOMP_RET_USER_NOTIF) {
      if (user_notif_) {
        // Supervisor round trip: two context switches plus handling. The
        // supervisor is interposer-runtime work, not kernel dispatch.
        ScopedCycleClass scope(task, CycleClass::kInterposer, kDetailUserNotif);
        charge(task, 2 * costs_.context_switch);
        *forced_rax = user_notif_(task, nr, args);
        return false;
      }
      *forced_rax = errno_result(kENOSYS);
      return false;
    }
    // TRACE/LOG/ALLOW fall through to SUD.
  }

  // 3. Syscall User Dispatch.
  if (task.sud.enabled) {
    charge(task, costs_.sud_range_check);
    // Linux checks the *instruction pointer at syscall entry* against the
    // allowlisted range (syscall_user_dispatch.c).
    if (!task.sud.in_allowed_range(ip)) {
      charge(task, costs_.sud_selector_read);
      std::uint8_t selector = kSudAllow;
      if (auto read = task.mem->read_force(task.sud.selector_addr, {&selector, 1});
          !read.is_ok()) {
        kill_process(*task.process, 139, "SUD: selector byte unreadable");
        return false;
      }
      if (selector == kSudBlock) {
        if (from_host) {
          kill_process(*task.process, 128 + kSigsys,
                       "recursive SUD interception of host interposer syscall "
                       "(selector left as BLOCK)");
          return false;
        }
        ++task.sud_sigsys_count;
        SigInfo info;
        info.signo = kSigsys;
        info.code = kSigsysUserDispatch;
        info.syscall_nr = nr;
        for (std::size_t i = 0; i < 6; ++i) info.syscall_args[i] = args[i];
        info.ip_after_syscall = ip;
        deliver_signal(task, info);
        return false;
      }
      if (selector != kSudAllow) {
        // Linux kills the task on an invalid selector value (SIGSYS).
        kill_process(*task.process, 128 + kSigsys, "SUD: invalid selector value");
        return false;
      }
    }
  }
  return true;
}

std::uint64_t Machine::dispatch(Task& task, std::uint64_t nr,
                                const std::array<std::uint64_t, 6>& args,
                                SyscallOrigin origin) {
  ++task.syscalls_dispatched;
  syscall_observers_.notify(task, nr, args, origin);
  std::uint64_t result = sys_dispatch_table(task, nr, args);

  // ptrace syscall-exit stop.
  if (task.runnable() && task.ptraced) {
    auto it = tracers_.find(task.tid);
    if (it != tracers_.end() && it->second.on_syscall_exit) {
      ScopedCycleClass scope(task, CycleClass::kInterposer, kDetailPtraceStop);
      charge(task, 2 * costs_.context_switch +
                       costs_.ptrace_requests_per_stop * costs_.ptrace_request);
      it->second.on_syscall_exit(task, task.ctx, nr, args, result);
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Misc services
// ---------------------------------------------------------------------------

void Machine::charge(Task& task, std::uint64_t cycles) noexcept {
  task.cycles += cycles;
  // The machine-global counter is SMP-stale between barriers: lanes charge
  // only their own tasks, and run_smp recomputes the total from task sums at
  // every barrier. Writes from multiple lanes would race; per-task sums are
  // the ground truth either way.
  if (!smp_active_) total_cycles_ += cycles;
  // Every charged cycle is mirrored to the profiling sink — this is what
  // makes a profiler's per-class sums equal total_cycles() exactly. Runs of
  // charges sharing one (class, detail) attribution are coalesced into one
  // on_cycles call (a modeled syscall is many small charges under the same
  // attribution), so the per-charge mirror cost is two compares and an add.
  // Flushed on attribution change here and at every run-loop exit.
  auto* sink = profile_sink();
  if (sink == nullptr) return;
  // Same attribution epoch as the pending run: one compare, one add. (The
  // epoch bumps on every ScopedCycleClass boundary, so equal epochs imply
  // equal class and detail — all attribution writes go through that scope.)
  if (task.pending_epoch == task.attr_epoch && task.pending_cycles != 0) {
    task.pending_cycles += cycles;
    return;
  }
  if (task.pending_cycles != 0 && (task.pending_cls != task.cycle_class ||
                                   task.pending_detail != task.cycle_detail)) {
    sink->on_cycles(task, task.pending_cls, task.pending_detail,
                    task.pending_cycles);
    task.pending_cycles = 0;
  }
  task.pending_cls = task.cycle_class;
  task.pending_detail = task.cycle_detail;
  task.pending_epoch = task.attr_epoch;
  task.pending_cycles += cycles;
  task.pending_rbp = task.ctx.reg(isa::Gpr::rbp);
}

void Machine::flush_profile(Task& task) noexcept {
  if (task.pending_cycles == 0) return;
  if (auto* sink = profile_sink()) {
    sink->on_cycles(task, task.pending_cls, task.pending_detail,
                    task.pending_cycles);
  }
  task.pending_cycles = 0;
}

void Machine::flush_profile_mirror() noexcept {
  if (profile_sink_ == nullptr) return;
  for (auto& [tid, task] : tasks_) flush_profile(*task);
  for (auto& task : nursery_) flush_profile(*task);
}

cpu::DecodeCacheStats Machine::decode_cache_totals() const {
  cpu::DecodeCacheStats totals;
  auto add = [&totals](const Task& task) {
    const cpu::DecodeCacheStats& stats = task.dcache.stats();
    totals.hits += stats.hits;
    totals.misses += stats.misses;
    totals.invalidations += stats.invalidations;
    totals.flushes += stats.flushes;
  };
  for (const auto& [tid, task] : tasks_) add(*task);
  for (const auto& task : nursery_) add(*task);
  return totals;
}

cpu::BlockCacheStats Machine::block_cache_totals() const {
  cpu::BlockCacheStats totals;
  auto add = [&totals](const Task& task) {
    const cpu::BlockCacheStats& stats = task.bcache.stats();
    totals.hits += stats.hits;
    totals.misses += stats.misses;
    totals.invalidations += stats.invalidations;
    totals.flushes += stats.flushes;
    totals.blocks_built += stats.blocks_built;
  };
  for (const auto& [tid, task] : tasks_) add(*task);
  for (const auto& task : nursery_) add(*task);
  return totals;
}

cpu::DataTlbStats Machine::data_tlb_totals() const {
  cpu::DataTlbStats totals;
  auto add = [&totals](const Task& task) {
    const cpu::DataTlbStats& stats = task.dtlb.stats();
    totals.read_hits += stats.read_hits;
    totals.read_fallbacks += stats.read_fallbacks;
    totals.write_hits += stats.write_hits;
    totals.write_fallbacks += stats.write_fallbacks;
  };
  for (const auto& [tid, task] : tasks_) add(*task);
  for (const auto& task : nursery_) add(*task);
  return totals;
}

void Machine::attach_tracer(Tid tid, TracerHooks hooks) {
  if (Task* task = find_task(tid)) {
    task->ptraced = true;
    tracers_[tid] = std::move(hooks);
  }
}

void Machine::detach_tracer(Tid tid) {
  if (Task* task = find_task(tid)) task->ptraced = false;
  tracers_.erase(tid);
}

void Machine::kill_process(Process& process, int exit_code,
                           const std::string& reason) {
  LZP_LOG_DEBUG << "kill_process pid=" << process.pid << ": " << reason;
  {
    // Two SMP lanes can each kill their own process concurrently; the shared
    // diagnostic slot needs the lock (last writer wins, as in a real kernel
    // log). Everything else here touches only this process's tasks, which
    // gang placement keeps on the calling CPU.
    std::lock_guard<std::mutex> lock(fatal_mu_);
    last_fatal_ = reason;
  }
  process.exited = true;
  process.exit_code = exit_code;
  for (auto& [tid, task] : tasks_) {
    if (task->process.get() == &process) {
      task->state = TaskState::kExited;
      task->exit_code = exit_code;
    }
  }
  std::lock_guard<std::mutex> lock(nursery_mu_);
  for (auto& task : nursery_) {
    if (task->process.get() == &process) {
      task->state = TaskState::kExited;
      task->exit_code = exit_code;
    }
  }
}

void Machine::register_program(const isa::Program& program) {
  {
    std::lock_guard<std::mutex> lock(programs_mu_);
    programs_[program.name] = program;
  }
  // Install the on-disk image too (LZPF): execve can load it from the VFS
  // and file-oriented tools (static rewriters) can scan it like a binary.
  (void)vfs_.put_file(isa::program_path(program.name),
                      isa::serialize_program(program));
}

const isa::Program* Machine::find_program(const std::string& name) const {
  // The map is insert-only and std::map nodes are address-stable, so the
  // returned pointer outlives the lock; the lock serializes concurrent
  // execve image-cache fills from different SMP lanes.
  {
    std::lock_guard<std::mutex> lock(programs_mu_);
    auto it = programs_.find(name);
    if (it != programs_.end()) return &it->second;
  }
  // Fall back to an LZPF image in the VFS (installed without registration).
  const std::string path = isa::program_path(name);
  if (!vfs_.exists(path)) return nullptr;
  std::vector<std::uint8_t> bytes;
  auto meta = vfs_.stat(path);
  if (!meta.is_ok()) return nullptr;
  if (!vfs_.read(path, 0, meta.value().size, &bytes).is_ok()) return nullptr;
  auto parsed = isa::parse_program(bytes);
  if (!parsed.is_ok()) return nullptr;
  std::lock_guard<std::mutex> lock(programs_mu_);
  auto [inserted, ok] = programs_.emplace(name, std::move(parsed).value());
  return &inserted->second;
}

void Machine::adopt_task(std::unique_ptr<Task> task) {
  attach_dcache_probe(*task);
  std::lock_guard<std::mutex> lock(nursery_mu_);
  nursery_.push_back(std::move(task));
}

void Machine::attach_dcache_probe(Task& task) {
  // The Task is owned by a unique_ptr in tasks_/nursery_, so its address is
  // stable for the listener's whole lifetime.
  Task* t = &task;
  task.dcache.set_invalidation_listener([this, t](std::uint64_t rip) {
    if (auto* sink = trace_sink()) sink->on_decode_invalidation(*t, rip);
  });
  task.bcache.set_invalidation_listener([this, t](std::uint64_t rip) {
    if (auto* sink = trace_sink()) sink->on_block_invalidation(*t, rip);
  });
}

void Machine::note_task_switch(const Task& task) {
  if (task.tid != last_sliced_tid_) {
    if (auto* sink = trace_sink()) {
      sink->on_task_event(task, TraceSink::TaskEvent::kSwitch, 0);
    }
  }
  last_sliced_tid_ = task.tid;
}

// In SMP mode each simulated CPU allocates from its own disjoint range
// (1'000'000 * (cpu + 1) + n), so concurrent clones on different CPUs get
// reproducible ids without synchronization. The single-threaded 100+ range
// stays untouched, keeping legacy runs bit-identical.
Tid Machine::allocate_tid(unsigned cpu) {
  if (smp_active_) return smp_next_tid_[cpu]++;
  return next_tid_++;
}
Pid Machine::allocate_pid(unsigned cpu) {
  if (smp_active_) return smp_next_pid_[cpu]++;
  return next_pid_++;
}

}  // namespace lzp::kern
