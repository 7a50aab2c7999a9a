// Second kernel suite: syscall surface breadth, SYSENTER, vfork, signal
// machinery details, Figure-1 interception ordering, accounting, and the
// bounds on guest mmap/munmap/mprotect lengths.
#include <gtest/gtest.h>

#include "bpf/seccomp_filter.hpp"
#include "sim_test_util.hpp"

namespace lzp::kern {
namespace {

using isa::Assembler;
using isa::Gpr;
using testutil::load_and_run;

TEST(Machine2Test, SysenterBehavesLikeSyscall) {
  Machine machine;
  Assembler a;
  auto entry = a.new_label();
  a.bind(entry);
  a.mov(Gpr::rax, kSysGetpid);
  a.sysenter_();
  a.mov(Gpr::rdi, Gpr::rax);
  a.mov(Gpr::rax, kSysExitGroup);
  a.sysenter_();
  auto program = isa::make_program("sysenter", a, entry).value();
  Tid tid = 0;
  const int code = load_and_run(machine, program, &tid);
  EXPECT_EQ(code, static_cast<int>(machine.find_task(tid)->process->pid));
}

TEST(Machine2Test, VforkCreatesChildLikeFork) {
  Machine machine;
  Assembler a;
  auto entry = a.new_label();
  auto child_path = a.new_label();
  a.bind(entry);
  a.mov(Gpr::rax, kSysVfork);
  a.syscall_();
  a.cmp(Gpr::rax, 0);
  a.jz(child_path);
  apps::emit_exit(a, 1);
  a.bind(child_path);
  apps::emit_exit(a, 2);
  auto program = isa::make_program("vforker", a, entry).value();
  Tid tid = 0;
  EXPECT_EQ(load_and_run(machine, program, &tid), 1);
  bool found_child = false;
  for (Tid other : machine.task_ids()) {
    if (other == tid) continue;
    found_child = true;
    EXPECT_EQ(machine.find_task(other)->exit_code, 2);
    // vfork child got its own address space copy in our model.
    EXPECT_NE(machine.find_task(other)->mem.get(),
              machine.find_task(tid)->mem.get());
  }
  EXPECT_TRUE(found_child);
}

TEST(Machine2Test, LseekMovesFileOffset) {
  Machine machine;
  (void)machine.vfs().put_file("f", {'a', 'b', 'c', 'd', 'e'});
  Assembler a;
  auto entry = a.new_label();
  a.bind(entry);
  const std::uint64_t path = apps::embed_string(a, "f");
  a.mov(Gpr::rdi, path);
  a.mov(Gpr::rsi, 0);
  apps::emit_syscall(a, kSysOpen);
  a.mov(Gpr::rbx, Gpr::rax);
  // lseek(fd, -2, SEEK_END) -> offset 3
  a.mov(Gpr::rdi, Gpr::rbx);
  a.mov(Gpr::rsi, static_cast<std::uint64_t>(-2));
  a.mov(Gpr::rdx, 2);
  apps::emit_syscall(a, kSysLseek);
  // read 10 -> should read 2 bytes ('d','e')
  a.mov(Gpr::rdi, Gpr::rbx);
  a.mov(Gpr::rsi, apps::kScratchBuf);
  a.mov(Gpr::rdx, 10);
  apps::emit_syscall(a, kSysRead);
  a.mov(Gpr::rdi, Gpr::rax);
  apps::emit_syscall(a, kSysExitGroup);
  auto program = isa::make_program("seeker", a, entry).value();
  EXPECT_EQ(load_and_run(machine, program), 2);
}

TEST(Machine2Test, DupSharesPath) {
  Machine machine;
  (void)machine.vfs().put_file("f", {'x'});
  Assembler a;
  auto entry = a.new_label();
  a.bind(entry);
  const std::uint64_t path = apps::embed_string(a, "f");
  a.mov(Gpr::rdi, path);
  a.mov(Gpr::rsi, 0);
  apps::emit_syscall(a, kSysOpen);
  a.mov(Gpr::rdi, Gpr::rax);
  apps::emit_syscall(a, kSysDup);
  a.mov(Gpr::rdi, Gpr::rax);
  a.mov(Gpr::rsi, apps::kScratchBuf);
  a.mov(Gpr::rdx, 10);
  apps::emit_syscall(a, kSysRead);  // via the dup'ed fd
  a.mov(Gpr::rdi, Gpr::rax);
  apps::emit_syscall(a, kSysExitGroup);
  auto program = isa::make_program("duper", a, entry).value();
  EXPECT_EQ(load_and_run(machine, program), 1);
}

TEST(Machine2Test, Pipe2WritesFdPair) {
  Machine machine;
  Assembler a;
  auto entry = a.new_label();
  a.bind(entry);
  a.mov(Gpr::rdi, apps::kDataBase);
  a.mov(Gpr::rsi, 0);
  apps::emit_syscall(a, kSysPipe2);
  a.mov(Gpr::r9, apps::kDataBase);
  a.load(Gpr::rdi, Gpr::r9, 0);  // packed fds
  apps::emit_syscall(a, kSysExitGroup);
  auto program = isa::make_program("piper", a, entry).value();
  Tid tid = 0;
  const int code = load_and_run(machine, program, &tid);
  const int rfd = code & 0xFFFF;  // low half of the packed word (small fds)
  EXPECT_GE(rfd, 3);
  EXPECT_TRUE(machine.find_task(tid)->process->fds.count(rfd));
}

TEST(Machine2Test, SigaltstackRegistersAndDeliversOnIt) {
  Machine machine;
  auto program = testutil::make_syscall_loop(kSysGetpid, 2000, "alt");
  auto tid = machine.load(program).value();
  Task* task = machine.find_task(tid);

  // Register an alternate stack inside the data region.
  task->altstack.base = Machine::kDataRegionBase + 0x10000;
  task->altstack.size = 0x4000;

  std::uint64_t handler_rsp = 0;
  const std::uint64_t addr =
      machine.bind_host("alt.handler", [&](HostFrame& frame) {
        handler_rsp = frame.ctx.rsp();
        frame.task.signal_frames.back().saved_context.set_reg(Gpr::rbx, 1);
        (void)frame.syscall(kSysRtSigreturn);
      });
  task->process->sigactions[kSigusr1] =
      SigAction{addr, kSaSiginfo | kSaOnstack, 0};

  machine.run(64);
  SigInfo info;
  info.signo = kSigusr1;
  task->pending_signals.push_back(info);
  machine.run();
  // Delivered on the alternate stack: rsp inside [base, base+size].
  EXPECT_GE(handler_rsp, task->altstack.base);
  EXPECT_LE(handler_rsp, task->altstack.base + task->altstack.size);
}

TEST(Machine2Test, HandlerMaskBlocksNestedDelivery) {
  Machine machine;
  auto program = testutil::make_syscall_loop(kSysGetpid, 4000, "masknest");
  auto tid = machine.load(program).value();
  Task* task = machine.find_task(tid);

  int usr1_runs = 0;
  int usr2_runs_during_usr1 = 0;
  bool in_usr1 = false;
  const std::uint64_t usr2_addr =
      machine.bind_host("usr2", [&](HostFrame& frame) {
        usr2_runs_during_usr1 += in_usr1 ? 1 : 0;
        (void)frame.syscall(kSysRtSigreturn);
      });
  const std::uint64_t usr1_addr =
      machine.bind_host("usr1", [&](HostFrame& frame) {
        ++usr1_runs;
        in_usr1 = true;
        // Pend SIGUSR2 while it is blocked by our sa_mask: it must not be
        // delivered until we return.
        SigInfo nested;
        nested.signo = kSigusr2;
        frame.task.pending_signals.push_back(nested);
        // Give the scheduler a chance: the signal stays pending because the
        // mask blocks it (delivery happens between steps, not inside host
        // functions, so we verify post-return).
        frame.task.signal_frames.back().saved_context.set_reg(Gpr::rbx, 2);
        in_usr1 = false;
        (void)frame.syscall(kSysRtSigreturn);
      });
  task->process->sigactions[kSigusr1] =
      SigAction{usr1_addr, kSaSiginfo, 1ULL << kSigusr2};
  task->process->sigactions[kSigusr2] = SigAction{usr2_addr, kSaSiginfo, 0};

  machine.run(64);
  SigInfo info;
  info.signo = kSigusr1;
  task->pending_signals.push_back(info);
  machine.run();
  EXPECT_EQ(usr1_runs, 1);
  EXPECT_EQ(usr2_runs_during_usr1, 0);
  EXPECT_EQ(task->exit_code, 0);
}

TEST(Machine2Test, SeccompRunsBeforeSudInEntryPath) {
  // Figure 1 ordering: a seccomp ERRNO verdict short-circuits before SUD
  // would have raised SIGSYS.
  Machine machine;
  auto program = testutil::make_getpid_once();
  auto tid = machine.load(program).value();
  Task* task = machine.find_task(tid);

  // SUD armed with BLOCK and no handler: if SUD saw the syscall, the
  // process would die (default SIGSYS).
  auto page = task->mem->map(0, 4096, mem::kProtRead | mem::kProtWrite, false)
                  .value();
  (void)task->mem->write_u8(page, kSudBlock);
  task->sud.enabled = true;
  task->sud.selector_addr = page;

  // seccomp: everything -> ERRNO 11.
  auto filter = bpf::SeccompFilterBuilder::return_constant(
      bpf::SECCOMP_RET_ERRNO | 11);
  task->seccomp.push_back(
      std::make_shared<const std::vector<bpf::Insn>>(std::move(filter)));

  machine.run();
  // The program survived to its exit_group (also ERRNO'd, so it falls off
  // the end and faults) — the important part: no SIGSYS kill (128+31).
  EXPECT_NE(task->exit_code, 128 + kSigsys);
}

TEST(Machine2Test, SeccompKillThreadOnlyKillsOneThread) {
  Machine machine;
  Assembler a;
  auto entry = a.new_label();
  auto child_path = a.new_label();
  auto spin = a.new_label();
  a.bind(entry);
  a.mov(Gpr::rdi, kCloneVm | kCloneThread);
  a.mov(Gpr::rsi, apps::kDataBase + 0x8000);
  a.mov(Gpr::rax, kSysClone);
  a.syscall_();
  a.cmp(Gpr::rax, 0);
  a.jz(child_path);
  // Parent waits for the child's flag, then exits 0.
  a.bind(spin);
  a.mov(Gpr::r9, apps::kDataBase);
  a.load(Gpr::rcx, Gpr::r9, 0x40);
  a.cmp(Gpr::rcx, 1);
  a.jnz(spin);
  // Plain exit (not exit_group): exit_group would overwrite the already-dead
  // sibling's exit code when tearing down the whole thread group.
  a.mov(Gpr::rdi, 0);
  a.mov(Gpr::rax, kSysExit);
  a.syscall_();
  a.bind(child_path);
  // Child: set the flag, then perform the killed syscall.
  a.mov(Gpr::r9, apps::kDataBase);
  a.mov(Gpr::rcx, 1);
  a.store(Gpr::r9, 0x40, Gpr::rcx);
  a.mov(Gpr::rax, kSysGetpid);
  a.syscall_();  // seccomp kills this thread
  a.hlt();
  auto program = isa::make_program("threadkill", a, entry).value();
  auto tid = machine.load(program).value();

  // Attach KILL_THREAD-for-getpid to... the child only. The child does not
  // exist yet, so attach to the parent and rely on inheritance; the parent
  // must avoid getpid (it does).
  const std::uint32_t trapped[] = {kSysGetpid};
  auto filter =
      bpf::SeccompFilterBuilder::trap_syscalls(trapped,
                                               bpf::SECCOMP_RET_KILL_THREAD)
          .value();
  machine.find_task(tid)->seccomp.push_back(
      std::make_shared<const std::vector<bpf::Insn>>(std::move(filter)));

  auto stats = machine.run();
  EXPECT_TRUE(stats.all_exited) << machine.last_fatal();
  EXPECT_EQ(machine.find_task(tid)->exit_code, 0) << "parent unaffected";
  for (Tid other : machine.task_ids()) {
    if (other != tid) {
      EXPECT_EQ(machine.find_task(other)->exit_code, 128 + kSigsys);
    }
  }
}

TEST(Machine2Test, WritevToStdoutGathersIovecs) {
  Machine machine;
  Assembler a;
  auto entry = a.new_label();
  a.bind(entry);
  // Build "hi!" from two iovecs in data memory.
  a.mov(Gpr::r9, apps::kDataBase);
  a.mov(Gpr::rcx, 'h' | ('i' << 8));
  a.store(Gpr::r9, 0x100, Gpr::rcx);  // bytes "hi"
  a.mov(Gpr::rcx, '!');
  a.store(Gpr::r9, 0x110, Gpr::rcx);  // byte "!"
  // iov[0] = {base+0x100, 2}; iov[1] = {base+0x110, 1}
  a.mov(Gpr::rcx, apps::kDataBase + 0x100);
  a.store(Gpr::r9, 0, Gpr::rcx);
  a.mov(Gpr::rcx, 2);
  a.store(Gpr::r9, 8, Gpr::rcx);
  a.mov(Gpr::rcx, apps::kDataBase + 0x110);
  a.store(Gpr::r9, 16, Gpr::rcx);
  a.mov(Gpr::rcx, 1);
  a.store(Gpr::r9, 24, Gpr::rcx);
  a.mov(Gpr::rdi, 1);
  a.mov(Gpr::rsi, apps::kDataBase);
  a.mov(Gpr::rdx, 2);
  apps::emit_syscall(a, kSysWritev);
  a.mov(Gpr::rdi, Gpr::rax);  // total bytes
  apps::emit_syscall(a, kSysExitGroup);
  auto program = isa::make_program("writev", a, entry).value();
  Tid tid = 0;
  EXPECT_EQ(load_and_run(machine, program, &tid), 3);
  EXPECT_EQ(machine.find_task(tid)->process->console, "hi!");
}

TEST(Machine2Test, RunBudgetStopsWithoutQuiescing) {
  Machine machine;
  Assembler a;
  auto entry = a.new_label();
  auto spin = a.new_label();
  a.bind(entry);
  a.bind(spin);
  a.jmp(spin);  // infinite loop
  auto program = isa::make_program("spinner", a, entry).value();
  auto tid = machine.load(program).value();
  const auto stats = machine.run(1000);
  EXPECT_FALSE(stats.all_exited);
  EXPECT_TRUE(machine.find_task(tid)->runnable());
  EXPECT_GE(stats.insns, 1000u);
}

TEST(Machine2Test, AccountingCountersAreConsistent) {
  Machine machine;
  auto program = testutil::make_syscall_loop(kSysGetpid, 10, "acct");
  Tid tid = 0;
  load_and_run(machine, program, &tid);
  const Task* task = machine.find_task(tid);
  EXPECT_EQ(task->syscalls_entered, 11u);      // 10 getpid + exit
  EXPECT_EQ(task->syscalls_dispatched, 11u);
  EXPECT_GT(task->insns_retired, 11u);
  EXPECT_GT(task->cycles, 11 * machine.costs().raw_nosys_roundtrip() / 2);
  EXPECT_EQ(machine.total_cycles(), task->cycles);
}

TEST(Machine2Test, GetrandomFillsDeterministicBytes) {
  Machine machine;
  Assembler a;
  auto entry = a.new_label();
  a.bind(entry);
  a.mov(Gpr::rdi, apps::kDataBase);
  a.mov(Gpr::rsi, 16);
  a.mov(Gpr::rdx, 0);
  apps::emit_syscall(a, kSysGetrandom);
  a.mov(Gpr::rdi, Gpr::rax);
  apps::emit_syscall(a, kSysExitGroup);
  auto program = isa::make_program("random", a, entry).value();
  Tid tid = 0;
  EXPECT_EQ(load_and_run(machine, program, &tid), 16);
  // Bytes were actually written (not all zero).
  auto word = machine.find_task(tid)->mem->read_u64(apps::kDataBase);
  EXPECT_NE(word.value(), 0u);
}

TEST(Machine2Test, ArchPrctlSetsAndGetsGsBase) {
  Machine machine;
  Assembler a;
  auto entry = a.new_label();
  a.bind(entry);
  a.mov(Gpr::rdi, kArchSetGs);
  a.mov(Gpr::rsi, 0x1234000);
  apps::emit_syscall(a, kSysArchPrctl);
  a.mov(Gpr::rdi, kArchGetGs);
  a.mov(Gpr::rsi, apps::kDataBase);
  apps::emit_syscall(a, kSysArchPrctl);
  a.mov(Gpr::r9, apps::kDataBase);
  a.load(Gpr::rdi, Gpr::r9, 0);
  apps::emit_syscall(a, kSysExitGroup);
  auto program = isa::make_program("archprctl", a, entry).value();
  EXPECT_EQ(load_and_run(machine, program), 0x1234000);
}

TEST(Machine2Test, PrctlSudRoundTripViaSyscalls) {
  // Enable SUD through the real prctl interface with selector=ALLOW, then
  // disable it again: the program must run unhindered both ways.
  Machine machine;
  Assembler a;
  auto entry = a.new_label();
  a.bind(entry);
  a.mov(Gpr::r9, apps::kDataBase);
  a.mov(Gpr::rcx, kSudAllow);
  a.store8(Gpr::r9, 0x50, Gpr::rcx);
  a.mov(Gpr::rdi, kPrSetSyscallUserDispatch);
  a.mov(Gpr::rsi, kPrSysDispatchOn);
  a.mov(Gpr::rdx, 0);
  a.mov(Gpr::r10, 0);
  a.mov(Gpr::r8, apps::kDataBase + 0x50);
  apps::emit_syscall(a, kSysPrctl);
  a.mov(Gpr::rax, kSysGetpid);  // allowed (selector ALLOW)
  a.syscall_();
  a.mov(Gpr::rdi, kPrSetSyscallUserDispatch);
  a.mov(Gpr::rsi, kPrSysDispatchOff);
  apps::emit_syscall(a, kSysPrctl);
  apps::emit_exit(a, 0);
  auto program = isa::make_program("sudprctl", a, entry).value();
  Tid tid = 0;
  EXPECT_EQ(load_and_run(machine, program, &tid), 0);
  EXPECT_FALSE(machine.find_task(tid)->sud.enabled);
}

TEST(Machine2Test, BadPrctlSelectorAddressFails) {
  Machine machine;
  Assembler a;
  auto entry = a.new_label();
  a.bind(entry);
  a.mov(Gpr::rdi, kPrSetSyscallUserDispatch);
  a.mov(Gpr::rsi, kPrSysDispatchOn);
  a.mov(Gpr::rdx, 0);
  a.mov(Gpr::r10, 0);
  a.mov(Gpr::r8, 0xBAD0'0000);  // unmapped selector
  apps::emit_syscall(a, kSysPrctl);
  a.mov(Gpr::rbx, 0);
  a.sub(Gpr::rbx, Gpr::rax);
  a.mov(Gpr::rdi, Gpr::rbx);
  apps::emit_syscall(a, kSysExitGroup);
  auto program = isa::make_program("badsud", a, entry).value();
  EXPECT_EQ(load_and_run(machine, program), kEFAULT);
}

TEST(Machine2Test, KillDeliversToTargetProcess) {
  Machine machine;
  auto looper = testutil::make_syscall_loop(kSysSchedYield, 100000, "victim");
  auto victim = machine.load(looper).value();

  Assembler a;
  auto entry = a.new_label();
  a.bind(entry);
  a.mov(Gpr::rdi, machine.find_task(victim)->process->pid);
  a.mov(Gpr::rsi, kSigterm);
  apps::emit_syscall(a, kSysKill);
  apps::emit_exit(a, 0);
  auto program = isa::make_program("killer", a, entry).value();
  auto killer = machine.load(program).value();

  auto stats = machine.run();
  EXPECT_TRUE(stats.all_exited);
  EXPECT_EQ(machine.find_task(killer)->exit_code, 0);
  EXPECT_EQ(machine.find_task(victim)->exit_code, 128 + kSigterm);
}

// --- guest memory-map lengths ------------------------------------------------
//
// A guest length must never cost host work per page it names: each of these
// calls either hung the host (one probe per requested page) or wrapped to
// zero pages and "succeeded". ctest's TIMEOUT turns a regression into a
// failure rather than a hung suite.

constexpr std::uint64_t kMapPrivateAnon = 0x22;
constexpr std::uint64_t kProtRw = 3;

// Runs syscall `nr` with the given arguments and exits with its negated
// result, so a failing call's exit code is its errno.
int errno_of(std::uint64_t nr, std::uint64_t a0, std::uint64_t a1,
             std::uint64_t a2, std::uint64_t a3 = 0) {
  Machine machine;
  Assembler a;
  auto entry = a.new_label();
  a.bind(entry);
  a.mov(Gpr::rdi, a0);
  a.mov(Gpr::rsi, a1);
  a.mov(Gpr::rdx, a2);
  a.mov(Gpr::r10, a3);
  apps::emit_syscall(a, nr);
  a.mov(Gpr::rbx, 0);
  a.sub(Gpr::rbx, Gpr::rax);
  a.mov(Gpr::rdi, Gpr::rbx);
  apps::emit_syscall(a, kSysExitGroup);
  return load_and_run(machine, isa::make_program("maplimits", a, entry).value());
}

TEST(MapLimitsTest, HugeMmapFailsFastWithEnomem) {
  EXPECT_EQ(errno_of(kSysMmap, 0, 1ULL << 62, kProtRw, kMapPrivateAnon),
            kENOMEM);
  // A fixed mapping must end at or below the user VA top.
  EXPECT_EQ(errno_of(kSysMmap, Machine::kStackTop, 2 * mem::kPageSize,
                     kProtRw, kMapPrivateAnon | 0x10),
            kENOMEM);
}

TEST(MapLimitsTest, WrappingMmapLengthIsRejected) {
  // page_ceil of this length wraps to zero pages.
  EXPECT_EQ(errno_of(kSysMmap, 0, ~std::uint64_t{0} - 100, kProtRw,
                     kMapPrivateAnon),
            kENOMEM);
}

TEST(MapLimitsTest, HugeMunmapAndMprotectAreRejected) {
  EXPECT_EQ(errno_of(kSysMunmap, Machine::kDataRegionBase, 1ULL << 62, 0),
            kEINVAL);
  EXPECT_EQ(errno_of(kSysMprotect, Machine::kDataRegionBase, 1ULL << 62,
                     kProtRw),
            kENOMEM);
}

TEST(MapLimitsTest, LargeMunmapVisitsOnlyMappedPages) {
  // ~2^35 pages up to just below the stack, all but the data region
  // unmapped: succeeds, like Linux, without visiting each page.
  EXPECT_EQ(errno_of(kSysMunmap, Machine::kDataRegionBase,
                     (1ULL << 47) - (1ULL << 24), 0),
            0);
}

}  // namespace
}  // namespace lzp::kern
