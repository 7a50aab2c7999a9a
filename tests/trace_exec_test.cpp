// Trace execution engine (cpu/trace_cache + Machine::trace_step):
//   * formation and chaining on hot loops, with bit-identical cycle, retired,
//     and step counts against the per-instruction reference path,
//   * slice-continuation resumes: chains longer than the scheduling quantum
//     park at the slice edge and re-enter mid-trace,
//   * SMC mid-run: a privileged rewrite of a page embedded in installed
//     traces invalidates exactly those traces and the patched bytes take
//     effect (no stale-trace execution),
//   * churn demotion and resume revalidation at the TraceCache unit level,
//   * the fused lazypoline fast path: host-call dispatches executed inside a
//     trace without leaving the dispatch loop,
//   * SMP: 4-CPU run with self-modifying rewrites shooting down chained
//     traces on other CPUs mid-execution.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>
#include <vector>

#include "apps/minilibc.hpp"
#include "apps/webserver.hpp"
#include "cpu/block_cache.hpp"
#include "cpu/trace_cache.hpp"
#include "isa/assemble.hpp"
#include "kernel/machine.hpp"
#include "kernel/syscalls.hpp"
#include "scenario/scenario.hpp"
#include "sim_test_util.hpp"

namespace lzp {
namespace {

using isa::Assembler;
using isa::Gpr;

#ifdef LZP_TRACE_EXEC_DISABLED
constexpr bool kTraceEngineBuilt = false;
#else
constexpr bool kTraceEngineBuilt = true;
#endif

struct Outcome {
  int exit_code = 0;
  std::uint64_t cycles = 0;
  std::uint64_t insns = 0;
  std::uint64_t steps = 0;
  cpu::TraceCacheStats tcache;
};

Outcome run_program(const isa::Program& program, bool trace_on) {
  kern::Machine machine;
  kern::Tid tid = 0;
  machine.trace_exec_enabled = trace_on;
  Outcome out;
  out.exit_code = testutil::load_and_run(machine, program, &tid);
  out.cycles = machine.total_cycles();
  out.insns = machine.total_insns();
  out.steps = machine.total_steps();
  out.tcache = machine.trace_cache_totals();
  return out;
}

void expect_identical(const Outcome& trace, const Outcome& ref) {
  EXPECT_EQ(trace.exit_code, ref.exit_code);
  EXPECT_EQ(trace.cycles, ref.cycles);
  EXPECT_EQ(trace.insns, ref.insns);
  EXPECT_EQ(trace.steps, ref.steps);
}

// A counted loop whose body is `body_adds` ADD instructions — enough to span
// several superblocks when large (kMaxBlockInsns = 32), so the recorded
// chain crosses block boundaries and outgrows the 64-step slice quantum.
isa::Program make_wide_loop(std::uint64_t iterations, int body_adds) {
  Assembler a;
  const auto entry = a.new_label();
  const auto loop = a.new_label();
  const auto done = a.new_label();
  a.bind(entry);
  a.mov(Gpr::rbx, iterations);
  a.bind(loop);
  a.cmp(Gpr::rbx, 0);
  a.jz(done);
  for (int i = 0; i < body_adds; ++i) a.add(Gpr::rcx, 1);
  a.sub(Gpr::rbx, 1);
  a.jmp(loop);
  a.bind(done);
  apps::emit_exit(a, 0);
  return isa::make_program("wide-loop", a, entry).value();
}

// --- kernel-layer formation, resume, determinism -----------------------------

TEST(TraceExecTest, HotLoopFormsAndChainsTraces) {
  const isa::Program program = make_wide_loop(2'000, 4);
  const Outcome trace = run_program(program, true);
  const Outcome ref = run_program(program, false);
  expect_identical(trace, ref);
  if (!kTraceEngineBuilt) GTEST_SKIP() << "trace engine compiled out";
  EXPECT_GE(trace.tcache.traces_built, 1u);
  EXPECT_GT(trace.tcache.hits, 0u);
  EXPECT_GT(trace.tcache.chain_follows, 0u);
  EXPECT_GT(trace.tcache.completions, 0u);
  // The reference path must never touch the trace cache.
  EXPECT_EQ(ref.tcache.hits + ref.tcache.misses, 0u);
}

TEST(TraceExecTest, ChainsLongerThanSliceQuantumResumeMidTrace) {
  // ~150 body instructions per iteration: five superblocks chained, more
  // than twice the 64-step slice, so completing an iteration inside the
  // trace requires parking at the slice edge and resuming mid-chain.
  const isa::Program program = make_wide_loop(400, 150);
  const Outcome trace = run_program(program, true);
  const Outcome ref = run_program(program, false);
  expect_identical(trace, ref);
  if (!kTraceEngineBuilt) GTEST_SKIP() << "trace engine compiled out";
  EXPECT_GE(trace.tcache.traces_built, 1u);
  EXPECT_GT(trace.tcache.resumes, 0u);
  EXPECT_GT(trace.tcache.completions, 0u);
}

// --- SMC mid-run -------------------------------------------------------------

TEST(TraceExecTest, SmcMidRunInvalidatesTracesAndNewBytesExecute) {
  // Loop body sets rdx to a marker immediate each iteration; the final exit
  // code is rdx. Mid-run, the marker is patched from 0x11 to 0x22 with a
  // privileged write (the runtime-rewrite path, bumping the page
  // generation): installed traces embedding the page must drop, and the
  // remaining iterations must run the new bytes.
  constexpr std::uint64_t kMarkerOld = 0x11;
  constexpr std::uint64_t kMarkerNew = 0x22;
  constexpr std::uint64_t kIterations = 3'000;
  Assembler a;
  const auto entry = a.new_label();
  const auto loop = a.new_label();
  const auto done = a.new_label();
  a.bind(entry);
  a.mov(Gpr::rbx, kIterations);
  a.bind(loop);
  a.cmp(Gpr::rbx, 0);
  a.jz(done);
  a.mov(Gpr::rdx, kMarkerOld);
  for (int i = 0; i < 6; ++i) a.add(Gpr::rcx, 1);
  a.sub(Gpr::rbx, 1);
  a.jmp(loop);
  a.bind(done);
  a.mov(Gpr::rdi, Gpr::rdx);
  apps::emit_syscall(a, kern::kSysExitGroup);
  const isa::Program program =
      isa::make_program("smc-loop", a, entry).value();

  // Locate the marker immediate's bytes in the image (unique by value).
  std::uint8_t imm[8];
  std::uint64_t value = kMarkerOld;
  std::memcpy(imm, &value, 8);
  std::size_t offset = 0;
  int found = 0;
  for (std::size_t i = 0; i + 8 <= program.image.size(); ++i) {
    if (std::memcmp(program.image.data() + i, imm, 8) == 0) {
      offset = i;
      ++found;
    }
  }
  ASSERT_EQ(found, 1);

  kern::Machine machine;
  const kern::Tid tid = machine.load(program).value();
  // Run far enough that the loop is hot and traces are installed, then stop
  // at a slice boundary mid-loop.
  (void)machine.run(10'000);
  kern::Task* task = machine.find_task(tid);
  ASSERT_NE(task, nullptr);
  ASSERT_TRUE(task->runnable());
  if (kTraceEngineBuilt) {
    ASSERT_GE(machine.trace_cache_totals().traces_built, 1u);
  }

  value = kMarkerNew;
  std::memcpy(imm, &value, 8);
  ASSERT_TRUE(task->mem->write_force(program.base + offset, imm).is_ok());

  const auto stats = machine.run();
  ASSERT_TRUE(stats.all_exited) << machine.last_fatal();
  // The patch is what the remaining iterations executed — a stale trace
  // would have exited with the old marker.
  EXPECT_EQ(task->exit_code, static_cast<int>(kMarkerNew));
  if (kTraceEngineBuilt) {
    EXPECT_GE(machine.trace_cache_totals().invalidations, 1u);
  }
}

// --- TraceCache unit level: demotion and resume revalidation -----------------

constexpr std::uint64_t kCodeBase = 0x40'0000;

// Two blocks closing a loop: A ends in a jump to B, B jumps back to A.
struct ChainFixture {
  mem::AddressSpace as;
  cpu::BlockCache blocks;
  const cpu::DecodedBlock* a = nullptr;
  const cpu::DecodedBlock* b = nullptr;

  ChainFixture() {
    Assembler assembler;
    const auto head = assembler.new_label();
    const auto tail = assembler.new_label();
    assembler.bind(head);
    assembler.add(Gpr::rax, 1);
    assembler.add(Gpr::rcx, 1);
    assembler.jmp(tail);
    assembler.bind(tail);
    assembler.add(Gpr::rdx, 1);
    assembler.jmp(head);
    auto code = assembler.finish().value();
    EXPECT_TRUE(as.map(kCodeBase, mem::page_ceil(code.size()),
                       mem::kProtRead | mem::kProtExec, true)
                    .is_ok());
    EXPECT_TRUE(as.write_force(kCodeBase, code).is_ok());
    a = blocks.lookup_or_build(as, kCodeBase);
    EXPECT_NE(a, nullptr);
    b = blocks.lookup_or_build(as, a->start + a->length);
    EXPECT_NE(b, nullptr);
  }

  // Heats A past the threshold and records the A -> B -> A loop.
  void install(cpu::TraceCache& tc) {
    // Sync the cache onto this address space: on_block_executed aborts on an
    // asid mismatch, and only lookup()/take_resume() adopt a new space.
    (void)tc.lookup(as, a->start);
    const std::uint64_t built_before = tc.stats().traces_built;
    for (std::int32_t i = 0; i < cpu::TraceCache::kHotThreshold; ++i) {
      tc.on_block_executed(as, blocks, *a, b->start);
    }
    ASSERT_TRUE(tc.recording());
    tc.on_block_executed(as, blocks, *b, a->start);  // loop closes on the head
    ASSERT_EQ(tc.stats().traces_built, built_before + 1);
  }
};

TEST(TraceCacheTest, ChurnWithoutChainingDemotesWithoutBlacklisting) {
  ChainFixture f;
  cpu::TraceCache tc;
  f.install(tc);
  cpu::Trace* trace = tc.lookup(f.as, f.a->start);
  ASSERT_NE(trace, nullptr);

  // kDemotionWindow entries that all side-exit before the first boundary:
  // chain yield stays at zero, so the side exit that crosses the window
  // demotes the trace.
  for (std::uint64_t i = 0; i < cpu::TraceCache::kDemotionWindow - 1; ++i) {
    tc.note_entered(*trace);
    tc.note_side_exit(*trace);
  }
  EXPECT_EQ(tc.stats().demotions, 0u);
  tc.note_entered(*trace);
  tc.note_side_exit(*trace);
  EXPECT_EQ(tc.stats().demotions, 1u);
  EXPECT_EQ(tc.lookup(f.as, f.a->start), nullptr);

  // No blacklist: the head may heat up and install again.
  f.install(tc);
  EXPECT_NE(tc.lookup(f.as, f.a->start), nullptr);
}

TEST(TraceCacheTest, ResumeValidatesPositionAndPageGenerations) {
  ChainFixture f;
  cpu::TraceCache tc;
  f.install(tc);

  // Park at instruction 1 of block B (the second link).
  const std::uint64_t parked_rip = f.b->start + f.b->insns[0].length;
  tc.set_resume(f.a->start, 1, 1);
  std::size_t block_idx = 0;
  std::size_t insn_idx = 0;
  cpu::Trace* trace = tc.take_resume(f.as, parked_rip, block_idx, insn_idx);
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(block_idx, 1u);
  EXPECT_EQ(insn_idx, 1u);
  EXPECT_EQ(tc.stats().resumes, 1u);

  // Single-shot: the same park is gone.
  EXPECT_EQ(tc.take_resume(f.as, parked_rip, block_idx, insn_idx), nullptr);

  // A park whose rip does not sit on the recorded instruction is dropped
  // (signal-diverted control flow between slices).
  tc.set_resume(f.a->start, 1, 1);
  EXPECT_EQ(tc.take_resume(f.as, parked_rip + 1, block_idx, insn_idx), nullptr);

  // A page-generation bump between park and resume drops the continuation
  // and the trace itself.
  tc.set_resume(f.a->start, 1, 1);
  const std::uint8_t nop = isa::kByteNop;
  ASSERT_TRUE(f.as.write_force(kCodeBase, {&nop, 1}).is_ok());
  EXPECT_EQ(tc.take_resume(f.as, parked_rip, block_idx, insn_idx), nullptr);
  EXPECT_EQ(tc.stats().resumes, 1u);
}

// --- the fused lazypoline fast path ------------------------------------------

TEST(TraceExecTest, LazypolineSyscallLoopFusesHostCallsIntoTraces) {
  // The §V-B microbenchmark shape: the non-existent syscall in a tight loop,
  // sites pre-rewritten so every iteration takes the steady-state callrax ->
  // trampoline -> handler path the fused superop covers (a getpid loop would
  // detour through kernel emulation, which ends every chain at the boundary).
  scenario::Mechanism lazypoline = scenario::Mechanism::Kind::kLazypoline;
  lazypoline.prerewrite = true;
  const scenario::Scenario spec{scenario::Loop{2'000}, lazypoline};

  auto run_with = [&](bool trace_on) {
    kern::Machine machine;
    machine.trace_exec_enabled = trace_on;
    auto instance = scenario::build(
        spec, machine, std::make_shared<interpose::DummyHandler>());
    EXPECT_TRUE(instance.is_ok()) << instance.status().to_string();
    const kern::Tid tid = instance.value().workers.front();
    const auto stats = machine.run();
    EXPECT_TRUE(stats.all_exited) << machine.last_fatal();
    Outcome out;
    out.exit_code = machine.find_task(tid)->exit_code;
    out.cycles = machine.total_cycles();
    out.insns = machine.total_insns();
    out.steps = machine.total_steps();
    out.tcache = machine.trace_cache_totals();
    return out;
  };

  const Outcome trace = run_with(true);
  const Outcome ref = run_with(false);
  expect_identical(trace, ref);
  if (!kTraceEngineBuilt) GTEST_SKIP() << "trace engine compiled out";
  // The rewritten syscall sites dispatch their handlers inside the trace:
  // trampoline entry, handler, and return all without leaving trace_step.
  EXPECT_GT(trace.tcache.fused_fastpaths, 0u);
  EXPECT_GT(trace.tcache.chain_follows, 0u);
}

// --- SMP: shootdown during chained execution ---------------------------------

TEST(TraceExecSmpTest, FourCpuShootdownDuringChainedExecution) {
  // CLONE_VM threads spread over 4 CPUs (gang_shared=false) under
  // lazypoline: the runtime's self-modifying site rewrites on one CPU must
  // shoot down the chained traces other CPUs are executing, and the
  // workload must still serve every request.
  const scenario::Scenario spec{
      scenario::Web{apps::nginx_profile(), 1, 1024, 12, 300,
                    /*shared_listener=*/true, /*threads=*/4},
      scenario::Mechanism::Kind::kLazypoline};
  kern::Machine machine;
  auto instance = scenario::build(
      spec, machine, std::make_shared<interpose::DummyHandler>());
  ASSERT_TRUE(instance.is_ok()) << instance.status().to_string();
  const int listener = instance.value().listeners.front();

  kern::SmpConfig config;
  config.cpus = 4;
  config.seed = 5;
  config.gang_shared = false;
  const kern::SmpStats stats = machine.run_smp(config);
  EXPECT_TRUE(stats.all_exited) << machine.last_fatal();
  EXPECT_EQ(machine.net().completed_requests(listener), 300u);

  std::set<unsigned> cpus_used;
  for (kern::Tid tid : machine.task_ids()) {
    cpus_used.insert(machine.find_task(tid)->cpu);
  }
  if (!kTraceEngineBuilt) GTEST_SKIP() << "trace engine compiled out";
  const cpu::TraceCacheStats totals = machine.trace_cache_totals();
  EXPECT_GE(totals.traces_built, 1u);
  EXPECT_GT(totals.chain_follows, 0u);
  if (cpus_used.size() > 1) {
    EXPECT_GT(stats.shootdowns, 0u)
        << "spread CLONE_VM siblings saw no SMC shootdown";
    // The shootdowns landed on chained traces, not just single blocks.
    EXPECT_GE(totals.invalidations + totals.flushes, 1u);
  }
}

}  // namespace
}  // namespace lzp
