// Superblock execution engine (cpu/block_cache + Machine batch dispatch):
//   * block construction, budget clamping, and SMC invalidation at the cpu
//     layer,
//   * the retired-only total_insns() contract (signal kills and host-fn
//     dispatch advance total_steps() but never total_insns()),
//   * differential properties: engine on vs off must agree bit-for-bit on
//     final architectural state, cycles, retired counts, and step counts —
//     for random programs, interposed loops, and the multi-task webserver,
//   * record/replay neutrality: traces recorded with the engine on and off
//     are identical, and replay round trips survive an external kill.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/minilibc.hpp"
#include "apps/webserver.hpp"
#include "base/rng.hpp"
#include "cpu/block_cache.hpp"
#include "isa/assemble.hpp"
#include "isa/decode.hpp"
#include "kernel/machine.hpp"
#include "kernel/syscalls.hpp"
#include "mechanisms/sud_tool.hpp"
#include "replay/recorder.hpp"
#include "replay/replayer.hpp"
#include "scenario/scenario.hpp"
#include "sim_test_util.hpp"
#include "trace/export.hpp"
#include "trace/tracer.hpp"

namespace lzp {
namespace {

using isa::Assembler;
using isa::Gpr;

// --- cpu-layer unit tests ----------------------------------------------------

constexpr std::uint64_t kCodeBase = 0x40'0000;

struct BlockFixture {
  mem::AddressSpace as;
  cpu::CpuContext ctx;
  cpu::BlockCache cache;

  explicit BlockFixture(Assembler& assembler) {
    auto code = assembler.finish().value();
    EXPECT_TRUE(as.map(kCodeBase, mem::page_ceil(code.size()),
                       mem::kProtRead | mem::kProtExec, true)
                    .is_ok());
    EXPECT_TRUE(as.write_force(kCodeBase, code).is_ok());
    ctx.rip = kCodeBase;
  }
};

TEST(BlockCacheTest, BuildsThroughTerminatorAndHitsOnReuse) {
  Assembler a;
  a.mov(Gpr::rax, 1);
  a.add(Gpr::rax, 2);
  a.nop();
  a.syscall_();
  a.mov(Gpr::rbx, 3);  // next block; must not be included
  BlockFixture f(a);

  const cpu::DecodedBlock* block = f.cache.lookup_or_build(f.as, kCodeBase);
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(block->insns.size(), 4u);  // terminator (SYSCALL) included
  EXPECT_EQ(block->nops, 1u);
  EXPECT_EQ(block->insns.back().op, isa::Op::kSyscall);
  EXPECT_EQ(f.cache.stats().misses, 1u);

  EXPECT_EQ(f.cache.lookup_or_build(f.as, kCodeBase), block);
  EXPECT_EQ(f.cache.stats().hits, 1u);
  EXPECT_EQ(f.cache.stats().blocks_built, 1u);
}

TEST(BlockCacheTest, RunBlockBudgetBoundsExecutedInstructions) {
  Assembler a;
  for (int i = 0; i < 6; ++i) a.add(Gpr::rax, 1);
  a.syscall_();
  BlockFixture f(a);

  const cpu::DecodedBlock* block = f.cache.lookup_or_build(f.as, kCodeBase);
  ASSERT_NE(block, nullptr);
  ASSERT_EQ(block->insns.size(), 7u);

  cpu::BlockRun run = cpu::run_block(f.ctx, f.as, *block, /*budget=*/3);
  EXPECT_EQ(run.executed, 3u);
  EXPECT_EQ(run.retired, 3u);
  EXPECT_EQ(run.kind, cpu::ExecKind::kContinue);
  EXPECT_EQ(f.ctx.reg(Gpr::rax), 3u);

  // Resume mid-block via a fresh lookup at the advanced rip.
  const cpu::DecodedBlock* rest = f.cache.lookup_or_build(f.as, f.ctx.rip);
  ASSERT_NE(rest, nullptr);
  run = cpu::run_block(f.ctx, f.as, *rest, /*budget=*/64);
  EXPECT_EQ(run.kind, cpu::ExecKind::kSyscall);
  EXPECT_EQ(run.executed, 4u);  // 3 adds + the SYSCALL step
  EXPECT_EQ(run.retired, 4u);   // the SYSCALL terminator retires
  EXPECT_EQ(f.ctx.reg(Gpr::rax), 6u);
}

TEST(BlockCacheTest, SelfModifyingWriteInvalidatesWarmBlock) {
  Assembler a;
  a.syscall_();
  a.nop();
  BlockFixture f(a);

  ASSERT_NE(f.cache.lookup_or_build(f.as, kCodeBase), nullptr);
  ASSERT_NE(f.cache.lookup_or_build(f.as, kCodeBase), nullptr);
  EXPECT_EQ(f.cache.stats().hits, 1u);

  std::uint64_t invalidated_rip = 0;
  f.cache.set_invalidation_listener(
      [&invalidated_rip](std::uint64_t rip) { invalidated_rip = rip; });

  // Runtime-style privileged rewrite of the executing bytes (syscall ->
  // call rax): the page generation moves, so the warm block must die.
  const std::uint8_t call_rax[2] = {isa::kByteFF, isa::kByteCallRax2};
  ASSERT_TRUE(f.as.write_force(kCodeBase, call_rax).is_ok());

  const cpu::DecodedBlock* rebuilt = f.cache.lookup_or_build(f.as, kCodeBase);
  ASSERT_NE(rebuilt, nullptr);
  EXPECT_EQ(rebuilt->insns[0].op, isa::Op::kCallRax);
  EXPECT_EQ(f.cache.stats().invalidations, 1u);
  EXPECT_EQ(invalidated_rip, kCodeBase);
}

TEST(BlockCacheTest, PageCrossingHeadFallsBackToNullptr) {
  // An instruction whose encoding straddles a page boundary is left to the
  // per-instruction path: the builder decodes from a span clamped to the
  // page end, so the truncated head fails and no block exists there.
  Assembler a;
  a.mov(Gpr::rax, 0x1122'3344'5566'7788ULL);
  const auto bytes = a.finish().value();
  ASSERT_GT(bytes.size(), 2u);
  ASSERT_FALSE(isa::decode({bytes.data(), 2}).is_ok());

  mem::AddressSpace as;
  ASSERT_TRUE(as.map(kCodeBase, 2 * mem::kPageSize,
                     mem::kProtRead | mem::kProtExec, true)
                  .is_ok());
  const std::uint64_t head = kCodeBase + mem::kPageSize - 2;
  ASSERT_TRUE(as.write_force(head, bytes).is_ok());

  cpu::BlockCache cache;
  EXPECT_EQ(cache.lookup_or_build(as, head), nullptr);
  // Fully on-page placement of the same bytes builds fine.
  ASSERT_TRUE(as.write_force(kCodeBase, bytes).is_ok());
  EXPECT_NE(cache.lookup_or_build(as, kCodeBase), nullptr);
}

// --- the retired-only counter contract (satellite regression) ---------------

TEST(RetiredCounterTest, SignalKillStepDoesNotAdvanceTotalInsns) {
  const auto program = testutil::make_syscall_loop(kern::kSysGetpid, 100000);
  kern::Machine machine;
  const kern::Tid tid = machine.load(program).value();

  (void)machine.run(500);  // partial run; task parked at a slice boundary
  kern::Task* task = machine.find_task(tid);
  ASSERT_NE(task, nullptr);
  ASSERT_TRUE(task->runnable());
  const std::uint64_t retired_before = machine.total_insns();
  const std::uint64_t steps_before = machine.total_steps();
  EXPECT_EQ(retired_before, task->insns_retired);

  kern::SigInfo info;
  info.signo = kern::kSigkill;
  ASSERT_TRUE(machine.post_signal(tid, info).is_ok());
  const auto stats = machine.run();
  ASSERT_TRUE(stats.all_exited) << machine.last_fatal();

  // The kill-delivery slice is one machine step that retires nothing: the
  // scheduling clock moves, the retired counter must not.
  EXPECT_EQ(machine.total_insns(), retired_before);
  EXPECT_EQ(machine.total_insns(), task->insns_retired);
  EXPECT_EQ(machine.total_steps(), steps_before + 1);
}

TEST(RetiredCounterTest, HostDispatchStepsCountAsStepsNotRetirements) {
  const auto program = testutil::make_syscall_loop(kern::kSysGetpid, 50);
  kern::Machine machine;
  machine.mmap_min_addr = 0;
  machine.register_program(program);
  const kern::Tid tid = machine.load(program).value();
  ASSERT_TRUE(scenario::install(scenario::Mechanism::Kind::kLazypoline, machine,
                                tid, std::make_shared<interpose::DummyHandler>())
                  .is_ok());
  const auto stats = machine.run();
  ASSERT_TRUE(stats.all_exited) << machine.last_fatal();

  // total_insns() is exactly the sum of per-task retirements; the interposer
  // runtime's host-fn steps appear only in total_steps().
  EXPECT_EQ(machine.total_insns(), machine.find_task(tid)->insns_retired);
  EXPECT_GT(machine.total_steps(), machine.total_insns());
  EXPECT_EQ(stats.insns, machine.total_insns());
}

// --- differential: engine on vs off -----------------------------------------

struct MachineOutcome {
  int exit_code = 0;
  std::uint64_t cycles = 0;
  std::uint64_t insns = 0;
  std::uint64_t steps = 0;
  std::vector<std::uint8_t> data;
};

// Straight-line random programs: arithmetic, data-region traffic, stack
// round trips, and sprinkled syscalls (same register discipline as the
// transparency fuzz in property_test.cpp).
isa::Program make_random_program(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const Gpr pool[] = {Gpr::rax, Gpr::rbx, Gpr::rdx, Gpr::rbp, Gpr::rsi,
                      Gpr::rdi, Gpr::r8,  Gpr::r10, Gpr::r12, Gpr::r13,
                      Gpr::r14, Gpr::r15};
  auto reg = [&] { return pool[rng.next_below(std::size(pool))]; };
  auto disp = [&] { return static_cast<std::int32_t>(rng.next_below(64) * 8); };

  Assembler a;
  const auto entry = a.new_label();
  a.bind(entry);
  a.mov(Gpr::r9, apps::kDataBase);
  for (Gpr r : pool) a.mov(r, rng.next_below(0xFFFF));
  const std::uint64_t length = 40 + rng.next_below(60);
  for (std::uint64_t i = 0; i < length; ++i) {
    switch (rng.next_below(8)) {
      case 0: a.mov(reg(), rng.next_below(1 << 20)); break;
      case 1: a.add(reg(), reg()); break;
      case 2: a.sub(reg(), reg()); break;
      case 3: a.mul(reg(), reg()); break;
      case 4: a.store(Gpr::r9, disp(), reg()); break;
      case 5: a.load(reg(), Gpr::r9, disp()); break;
      case 6: {
        const Gpr r1 = reg();
        const Gpr r2 = reg();
        a.push(r1);
        a.pop(r2);
        break;
      }
      case 7:
        a.mov(Gpr::rax, std::uint64_t{kern::kSysGetpid});
        a.syscall_();
        break;
    }
  }
  a.mov(Gpr::rdi, Gpr::rbx);
  apps::emit_syscall(a, kern::kSysExitGroup);
  return isa::make_program("blockfuzz-" + std::to_string(seed), a, entry)
      .value();
}

MachineOutcome run_native(const isa::Program& program, bool block_on,
                          bool trace_on) {
  kern::Machine machine;
  machine.block_exec_enabled = block_on;
  machine.trace_exec_enabled = trace_on;
  kern::Tid tid = 0;
  MachineOutcome out;
  out.exit_code = testutil::load_and_run(machine, program, &tid);
  out.cycles = machine.total_cycles();
  out.insns = machine.total_insns();
  out.steps = machine.total_steps();
  out.data.resize(0x300);
  EXPECT_TRUE(machine.find_task(tid)
                  ->mem->read_force(apps::kDataBase, out.data)
                  .is_ok());
  return out;
}

class BlockExecFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BlockExecFuzzTest, RandomProgramsMatchReferencePathExactly) {
  Xoshiro256 seeder(GetParam());
  for (int round = 0; round < 20; ++round) {
    const std::uint64_t seed = seeder.next();
    const isa::Program program = make_random_program(seed);
    // Three-way: per-instruction reference, superblock engine, and the
    // chained-trace engine on top must agree bit-for-bit.
    const MachineOutcome ref = run_native(program, false, false);
    const MachineOutcome block = run_native(program, true, false);
    const MachineOutcome trace = run_native(program, true, true);
    for (const MachineOutcome* out : {&block, &trace}) {
      ASSERT_EQ(out->exit_code, ref.exit_code) << "seed " << seed;
      ASSERT_EQ(out->cycles, ref.cycles) << "seed " << seed;
      ASSERT_EQ(out->insns, ref.insns) << "seed " << seed;
      ASSERT_EQ(out->steps, ref.steps) << "seed " << seed;
      ASSERT_EQ(out->data, ref.data) << "seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlockExecFuzzTest,
                         ::testing::Values(21, 42, 84, 168));

TEST(BlockExecDifferentialTest, LazypolineLoopMatchesReferencePath) {
  const auto program = testutil::make_syscall_loop(kern::kSysGetpid, 200);

  auto run_with = [&](bool engine_on) {
    kern::Machine machine;
    machine.block_exec_enabled = engine_on;
    machine.mmap_min_addr = 0;
    machine.register_program(program);
    const kern::Tid tid = machine.load(program).value();
    auto handler = std::make_shared<interpose::TracingHandler>();
    EXPECT_TRUE(scenario::install(scenario::Mechanism::Kind::kLazypoline,
                                  machine, tid, handler)
                    .is_ok());
    const auto stats = machine.run();
    EXPECT_TRUE(stats.all_exited) << machine.last_fatal();
    MachineOutcome out;
    out.exit_code = machine.find_task(tid)->exit_code;
    out.cycles = machine.total_cycles();
    out.insns = machine.total_insns();
    out.steps = machine.total_steps();
    out.data.push_back(static_cast<std::uint8_t>(handler->trace().size()));
#ifndef LZP_BLOCK_EXEC_DISABLED
    if (engine_on) {
      // The hot loop really ran through the block cache, and the runtime's
      // site rewrites invalidated warm blocks (SMC contract).
      EXPECT_GT(machine.block_cache_totals().hits, 0u);
      EXPECT_GE(machine.block_cache_totals().invalidations, 1u);
    } else {
      EXPECT_EQ(machine.block_cache_totals().hits +
                    machine.block_cache_totals().misses,
                0u);
    }
#endif
    return out;
  };

  const MachineOutcome on = run_with(true);
  const MachineOutcome off = run_with(false);
  EXPECT_EQ(on.exit_code, off.exit_code);
  EXPECT_EQ(on.cycles, off.cycles);
  EXPECT_EQ(on.insns, off.insns);
  EXPECT_EQ(on.steps, off.steps);
  EXPECT_EQ(on.data, off.data);
}

TEST(BlockExecDifferentialTest, WebserverMatchesReferencePath) {
  constexpr std::uint64_t kRequests = 30;
  constexpr std::uint64_t kFileSize = 256;
  constexpr unsigned kWorkers = 2;
  const apps::ServerProfile profile = apps::nginx_profile();

  auto run_with = [&](bool block_on, bool trace_on, std::string* metrics_out) {
    kern::Machine machine;
    machine.block_exec_enabled = block_on;
    machine.trace_exec_enabled = trace_on;
    trace::Tracer tracer;
    tracer.attach(machine);
    const scenario::Scenario spec{
        scenario::Web{profile, kWorkers, kFileSize, 4, kRequests},
        scenario::Mechanism::Kind::kSud};
    auto instance = scenario::build(
        spec, machine, std::make_shared<interpose::DummyHandler>());
    EXPECT_TRUE(instance.is_ok()) << instance.status().to_string();
    const std::vector<kern::Tid> tids = instance.value().workers;
    const int listener = instance.value().listeners.front();
    const auto stats = machine.run(400'000'000ULL);
    EXPECT_TRUE(stats.all_exited) << machine.last_fatal();
    EXPECT_EQ(machine.net().completed_requests(listener), kRequests);

    MachineOutcome out;
    out.cycles = machine.total_cycles();
    out.insns = machine.total_insns();
    out.steps = machine.total_steps();
    for (const kern::Tid tid : tids) {
      out.data.push_back(
          static_cast<std::uint8_t>(machine.find_task(tid)->exit_code));
    }
    if (metrics_out != nullptr) {
      // Everything in the metrics tables except the execution-cache counters
      // (which exist precisely to differ between the two paths) must match.
      // ring.events aggregates the invalidation events too, so it goes with
      // them.
      std::istringstream in(trace::render_summary(tracer));
      std::string line;
      while (std::getline(in, line)) {
        if (line.find("bcache.") != std::string::npos ||
            line.find("dcache.") != std::string::npos ||
            line.find("tcache.") != std::string::npos ||
            line.find("ring.events") != std::string::npos) {
          continue;
        }
        *metrics_out += line + "\n";
      }
    }
    tracer.detach(machine);
    return out;
  };

  std::string metrics_ref;
  std::string metrics_block;
  std::string metrics_trace;
  const MachineOutcome ref = run_with(false, false, &metrics_ref);
  const MachineOutcome block = run_with(true, false, &metrics_block);
  const MachineOutcome trace = run_with(true, true, &metrics_trace);
  for (const MachineOutcome* out : {&block, &trace}) {
    EXPECT_EQ(out->cycles, ref.cycles);
    EXPECT_EQ(out->insns, ref.insns);
    EXPECT_EQ(out->steps, ref.steps);
    EXPECT_EQ(out->data, ref.data);
  }
  EXPECT_EQ(metrics_block, metrics_ref);
  EXPECT_EQ(metrics_trace, metrics_ref);
}

// --- record/replay neutrality ------------------------------------------------

replay::Trace record_loop(bool block_on, bool trace_on) {
  const auto program = testutil::make_syscall_loop(kern::kSysGetpid, 40);
  auto recorder = std::make_shared<replay::Recorder>();
  kern::Machine machine;
  machine.block_exec_enabled = block_on;
  machine.trace_exec_enabled = trace_on;
  machine.mmap_min_addr = 0;
  machine.register_program(program);
  recorder->attach(machine, /*rng_seed=*/42, "sud", "loop");
  const kern::Tid tid = machine.load(program).value();
  mechanisms::SudMechanism mechanism;
  EXPECT_TRUE(mechanism.install(machine, tid, recorder).is_ok());
  const auto stats = machine.run();
  EXPECT_TRUE(stats.all_exited) << machine.last_fatal();
  return recorder->take_trace();
}

TEST(BlockExecReplayTest, RecordedTracesAreIdenticalAcrossEngines) {
  const replay::Trace ref = record_loop(false, false);
  const replay::Trace block = record_loop(true, false);
  const replay::Trace trace = record_loop(true, true);
  EXPECT_EQ(block, ref);
  EXPECT_EQ(trace, ref);
}

TEST(BlockExecReplayTest, ExternalKillRoundTripsWithEngineEnabled) {
  const auto program =
      testutil::make_syscall_loop(kern::kSysGetpid, 100000, "killed-loop");

  auto recorder = std::make_shared<replay::Recorder>();
  int recorded_exit = 0;
  std::uint64_t recorded_retired = 0;
  {
    kern::Machine machine;
    machine.mmap_min_addr = 0;
    machine.register_program(program);
    recorder->attach(machine, /*rng_seed=*/9, "sud", "killed-loop");
    const kern::Tid tid = machine.load(program).value();
    mechanisms::SudMechanism mechanism;
    ASSERT_TRUE(mechanism.install(machine, tid, recorder).is_ok());
    (void)machine.run(4000);  // partial run, then the kill arrives
    kern::SigInfo info;
    info.signo = kern::kSigkill;
    ASSERT_TRUE(machine.post_signal(tid, info).is_ok());
    const auto stats = machine.run();
    ASSERT_TRUE(stats.all_exited) << machine.last_fatal();
    recorded_exit = machine.find_task(tid)->exit_code;
    recorded_retired = machine.find_task(tid)->insns_retired;
  }

  auto replayer = std::make_shared<replay::Replayer>(recorder->take_trace());
  {
    kern::Machine machine;
    machine.mmap_min_addr = 0;
    machine.register_program(program);
    replayer->attach(machine);
    const kern::Tid tid = machine.load(program).value();
    mechanisms::SudMechanism mechanism;
    ASSERT_TRUE(mechanism.install(machine, tid, replayer).is_ok());
    const auto stats = machine.run();
    EXPECT_TRUE(replayer->status().is_ok()) << replayer->status().to_string();
    ASSERT_TRUE(stats.all_exited) << machine.last_fatal();
    EXPECT_EQ(machine.find_task(tid)->exit_code, recorded_exit);
    EXPECT_EQ(machine.find_task(tid)->insns_retired, recorded_retired);
  }
  EXPECT_EQ(replayer->stats().signals_posted, 1u);
}

}  // namespace
}  // namespace lzp
