// Superblock execution engine (cpu/block_cache + Machine batch dispatch):
//   * block construction, budget clamping, and SMC invalidation at the cpu
//     layer,
//   * the retired-only total_insns() contract (signal kills and host-fn
//     dispatch advance total_steps() but never total_insns()),
//   * differential properties: engine on vs off must agree bit-for-bit on
//     final architectural state, cycles, retired counts, and step counts —
//     for random programs, interposed loops, and the multi-task webserver,
//   * nop runs: every entry offset into a sled under every slice budget
//     lands on the reference path's rip, steps, retirements and cycles,
//   * SMC mid-run: a privileged rewrite between slices (also one inside a
//     live nop run) makes the new bytes execute,
//   * SMP: a 4-CPU run whose site rewrites shoot down other CPUs' blocks,
//   * record/replay neutrality: traces recorded with the engine on and off
//     are identical, and replay round trips survive an external kill.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>
#include <span>
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

MachineOutcome run_native(const isa::Program& program, bool block_on) {
  kern::Machine machine;
  machine.block_exec_enabled = block_on;
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
    const MachineOutcome ref = run_native(program, false);
    const MachineOutcome block = run_native(program, true);
    ASSERT_EQ(block.exit_code, ref.exit_code) << "seed " << seed;
    ASSERT_EQ(block.cycles, ref.cycles) << "seed " << seed;
    ASSERT_EQ(block.insns, ref.insns) << "seed " << seed;
    ASSERT_EQ(block.steps, ref.steps) << "seed " << seed;
    ASSERT_EQ(block.data, ref.data) << "seed " << seed;
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

  auto run_with = [&](bool block_on, std::string* metrics_out) {
    kern::Machine machine;
    machine.block_exec_enabled = block_on;
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
  const MachineOutcome ref = run_with(false, &metrics_ref);
  const MachineOutcome block = run_with(true, &metrics_block);
  EXPECT_EQ(block.cycles, ref.cycles);
  EXPECT_EQ(block.insns, ref.insns);
  EXPECT_EQ(block.steps, ref.steps);
  EXPECT_EQ(block.data, ref.data);
  EXPECT_EQ(metrics_block, metrics_ref);
}

// --- nop runs: every entry offset x every slice budget -----------------------

constexpr std::uint64_t kSledLength = 100;
constexpr std::uint64_t kSledTailAdds = 80;  // more than any budget reaches

// Where one slice from a sled entry point left the task, and what it cost.
struct SliceOutcome {
  std::uint64_t rip = 0;
  std::uint64_t steps = 0;
  std::uint64_t retired = 0;
  std::uint64_t cycles = 0;
  friend bool operator==(const SliceOutcome&, const SliceOutcome&) = default;
};

// Maps two executable pages at kSledPages holding kSledLength NOPs at
// `sled_offset` followed by kSledTailAdds ADDs, then runs one slice of every
// budget in 1..70 from every entry offset into the sled. A sled ending at
// the first page's edge continues into code on the second page.
std::vector<SliceOutcome> run_sled_phases(bool block_on,
                                          std::uint64_t sled_offset,
                                          cpu::BlockCacheStats* bcache) {
  constexpr std::uint64_t kSledPages = 0x1000'0000;
  kern::Machine machine;
  machine.block_exec_enabled = block_on;
  const kern::Tid tid = machine.load(testutil::make_getpid_once()).value();
  kern::Task& task = *machine.find_task(tid);
  EXPECT_TRUE(task.mem
                  ->map(kSledPages, 2 * mem::kPageSize,
                        mem::kProtRead | mem::kProtExec, /*fixed=*/true)
                  .is_ok());
  Assembler a;
  a.nops(kSledLength);
  for (std::uint64_t i = 0; i < kSledTailAdds; ++i) a.add(Gpr::rcx, 1);
  const std::vector<std::uint8_t> code = a.finish().value();
  const std::uint64_t sled = kSledPages + sled_offset;
  EXPECT_TRUE(task.mem->write_force(sled, code).is_ok());

  std::vector<SliceOutcome> out;
  for (std::uint64_t entry = 0; entry < kSledLength; ++entry) {
    for (std::uint64_t budget = 1; budget <= 70; ++budget) {
      task.ctx.rip = sled + entry;
      const std::uint64_t steps = machine.total_steps();
      const std::uint64_t retired = task.insns_retired;
      const std::uint64_t cycles = machine.total_cycles();
      machine.run_slice(task, budget);
      out.push_back({task.ctx.rip, machine.total_steps() - steps,
                     task.insns_retired - retired,
                     machine.total_cycles() - cycles});
    }
  }
  *bcache = machine.block_cache_totals();
  return out;
}

TEST(NopRunPhaseTest, EveryEntryAndBudgetMatchesReference) {
  const struct {
    const char* name;
    std::uint64_t sled_offset;
  } cases[] = {{"ends at a non-nop", 0x100},
               {"ends at the page edge", mem::kPageSize - kSledLength}};
  for (const auto& c : cases) {
    cpu::BlockCacheStats ref_bcache;
    cpu::BlockCacheStats block_bcache;
    const auto ref = run_sled_phases(false, c.sled_offset, &ref_bcache);
    const auto block = run_sled_phases(true, c.sled_offset, &block_bcache);
    ASSERT_EQ(block.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(block[i], ref[i])
          << c.name << ": entry " << i / 70 << ", budget " << i % 70 + 1
          << ": rip " << block[i].rip << " vs " << ref[i].rip << ", steps "
          << block[i].steps << " vs " << ref[i].steps << ", retired "
          << block[i].retired << " vs " << ref[i].retired << ", cycles "
          << block[i].cycles << " vs " << ref[i].cycles;
    }
#ifndef LZP_BLOCK_EXEC_DISABLED
    // One memoized run serves every entry point: the blocks built are the
    // run itself plus the ADD tail's entry points, not one per sled entry.
    EXPECT_GT(block_bcache.hits, ref.size()) << c.name;
    EXPECT_LT(block_bcache.blocks_built, kSledTailAdds + 8) << c.name;
#endif
  }
}

// --- SMC mid-run -------------------------------------------------------------

// Where `needle` first occurs in `image` (asserting it occurs exactly once).
std::size_t find_unique(const std::vector<std::uint8_t>& image,
                        std::span<const std::uint8_t> needle) {
  std::size_t offset = 0;
  int found = 0;
  for (std::size_t i = 0; i + needle.size() <= image.size(); ++i) {
    if (std::memcmp(image.data() + i, needle.data(), needle.size()) == 0) {
      offset = i;
      ++found;
    }
  }
  EXPECT_EQ(found, 1);
  return offset;
}

// Loop body sets rdx to a marker immediate each iteration and then walks a
// sled longer than a slice, so slices end inside it; the final exit code is
// rdx. Mid-run, the marker is patched
// from 0x11 to 0x22 with a privileged write (the runtime-rewrite path,
// bumping the page generation): warm blocks embedding the page must drop,
// and the remaining iterations must run the new bytes.
struct SmcOutcome {
  std::uint64_t patch_rip = 0;  // where the task stood when patched
  std::uint64_t patch_steps = 0;
  MachineOutcome end;
  cpu::BlockCacheStats bcache;
};

SmcOutcome smc_mid_run(bool block_on) {
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
  a.nops(2 * kern::Machine::kSliceInsns);
  a.sub(Gpr::rbx, 1);
  a.jmp(loop);
  a.bind(done);
  a.mov(Gpr::rdi, Gpr::rdx);
  apps::emit_syscall(a, kern::kSysExitGroup);
  const isa::Program program =
      isa::make_program("smc-loop", a, entry).value();

  std::uint8_t imm[8];
  std::uint64_t value = kMarkerOld;
  std::memcpy(imm, &value, 8);
  const std::size_t offset = find_unique(program.image, imm);

  kern::Machine machine;
  machine.block_exec_enabled = block_on;
  const kern::Tid tid = machine.load(program).value();
  // Run far enough that the loop's blocks are warm, then stop at a slice
  // boundary mid-loop.
  (void)machine.run(10'000);
  kern::Task& task = *machine.find_task(tid);
  EXPECT_TRUE(task.runnable());
  SmcOutcome out;
  out.patch_rip = task.ctx.rip;
  out.patch_steps = machine.total_steps();

  value = kMarkerNew;
  std::memcpy(imm, &value, 8);
  EXPECT_TRUE(task.mem->write_force(program.base + offset, imm).is_ok());

  const auto stats = machine.run();
  EXPECT_TRUE(stats.all_exited) << machine.last_fatal();
  // The patch is what the remaining iterations executed — a stale block
  // would have exited with the old marker.
  EXPECT_EQ(task.exit_code, static_cast<int>(kMarkerNew));
  out.end.exit_code = task.exit_code;
  out.end.cycles = machine.total_cycles();
  out.end.insns = machine.total_insns();
  out.end.steps = machine.total_steps();
  out.bcache = machine.block_cache_totals();
  return out;
}

TEST(BlockExecSmcTest, SmcMidRunInvalidatesBlocksAndNewBytesExecute) {
  const SmcOutcome ref = smc_mid_run(false);
  const SmcOutcome block = smc_mid_run(true);
  // Both engines stop at the same slice edge, so the patch lands at the
  // same point of the run.
  EXPECT_EQ(block.patch_rip, ref.patch_rip);
  EXPECT_EQ(block.patch_steps, ref.patch_steps);
  EXPECT_EQ(block.end.exit_code, ref.end.exit_code);
  EXPECT_EQ(block.end.cycles, ref.end.cycles);
  EXPECT_EQ(block.end.insns, ref.end.insns);
  EXPECT_EQ(block.end.steps, ref.end.steps);
#ifndef LZP_BLOCK_EXEC_DISABLED
  EXPECT_GT(block.bcache.hits, 0u);
  EXPECT_GE(block.bcache.invalidations, 1u);
#endif
}

// Exit code, cycles and steps of a loop whose body is a 48-NOP run, after an
// `add rdx, 1` is patched into the middle of the run while the task's rip
// sits inside it (before the patch). Every iteration from the current one on
// must execute the ADD: the exit code (rdx) is the iteration count.
MachineOutcome patch_inside_live_nop_run(bool block_on) {
  constexpr std::uint64_t kIterations = 50;
  constexpr std::uint64_t kRunLength = 48;
  Assembler a;
  const auto entry = a.new_label();
  const auto loop = a.new_label();
  const auto done = a.new_label();
  a.bind(entry);
  a.mov(Gpr::rbx, kIterations);
  a.mov(Gpr::rdx, 0);
  a.bind(loop);
  a.cmp(Gpr::rbx, 0);
  a.jz(done);
  a.nops(kRunLength);
  a.sub(Gpr::rbx, 1);
  a.jmp(loop);
  a.bind(done);
  a.mov(Gpr::rdi, Gpr::rdx);
  apps::emit_syscall(a, kern::kSysExitGroup);
  const isa::Program program =
      isa::make_program("nop-run-smc", a, entry).value();
  const std::vector<std::uint8_t> run(kRunLength, isa::kByteNop);
  const std::uint64_t run_start =
      program.base + find_unique(program.image, run);

  Assembler patch_asm;
  patch_asm.add(Gpr::rdx, 1);
  const std::vector<std::uint8_t> patch = patch_asm.finish().value();
  EXPECT_LT(20 + patch.size(), kRunLength);

  kern::Machine machine;
  machine.block_exec_enabled = block_on;
  const kern::Tid tid = machine.load(program).value();
  kern::Task& task = *machine.find_task(tid);
  // Single-step slices into the first iteration's run until rip is five
  // NOPs in: the run is live (its memo served those slices).
  for (int i = 0; i < 100 && task.ctx.rip != run_start + 5; ++i) {
    machine.run_slice(task, 1);
  }
  EXPECT_EQ(task.ctx.rip, run_start + 5);
  EXPECT_TRUE(task.mem->write_force(run_start + 20, patch).is_ok());

  const auto stats = machine.run();
  EXPECT_TRUE(stats.all_exited) << machine.last_fatal();
  MachineOutcome out;
  out.exit_code = task.exit_code;
  out.cycles = machine.total_cycles();
  out.insns = machine.total_insns();
  out.steps = machine.total_steps();
  EXPECT_EQ(out.exit_code, static_cast<int>(kIterations));
  return out;
}

TEST(BlockExecSmcTest, PatchInsideLiveNopRunExecutesNewBytes) {
  const MachineOutcome ref = patch_inside_live_nop_run(false);
  const MachineOutcome block = patch_inside_live_nop_run(true);
  EXPECT_EQ(block.exit_code, ref.exit_code);
  EXPECT_EQ(block.cycles, ref.cycles);
  EXPECT_EQ(block.insns, ref.insns);
  EXPECT_EQ(block.steps, ref.steps);
}

// --- SMP: shootdown during block execution -----------------------------------

TEST(BlockExecSmpTest, FourCpuShootdownDuringBlockExecution) {
  // CLONE_VM threads spread over 4 CPUs (gang_shared=false) under
  // lazypoline: the runtime's self-modifying site rewrites on one CPU must
  // shoot down the blocks other CPUs are executing, and the workload must
  // still serve every request. The siblings' interleaving is a real host
  // race in this mode (kernel/smp.hpp), so the run is not compared against
  // the reference engine.
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
#ifndef LZP_BLOCK_EXEC_DISABLED
  EXPECT_GT(machine.block_cache_totals().hits, 0u);
#endif
  if (cpus_used.size() > 1) {
    EXPECT_GT(stats.shootdowns, 0u)
        << "spread CLONE_VM siblings saw no SMC shootdown";
  }
}

// --- record/replay neutrality ------------------------------------------------

replay::Trace record_loop(bool block_on, cpu::BlockCacheStats* bcache) {
  const auto program = testutil::make_syscall_loop(kern::kSysGetpid, 40);
  auto recorder = std::make_shared<replay::Recorder>();
  kern::Machine machine;
  machine.block_exec_enabled = block_on;
  machine.mmap_min_addr = 0;
  machine.register_program(program);
  recorder->attach(machine, /*rng_seed=*/42, "sud", "loop");
  const kern::Tid tid = machine.load(program).value();
  mechanisms::SudMechanism mechanism;
  EXPECT_TRUE(mechanism.install(machine, tid, recorder).is_ok());
  const auto stats = machine.run();
  EXPECT_TRUE(stats.all_exited) << machine.last_fatal();
  *bcache = machine.block_cache_totals();
  return recorder->take_trace();
}

TEST(BlockExecReplayTest, RecordedTracesAreIdenticalAcrossEngines) {
  cpu::BlockCacheStats ref_bcache;
  cpu::BlockCacheStats block_bcache;
  const replay::Trace ref = record_loop(false, &ref_bcache);
  const replay::Trace block = record_loop(true, &block_bcache);
  // The Recorder's slice observer leaves the block engine on: the two
  // recordings really come from two engines.
  EXPECT_EQ(ref_bcache.hits + ref_bcache.misses, 0u);
#ifndef LZP_BLOCK_EXEC_DISABLED
  EXPECT_GT(block_bcache.hits, 0u);
#endif
  EXPECT_EQ(block, ref);
  EXPECT_EQ(block.serialize(), ref.serialize());
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
