// Superblock execution engine (cpu/block_cache + Machine batch dispatch):
//   * block construction, budget clamping, and SMC invalidation at the cpu
//     layer,
//   * the retired-only total_insns() contract (signal kills and host-fn
//     dispatch advance total_steps() but never total_insns()),
//   * differential properties: engine on vs off must agree bit-for-bit on
//     final architectural state, cycles, retired counts, and step counts —
//     for random programs and for every mechanism × a syscall loop and a
//     webserver × 1 and 4 CPUs (per-task counters and trace metrics too),
//   * the shared exit dispatcher: host dispatch charges and each fault's
//     siginfo are exact under both engines,
//   * nop runs: every entry offset into a sled under every slice budget
//     lands on the reference path's rip, steps, retirements and cycles,
//   * SMC mid-run: a privileged rewrite between slices (also one inside a
//     live nop run) makes the new bytes execute,
//   * the SMC contract under each engine: a lazypoline site rewrite, a guest
//     store to an exec page, the mprotect flip/patch/flip-back idiom, a
//     CLONE_VM sibling's store, a change to a page-crossing instruction's
//     tail page and execve all make the next execution run the new code,
//   * SMP: a 4-CPU run whose site rewrites shoot down other CPUs' blocks,
//   * record/replay neutrality: traces recorded with the engine on and off
//     are identical, and an external-kill recording replays identically on
//     both engines.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "apps/minilibc.hpp"
#include "apps/webserver.hpp"
#include "core/lazypoline.hpp"
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

// Reference engine against block engine over the evaluation matrix: every
// mechanism × a small syscall loop and a small webserver × 1 and 4 simulated
// CPUs. The counters must agree exactly; the engine-specific assertions pin
// which engine really ran.
struct DifferentialCase {
  scenario::Mechanism::Kind mechanism;
  bool web;
  unsigned cpus;
};

std::string case_label(const DifferentialCase& c) {
  return scenario::to_string(c.mechanism) +
         (c.web ? "_web_cpus" : "_loop_cpus") + std::to_string(c.cpus);
}

// gtest puts the printed parameter into each listed test name; without this
// it prints the raw bytes, struct padding included.
void PrintTo(const DifferentialCase& c, std::ostream* os) {
  *os << case_label(c);
}

scenario::Scenario make_spec(const DifferentialCase& c) {
  scenario::Scenario spec;
  if (c.web) {
    spec.program = scenario::Web{apps::nginx_profile(), /*workers=*/2,
                                 /*file_bytes=*/256, /*connections=*/4,
                                 /*requests=*/30};
  } else {
    spec.program = scenario::Loop{/*iterations=*/200, kern::kSysGetpid};
  }
  spec.mechanism = c.mechanism;
  spec.cpus = c.cpus;
  return spec;
}

struct TaskCounters {
  kern::Tid tid = 0;
  int exit_code = 0;
  std::uint64_t cycles = 0;
  std::uint64_t insns_retired = 0;
  std::uint64_t syscalls_dispatched = 0;
  friend bool operator==(const TaskCounters&, const TaskCounters&) = default;
};

struct EngineOutcome {
  std::uint64_t cycles = 0;
  std::uint64_t insns = 0;
  std::uint64_t steps = 0;
  std::vector<TaskCounters> tasks;
  std::vector<std::uint64_t> served;  // per listener
  std::size_t handler_calls = 0;
  std::string metrics;  // the tracer's tables minus the cache counters
};

EngineOutcome run_engine(const scenario::Scenario& spec, bool block_on) {
  const std::string where =
      std::string(block_on ? "block" : "reference") + ": " +
      scenario::to_string(spec);
  kern::Machine machine;
  machine.block_exec_enabled = block_on;
  trace::Tracer tracer;
  tracer.set_concurrent(spec.cpus > 1);
  tracer.attach(machine);
  // One handler serves every worker; under run_smp its log is appended to
  // from several host lanes.
  auto tracing = std::make_shared<interpose::TracingHandler>();
  auto instance = scenario::build(spec, machine, tracing);
  EXPECT_TRUE(instance.is_ok()) << instance.status().to_string();
  EngineOutcome out;
  if (!instance.is_ok()) return out;
  const auto ran = scenario::run(spec, machine, instance.value());
  EXPECT_TRUE(ran.is_ok()) << ran.status().to_string();
  tracer.detach(machine);

  out.cycles = machine.total_cycles();
  out.insns = machine.total_insns();
  out.steps = machine.total_steps();
  for (const kern::Tid tid : machine.task_ids()) {
    const kern::Task& task = *machine.find_task(tid);
    out.tasks.push_back({tid, task.exit_code, task.cycles, task.insns_retired,
                         task.syscalls_dispatched});
  }
  for (const int listener : instance.value().listeners) {
    out.served.push_back(machine.net().completed_requests(listener));
  }
  out.handler_calls = tracing->trace().size();
  // Everything in the metrics tables except the block-cache counters (which
  // exist precisely to differ between the engines) must match.
  // ring.events aggregates the invalidation events too, so it goes with them.
  std::istringstream in(trace::render_summary(tracer));
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("bcache.") != std::string::npos ||
        line.find("ring.events") != std::string::npos) {
      continue;
    }
    out.metrics += line + "\n";
  }

  const cpu::BlockCacheStats bcache = machine.block_cache_totals();
  if (!block_on) {
    // The reference engine never looks a block up.
    EXPECT_EQ(bcache.hits + bcache.misses, 0u) << where;
  } else {
    EXPECT_GT(bcache.hits, 0u) << where;
  }
  if (block_on &&
      spec.mechanism.kind == scenario::Mechanism::Kind::kLazypoline) {
    // The runtime's site rewrites invalidated warm blocks (SMC contract).
    EXPECT_GE(bcache.invalidations, 1u) << where;
  }
  return out;
}

class BlockExecDifferentialTest
    : public ::testing::TestWithParam<DifferentialCase> {};

TEST_P(BlockExecDifferentialTest, BlockMatchesReferencePath) {
  const scenario::Scenario spec = make_spec(GetParam());
  const std::string where = scenario::to_string(spec);
  const EngineOutcome ref = run_engine(spec, false);
  const EngineOutcome block = run_engine(spec, true);
  EXPECT_EQ(block.cycles, ref.cycles) << where;
  EXPECT_EQ(block.insns, ref.insns) << where;
  EXPECT_EQ(block.steps, ref.steps) << where;
  ASSERT_EQ(block.tasks.size(), ref.tasks.size()) << where;
  for (std::size_t i = 0; i < ref.tasks.size(); ++i) {
    const TaskCounters& r = ref.tasks[i];
    const TaskCounters& b = block.tasks[i];
    EXPECT_EQ(b, r) << where << ": task " << r.tid << " (block tid " << b.tid
                    << "): exit " << b.exit_code << " vs " << r.exit_code
                    << ", cycles " << b.cycles << " vs " << r.cycles
                    << ", retired " << b.insns_retired << " vs "
                    << r.insns_retired << ", syscalls "
                    << b.syscalls_dispatched << " vs "
                    << r.syscalls_dispatched;
  }
  EXPECT_EQ(block.served, ref.served) << where;
  EXPECT_EQ(block.handler_calls, ref.handler_calls) << where;
  EXPECT_EQ(block.metrics, ref.metrics) << where;
}

std::vector<DifferentialCase> differential_product() {
  std::vector<DifferentialCase> cases;
  for (const auto mechanism :
       {scenario::Mechanism::Kind::kNative, scenario::Mechanism::Kind::kPtrace,
        scenario::Mechanism::Kind::kSud, scenario::Mechanism::Kind::kZpoline,
        scenario::Mechanism::Kind::kLazypoline}) {
    for (const bool web : {false, true}) {
      for (const unsigned cpus : {1u, 4u}) {
        cases.push_back({mechanism, web, cpus});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Product, BlockExecDifferentialTest,
                         ::testing::ValuesIn(differential_product()),
                         [](const auto& info) {
                           return case_label(info.param);
                         });

// --- the exit dispatcher: host dispatch cost and fault siginfo -------------

// Cycles of a guest that runs a straight-line prefix, then what `tail` emits
// (binding any host functions it reaches), then HLT.
using TailEmitter = std::function<void(kern::Machine&, Assembler&)>;

std::uint64_t tail_cycles(bool block_on, const TailEmitter& tail) {
  kern::Machine machine;
  machine.block_exec_enabled = block_on;
  Assembler a;
  const auto entry = a.new_label();
  a.bind(entry);
  for (int i = 0; i < 6; ++i) a.add(Gpr::rax, 1);
  tail(machine, a);
  a.hlt();
  const isa::Program program = isa::make_program("tail", a, entry).value();
  EXPECT_EQ(testutil::load_and_run(machine, program), 0)
      << machine.last_fatal();
  return machine.total_cycles();
}

TEST(ExitDispatchTest, HostDispatchChargesGlueUnderBothEngines) {
  const kern::CostModel costs;
  for (const bool block_on : {false, true}) {
    const std::string where = block_on ? "block" : "reference";
    int calls = 0;
    auto bind_noop = [&calls](kern::Machine& machine) {
      return machine.bind_host("test.noop",
                               [&calls](kern::HostFrame&) { ++calls; });
    };
    // A HOSTCALL costs one instruction plus the host glue: an ADD in its
    // place costs the instruction alone.
    const std::uint64_t hostcall =
        tail_cycles(block_on, [&](kern::Machine& m, Assembler& a) {
          a.hostcall(kern::Machine::host_index(bind_noop(m)));
        });
    const std::uint64_t add = tail_cycles(
        block_on, [](kern::Machine&, Assembler& a) { a.add(Gpr::rax, 1); });
    EXPECT_EQ(hostcall - add, costs.host_glue) << where;
    // A call into the host region costs the CALL plus the host glue, and the
    // function that does not redirect rip returns like RET.
    const std::uint64_t call =
        tail_cycles(block_on, [&](kern::Machine& m, Assembler& a) {
          a.mov(Gpr::rax, bind_noop(m));
          a.call_rax();
        });
    const std::uint64_t mov =
        tail_cycles(block_on, [](kern::Machine&, Assembler& a) {
          a.mov(Gpr::rax, kern::Machine::kHostRegionBase);
        });
    EXPECT_EQ(call - mov, costs.insn + costs.host_glue) << where;
    EXPECT_EQ(calls, 2) << where;
  }
}

// Fault siginfo: both engines raise the same signal at the same address.

// A guest that runs a straight-line prefix (so the block engine has a block
// to run into the fault), then takes one synchronous signal.
struct FaultCase {
  const char* name;
  int signo;
  isa::Program program;
  std::uint64_t fault_addr;  // the absolute address siginfo must carry
};

std::vector<FaultCase> make_fault_cases() {
  constexpr std::uint64_t kUnmapped = 0xDEAD'0000;
  constexpr std::int32_t kDisp = 0x18;
  std::vector<FaultCase> cases;
  auto add_case = [&cases](const char* name, int signo, auto&& emit_fault,
                           bool addr_is_insn, std::uint64_t fault_addr) {
    Assembler a;
    const auto entry = a.new_label();
    a.bind(entry);
    a.mov(Gpr::rbx, kUnmapped);
    a.mov(Gpr::rcx, 0);
    for (int i = 0; i < 6; ++i) a.add(Gpr::rax, 1);
    const std::uint64_t offset = a.offset();
    emit_fault(a);
    a.hlt();
    isa::Program program =
        isa::make_program(std::string("fault-") + name, a, entry).value();
    if (addr_is_insn) fault_addr = program.base + offset;
    cases.push_back({name, signo, std::move(program), fault_addr});
  };
  add_case("segv", kern::kSigsegv,
           [](Assembler& a) { a.load(Gpr::rdx, Gpr::rbx, kDisp); },
           /*addr_is_insn=*/false, kUnmapped + kDisp);
  add_case("fpe", kern::kSigfpe,
           [](Assembler& a) { a.div(Gpr::rax, Gpr::rcx); },
           /*addr_is_insn=*/true, 0);
  add_case("ill", kern::kSigill, [](Assembler& a) { a.db({0xEE}); },
           /*addr_is_insn=*/true, 0);
  // INT3 reports no address (Linux sends it as SI_KERNEL).
  add_case("trap", kern::kSigtrap, [](Assembler& a) { a.trap(); },
           /*addr_is_insn=*/false, 0);
  return cases;
}

TEST(ExitDispatchTest, FaultSiginfoIsExactUnderBothEngines) {
  for (const FaultCase& c : make_fault_cases()) {
    MachineOutcome outcomes[2];
    for (const bool block_on : {false, true}) {
      const std::string where =
          std::string(c.name) + (block_on ? " (block)" : " (reference)");
      kern::Machine machine;
      machine.block_exec_enabled = block_on;
      std::vector<kern::SigInfo> seen;
      machine.add_signal_observer(
          [&seen](const kern::Task&, const kern::SigInfo& info) {
            seen.push_back(info);
          });
      MachineOutcome& out = outcomes[block_on ? 1 : 0];
      out.exit_code = testutil::load_and_run(machine, c.program);
      out.cycles = machine.total_cycles();
      out.insns = machine.total_insns();
      out.steps = machine.total_steps();
      EXPECT_EQ(out.exit_code, 128 + c.signo) << where;
      ASSERT_EQ(seen.size(), 1u) << where;
      EXPECT_EQ(seen[0].signo, c.signo) << where;
      EXPECT_EQ(seen[0].fault_addr, c.fault_addr) << where;
      if (block_on) {
        // The prefix ran as a block and the fault ended a block run (or, for
        // the undecodable bytes, the per-step fallback right after one).
        EXPECT_GT(machine.block_cache_totals().blocks_built, 0u) << where;
      }
    }
    EXPECT_EQ(outcomes[1].cycles, outcomes[0].cycles) << c.name;
    EXPECT_EQ(outcomes[1].insns, outcomes[0].insns) << c.name;
    EXPECT_EQ(outcomes[1].steps, outcomes[0].steps) << c.name;
  }
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
    // One memoized run serves every entry point: the blocks built are the
    // run itself plus the ADD tail's entry points, not one per sled entry.
    EXPECT_GT(block_bcache.hits, ref.size()) << c.name;
    EXPECT_LT(block_bcache.blocks_built, kSledTailAdds + 8) << c.name;
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
  EXPECT_GT(block.bcache.hits, 0u);
  EXPECT_GE(block.bcache.invalidations, 1u);
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

// --- the SMC contract under both engines -------------------------------------
//
// A rewrite of code that has already run (and so sits in whatever the engine
// caches) must take effect the next time it runs, however it is written.
// Each case runs under the reference engine and the block engine. The guest
// loop loads a 64-bit marker into rdx from a `mov rdx, imm64` site. Some
// actor changes byte 5 of that immediate, and the guest exits 0 only if its
// last pass read the changed marker (1 if it read the original).

constexpr std::uint64_t kMarkerOld = 0x1111'2222'3333'4444ULL;
constexpr std::uint64_t kMarkerNew = 0x1111'7722'3333'4444ULL;
constexpr std::uint8_t kMarkerNewByte = 0x77;  // byte 5 of kMarkerNew

struct MarkerLoop {
  std::uint64_t iterations = 1;
  std::uint64_t marker = kMarkerOld;
  // Page offset the site starts at (jumped over padding); 0: no padding.
  std::uint64_t site_offset = 0;
  std::function<void(Assembler&)> prologue;
  // Emitted after the site on every pass. `patch_addr` is the marker's
  // byte 5; `loop` is the site.
  std::function<void(Assembler&, Assembler::Label loop,
                     std::uint64_t patch_addr)>
      after_site;
  // Execve this program after the loop instead of checking the marker.
  std::string exec_next;
};

isa::Program make_marker_loop(const std::string& name, const MarkerLoop& spec,
                              std::uint64_t* patch_addr = nullptr) {
  Assembler a;
  const auto entry = a.new_label();
  const auto loop = a.new_label();
  const auto fresh = a.new_label();
  a.bind(entry);
  if (spec.prologue) spec.prologue(a);
  a.mov(Gpr::rbx, spec.iterations);
  a.jmp(loop);
  if (spec.site_offset != 0) {
    EXPECT_LE(a.offset(), spec.site_offset);
    a.nops(spec.site_offset - a.offset());
  }
  a.bind(loop);
  a.mov(Gpr::rdx, spec.marker);
  const std::uint64_t imm = kCodeBase + a.offset() - 8;
  if (patch_addr != nullptr) *patch_addr = imm + 5;
  if (spec.after_site) spec.after_site(a, loop, imm + 5);
  a.sub(Gpr::rbx, 1);
  a.cmp(Gpr::rbx, 0);
  a.jnz(loop);
  if (!spec.exec_next.empty()) {
    a.mov(Gpr::rdi, apps::embed_string(a, spec.exec_next));
    apps::emit_syscall(a, kern::kSysExecve);
  }
  a.mov(Gpr::rcx, kMarkerNew);
  a.cmp(Gpr::rdx, Gpr::rcx);
  a.jz(fresh);
  apps::emit_exit(a, 1);
  a.bind(fresh);
  apps::emit_exit(a, 0);
  isa::Program program = isa::make_program(name, a, entry, kCodeBase).value();
  std::uint64_t site_imm = 0;
  std::memcpy(&site_imm, program.image.data() + (imm - kCodeBase), 8);
  EXPECT_EQ(site_imm, spec.marker);
  return program;
}

// Makes the first page of the guest's text writable, so it can patch its
// own code.
void make_text_rwx(Assembler& a) {
  a.mov(Gpr::rdi, kCodeBase);
  a.mov(Gpr::rsi, mem::kPageSize);
  a.mov(Gpr::rdx, mem::kProtRead | mem::kProtWrite | mem::kProtExec);
  a.mov(Gpr::rax, kern::kSysMprotect);
  a.syscall_();
}

struct SmcRun {
  int exit_code = -1;
  cpu::BlockCacheStats bcache;
};

// Runs `program` to the end. With `patch`, it first runs until the loop is
// warm, and applies `patch` to the task's address space at that slice
// boundary. A stale cache that spins forever runs out of budget instead.
SmcRun run_smc(bool block_on, const isa::Program& program,
               const std::function<void(mem::AddressSpace&)>& patch = {},
               const isa::Program* exec_target = nullptr) {
  kern::Machine machine;
  machine.block_exec_enabled = block_on;
  if (exec_target != nullptr) machine.register_program(*exec_target);
  const kern::Tid tid = machine.load(program).value();
  kern::Task& task = *machine.find_task(tid);
  if (patch) {
    (void)machine.run(2'000);
    EXPECT_TRUE(task.runnable());
    patch(*task.mem);
  }
  const auto stats = machine.run(1'000'000);
  EXPECT_TRUE(stats.all_exited) << machine.last_fatal();
  SmcRun out;
  out.exit_code = task.exit_code;
  out.bcache = machine.block_cache_totals();
  // Only the block engine looks blocks up.
  EXPECT_EQ(out.bcache.hits + out.bcache.misses > 0, block_on);
  return out;
}

class SmcContractTest : public ::testing::TestWithParam<bool> {
 protected:
  bool block_on() const { return GetParam(); }
};

TEST_P(SmcContractTest, LazypolineRewriteTakesEffectOnWarmCode) {
  const std::uint64_t iterations = 50;
  const scenario::Scenario spec{scenario::Loop{iterations, kern::kSysGetpid},
                                scenario::Mechanism::Kind::kLazypoline};
  kern::Machine machine;
  machine.block_exec_enabled = block_on();
  auto handler = std::make_shared<interpose::TracingHandler>();
  auto instance = scenario::build(spec, machine, handler);
  ASSERT_TRUE(instance.is_ok()) << instance.status().to_string();
  const kern::Tid tid = instance.value().workers.front();
  const auto& runtime = instance.value().runtimes.front();
  const auto stats = machine.run();
  ASSERT_TRUE(stats.all_exited) << machine.last_fatal();

  // Each site has run as SYSCALL before its rewrite. Exactly one SIGSYS per
  // site shows that the next execution of the rewritten bytes took the CALL
  // RAX fast path instead of faulting again.
  EXPECT_EQ(runtime->stats().sites_rewritten, 2u);
  EXPECT_EQ(machine.find_task(tid)->sud_sigsys_count, 2u);
  EXPECT_EQ(runtime->stats().entry_invocations, iterations + 1);
  EXPECT_EQ(handler->trace().size(), iterations + 1);
  if (block_on()) {
    EXPECT_GE(machine.block_cache_totals().invalidations, 1u);
  }
}

TEST_P(SmcContractTest, GuestWriteToExecPageTakesEffect) {
  MarkerLoop spec;
  spec.iterations = 3;
  spec.prologue = make_text_rwx;
  spec.after_site = [](Assembler& a, Assembler::Label, std::uint64_t patch) {
    a.mov(Gpr::r12, patch);
    a.mov(Gpr::rcx, kMarkerNewByte);
    a.store8(Gpr::r12, 0, Gpr::rcx);
  };
  const SmcRun run = run_smc(block_on(), make_marker_loop("smc-store", spec));
  EXPECT_EQ(run.exit_code, 0);
  if (block_on()) {
    EXPECT_GE(run.bcache.invalidations, 1u);
  }
}

TEST_P(SmcContractTest, ProtectFlipPatchFlipBackTakesEffect) {
  // The zpoline/lazypoline idiom: the patching write lands while the page is
  // not executable, so only the mprotect calls can retire the old code.
  MarkerLoop spec;
  spec.iterations = 5'000;
  std::uint64_t patch = 0;
  const isa::Program program = make_marker_loop("smc-flip", spec, &patch);
  const std::uint64_t page = mem::page_floor(patch);
  const SmcRun run =
      run_smc(block_on(), program, [&](mem::AddressSpace& as) {
        ASSERT_TRUE(as.protect(page, mem::kPageSize,
                               mem::kProtRead | mem::kProtWrite)
                        .is_ok());
        ASSERT_TRUE(as.write_force(patch, {&kMarkerNewByte, 1}).is_ok());
        ASSERT_TRUE(
            as.protect(page, mem::kPageSize, mem::kProtRead | mem::kProtExec)
                .is_ok());
      });
  EXPECT_EQ(run.exit_code, 0);
  if (block_on()) {
    EXPECT_GE(run.bcache.invalidations, 1u);
  }
}

TEST_P(SmcContractTest, CloneVmSiblingWriteTakesEffect) {
  // The parent runs the site once, then spawns a CLONE_VM sibling and spins
  // on the site until it reads the marker the sibling writes through the
  // shared address space.
  MarkerLoop spec;
  spec.prologue = [](Assembler& a) {
    make_text_rwx(a);
    a.mov(Gpr::r13, 0);  // no sibling yet
  };
  spec.after_site = [](Assembler& a, Assembler::Label loop,
                       std::uint64_t patch) {
    const auto spin = a.new_label();
    a.cmp(Gpr::r13, 0);
    a.jnz(spin);
    a.mov(Gpr::r13, 1);
    a.mov(Gpr::rdi, kern::kCloneVm | kern::kCloneThread);
    a.mov(Gpr::rsi, apps::kDataBase + 0x8000);  // the sibling's stack
    a.mov(Gpr::rax, kern::kSysClone);
    a.syscall_();
    a.cmp(Gpr::rax, 0);
    a.jnz(spin);
    a.mov(Gpr::r12, patch);
    a.mov(Gpr::rcx, kMarkerNewByte);
    a.store8(Gpr::r12, 0, Gpr::rcx);
    a.mov(Gpr::rdi, 0);
    a.mov(Gpr::rax, kern::kSysExit);
    a.syscall_();
    a.bind(spin);
    a.mov(Gpr::rcx, kMarkerNew);
    a.cmp(Gpr::rdx, Gpr::rcx);
    a.jnz(loop);
  };
  const SmcRun run = run_smc(block_on(), make_marker_loop("smc-clone", spec));
  EXPECT_EQ(run.exit_code, 0);
  if (block_on()) {
    EXPECT_GE(run.bcache.invalidations, 1u);
  }
}

TEST_P(SmcContractTest, PageCrossingTailPageChangeTakesEffect) {
  // The 10-byte site straddles a page boundary with the marker's byte 5 on
  // the second page: a write that touches only the tail page must still
  // change what the instruction does.
  MarkerLoop spec;
  spec.iterations = 5'000;
  spec.site_offset = mem::kPageSize - 4;
  std::uint64_t patch = 0;
  const isa::Program program = make_marker_loop("smc-crossing", spec, &patch);
  ASSERT_EQ(mem::page_floor(patch), program.base + mem::kPageSize);
  const SmcRun run =
      run_smc(block_on(), program, [&](mem::AddressSpace& as) {
        ASSERT_TRUE(as.write_force(patch, {&kMarkerNewByte, 1}).is_ok());
      });
  EXPECT_EQ(run.exit_code, 0);
}

TEST_P(SmcContractTest, ExecveRunsTheFreshImage) {
  // Both images put the site at the same address; only the marker differs.
  // After execve, nothing cached against the old address space may run.
  MarkerLoop target;
  target.marker = kMarkerNew;
  const isa::Program fresh = make_marker_loop("smc-fresh-image", target);
  MarkerLoop spec;
  spec.iterations = 3;
  spec.exec_next = fresh.name;
  const SmcRun run = run_smc(block_on(), make_marker_loop("smc-exec", spec),
                             {}, &fresh);
  EXPECT_EQ(run.exit_code, 0);
  if (block_on()) {
    EXPECT_GE(run.bcache.flushes, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, SmcContractTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "block" : "reference";
                         });

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
  EXPECT_GT(machine.block_cache_totals().hits, 0u);
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
  EXPECT_GT(block_bcache.hits, 0u);
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
  const replay::Trace trace = recorder->take_trace();

  // The schedule hook only hands run_slice exact step budgets, so replay
  // runs on the block engine and must land every slice, the re-posted kill
  // included, on the same step as a reference-engine replay.
  struct ReplayOutcome {
    MachineOutcome end;
    replay::Replayer::Stats stats;
  };
  auto replay_with = [&](bool block_on) {
    const std::string where = block_on ? "block" : "reference";
    auto replayer = std::make_shared<replay::Replayer>(trace);
    kern::Machine machine;
    machine.block_exec_enabled = block_on;
    machine.mmap_min_addr = 0;
    machine.register_program(program);
    replayer->attach(machine);
    const kern::Tid tid = machine.load(program).value();
    mechanisms::SudMechanism mechanism;
    EXPECT_TRUE(mechanism.install(machine, tid, replayer).is_ok());
    const auto stats = machine.run();
    EXPECT_TRUE(replayer->status().is_ok())
        << where << ": " << replayer->status().to_string();
    EXPECT_TRUE(stats.all_exited) << where << ": " << machine.last_fatal();
    EXPECT_EQ(machine.find_task(tid)->exit_code, recorded_exit) << where;
    EXPECT_EQ(machine.find_task(tid)->insns_retired, recorded_retired)
        << where;
    EXPECT_EQ(replayer->stats().signals_posted, 1u) << where;
    const cpu::BlockCacheStats bcache = machine.block_cache_totals();
    if (block_on) {
      EXPECT_GT(bcache.hits, 0u) << where;
    } else {
      EXPECT_EQ(bcache.hits + bcache.misses, 0u) << where;
    }
    ReplayOutcome out;
    out.end.exit_code = machine.find_task(tid)->exit_code;
    out.end.cycles = machine.total_cycles();
    out.end.insns = machine.total_insns();
    out.end.steps = machine.total_steps();
    out.stats = replayer->stats();
    return out;
  };
  const ReplayOutcome ref = replay_with(false);
  const ReplayOutcome block = replay_with(true);
  EXPECT_EQ(block.end.exit_code, ref.end.exit_code);
  EXPECT_EQ(block.end.cycles, ref.end.cycles);
  EXPECT_EQ(block.end.insns, ref.end.insns);
  EXPECT_EQ(block.end.steps, ref.end.steps);
  EXPECT_EQ(block.stats.syscalls_injected, ref.stats.syscalls_injected);
  EXPECT_EQ(block.stats.syscalls_executed, ref.stats.syscalls_executed);
  EXPECT_EQ(block.stats.signals_verified, ref.stats.signals_verified);
  EXPECT_EQ(block.stats.signals_posted, ref.stats.signals_posted);
  EXPECT_EQ(block.stats.slices_replayed, ref.stats.slices_replayed);
  EXPECT_EQ(block.stats.bytes_patched, ref.stats.bytes_patched);
}

}  // namespace
}  // namespace lzp
