// Property-style suites (parameterized sweeps + randomized invariants):
//   * the decoder is total and never mis-sizes (fuzz over random bytes),
//   * the zpoline sled property holds for EVERY syscall number: call rax
//     with rax = nr lands in the sled and reaches the interposer,
//   * validated BPF programs always terminate within the insn bound,
//   * XState serialization round-trips for arbitrary states,
//   * lazypoline's laziness invariant: syscalls-through-slow-path == number
//     of distinct sites, independent of iteration count.
#include <gtest/gtest.h>

#include "base/rng.hpp"
#include "bpf/seccomp_filter.hpp"
#include "core/lazypoline.hpp"
#include "isa/decode.hpp"
#include "scenario/scenario.hpp"
#include "sim_test_util.hpp"

namespace lzp {
namespace {

constexpr auto kLazypoline = scenario::Mechanism::Kind::kLazypoline;

// --- decoder totality fuzz -------------------------------------------------

class DecodeFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecodeFuzzTest, DecoderNeverCrashesOrOverruns) {
  Xoshiro256 rng(GetParam());
  for (int i = 0; i < 20000; ++i) {
    std::uint8_t buffer[isa::kMaxInsnLength];
    const std::size_t length = 1 + rng.next_below(isa::kMaxInsnLength);
    for (std::size_t b = 0; b < length; ++b) {
      buffer[b] = static_cast<std::uint8_t>(rng.next());
    }
    auto decoded = isa::decode({buffer, length});
    if (decoded.is_ok()) {
      EXPECT_LE(decoded.value().length, length);
      EXPECT_GE(decoded.value().length, 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecodeFuzzTest,
                         ::testing::Values(1, 2, 3, 17, 99));

// --- nop sled property over syscall numbers -----------------------------------

class SledEntryTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SledEntryTest, CallRaxWithAnySyscallNumberReachesInterposer) {
  const std::uint64_t nr = GetParam();
  // A program whose syscall is pre-rewritten by lazypoline: executing it
  // lands at VA nr, slides through the sled, and reaches the entry.
  isa::Assembler a;
  auto entry = a.new_label();
  a.bind(entry);
  a.mov(isa::Gpr::rax, nr);
  a.syscall_();
  apps::emit_exit(a, 0);
  auto program = isa::make_program("sled-" + std::to_string(nr), a, entry).value();

  kern::Machine machine;
  machine.mmap_min_addr = 0;
  machine.register_program(program);
  auto tid = machine.load(program).value();
  auto handler = std::make_shared<interpose::TracingHandler>();
  std::shared_ptr<core::Lazypoline> runtime;
  ASSERT_TRUE(
      scenario::install(kLazypoline, machine, tid, handler, &runtime).is_ok());
  // Pre-rewrite the site so execution takes the pure fast path.
  ASSERT_TRUE(runtime
                  ->rewrite_site_manually(tid,
                                          program.true_syscall_addresses()[0])
                  .is_ok());
  auto stats = machine.run();
  EXPECT_TRUE(stats.all_exited) << machine.last_fatal();
  ASSERT_FALSE(handler->trace().empty());
  EXPECT_EQ(handler->trace()[0].nr, nr);
}

INSTANTIATE_TEST_SUITE_P(SyscallNumbers, SledEntryTest,
                         ::testing::Values(0, 1, 39, 60, 231, 257, 318, 499,
                                           500, kern::kMaxSyscallNumber));

// --- BPF termination -----------------------------------------------------------

class BpfTerminationTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BpfTerminationTest, ValidatedProgramsTerminateWithinBound) {
  Xoshiro256 rng(GetParam());
  int validated = 0;
  for (int attempt = 0; attempt < 3000; ++attempt) {
    const std::size_t length = 1 + rng.next_below(12);
    std::vector<bpf::Insn> program(length);
    for (auto& insn : program) {
      insn.code = static_cast<std::uint16_t>(rng.next_below(0x200));
      insn.jt = static_cast<std::uint8_t>(rng.next_below(4));
      insn.jf = static_cast<std::uint8_t>(rng.next_below(4));
      insn.k = static_cast<std::uint32_t>(rng.next_below(64)) * 4;
    }
    // Force a terminating tail so some programs validate.
    program.back() = bpf::stmt(bpf::BPF_RET | bpf::BPF_K, 0);
    if (!bpf::validate(program, bpf::SeccompData::kSize).is_ok()) continue;
    ++validated;
    bpf::SeccompData data;
    data.nr = static_cast<std::int32_t>(rng.next_below(512));
    auto result = bpf::run(program, data.serialize());
    ASSERT_TRUE(result.is_ok() ||
                result.status().code() != StatusCode::kInternal)
        << "validated program must not run away";
    if (result.is_ok()) {
      EXPECT_LE(result.value().insns_executed, program.size());
    }
  }
  EXPECT_GT(validated, 10) << "fuzz should produce some valid programs";
}

INSTANTIATE_TEST_SUITE_P(Seeds, BpfTerminationTest, ::testing::Values(7, 8, 9));

// --- XState round trip ------------------------------------------------------------

class XstateRoundTripTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(XstateRoundTripTest, SaveLoadIsIdentity) {
  Xoshiro256 rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    cpu::XState state;
    for (auto& lanes : state.xmm) lanes = {rng.next(), rng.next()};
    for (auto& lanes : state.ymm_hi) lanes = {rng.next(), rng.next()};
    const std::uint64_t pushes = rng.next_below(12);
    for (std::uint64_t p = 0; p < pushes; ++p) state.x87_push(rng.next());
    state.mxcsr = static_cast<std::uint32_t>(rng.next());
    state.fcw = static_cast<std::uint16_t>(rng.next());

    std::vector<std::uint8_t> buffer(cpu::XState::kSaveSize);
    state.save_to(buffer);
    cpu::XState restored;
    restored.load_from(buffer);
    ASSERT_EQ(restored, state);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XstateRoundTripTest,
                         ::testing::Values(11, 12, 13));

// --- lazypoline laziness invariant --------------------------------------------------

class LazinessTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LazinessTest, SlowPathHitsEqualDistinctSitesNotIterations) {
  const std::uint64_t iterations = GetParam();
  auto program = testutil::make_syscall_loop(kern::kSysGetpid, iterations);

  kern::Machine machine;
  machine.mmap_min_addr = 0;
  machine.register_program(program);
  auto tid = machine.load(program).value();
  std::shared_ptr<core::Lazypoline> runtime;
  ASSERT_TRUE(scenario::install(kLazypoline, machine, tid,
                                std::make_shared<interpose::DummyHandler>(),
                                &runtime)
                  .is_ok());
  auto stats = machine.run();
  EXPECT_TRUE(stats.all_exited) << machine.last_fatal();

  // 2 distinct sites (loop body + exit), regardless of iteration count.
  EXPECT_EQ(runtime->stats().slow_path_hits, 2u);
  EXPECT_EQ(runtime->stats().sites_rewritten, 2u);
  EXPECT_EQ(runtime->stats().entry_invocations, iterations + 1);
}

INSTANTIATE_TEST_SUITE_P(Iterations, LazinessTest,
                         ::testing::Values(1, 2, 10, 100, 1000));

// --- interposition transparency sweep ----------------------------------------------

// Whatever the mechanism, a dummy-interposed run must produce the same
// application-visible results as a native run.
class TransparencyTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint64_t>> {};

TEST_P(TransparencyTest, DummyInterpositionIsInvisible) {
  const auto [nr, iterations] = GetParam();
  auto program = testutil::make_syscall_loop(nr, iterations);

  int native_code = 0;
  {
    kern::Machine machine;
    native_code = testutil::load_and_run(machine, program);
  }
  int interposed_code = 0;
  std::uint64_t interposed_traces = 0;
  {
    kern::Machine machine;
    machine.mmap_min_addr = 0;
    machine.register_program(program);
    auto tid = machine.load(program).value();
    auto handler = std::make_shared<interpose::TracingHandler>();
    ASSERT_TRUE(scenario::install(kLazypoline, machine, tid, handler).is_ok());
    auto stats = machine.run();
    EXPECT_TRUE(stats.all_exited) << machine.last_fatal();
    interposed_code = machine.find_task(tid)->exit_code;
    interposed_traces = handler->trace().size();
  }
  EXPECT_EQ(native_code, interposed_code);
  EXPECT_EQ(interposed_traces, iterations + 1);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, TransparencyTest,
    ::testing::Combine(::testing::Values<std::uint64_t>(kern::kSysGetpid,
                                                        kern::kSysGettid,
                                                        kern::kSysSchedYield,
                                                        kern::kSysNonexistent),
                       ::testing::Values<std::uint64_t>(1, 7, 64)));


// --- randomized transparency fuzz ---------------------------------------------
//
// Generate random-but-well-defined straight-line programs (arithmetic,
// memory traffic in the data region, xstate use, balanced push/pop, and
// sprinkled syscalls), run each natively and under lazypoline with a dummy
// interposer, and require identical observable behaviour: exit code, final
// data-region contents, and one trace entry per executed syscall.
// Registers the syscall ABI leaves undefined after SYSCALL (rcx, r11) are
// excluded from the pool, as reading them is undefined behaviour.
class TransparencyFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

namespace fuzz {

struct Generated {
  isa::Program program;
  std::uint64_t syscalls = 0;
};

Generated make_random_program(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  using isa::Gpr;
  // Well-defined register pool (no rsp, no ABI-clobbered rcx/r11, r9 is the
  // reserved data-region base).
  const Gpr pool[] = {Gpr::rax, Gpr::rbx, Gpr::rdx,  Gpr::rbp,  Gpr::rsi,
                      Gpr::rdi, Gpr::r8,  Gpr::r10,  Gpr::r12,  Gpr::r13,
                      Gpr::r14, Gpr::r15};
  auto reg = [&] { return pool[rng.next_below(std::size(pool))]; };
  auto disp = [&] { return static_cast<std::int32_t>(rng.next_below(64) * 8); };

  isa::Assembler a;
  const auto entry = a.new_label();
  a.bind(entry);
  a.mov(Gpr::r9, apps::kDataBase);
  for (Gpr r : pool) a.mov(r, rng.next_below(0xFFFF));

  Generated out;
  const std::uint64_t length = 30 + rng.next_below(50);
  for (std::uint64_t i = 0; i < length; ++i) {
    switch (rng.next_below(12)) {
      case 0: a.mov(reg(), rng.next_below(1 << 20)); break;
      case 1: a.mov(reg(), reg()); break;
      case 2: a.add(reg(), reg()); break;
      case 3: a.sub(reg(), reg()); break;
      case 4: a.mul(reg(), reg()); break;
      case 5: a.add(reg(), static_cast<std::int32_t>(rng.next_below(2000)) - 1000); break;
      case 6: a.store(Gpr::r9, disp(), reg()); break;
      case 7: a.load(reg(), Gpr::r9, disp()); break;
      case 8: {
        const auto xmm = static_cast<std::uint8_t>(rng.next_below(16));
        a.xmov_from_gpr(xmm, reg());
        a.xstore(Gpr::r9, static_cast<std::int32_t>(0x200 + rng.next_below(16) * 16), xmm);
        break;
      }
      case 9: {
        const Gpr r1 = reg();
        const Gpr r2 = reg();
        a.push(r1);
        a.pop(r2);
        break;
      }
      case 10: {
        a.mov(Gpr::rax, rng.next_below(2) == 0
                            ? std::uint64_t{kern::kSysGetpid}
                            : std::uint64_t{kern::kSysSchedYield});
        a.syscall_();
        ++out.syscalls;
        break;
      }
      case 11: {
        a.fld(rng.next());
        a.fstp(reg());
        break;
      }
    }
  }
  a.mov(Gpr::rdi, Gpr::rbx);
  apps::emit_syscall(a, kern::kSysExitGroup);
  ++out.syscalls;
  out.program =
      isa::make_program("fuzz-" + std::to_string(seed), a, entry).value();
  return out;
}

struct Observed {
  int exit_code = 0;
  std::vector<std::uint8_t> data;
  std::uint64_t traced = 0;
};

Observed run_native(const isa::Program& program) {
  kern::Machine machine;
  kern::Tid tid = 0;
  Observed obs;
  obs.exit_code = testutil::load_and_run(machine, program, &tid);
  obs.data.resize(0x300);
  EXPECT_TRUE(machine.find_task(tid)
                  ->mem->read_force(apps::kDataBase, obs.data)
                  .is_ok());
  return obs;
}

Observed run_lazypoline(const isa::Program& program) {
  kern::Machine machine;
  machine.mmap_min_addr = 0;
  machine.register_program(program);
  const kern::Tid tid = machine.load(program).value();
  auto handler = std::make_shared<interpose::TracingHandler>();
  EXPECT_TRUE(scenario::install(kLazypoline, machine, tid, handler).is_ok());
  const auto stats = machine.run();
  EXPECT_TRUE(stats.all_exited) << machine.last_fatal();
  Observed obs;
  obs.exit_code = machine.find_task(tid)->exit_code;
  obs.data.resize(0x300);
  EXPECT_TRUE(machine.find_task(tid)
                  ->mem->read_force(apps::kDataBase, obs.data)
                  .is_ok());
  obs.traced = handler->trace().size();
  return obs;
}

}  // namespace fuzz

TEST_P(TransparencyFuzzTest, RandomProgramsBehaveIdentically) {
  Xoshiro256 seeder(GetParam());
  for (int round = 0; round < 25; ++round) {
    const std::uint64_t seed = seeder.next();
    const fuzz::Generated generated = fuzz::make_random_program(seed);
    const fuzz::Observed native = fuzz::run_native(generated.program);
    const fuzz::Observed interposed = fuzz::run_lazypoline(generated.program);
    ASSERT_EQ(native.exit_code, interposed.exit_code) << "seed " << seed;
    ASSERT_EQ(native.data, interposed.data) << "seed " << seed;
    ASSERT_EQ(interposed.traced, generated.syscalls) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransparencyFuzzTest,
                         ::testing::Values(101, 202, 303, 404));

}  // namespace
}  // namespace lzp
