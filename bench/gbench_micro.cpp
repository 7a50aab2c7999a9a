// google-benchmark microbenchmarks for the substrate components: how fast
// the simulator itself is (host-side wall time), plus simulated-cycle
// counters for the interposition paths. Complements the table/figure
// harnesses with per-component numbers.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>

#include "bench_util.hpp"
#include "bpf/seccomp_filter.hpp"
#include "cpu/execute.hpp"
#include "disasm/scanner.hpp"
#include "trace/tracer.hpp"

namespace {
using namespace lzp;

void BM_DecodeSyscall(benchmark::State& state) {
  const std::uint8_t bytes[] = {isa::kByte0F, isa::kByteSyscall2};
  for (auto _ : state) {
    auto insn = isa::decode(bytes);
    benchmark::DoNotOptimize(insn);
  }
}
BENCHMARK(BM_DecodeSyscall);

void BM_DecodeMovImm64(benchmark::State& state) {
  const std::uint8_t bytes[] = {0xB8, 0x03, 1, 2, 3, 4, 5, 6, 7, 8};
  for (auto _ : state) {
    auto insn = isa::decode(bytes);
    benchmark::DoNotOptimize(insn);
  }
}
BENCHMARK(BM_DecodeMovImm64);

// Shared setup for the step-loop benches: an infinite compute loop mapped
// executable, with the context parked at its entry.
struct StepLoopFixture {
  mem::AddressSpace as;
  cpu::CpuContext ctx;

  StepLoopFixture() {
    isa::Assembler a;
    const auto entry = a.new_label();
    const auto loop = a.new_label();
    a.bind(entry);
    a.mov(isa::Gpr::rbx, 0);
    a.bind(loop);
    a.add(isa::Gpr::rbx, 1);
    a.cmp(isa::Gpr::rbx, 0);  // never zero: infinite loop
    a.jnz(loop);
    auto code = std::move(a.finish()).value();
    (void)as.map(0x1000, mem::page_ceil(code.size()),
                 mem::kProtRead | mem::kProtExec, true);
    (void)as.write_force(0x1000, code);
    ctx.rip = 0x1000;
  }
};

// The reference interpreter's fetch/decode/execute loop: items_per_second
// is host-side instructions retired per second.
void BM_CpuStepLoop(benchmark::State& state) {
  StepLoopFixture f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cpu::step(f.ctx, f.as));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CpuStepLoop);

// Straight-line compute (no syscalls) end-to-end through Machine::run, so
// kernel-layer overheads are included: the reference engine against the
// block engine. The block-engine variant
// exports the superblock-cache counters so the bench JSON shows how much of
// the run was batch-dispatched.
void machine_straight_line(benchmark::State& state, bool block_enabled) {
  constexpr std::uint64_t kIterations = 50'000;
  isa::Assembler a;
  const auto entry = a.new_label();
  const auto loop = a.new_label();
  const auto done = a.new_label();
  a.bind(entry);
  a.mov(isa::Gpr::rbx, kIterations);
  a.bind(loop);
  a.cmp(isa::Gpr::rbx, 0);
  a.jz(done);
  a.add(isa::Gpr::rcx, 3);
  a.sub(isa::Gpr::rbx, 1);
  a.jmp(loop);
  a.bind(done);
  apps::emit_exit(a, 0);
  const auto program =
      bench::unwrap(isa::make_program("straight-line", a, entry), "assemble");

  std::uint64_t insns = 0;
  cpu::BlockCacheStats block_totals;
  for (auto _ : state) {
    kern::Machine machine;
    machine.block_exec_enabled = block_enabled;
    const kern::Tid tid = bench::unwrap(machine.load(program), "load");
    const auto stats = machine.run();
    if (!stats.all_exited) bench::die("machine did not quiesce");
    insns += machine.find_task(tid)->insns_retired;
    block_totals = machine.block_cache_totals();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(insns));
  if (block_enabled) {
    state.counters["block_hit_rate"] = block_totals.hit_rate();
    state.counters["block_hits"] = static_cast<double>(block_totals.hits);
    state.counters["block_misses"] = static_cast<double>(block_totals.misses);
    state.counters["block_blocks_built"] =
        static_cast<double>(block_totals.blocks_built);
    state.counters["block_invalidations"] =
        static_cast<double>(block_totals.invalidations);
  }
}

void BM_MachineStraightLineReference(benchmark::State& state) {
  machine_straight_line(state, /*block_enabled=*/false);
}
BENCHMARK(BM_MachineStraightLineReference);

void BM_MachineStraightLineBlock(benchmark::State& state) {
  machine_straight_line(state, /*block_enabled=*/true);
}
BENCHMARK(BM_MachineStraightLineBlock);

void BM_BpfMonitoringFilter(benchmark::State& state) {
  const std::uint32_t trapped[] = {101};
  const auto program =
      bpf::SeccompFilterBuilder::trap_syscalls(trapped, bpf::SECCOMP_RET_TRAP)
          .value();
  bpf::SeccompData data;
  data.nr = 39;
  const auto bytes = data.serialize();
  for (auto _ : state) {
    auto result = bpf::run(program, bytes);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_BpfMonitoringFilter);

void BM_XstateSaveRestore(benchmark::State& state) {
  cpu::XState xstate;
  std::vector<std::uint8_t> buffer(cpu::XState::kSaveSize);
  for (auto _ : state) {
    xstate.save_to(buffer);
    xstate.load_from(buffer);
    benchmark::DoNotOptimize(buffer.data());
  }
}
BENCHMARK(BM_XstateSaveRestore);

void BM_LinearSweepScan(benchmark::State& state) {
  const auto program =
      bench::unwrap(scenario::make_loop(scenario::Loop{1}), "loop");
  for (auto _ : state) {
    auto result = disasm::scan(program.image, program.base,
                               disasm::Strategy::kLinearSweep);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_LinearSweepScan);

// Simulated-cycle counters for the interposition paths (reported via the
// "sim_cycles_per_syscall" counter; host time measures simulator speed).
// `tracer`, when given, is attached to every machine before the build.
void interposed_micro(benchmark::State& state,
                      const scenario::Mechanism& mechanism,
                      trace::Tracer* tracer = nullptr) {
  const scenario::Loop loop{2'000};
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    kern::Machine machine;
    if (tracer != nullptr) tracer->attach(machine);
    cycles = bench::run_scenario({loop, mechanism}, machine).wall_cycles;
    benchmark::DoNotOptimize(cycles);
  }
  state.counters["sim_cycles_per_syscall"] =
      static_cast<double>(cycles) / static_cast<double>(loop.iterations);
}

void BM_SimNativeSyscall(benchmark::State& state) {
  interposed_micro(state, scenario::Mechanism::Kind::kNative);
}
BENCHMARK(BM_SimNativeSyscall);

void BM_SimZpoline(benchmark::State& state) {
  interposed_micro(state, scenario::Mechanism::Kind::kZpoline);
}
BENCHMARK(BM_SimZpoline);

void BM_SimLazypoline(benchmark::State& state) {
  interposed_micro(state, bench::steady_lazypoline(core::XstateMode::kFull));
}
BENCHMARK(BM_SimLazypoline);

void BM_SimSud(benchmark::State& state) {
  interposed_micro(state, scenario::Mechanism::Kind::kSud);
}
BENCHMARK(BM_SimSud);

// Tracing overhead on the hottest interposed path: the same lazypoline micro
// loop with a Tracer attached-but-disabled vs enabled. Compare against
// BM_SimLazypoline (no sink at all) for the three-way off/disabled/enabled
// split the trace-overhead gate checks.
void lazypoline_traced(benchmark::State& state, bool enabled) {
  trace::Tracer tracer;
  tracer.set_enabled(enabled);
  interposed_micro(state, bench::steady_lazypoline(core::XstateMode::kFull),
                   &tracer);
  // Cumulative across iterations (each run re-attaches the same tracer).
  state.counters["trace_events"] = static_cast<double>(
      tracer.ring().size() + tracer.ring().dropped());
}

void BM_SimLazypolineTracedDisabled(benchmark::State& state) {
  lazypoline_traced(state, /*enabled=*/false);
}
BENCHMARK(BM_SimLazypolineTracedDisabled);

void BM_SimLazypolineTracedEnabled(benchmark::State& state) {
  lazypoline_traced(state, /*enabled=*/true);
}
BENCHMARK(BM_SimLazypolineTracedEnabled);

// Straight-line throughput with the trace probes compiled in and a sink
// attached but disabled — the acceptance bar for "always-on" tracing: the
// non-syscall hot loop must not notice the probe layer.
void BM_MachineStraightLineTracedDisabled(benchmark::State& state) {
  trace::Tracer tracer;
  tracer.set_enabled(false);
  constexpr std::uint64_t kIterations = 50'000;
  isa::Assembler a;
  const auto entry = a.new_label();
  const auto loop = a.new_label();
  const auto done = a.new_label();
  a.bind(entry);
  a.mov(isa::Gpr::rbx, kIterations);
  a.bind(loop);
  a.cmp(isa::Gpr::rbx, 0);
  a.jz(done);
  a.add(isa::Gpr::rcx, 3);
  a.sub(isa::Gpr::rbx, 1);
  a.jmp(loop);
  a.bind(done);
  apps::emit_exit(a, 0);
  const auto program =
      bench::unwrap(isa::make_program("straight-line", a, entry), "assemble");

  std::uint64_t insns = 0;
  for (auto _ : state) {
    kern::Machine machine;
    tracer.attach(machine);
    const kern::Tid tid = bench::unwrap(machine.load(program), "load");
    const auto stats = machine.run();
    if (!stats.all_exited) bench::die("machine did not quiesce");
    insns += machine.find_task(tid)->insns_retired;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(insns));
}
BENCHMARK(BM_MachineStraightLineTracedDisabled);

// The cost of one SMP barrier phase with nothing to do: an empty 4-lane
// ThreadPool::run_indexed, against the same four calls made inline. In an
// empty phase the caller may finish every call before a worker wakes, so
// the all-lanes variant makes each call wait until all four have started,
// with the workers parked beforehand (1 ms untimed sleep): it prices the
// wake-up and final wait W that a phase with work on every lane pays, which
// sets src/kernel/lane_picker.hpp's floor for trying lanes.
constexpr unsigned kPhaseLanes = 4;

void BM_ThreadPoolPhaseInline(benchmark::State& state) {
  unsigned calls = 0;
  const std::function<void(unsigned)> fn = [&](unsigned i) {
    benchmark::DoNotOptimize(i);
    ++calls;
  };
  for (auto _ : state) {
    for (unsigned i = 0; i < kPhaseLanes; ++i) fn(i);
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(calls);
}
BENCHMARK(BM_ThreadPoolPhaseInline);

void BM_ThreadPoolPhase(benchmark::State& state) {
  ThreadPool pool(kPhaseLanes);
  const std::function<void(unsigned)> fn = [](unsigned i) {
    benchmark::DoNotOptimize(i);
  };
  for (auto _ : state) pool.run_indexed(kPhaseLanes, fn);
}
BENCHMARK(BM_ThreadPoolPhase)->UseRealTime();

void BM_ThreadPoolPhaseAllLanes(benchmark::State& state) {
  ThreadPool pool(kPhaseLanes);
  std::atomic<unsigned> started{0};
  const std::function<void(unsigned)> fn = [&](unsigned) {
    started.fetch_add(1);
    while (started.load() < kPhaseLanes) std::this_thread::yield();
  };
  for (auto _ : state) {
    state.PauseTiming();
    started.store(0);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    state.ResumeTiming();
    pool.run_indexed(kPhaseLanes, fn);
  }
}
// Each iteration sleeps 1 ms untimed, so the count is fixed.
BENCHMARK(BM_ThreadPoolPhaseAllLanes)->UseRealTime()->Iterations(500);

}  // namespace

BENCHMARK_MAIN();
