// Tests for src/profile: cycle-exact attribution, non-perturbation,
// determinism, frame-pointer folding — plus the latency-quantile and
// SMP-telemetry helpers that ride on the same observability surface.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/minilibc.hpp"
#include "interpose/handler.hpp"
#include "isa/assemble.hpp"
#include "kernel/machine.hpp"
#include "kernel/smp.hpp"
#include "kernel/syscalls.hpp"
#include "profile/profiler.hpp"
#include "scenario/scenario.hpp"
#include "trace/metrics_registry.hpp"

namespace lzp {
namespace {

constexpr std::uint64_t kSeed = 0xC0FFEEULL;

using Mech = scenario::Mechanism::Kind;

void install(kern::Machine& machine, kern::Tid tid, Mech mech) {
  const Status status = scenario::install(
      mech, machine, tid, std::make_shared<interpose::DummyHandler>());
  ASSERT_TRUE(status.is_ok()) << status.to_string();
}

isa::Program make_getpid_loop(std::uint64_t iterations) {
  isa::Assembler a;
  const auto entry = a.new_label();
  const auto loop = a.new_label();
  const auto done = a.new_label();
  a.bind(entry);
  a.mov(isa::Gpr::rbx, iterations);
  a.bind(loop);
  a.cmp(isa::Gpr::rbx, 0);
  a.jz(done);
  a.mov(isa::Gpr::rax, kern::kSysGetpid);
  a.syscall_();
  a.sub(isa::Gpr::rbx, 1);
  a.jmp(loop);
  a.bind(done);
  apps::emit_exit(a, 0);
  return std::move(isa::make_program("getpid-loop", a, entry)).value();
}

struct RunOutcome {
  std::uint64_t machine_cycles = 0;
  std::uint64_t machine_insns = 0;
  std::uint64_t profiler_cycles = 0;  // 0 when no profiler attached
  std::string folded;
  std::string hot_sites;
};

// One serial run of the getpid loop under `mech`, optionally profiled.
RunOutcome run_serial(Mech mech, bool profiled, bool block_engine) {
  profile::Profiler profiler;
  kern::Machine machine;
  machine.mmap_min_addr = 0;
  machine.block_exec_enabled = block_engine;
  machine.reseed_rng(kSeed);
  if (profiled) profiler.attach(machine);

  const isa::Program program = make_getpid_loop(25);
  machine.register_program(program);
  auto tid = machine.load(program);
  EXPECT_TRUE(tid.is_ok());
  install(machine, tid.value(), mech);
  const auto stats = machine.run();
  EXPECT_TRUE(stats.all_exited) << machine.last_fatal();

  RunOutcome out;
  out.machine_cycles = machine.total_cycles();
  out.machine_insns = machine.total_insns();
  if (profiled) {
    out.profiler_cycles = profiler.total_cycles();
    out.folded = profiler.folded_stacks();
    out.hot_sites = profiler.render_hot_sites(10);
  }
  return out;
}

// One run_smp of several getpid-loop processes, optionally profiled.
RunOutcome run_smp(bool profiled) {
  profile::Profiler profiler;
  profiler.set_concurrent(true);
  kern::Machine machine;
  machine.mmap_min_addr = 0;
  machine.reseed_rng(kSeed);
  if (profiled) profiler.attach(machine);

  const isa::Program program = make_getpid_loop(25);
  machine.register_program(program);
  std::vector<kern::Tid> tids;
  for (int i = 0; i < 6; ++i) {
    auto tid = machine.load(program);
    EXPECT_TRUE(tid.is_ok());
    tids.push_back(tid.value());
  }
  install(machine, tids[0], Mech::kLazypoline);

  kern::SmpConfig config;
  config.cpus = 4;
  config.seed = 7;
  const kern::SmpStats stats = machine.run_smp(config);
  EXPECT_TRUE(stats.all_exited) << machine.last_fatal();

  RunOutcome out;
  out.machine_cycles = machine.total_cycles();
  out.machine_insns = machine.total_insns();
  if (profiled) {
    out.profiler_cycles = profiler.total_cycles();
    out.folded = profiler.folded_stacks();
    out.hot_sites = profiler.render_hot_sites(10);
  }
  return out;
}

// The per-class sums equal the machine's retired-cycle counter exactly, for
// every mechanism, under both execution engines.
TEST(ProfilerTest, ClassSumsMatchMachineCyclesExactly) {
  for (const Mech mech : scenario::kInterposers) {
    for (const bool block_engine : {false, true}) {
      const RunOutcome run =
          run_serial(mech, /*profiled=*/true, block_engine);
      EXPECT_EQ(run.profiler_cycles, run.machine_cycles)
          << scenario::to_string(mech) << (block_engine ? " block" : " step");
      EXPECT_GT(run.profiler_cycles, 0u);
    }
  }
}

// Attaching a profiler changes nothing the simulation can observe: cycles
// and instructions are bit-identical with profiling on and off.
TEST(ProfilerTest, ProfilingIsCycleInvisible) {
  for (const Mech mech : scenario::kInterposers) {
    for (const bool block_engine : {true, false}) {
      const RunOutcome off = run_serial(mech, /*profiled=*/false, block_engine);
      const RunOutcome on = run_serial(mech, /*profiled=*/true, block_engine);
      EXPECT_EQ(off.machine_cycles, on.machine_cycles) << scenario::to_string(mech);
      EXPECT_EQ(off.machine_insns, on.machine_insns) << scenario::to_string(mech);
    }
  }
}

// Same seed, same everything: folded stacks and the rendered hot-site table
// are byte-identical across runs.
TEST(ProfilerTest, SameSeedProducesIdenticalProfiles) {
  const RunOutcome a = run_serial(Mech::kLazypoline, /*profiled=*/true, true);
  const RunOutcome b = run_serial(Mech::kLazypoline, /*profiled=*/true, true);
  EXPECT_FALSE(a.folded.empty());
  EXPECT_EQ(a.folded, b.folded);
  EXPECT_EQ(a.hot_sites, b.hot_sites);
}

// Under run_smp with 4 CPUs (gang placement, deterministic): profiling stays
// invisible, attribution stays exact, and same-seed profiles are identical.
TEST(ProfilerTest, SmpProfilingInvisibleExactAndDeterministic) {
  const RunOutcome off = run_smp(/*profiled=*/false);
  const RunOutcome on = run_smp(/*profiled=*/true);
  EXPECT_EQ(off.machine_cycles, on.machine_cycles);
  EXPECT_EQ(off.machine_insns, on.machine_insns);
  EXPECT_EQ(on.profiler_cycles, on.machine_cycles);

  const RunOutcome again = run_smp(/*profiled=*/true);
  EXPECT_EQ(on.folded, again.folded);
  EXPECT_EQ(on.hot_sites, again.hot_sites);
}

// Frame-pointer folding: a callee built with the push rbp / mov rbp,rsp
// prologue folds under its caller, and registered symbols name both frames.
TEST(ProfilerTest, FoldsRbpFramedCallUnderCaller) {
  isa::Assembler a;
  const auto entry = a.new_label();
  const auto func = a.new_label();
  a.bind(entry);
  a.push(isa::Gpr::rbp);
  a.mov(isa::Gpr::rbp, isa::Gpr::rsp);
  a.call(func);
  a.pop(isa::Gpr::rbp);
  apps::emit_exit(a, 0);
  a.bind(func);
  a.push(isa::Gpr::rbp);
  a.mov(isa::Gpr::rbp, isa::Gpr::rsp);
  a.mov(isa::Gpr::rax, kern::kSysGetpid);
  a.syscall_();
  a.pop(isa::Gpr::rbp);
  a.ret();
  const std::uint64_t func_off = a.label_offset(func).value();
  isa::Program program =
      std::move(isa::make_program("framed", a, entry)).value();

  profile::Profiler profiler;
  kern::Machine machine;
  machine.mmap_min_addr = 0;
  profiler.attach(machine);
  profiler.register_symbol(program.base, func_off, "main");
  profiler.register_symbol(program.base + func_off,
                           program.image.size() - func_off, "func");
  machine.register_program(program);
  auto tid = machine.load(program);
  ASSERT_TRUE(tid.is_ok());
  EXPECT_TRUE(machine.run().all_exited) << machine.last_fatal();

  // Guest cycles spent inside func fold as framed;main;func, and the getpid
  // kernel cost hangs off the same stack with a synthetic kernel leaf.
  const std::string folded = profiler.folded_stacks();
  EXPECT_NE(folded.find("framed;main;func "), std::string::npos) << folded;
  EXPECT_NE(folded.find("framed;main;kernel:getpid "), std::string::npos)
      << folded;
  EXPECT_EQ(profiler.total_cycles(), machine.total_cycles());
}

// Non-guest classes show up split out: kernel syscall cost is attributed to
// CycleClass::kKernel, and the guest class dominates a compute loop.
TEST(ProfilerTest, ClassSplitSeparatesKernelFromGuest) {
  const RunOutcome run = run_serial(Mech::kSud, /*profiled=*/true, true);
  profile::Profiler probe;  // only for the class-name rendering path
  (void)probe;
  EXPECT_NE(run.hot_sites.find("kernel:getpid"), std::string::npos)
      << run.hot_sites;
}

TEST(QuantileTest, InterpolatesWithinLog2Buckets) {
  trace::LatencyHistogram hist;
  EXPECT_EQ(hist.quantile(0.5), 0.0);  // empty

  for (int i = 0; i < 100; ++i) hist.add(10);  // all in bucket [8, 16)
  EXPECT_GE(hist.quantile(0.50), 8.0);
  EXPECT_LE(hist.quantile(0.50), 16.0);
  EXPECT_LE(hist.quantile(0.50), hist.quantile(0.95));
  EXPECT_LE(hist.quantile(0.95), hist.quantile(0.99));

  // A heavy tail pulls p99 into the tail bucket but leaves p50 put.
  for (int i = 0; i < 2; ++i) hist.add(5000);  // bucket [4096, 8192)
  EXPECT_LE(hist.quantile(0.50), 16.0);
  EXPECT_GE(hist.quantile(0.99), 4096.0);

  trace::LatencyHistogram zeros;
  zeros.add(0);
  zeros.add(1);
  EXPECT_GE(zeros.quantile(0.5), 0.0);
  EXPECT_LE(zeros.quantile(0.5), 2.0);
}

TEST(SmpTelemetryTest, RecordSmpStatsExposesCounters) {
  kern::SmpStats stats;
  stats.barriers = 12;
  stats.steals = 3;
  stats.shootdowns = 5;
  stats.mailbox_signals = 7;
  stats.placement = {{1, 0}, {2, 1}};
  stats.cpus.resize(2);
  stats.cpus[0].steps = 100;
  stats.cpus[1].slices = 9;

  trace::MetricsRegistry metrics;
  trace::record_smp_stats(metrics, stats);
  EXPECT_EQ(metrics.counter("smp.barriers"), 12u);
  EXPECT_EQ(metrics.counter("smp.steals"), 3u);
  EXPECT_EQ(metrics.counter("smp.shootdowns"), 5u);
  EXPECT_EQ(metrics.counter("smp.mailbox_signals"), 7u);
  EXPECT_EQ(metrics.counter("smp.placements"), 2u);
  EXPECT_EQ(metrics.counter("smp.cpu0.steps"), 100u);
  EXPECT_EQ(metrics.counter("smp.cpu1.slices"), 9u);
}

// run_smp records a per-barrier-round timeline with cumulative counters that
// never decrease and per-CPU vectors sized to the CPU count.
TEST(SmpTelemetryTest, BarrierTimelineIsMonotonicAndSized) {
  kern::Machine machine;
  machine.mmap_min_addr = 0;
  machine.reseed_rng(kSeed);
  const isa::Program program = make_getpid_loop(25);
  machine.register_program(program);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(machine.load(program).is_ok());
  }
  kern::SmpConfig config;
  config.cpus = 4;
  config.seed = 11;
  const kern::SmpStats stats = machine.run_smp(config);
  ASSERT_TRUE(stats.all_exited);

  ASSERT_FALSE(stats.timeline.empty());
  EXPECT_FALSE(stats.timeline_truncated);
  std::uint64_t prev_cycles = 0;
  std::uint64_t prev_round = 0;
  for (const kern::SmpBarrierSample& sample : stats.timeline) {
    EXPECT_EQ(sample.cpu_steps.size(), 4u);
    EXPECT_EQ(sample.cpu_slices.size(), 4u);
    EXPECT_EQ(sample.run_queue.size(), 4u);
    EXPECT_GE(sample.total_cycles, prev_cycles);
    if (&sample != &stats.timeline.front()) {
      EXPECT_GT(sample.round, prev_round);
    }
    prev_cycles = sample.total_cycles;
    prev_round = sample.round;
  }
  const kern::SmpBarrierSample& last = stats.timeline.back();
  EXPECT_EQ(last.steals, stats.steals);
  EXPECT_EQ(last.shootdowns, stats.shootdowns);
  EXPECT_EQ(last.mailbox_signals, stats.mailbox_signals);
}

}  // namespace
}  // namespace lzp
