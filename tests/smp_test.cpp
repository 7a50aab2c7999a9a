// SMP substrate tests: seeded-schedule determinism, single-CPU bit identity,
// gang placement of CLONE_VM threads, non-gang slice locking + shootdowns,
// and cross-CPU signal delivery through the mailbox.
//
// The determinism oracle is a full run fingerprint: per-tid syscall traces
// (captured by a thread-safe syscall observer), per-task cycle/instruction
// counters, the placement record, and every SmpStats counter. Same seed at
// 4 CPUs must reproduce the fingerprint exactly, run after run; a different
// seed must change placement. All comparisons are integer-exact.
#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <set>
#include <vector>

#include "apps/webserver.hpp"
#include "scenario/scenario.hpp"
#include "sim_test_util.hpp"

namespace lzp::kern {
namespace {

// A machine hosting `workers` independent single-task webserver processes,
// each with a private listener (SO_REUSEPORT-style), so the workload is
// parallelizable without sharing beyond the kernel tables.
struct SmpFixture {
  Machine machine;
  std::vector<int> listeners;
  std::vector<Tid> tids;

  explicit SmpFixture(unsigned workers, std::uint64_t requests_each = 30) {
    const scenario::Scenario spec{
        scenario::Web{apps::nginx_profile(), workers, 1024, 4, requests_each,
                      /*shared_listener=*/false}};
    auto instance = scenario::build(spec, machine, nullptr);
    EXPECT_TRUE(instance.is_ok()) << instance.status().to_string();
    if (!instance.is_ok()) return;
    listeners = instance.value().listeners;
    tids = instance.value().workers;
  }

  [[nodiscard]] std::uint64_t completed() {
    std::uint64_t total = 0;
    for (int listener : listeners) {
      total += machine.net().completed_requests(listener);
    }
    return total;
  }
};

struct TaskDigest {
  std::uint64_t cycles = 0;
  std::uint64_t insns = 0;
  std::uint64_t syscalls = 0;
  int exit_code = 0;

  bool operator==(const TaskDigest&) const = default;
};

// Everything a run exposes, integer-exact.
struct Fingerprint {
  std::map<Tid, std::vector<std::uint64_t>> syscall_trace;
  std::map<Tid, TaskDigest> tasks;
  std::vector<std::pair<Tid, unsigned>> placement;
  std::uint64_t barriers = 0;
  std::uint64_t steals = 0;
  std::uint64_t shootdowns = 0;
  std::uint64_t mailbox_signals = 0;
  std::uint64_t total_insns = 0;
  std::uint64_t total_cycles = 0;
  std::uint64_t completed = 0;

  bool operator==(const Fingerprint&) const = default;
};

Fingerprint run_fingerprinted(unsigned workers, unsigned cpus,
                              std::uint64_t seed) {
  SmpFixture f(workers);
  Fingerprint fp;
  // The observer fires concurrently from the pool's lanes; a task runs on
  // exactly one lane at a time, so per-tid order is that task's program
  // order — the mutex only protects the map across tids.
  std::mutex trace_mu;
  f.machine.add_syscall_observer(
      [&](const Task& task, std::uint64_t nr,
          const std::array<std::uint64_t, 6>&, Machine::SyscallOrigin) {
        std::lock_guard<std::mutex> lock(trace_mu);
        fp.syscall_trace[task.tid].push_back(nr);
      });

  SmpConfig config;
  config.cpus = cpus;
  config.seed = seed;
  const SmpStats stats = f.machine.run_smp(config);
  EXPECT_TRUE(stats.all_exited) << f.machine.last_fatal();

  for (Tid tid : f.machine.task_ids()) {
    const Task* task = f.machine.find_task(tid);
    fp.tasks[tid] = TaskDigest{task->cycles, task->insns_retired,
                               task->syscalls_dispatched, task->exit_code};
  }
  fp.placement = stats.placement;
  fp.barriers = stats.barriers;
  fp.steals = stats.steals;
  fp.shootdowns = stats.shootdowns;
  fp.mailbox_signals = stats.mailbox_signals;
  fp.total_insns = f.machine.total_insns();
  fp.total_cycles = f.machine.total_cycles();
  fp.completed = f.completed();
  return fp;
}

TEST(SmpDeterminismTest, SameSeedIdenticalAcrossTenRuns) {
  const Fingerprint first = run_fingerprinted(6, 4, 11);
  EXPECT_EQ(first.completed, 6u * 30u);
  EXPECT_FALSE(first.placement.empty());
  EXPECT_GT(first.barriers, 0u);
  for (int run = 1; run < 10; ++run) {
    const Fingerprint next = run_fingerprinted(6, 4, 11);
    ASSERT_EQ(first, next) << "run " << run << " diverged";
  }
}

TEST(SmpDeterminismTest, DifferentSeedsChangePlacement) {
  const Fingerprint base = run_fingerprinted(6, 4, 1);
  bool any_difference = false;
  for (std::uint64_t seed = 2; seed <= 6 && !any_difference; ++seed) {
    any_difference = run_fingerprinted(6, 4, seed).placement != base.placement;
  }
  EXPECT_TRUE(any_difference)
      << "placement identical across five different seeds";
}

TEST(SmpDeterminismTest, SingleCpuRunSmpBitIdenticalToRun) {
  SmpFixture serial(4);
  const RunStats ref = serial.machine.run();
  EXPECT_TRUE(ref.all_exited);

  SmpFixture smp(4);
  SmpConfig config;
  config.cpus = 1;
  config.seed = 99;  // must be irrelevant on one CPU
  const SmpStats stats = smp.machine.run_smp(config);
  EXPECT_TRUE(stats.all_exited);

  EXPECT_EQ(serial.machine.total_cycles(), smp.machine.total_cycles());
  EXPECT_EQ(serial.machine.total_insns(), smp.machine.total_insns());
  EXPECT_EQ(serial.machine.total_steps(), smp.machine.total_steps());
  for (Tid tid : serial.machine.task_ids()) {
    const Task* a = serial.machine.find_task(tid);
    const Task* b = smp.machine.find_task(tid);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->cycles, b->cycles) << "tid " << tid;
    EXPECT_EQ(a->insns_retired, b->insns_retired) << "tid " << tid;
  }
  EXPECT_EQ(serial.completed(), smp.completed());
}

// Independent workers do identical per-task work no matter how many CPUs
// execute them: the 4-CPU run is a pure reshuffle of the 1-CPU run.
TEST(SmpDeterminismTest, FourCpuMatchesSingleCpuPerTaskWork) {
  SmpFixture serial(6);
  EXPECT_TRUE(serial.machine.run().all_exited);

  SmpFixture smp(6);
  SmpConfig config;
  config.cpus = 4;
  config.seed = 3;
  EXPECT_TRUE(smp.machine.run_smp(config).all_exited)
      << smp.machine.last_fatal();

  EXPECT_EQ(serial.completed(), smp.completed());
  for (Tid tid : serial.machine.task_ids()) {
    const Task* a = serial.machine.find_task(tid);
    const Task* b = smp.machine.find_task(tid);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->insns_retired, b->insns_retired) << "tid " << tid;
    EXPECT_EQ(a->syscalls_dispatched, b->syscalls_dispatched) << "tid " << tid;
    EXPECT_EQ(a->exit_code, b->exit_code) << "tid " << tid;
  }
}

// One 4-thread (CLONE_VM) nginx server under lazypoline, serving 200
// requests of a 2 KiB file over 12 connections; returns its listener.
int load_threaded_server(Machine& machine) {
  const scenario::Scenario spec{
      scenario::Web{apps::nginx_profile(), 1, 2048, 12, 200,
                    /*shared_listener=*/true, /*threads=*/4},
      scenario::Mechanism::Kind::kLazypoline};
  auto instance = scenario::build(
      spec, machine, std::make_shared<interpose::TracingHandler>());
  EXPECT_TRUE(instance.is_ok()) << instance.status().to_string();
  return instance.is_ok() ? instance.value().listeners.front() : -1;
}

// CLONE_VM threads under lazypoline: the gang invariant keeps every sharer
// on one CPU, so the threaded server runs under run_smp with zero locking
// inside the slice and still serves the full workload.
TEST(SmpGangTest, ClonedVmServerStaysCoLocated) {
  Machine machine;
  const int listener = load_threaded_server(machine);

  SmpConfig config;
  config.cpus = 4;
  config.seed = 5;
  const SmpStats stats = machine.run_smp(config);
  EXPECT_TRUE(stats.all_exited) << machine.last_fatal();
  EXPECT_EQ(machine.net().completed_requests(listener), 200u);
  EXPECT_EQ(machine.task_ids().size(), 4u);

  std::set<unsigned> cpus_used;
  for (Tid tid : machine.task_ids()) {
    cpus_used.insert(machine.find_task(tid)->cpu);
  }
  EXPECT_EQ(cpus_used.size(), 1u) << "gang group split across CPUs";
  // Co-located sharers never need a cross-CPU invalidation.
  EXPECT_EQ(stats.shootdowns, 0u);
}

// gang_shared=false: CLONE_VM threads may land on different CPUs; slices
// serialize through the per-AS lock and lazypoline's self-modifying rewrites
// reach the spread-out siblings as counted shootdowns.
TEST(SmpGangTest, NonGangSpreadServesAndShootsDown) {
  Machine machine;
  const int listener = load_threaded_server(machine);

  SmpConfig config;
  config.cpus = 4;
  config.seed = 5;
  config.gang_shared = false;
  const SmpStats stats = machine.run_smp(config);
  EXPECT_TRUE(stats.all_exited) << machine.last_fatal();
  EXPECT_EQ(machine.net().completed_requests(listener), 200u);

  std::set<unsigned> cpus_used;
  for (Tid tid : machine.task_ids()) {
    cpus_used.insert(machine.find_task(tid)->cpu);
  }
  if (cpus_used.size() > 1) {
    EXPECT_GT(stats.shootdowns, 0u)
        << "spread CLONE_VM siblings saw no SMC shootdown";
  }
}

// A kill() aimed at a task on another CPU travels through the signal
// mailbox and lands at the next barrier.
TEST(SmpSignalTest, CrossCpuKillDeliversViaMailbox) {
  Machine machine;
  machine.mmap_min_addr = 0;
  auto looper =
      testutil::make_syscall_loop(kSysSchedYield, 10'000'000, "victim");
  machine.register_program(looper);
  const Tid victim = machine.load(looper).value();

  isa::Assembler a;
  const auto entry = a.new_label();
  a.bind(entry);
  a.mov(isa::Gpr::rdi,
        static_cast<std::uint64_t>(machine.find_task(victim)->process->pid));
  a.mov(isa::Gpr::rsi, kSigkill);
  apps::emit_syscall(a, kSysKill);
  apps::emit_exit(a, 0);
  auto killer_program = isa::make_program("killer", a, entry).value();
  machine.register_program(killer_program);
  const Tid killer = machine.load(killer_program).value();

  // Two single-task groups on two CPUs: the rebalancer forces one per CPU,
  // so the kill is cross-CPU for every seed.
  SmpConfig config;
  config.cpus = 2;
  config.seed = 1;
  const SmpStats stats = machine.run_smp(config);
  EXPECT_TRUE(stats.all_exited) << machine.last_fatal();
  EXPECT_NE(machine.find_task(victim)->cpu, machine.find_task(killer)->cpu);
  EXPECT_GE(stats.mailbox_signals, 1u);
  EXPECT_EQ(machine.find_task(killer)->exit_code, 0);
  EXPECT_EQ(machine.find_task(victim)->exit_code, 128 + kSigkill);
}

}  // namespace
}  // namespace lzp::kern
