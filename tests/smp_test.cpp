// SMP substrate tests: seeded-schedule determinism, single-CPU bit identity,
// gang placement of CLONE_VM threads, non-gang slice locking + shootdowns,
// cross-CPU signal delivery through the mailbox, host-timing independence
// with phases pushed onto host lanes, and the lane picker's choices on
// scripted host times.
//
// The determinism oracle is a full run fingerprint: per-tid syscall traces
// (captured by a thread-safe syscall observer), per-task cycle/instruction
// counters, the placement record, and every SmpStats counter. Same seed at
// 4 CPUs must reproduce the fingerprint exactly, run after run; a different
// seed must change placement. All comparisons are integer-exact.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "apps/webserver.hpp"
#include "base/rng.hpp"
#include "base/thread_pool.hpp"
#include "interpose/handler.hpp"
#include "kernel/lane_picker.hpp"
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

  explicit SmpFixture(
      unsigned workers, std::uint64_t requests_each = 30,
      scenario::Mechanism mechanism = scenario::Mechanism::Kind::kNative,
      std::shared_ptr<interpose::SyscallHandler> handler = nullptr) {
    const scenario::Scenario spec{
        scenario::Web{apps::nginx_profile(), workers, 1024, 4, requests_each,
                      /*shared_listener=*/false},
        std::move(mechanism)};
    auto instance = scenario::build(spec, machine, std::move(handler));
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

// A pass-through handler that records which host threads ran guest
// syscalls and, when `perturb` is set, sleeps 0-200 us on a seeded half of
// them and yields on an eighth. The draw hashes (seed, tid, the task's
// syscall count), so it does not depend on which lane runs first. Sleeps
// make runs of phases long enough to go to host lanes; host timing must
// never reach the simulation.
class HostJitterHandler final : public interpose::SyscallHandler {
 public:
  HostJitterHandler(std::uint64_t seed, bool perturb)
      : seed_(seed), perturb_(perturb) {}

  std::uint64_t handle(interpose::InterposeContext& ctx) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      threads_.insert(std::this_thread::get_id());
    }
    if (perturb_) {
      const kern::Task& task = ctx.task();
      Xoshiro256 draw(seed_ ^ (0x9E3779B97F4A7C15ULL * task.tid) ^
                      (task.syscalls_dispatched << 32));
      switch (draw.next_below(8)) {
        case 0:
        case 1:
        case 2:
        case 3:
          std::this_thread::sleep_for(
              std::chrono::microseconds(draw.next_below(201)));
          break;
        case 4:
          std::this_thread::yield();
          break;
        default:
          break;
      }
    }
    return ctx.pass_through();
  }
  [[nodiscard]] std::string name() const override { return "host-jitter"; }

  [[nodiscard]] std::size_t host_threads() {
    std::lock_guard<std::mutex> lock(mu_);
    return threads_.size();
  }

 private:
  const std::uint64_t seed_;
  const bool perturb_;
  std::mutex mu_;
  std::set<std::thread::id> threads_;  // guarded by mu_
};

// What a run computes (placement, per-CPU steps, cycles, per-task work) and
// how the host ran it.
struct JitterRun {
  std::vector<std::pair<Tid, unsigned>> placement;
  std::vector<std::uint64_t> cpu_steps;
  std::uint64_t total_cycles = 0;
  std::map<Tid, TaskDigest> tasks;
  std::uint64_t completed = 0;
  std::uint64_t parallel_phases = 0;
  std::size_t host_threads = 0;
};

JitterRun run_jittered(std::uint64_t seed, bool perturb) {
  auto handler = std::make_shared<HostJitterHandler>(seed, perturb);
  SmpFixture f(6, 30, scenario::Mechanism::Kind::kLazypoline, handler);
  SmpConfig config;
  config.cpus = 4;
  config.seed = seed;
  const SmpStats stats = f.machine.run_smp(config);
  EXPECT_TRUE(stats.all_exited) << f.machine.last_fatal();

  JitterRun run;
  run.placement = stats.placement;
  for (const CpuStats& cpu : stats.cpus) run.cpu_steps.push_back(cpu.steps);
  run.total_cycles = f.machine.total_cycles();
  for (Tid tid : f.machine.task_ids()) {
    const Task* task = f.machine.find_task(tid);
    run.tasks[tid] = TaskDigest{task->cycles, task->insns_retired,
                                task->syscalls_dispatched, task->exit_code};
  }
  run.completed = f.completed();
  run.parallel_phases = stats.host_parallel_phases;
  run.host_threads = handler->host_threads();
  return run;
}

// Phases run on host lanes only while lanes measure cheaper than the
// calling thread, so without this test the sanitizer build's SMP runs might
// never start a host lane. Seeded host sleeps make phases long enough for
// lanes to be tried, and sleeps overlap on lanes, so phases go to real
// concurrent lanes; the simulated result must match the run without them
// exactly. The picker's wait before a trial carries over from earlier runs
// in the process, so the perturbed run repeats until lanes were tried.
TEST(SmpHostTimingTest, SleepsAndYieldsOnHostLanesLeaveTheRunUnchanged) {
  if (ThreadPool::host_cores() < 2) {
    GTEST_SKIP() << "one host core: every phase runs on the calling thread";
  }
  constexpr int kMaxJitteredRuns = 8;
  for (const std::uint64_t seed : {7u, 8u}) {
    const JitterRun calm = run_jittered(seed, /*perturb=*/false);
    EXPECT_EQ(calm.completed, 6u * 30u);
    JitterRun jittered;
    for (int run = 0; run < kMaxJitteredRuns && jittered.parallel_phases == 0;
         ++run) {
      jittered = run_jittered(seed, /*perturb=*/true);
      EXPECT_EQ(jittered.placement, calm.placement) << "seed " << seed;
      EXPECT_EQ(jittered.cpu_steps, calm.cpu_steps) << "seed " << seed;
      EXPECT_EQ(jittered.total_cycles, calm.total_cycles) << "seed " << seed;
      EXPECT_EQ(jittered.tasks, calm.tasks) << "seed " << seed;
      EXPECT_EQ(jittered.completed, calm.completed) << "seed " << seed;
    }
    EXPECT_GT(jittered.parallel_phases, 0u) << "seed " << seed;
    EXPECT_GE(jittered.host_threads, 2u)
        << "seed " << seed << ": guest syscalls ran on one host thread in "
        << jittered.parallel_phases << " parallel phases";
  }
}

// --- lane picker: scripted host times ----------------------------------------

constexpr std::uint64_t kPhaseSteps = 1000;
// A phase long enough to try lanes on, at 100 ns per guest step inline.
constexpr std::chrono::nanoseconds kLongPhase{100 * kPhaseSteps};

// Records long inline phases until the picker asks for lanes; returns how
// many it took (or `limit` if it never asked).
unsigned inline_phases_until_trial(LanePicker& picker, unsigned limit) {
  for (unsigned n = 1; n <= limit; ++n) {
    picker.record(false, 1, kLongPhase, kPhaseSteps);
    if (picker.lanes()) return n;
  }
  return limit;
}

// Runs one trial, kTrialWarmup + 1 phases taking `host` each, in the mode
// the picker asked for; it must keep asking for that mode to the end.
void run_trial(LanePicker& picker, std::chrono::nanoseconds host) {
  const bool on_lanes = picker.lanes();
  for (unsigned i = 0; i <= LanePicker::kTrialWarmup; ++i) {
    ASSERT_EQ(picker.lanes(), on_lanes) << "trial phase " << i;
    picker.record(on_lanes, 1, host, kPhaseSteps);
  }
}

TEST(LanePickerTest, ShortPhasesNeverTryLanes) {
  LanePicker picker;
  const unsigned window = LanePicker::kShortWindow;
  const auto short_window = window * LanePicker::kMinParallelPhase / 2;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(picker.window(), window);
    picker.record(false, window, short_window, window * kPhaseSteps);
    ASSERT_FALSE(picker.lanes());
  }
}

TEST(LanePickerTest, ClearlyCheaperLanesTakeOverAndKeepWinning) {
  LanePicker picker;
  EXPECT_EQ(inline_phases_until_trial(picker, 100), LanePicker::kMinSpan);
  EXPECT_EQ(picker.window(), 1u);
  // Lanes at half the inline cost win; inline is retried after kMinSpan
  // lanes phases, loses, and waits twice as long for the next trial.
  run_trial(picker, kLongPhase / 2);
  unsigned span = LanePicker::kMinSpan;
  for (int trial = 0; trial < 3; ++trial) {
    for (unsigned i = 0; i < span; ++i) {
      ASSERT_TRUE(picker.lanes()) << "trial " << trial << " phase " << i;
      picker.record(true, 1, kLongPhase / 2, kPhaseSteps);
    }
    ASSERT_FALSE(picker.lanes()) << "inline not retried, trial " << trial;
    run_trial(picker, kLongPhase);
    span *= 2;
  }
  EXPECT_TRUE(picker.lanes());
}

TEST(LanePickerTest, LanesThatAreNotClearlyCheaperBackOff) {
  LanePicker picker;
  ASSERT_EQ(inline_phases_until_trial(picker, 100), LanePicker::kMinSpan);
  // 90% of the inline cost is within noise: lanes lose, and each loss
  // doubles the wait for the next trial up to kMaxSpan.
  unsigned span = LanePicker::kMinSpan;
  for (int trial = 0; trial < 12; ++trial) {
    run_trial(picker, kLongPhase * 9 / 10);
    ASSERT_FALSE(picker.lanes());
    span = std::min(2 * span, LanePicker::kMaxSpan);
    ASSERT_EQ(inline_phases_until_trial(picker, 10 * LanePicker::kMaxSpan),
              span)
        << "trial " << trial;
  }
}

// Switching costs: the first phases on newly woken lanes (cold caches on
// other cores) are slow, so a trial is judged by its phase after them.
TEST(LanePickerTest, TrialWarmupPhasesAreNotCompared) {
  LanePicker picker;
  ASSERT_EQ(inline_phases_until_trial(picker, 100), LanePicker::kMinSpan);
  for (unsigned i = 0; i < LanePicker::kTrialWarmup; ++i) {
    picker.record(true, 1, 3 * kLongPhase, kPhaseSteps);
    ASSERT_TRUE(picker.lanes()) << "warm-up phase " << i << " ended the trial";
  }
  picker.record(true, 1, kLongPhase / 2, kPhaseSteps);
  EXPECT_TRUE(picker.lanes());
}

TEST(LanePickerTest, PhasesTurningShortGoBackInline) {
  LanePicker picker;
  ASSERT_EQ(inline_phases_until_trial(picker, 100), LanePicker::kMinSpan);
  while (picker.lanes()) picker.record(true, 1, kLongPhase / 4, kPhaseSteps);
  // Phases shrink to half the floor: inline wins its trial, the running
  // mean drops below the floor after a few phases, and the clock is then
  // read once per kShortWindow phases.
  const auto short_phase = LanePicker::kMinParallelPhase / 2;
  int short_phases = 0;
  while (picker.window() == 1 && short_phases < 100) {
    picker.record(false, 1, short_phase, kPhaseSteps);
    EXPECT_FALSE(picker.lanes());
    ++short_phases;
  }
  EXPECT_GT(short_phases, 1) << "one short phase flipped the running mean";
  EXPECT_EQ(picker.window(), LanePicker::kShortWindow);
  // The short stretch does not restart the wait for the next lanes trial.
  EXPECT_LE(inline_phases_until_trial(picker, 100), LanePicker::kMinSpan);
}

// What one run learned carries into the next: lanes that won are back after
// the new run's first long phases have been compared with them, and the
// doubled wait of lanes that lost is not restarted.
TEST(LanePickerTest, ANewRunKeepsWhatTheLastLearned) {
  LanePicker winner;
  ASSERT_EQ(inline_phases_until_trial(winner, 100), LanePicker::kMinSpan);
  run_trial(winner, kLongPhase / 2);
  ASSERT_TRUE(winner.lanes());
  winner.start_run();
  EXPECT_FALSE(winner.lanes());
  EXPECT_EQ(winner.window(), LanePicker::kShortWindow);
  unsigned windows = 0;
  while (!winner.lanes() && windows < 100) {
    const unsigned phases = winner.window();
    winner.record(false, phases, phases * kLongPhase, phases * kPhaseSteps);
    ++windows;
  }
  EXPECT_EQ(windows, LanePicker::kTrialWarmup + 1);

  LanePicker loser;
  ASSERT_EQ(inline_phases_until_trial(loser, 100), LanePicker::kMinSpan);
  run_trial(loser, kLongPhase);
  ASSERT_EQ(inline_phases_until_trial(loser, 5), 5u);  // wait: 2 * kMinSpan
  loser.start_run();
  EXPECT_EQ(inline_phases_until_trial(loser, 100),
            2 * LanePicker::kMinSpan - 5);
}

// Bursty phases, as when a few syscalls block on the host: one long phase,
// then one barely any work. The running mean stays long, so lanes are tried.
TEST(LanePickerTest, BurstyPhasesStillTryLanes) {
  LanePicker picker;
  unsigned windows = 0;
  while (!picker.lanes() && windows < 100) {
    const auto host = windows % 2 == 0 ? 5 * kLongPhase : kLongPhase / 50;
    picker.record(false, picker.window(), host, kPhaseSteps);
    ++windows;
  }
  EXPECT_TRUE(picker.lanes());
  EXPECT_EQ(windows, LanePicker::kMinSpan);
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
