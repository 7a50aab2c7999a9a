// Tests for the record/replay subsystem (src/replay): trace format round
// trips, the record→replay round-trip property under all four interposition
// mechanisms, exact-boundary signal replay, multi-task schedule replay,
// divergence detection, and the record-mode nondeterminism audit.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <vector>

#include "apps/minilibc.hpp"
#include "apps/webserver.hpp"
#include "core/lazypoline.hpp"
#include "isa/assemble.hpp"
#include "kernel/machine.hpp"
#include "kernel/syscalls.hpp"
#include "replay/recorder.hpp"
#include "replay/replayer.hpp"
#include "scenario/scenario.hpp"
#include "sim_test_util.hpp"

namespace {
using namespace lzp;
using kern::Machine;
using kern::Task;
using kern::Tid;

using Mech = scenario::Mechanism::Kind;

void install_mechanism(Machine& machine, Tid tid,
                       std::shared_ptr<interpose::SyscallHandler> handler,
                       Mech mech) {
  ASSERT_TRUE(scenario::install(mech, machine, tid, handler).is_ok());
}

// --- trace format ----------------------------------------------------------

replay::Trace make_sample_trace() {
  replay::Trace trace;
  trace.header.rng_seed = 0xDEADBEEF;
  trace.header.mechanism = "sud";
  trace.header.workload = "sample";

  replay::SyscallEvent syscall;
  syscall.tid = 4;
  syscall.nr = kern::kSysRead;
  syscall.args = {3, 0x601000, 128, 0, 0, 0};
  syscall.result = 17;
  syscall.insns_retired = 1234;
  syscall.reg_hash = 0xABCDEF;
  syscall.patches.push_back(replay::MemPatch{0x601000, {1, 2, 3, 4, 5}});
  trace.events.emplace_back(syscall);

  trace.events.emplace_back(replay::ScheduleEvent{4, 64});

  replay::SignalEvent signal;
  signal.tid = 4;
  signal.signo = kern::kSigusr1;
  signal.external = true;
  signal.insns_retired = 2000;
  signal.machine_insns = 2345;
  trace.events.emplace_back(signal);

  trace.events.emplace_back(replay::NondetEvent{4, kern::kSysGetrandom, 0});
  return trace;
}

TEST(TraceFormat, BinaryRoundTrip) {
  const replay::Trace trace = make_sample_trace();
  const auto bytes = trace.serialize();
  auto restored = replay::Trace::deserialize(bytes);
  ASSERT_TRUE(restored.is_ok()) << restored.status().to_string();
  EXPECT_EQ(restored.value(), trace);
}

TEST(TraceFormat, FileRoundTrip) {
  const replay::Trace trace = make_sample_trace();
  const std::string path = ::testing::TempDir() + "/replay_test.trace";
  ASSERT_TRUE(trace.save(path).is_ok());
  auto restored = replay::Trace::load(path);
  ASSERT_TRUE(restored.is_ok()) << restored.status().to_string();
  EXPECT_EQ(restored.value(), trace);
  std::remove(path.c_str());
}

TEST(TraceFormat, RejectsGarbage) {
  std::vector<std::uint8_t> garbage = {0x00, 0x01, 0x02, 0x03};
  EXPECT_FALSE(replay::Trace::deserialize(garbage).is_ok());
  EXPECT_FALSE(replay::Trace::load("/nonexistent/trace").is_ok());
}

// Overwrites the little-endian integer of `width` bytes at `pos`.
void poke(std::vector<std::uint8_t>& bytes, std::size_t pos, std::uint64_t value,
          int width) {
  for (int i = 0; i < width; ++i) {
    bytes[pos + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(value >> (8 * i));
  }
}

// Byte offset of the event count: magic, version, seed, then the two
// length-prefixed header strings.
std::size_t count_offset(const replay::Trace& trace) {
  return 4 + 4 + 8 + (4 + trace.header.mechanism.size()) +
         (4 + trace.header.workload.size());
}

TEST(TraceFormat, RejectsEventCountBeyondFile) {
  const replay::Trace trace = make_sample_trace();
  auto bytes = trace.serialize();
  poke(bytes, count_offset(trace), std::uint64_t{1} << 40, 8);
  const auto restored = replay::Trace::deserialize(bytes);
  ASSERT_FALSE(restored.is_ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
}

TEST(TraceFormat, RejectsPatchCountBeyondFile) {
  const replay::Trace trace = make_sample_trace();
  auto bytes = trace.serialize();
  // The first event is the syscall: after its frame header (kind, length)
  // come tid, nr, six args, result, insns_retired and reg_hash.
  const std::size_t patches_at =
      count_offset(trace) + 8 + 1 + 4 + 4 + 8 + 6 * 8 + 8 + 8 + 8;
  ASSERT_EQ(bytes[patches_at], 1u);  // the sample event's one patch
  poke(bytes, patches_at, 0xFFFF'FFFFu, 4);
  const auto restored = replay::Trace::deserialize(bytes);
  ASSERT_FALSE(restored.is_ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
}

TEST(TraceFormat, EventToStringIsHumanReadable) {
  const replay::Trace trace = make_sample_trace();
  const std::string line = replay::event_to_string(trace.events[0]);
  EXPECT_NE(line.find("read"), std::string::npos);
  EXPECT_NE(line.find("= 17"), std::string::npos);
}

// --- round-trip property ---------------------------------------------------

struct RunOutcome {
  kern::RunStats stats;
  std::vector<int> exit_codes;
  std::vector<std::uint64_t> insns_retired;
};

RunOutcome collect(Machine& machine, const std::vector<Tid>& tids,
                   kern::RunStats stats) {
  RunOutcome outcome;
  outcome.stats = stats;
  for (Tid tid : tids) {
    Task* task = machine.find_task(tid);
    EXPECT_NE(task, nullptr);
    if (task != nullptr) {
      outcome.exit_codes.push_back(task->exit_code);
      outcome.insns_retired.push_back(task->insns_retired);
    }
  }
  return outcome;
}

// Records a syscall-loop run under `mech`, replays the trace on a fresh
// machine, and checks the round-trip property.
void round_trip_loop(Mech mech) {
  SCOPED_TRACE(scenario::to_string(mech));
  const auto program = testutil::make_syscall_loop(kern::kSysGetpid, 40);

  auto recorder = std::make_shared<replay::Recorder>();
  RunOutcome recorded;
  {
    Machine machine;
    machine.mmap_min_addr = 0;
    machine.register_program(program);
    recorder->attach(machine, /*rng_seed=*/42, scenario::to_string(mech),
                     "loop");
    const Tid tid = machine.load(program).value();
    install_mechanism(machine, tid, recorder, mech);
    const auto stats = machine.run();
    ASSERT_TRUE(stats.all_exited) << machine.last_fatal();
    recorded = collect(machine, {tid}, stats);
    EXPECT_FALSE(recorder->uncaptured_nondeterminism());
  }
  ASSERT_GT(recorder->trace().syscall_count(), 0u);
  ASSERT_GT(recorder->trace().count(replay::EventKind::kSchedule), 0u);

  auto replayer = std::make_shared<replay::Replayer>(recorder->take_trace());
  {
    Machine machine;
    machine.mmap_min_addr = 0;
    machine.register_program(program);
    replayer->attach(machine);
    const Tid tid = machine.load(program).value();
    install_mechanism(machine, tid, replayer, mech);
    const auto stats = machine.run();
    EXPECT_TRUE(replayer->status().is_ok()) << replayer->status().to_string();
    EXPECT_TRUE(replayer->finished());
    ASSERT_TRUE(stats.all_exited) << machine.last_fatal();
    const RunOutcome replayed = collect(machine, {tid}, stats);
    EXPECT_EQ(replayed.exit_codes, recorded.exit_codes);
    EXPECT_EQ(replayed.insns_retired, recorded.insns_retired);
    EXPECT_EQ(replayed.stats.insns, recorded.stats.insns);
  }
  EXPECT_GT(replayer->stats().syscalls_injected, 0u);
}

TEST(ReplayRoundTrip, SyscallLoopPtrace) { round_trip_loop(Mech::kPtrace); }
TEST(ReplayRoundTrip, SyscallLoopSud) { round_trip_loop(Mech::kSud); }
TEST(ReplayRoundTrip, SyscallLoopZpoline) { round_trip_loop(Mech::kZpoline); }
TEST(ReplayRoundTrip, SyscallLoopLazypoline) {
  round_trip_loop(Mech::kLazypoline);
}

// The acceptance-criteria workload: a multi-task webserver run, recorded and
// replayed under every mechanism. Replay runs with NO live network client:
// all net/vfs payloads come from the trace.
void round_trip_webserver(Mech mech) {
  SCOPED_TRACE(scenario::to_string(mech));
  constexpr std::uint64_t kRequests = 40;
  constexpr std::uint64_t kFileSize = 512;
  constexpr unsigned kWorkers = 2;
  const apps::ServerProfile profile = apps::nginx_profile();

  auto build = [&](Machine& machine, bool live_client,
                   std::vector<Tid>* tids,
                   std::shared_ptr<interpose::SyscallHandler> handler,
                   int* listener_out) {
    const scenario::Scenario spec{
        scenario::Web{profile, kWorkers, kFileSize, 4,
                      live_client ? kRequests : 0},
        mech, /*cpus=*/1, /*seed=*/7};
    auto instance = scenario::build(spec, machine, handler);
    ASSERT_TRUE(instance.is_ok()) << instance.status().to_string();
    *tids = instance.value().workers;
    *listener_out = instance.value().listeners.front();
  };

  auto recorder = std::make_shared<replay::Recorder>();
  RunOutcome recorded;
  {
    Machine machine;
    recorder->attach(machine, /*rng_seed=*/7, scenario::to_string(mech),
                     "webserver");
    std::vector<Tid> tids;
    int listener = -1;
    build(machine, /*live_client=*/true, &tids, recorder, &listener);
    const auto stats = machine.run(400'000'000ULL);
    ASSERT_TRUE(stats.all_exited) << machine.last_fatal();
    ASSERT_EQ(machine.net().completed_requests(listener), kRequests);
    recorded = collect(machine, tids, stats);
    EXPECT_FALSE(recorder->uncaptured_nondeterminism());
  }
  const std::size_t recorded_syscalls = recorder->trace().syscall_count();
  ASSERT_GT(recorded_syscalls, 0u);

  auto replayer = std::make_shared<replay::Replayer>(recorder->take_trace());
  {
    Machine machine;
    replayer->attach(machine);
    std::vector<Tid> tids;
    int listener = -1;
    // No live client: the replayed workers are fed entirely from the trace.
    build(machine, /*live_client=*/false, &tids, replayer, &listener);
    const auto stats = machine.run(400'000'000ULL);
    EXPECT_TRUE(replayer->status().is_ok()) << replayer->status().to_string();
    EXPECT_TRUE(replayer->finished());
    ASSERT_TRUE(stats.all_exited) << machine.last_fatal();
    // Kernel-side network execution really was suppressed.
    EXPECT_EQ(machine.net().completed_requests(listener), 0u);

    const RunOutcome replayed = collect(machine, tids, stats);
    EXPECT_EQ(replayed.exit_codes, recorded.exit_codes);
    EXPECT_EQ(replayed.insns_retired, recorded.insns_retired);
    EXPECT_EQ(replayed.stats.insns, recorded.stats.insns);
  }
  EXPECT_GT(replayer->stats().syscalls_injected, 0u);
  if (mech == Mech::kSud || mech == Mech::kLazypoline) {
    // SUD-based interception delivers SIGSYS per intercepted syscall; replay
    // re-verifies every delivery at its recorded instruction boundary.
    EXPECT_GT(replayer->stats().signals_verified, 0u);
  }
}

TEST(ReplayRoundTrip, WebserverPtrace) { round_trip_webserver(Mech::kPtrace); }
TEST(ReplayRoundTrip, WebserverSud) { round_trip_webserver(Mech::kSud); }
TEST(ReplayRoundTrip, WebserverZpoline) { round_trip_webserver(Mech::kZpoline); }
TEST(ReplayRoundTrip, WebserverLazypoline) {
  round_trip_webserver(Mech::kLazypoline);
}

// --- signal replay ---------------------------------------------------------

std::uint64_t bind_sigusr1_counter(Machine& machine, Tid tid, int* counter) {
  const std::uint64_t addr =
      machine.bind_host("replay_test.sigusr1", [counter](kern::HostFrame& frame) {
        ++*counter;
        (void)frame.syscall(kern::kSysRtSigreturn);
      });
  machine.find_task(tid)->process->sigactions[kern::kSigusr1] =
      kern::SigAction{addr, 0, 0};
  return addr;
}

// An async SIGUSR1 posted from outside the simulation mid-run must be
// re-delivered by the replayer at the exact recorded instruction boundary.
TEST(ReplaySignals, ExternalSignalAtExactBoundary) {
  const auto program =
      testutil::make_syscall_loop(kern::kSysGetpid, 200, "sigloop");

  auto recorder = std::make_shared<replay::Recorder>();
  RunOutcome recorded;
  int recorded_runs = 0;
  {
    Machine machine;
    recorder->attach(machine, /*rng_seed=*/3, "ptrace", "sigloop");
    const Tid tid = machine.load(program).value();
    bind_sigusr1_counter(machine, tid, &recorded_runs);
    install_mechanism(machine, tid, recorder, Mech::kPtrace);
    (void)machine.run(600);  // partial run, then the async signal arrives
    kern::SigInfo info;
    info.signo = kern::kSigusr1;
    ASSERT_TRUE(machine.post_signal(tid, info).is_ok());
    const auto stats = machine.run();
    ASSERT_TRUE(stats.all_exited) << machine.last_fatal();
    recorded = collect(machine, {tid}, stats);
  }
  ASSERT_EQ(recorded_runs, 1);

  // The trace pinned the delivery to an exact per-task instruction count.
  std::uint64_t recorded_boundary = 0;
  for (const auto& event : recorder->trace().events) {
    if (const auto* sig = std::get_if<replay::SignalEvent>(&event)) {
      if (sig->external) {
        EXPECT_EQ(sig->signo, kern::kSigusr1);
        recorded_boundary = sig->insns_retired;
      }
    }
  }
  ASSERT_GT(recorded_boundary, 0u);

  auto replayer = std::make_shared<replay::Replayer>(recorder->take_trace());
  int replayed_runs = 0;
  {
    Machine machine;
    replayer->attach(machine);
    const Tid tid = machine.load(program).value();
    bind_sigusr1_counter(machine, tid, &replayed_runs);
    install_mechanism(machine, tid, replayer, Mech::kPtrace);
    // One continuous run: the replayer re-posts the signal by itself.
    const auto stats = machine.run();
    EXPECT_TRUE(replayer->status().is_ok()) << replayer->status().to_string();
    ASSERT_TRUE(stats.all_exited) << machine.last_fatal();
    const RunOutcome replayed = collect(machine, {tid}, stats);
    EXPECT_EQ(replayed.exit_codes, recorded.exit_codes);
    EXPECT_EQ(replayed.insns_retired, recorded.insns_retired);
    EXPECT_EQ(replayed.stats.insns, recorded.stats.insns);
  }
  EXPECT_EQ(replayed_runs, 1);
  EXPECT_EQ(replayer->stats().signals_posted, 1u);
  // The delivery-boundary check in Replayer::on_signal passed (no
  // divergence), so the replayed delivery hit `recorded_boundary` exactly.
  EXPECT_GE(replayer->stats().signals_verified, 1u);
}

// --- multi-task schedule replay --------------------------------------------

TEST(ReplaySchedule, MultiTaskScheduleIsReplayed) {
  const auto program_a =
      testutil::make_syscall_loop(kern::kSysGetpid, 30, "loop-a");
  const auto program_b =
      testutil::make_syscall_loop(kern::kSysGettid, 50, "loop-b");

  auto recorder = std::make_shared<replay::Recorder>();
  RunOutcome recorded;
  {
    Machine machine;
    recorder->attach(machine, /*rng_seed=*/11, "sud", "two-loops");
    const Tid tid_a = machine.load(program_a).value();
    const Tid tid_b = machine.load(program_b).value();
    install_mechanism(machine, tid_a, recorder, Mech::kSud);
    install_mechanism(machine, tid_b, recorder, Mech::kSud);
    const auto stats = machine.run();
    ASSERT_TRUE(stats.all_exited) << machine.last_fatal();
    recorded = collect(machine, {tid_a, tid_b}, stats);
  }
  const std::size_t recorded_slices =
      recorder->trace().count(replay::EventKind::kSchedule);
  ASSERT_GT(recorded_slices, 2u);  // interleaved execution, not one slice each

  auto replayer = std::make_shared<replay::Replayer>(recorder->take_trace());
  {
    Machine machine;
    replayer->attach(machine);
    const Tid tid_a = machine.load(program_a).value();
    const Tid tid_b = machine.load(program_b).value();
    install_mechanism(machine, tid_a, replayer, Mech::kSud);
    install_mechanism(machine, tid_b, replayer, Mech::kSud);
    const auto stats = machine.run();
    EXPECT_TRUE(replayer->status().is_ok()) << replayer->status().to_string();
    EXPECT_TRUE(replayer->finished());
    ASSERT_TRUE(stats.all_exited) << machine.last_fatal();
    const RunOutcome replayed = collect(machine, {tid_a, tid_b}, stats);
    EXPECT_EQ(replayed.exit_codes, recorded.exit_codes);
    EXPECT_EQ(replayed.insns_retired, recorded.insns_retired);
    EXPECT_EQ(replayed.stats.insns, recorded.stats.insns);
  }
  EXPECT_EQ(replayer->stats().slices_replayed, recorded_slices);
}

// --- divergence detection (negative test) ----------------------------------

TEST(ReplayDivergence, TamperedTraceIsDetected) {
  const auto program = testutil::make_syscall_loop(kern::kSysGetpid, 20);

  auto recorder = std::make_shared<replay::Recorder>();
  {
    Machine machine;
    recorder->attach(machine, /*rng_seed=*/5, "sud", "loop");
    const Tid tid = machine.load(program).value();
    install_mechanism(machine, tid, recorder, Mech::kSud);
    ASSERT_TRUE(machine.run().all_exited);
  }

  replay::Trace trace = recorder->take_trace();
  // Corrupt the recorded instruction count of the third syscall event: the
  // replayed execution will reach that syscall at a different boundary.
  std::size_t seen = 0;
  for (auto& event : trace.events) {
    if (auto* syscall = std::get_if<replay::SyscallEvent>(&event)) {
      if (++seen == 3) {
        syscall->insns_retired += 1;
        break;
      }
    }
  }
  ASSERT_EQ(seen, 3u);

  auto replayer = std::make_shared<replay::Replayer>(std::move(trace));
  {
    Machine machine;
    replayer->attach(machine);
    const Tid tid = machine.load(program).value();
    install_mechanism(machine, tid, replayer, Mech::kSud);
    (void)machine.run();
  }
  EXPECT_TRUE(replayer->diverged());
  EXPECT_NE(replayer->status().to_string().find("instruction-count mismatch"),
            std::string::npos)
      << replayer->status().to_string();
}

TEST(ReplayDivergence, WrongWorkloadDivergesInsteadOfCrashing) {
  const auto recorded_program =
      testutil::make_syscall_loop(kern::kSysGetpid, 20, "recorded");
  const auto other_program =
      testutil::make_syscall_loop(kern::kSysGettid, 20, "other");

  auto recorder = std::make_shared<replay::Recorder>();
  {
    Machine machine;
    recorder->attach(machine, /*rng_seed=*/5, "sud", "loop");
    const Tid tid = machine.load(recorded_program).value();
    install_mechanism(machine, tid, recorder, Mech::kSud);
    ASSERT_TRUE(machine.run().all_exited);
  }

  auto replayer = std::make_shared<replay::Replayer>(recorder->take_trace());
  {
    Machine machine;
    replayer->attach(machine);
    const Tid tid = machine.load(other_program).value();
    install_mechanism(machine, tid, replayer, Mech::kSud);
    (void)machine.run();
  }
  EXPECT_TRUE(replayer->diverged());
}

// --- nondeterminism audit ---------------------------------------------------

TEST(ReplayAudit, UncapturedNondeterminismIsFlagged) {
  // getrandom consumed with NO interposition mechanism installed: the
  // recorder's machine-level audit hook must notice that entropy bypassed
  // its capture window.
  isa::Assembler a;
  const auto entry = a.new_label();
  a.bind(entry);
  a.mov(isa::Gpr::rdi, apps::kScratchBuf);
  a.mov(isa::Gpr::rsi, 16);
  apps::emit_syscall(a, kern::kSysGetrandom);
  apps::emit_exit(a, 0);
  const auto program = isa::make_program("entropy", a, entry).value();

  auto recorder = std::make_shared<replay::Recorder>();
  Machine machine;
  recorder->attach(machine, /*rng_seed=*/9, "none", "entropy");
  const Tid tid = machine.load(program).value();
  ASSERT_TRUE(machine.run().all_exited);
  (void)tid;

  EXPECT_TRUE(recorder->uncaptured_nondeterminism());
  const auto report = recorder->audit_report();
  ASSERT_FALSE(report.empty());
  EXPECT_NE(report[0].find("getrandom"), std::string::npos);
}

TEST(ReplayAudit, InterposedNondeterminismIsClaimed) {
  isa::Assembler a;
  const auto entry = a.new_label();
  a.bind(entry);
  a.mov(isa::Gpr::rdi, apps::kScratchBuf);
  a.mov(isa::Gpr::rsi, 16);
  apps::emit_syscall(a, kern::kSysGetrandom);
  apps::emit_exit(a, 0);
  const auto program = isa::make_program("entropy", a, entry).value();

  auto recorder = std::make_shared<replay::Recorder>();
  Machine machine;
  recorder->attach(machine, /*rng_seed=*/9, "sud", "entropy");
  const Tid tid = machine.load(program).value();
  install_mechanism(machine, tid, recorder, Mech::kSud);
  ASSERT_TRUE(machine.run().all_exited);

  EXPECT_FALSE(recorder->uncaptured_nondeterminism());
  EXPECT_GT(recorder->trace().count(replay::EventKind::kNondet), 0u);
}

TEST(ReplayAudit, GetrandomDrawsFromSeededMachineRng) {
  isa::Assembler a;
  const auto entry = a.new_label();
  a.bind(entry);
  a.mov(isa::Gpr::rdi, apps::kScratchBuf);
  a.mov(isa::Gpr::rsi, 16);
  apps::emit_syscall(a, kern::kSysGetrandom);
  apps::emit_exit(a, 0);
  const auto program = isa::make_program("entropy", a, entry).value();

  auto draw = [&](std::uint64_t seed) {
    Machine machine;
    machine.reseed_rng(seed);
    const Tid tid = machine.load(program).value();
    EXPECT_TRUE(machine.run().all_exited);
    std::vector<std::uint8_t> bytes(16);
    EXPECT_FALSE(
        machine.find_task(tid)->mem->read(apps::kScratchBuf, bytes).has_value());
    return bytes;
  };

  EXPECT_EQ(draw(123), draw(123));  // same seed, same entropy stream
  EXPECT_NE(draw(123), draw(456));  // reseeding changes the stream
}

}  // namespace
