// replay_dump — record/replay front-end for the deterministic-replay
// subsystem (src/replay). Three modes:
//
//   ./build/examples/replay_dump --record out.trace [mechanism] [workload]
//       Record a workload under an interposition mechanism and save the
//       binary trace. mechanism: lazypoline (default) | sud | zpoline |
//       ptrace; workload: webserver (default) | getpid-loop.
//
//   ./build/examples/replay_dump out.trace
//       Dump a saved trace strace-style: one line per recorded syscall,
//       schedule slice, signal delivery, and nondeterministic input.
//
//   ./build/examples/replay_dump --replay out.trace
//       Re-execute the recording on a fresh machine (same mechanism, no
//       live network client) and report the replay verdict: every syscall
//       result injected or verified, every signal re-delivered at its
//       recorded instruction boundary — or the first divergence.
//
// Build & run:  cmake --build build && ./build/examples/replay_dump --record /tmp/ws.trace
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "kernel/machine.hpp"
#include "replay/recorder.hpp"
#include "replay/replayer.hpp"
#include "workloads.hpp"

using namespace lzp;

namespace {

int record(const std::string& path, const std::string& mechanism,
           const std::string& workload) {
  auto recorder = std::make_shared<replay::Recorder>();
  kern::Machine machine;
  // The webserver scenario reseeds the machine with its default seed.
  recorder->attach(machine, kern::Machine::kDefaultRngSeed, mechanism,
                   workload);
  if (!examples::load_workload(machine, workload, mechanism, recorder)) {
    return 1;
  }
  const auto stats = machine.run(400'000'000ULL);
  if (!stats.all_exited) {
    std::fprintf(stderr, "workload hung: %s\n", machine.last_fatal().c_str());
    return 1;
  }
  if (recorder->uncaptured_nondeterminism()) {
    for (const auto& line : recorder->audit_report()) {
      std::fprintf(stderr, "audit: %s\n", line.c_str());
    }
    return 1;
  }

  const replay::Trace& trace = recorder->trace();
  if (Status saved = trace.save(path); !saved.is_ok()) {
    std::fprintf(stderr, "save: %s\n", saved.to_string().c_str());
    return 1;
  }
  std::printf("recorded %s under %s: %zu events (%zu syscalls, %zu slices, "
              "%zu signals) in %llu machine steps -> %s\n",
              workload.c_str(), mechanism.c_str(), trace.events.size(),
              trace.syscall_count(),
              trace.count(replay::EventKind::kSchedule),
              trace.count(replay::EventKind::kSignal),
              static_cast<unsigned long long>(stats.insns), path.c_str());
  return 0;
}

int dump(const std::string& path) {
  auto trace = replay::Trace::load(path);
  if (!trace.is_ok()) {
    std::fprintf(stderr, "load: %s\n", trace.status().to_string().c_str());
    return 1;
  }
  std::printf("# trace v%u  mechanism=%s  workload=%s  rng_seed=%#llx  "
              "events=%zu\n",
              trace.value().header.version,
              trace.value().header.mechanism.c_str(),
              trace.value().header.workload.c_str(),
              static_cast<unsigned long long>(trace.value().header.rng_seed),
              trace.value().events.size());
  for (const auto& event : trace.value().events) {
    std::printf("%s\n", replay::event_to_string(event).c_str());
  }
  return 0;
}

int replay_trace(const std::string& path) {
  auto trace = replay::Trace::load(path);
  if (!trace.is_ok()) {
    std::fprintf(stderr, "load: %s\n", trace.status().to_string().c_str());
    return 1;
  }
  const std::string mechanism = trace.value().header.mechanism;
  const std::string workload = trace.value().header.workload;

  auto replayer =
      std::make_shared<replay::Replayer>(std::move(trace).value());
  kern::Machine machine;
  replayer->attach(machine);
  if (!examples::load_workload(machine, workload, mechanism, replayer,
                               nullptr, /*live_client=*/false)) {
    return 1;
  }
  const auto stats = machine.run(400'000'000ULL);

  const auto& rs = replayer->stats();
  std::printf("replayed %s under %s: %llu syscalls injected, %llu executed "
              "+ verified, %llu signals re-delivered at recorded boundaries, "
              "%llu schedule slices, %llu bytes patched\n",
              workload.c_str(), mechanism.c_str(),
              static_cast<unsigned long long>(rs.syscalls_injected),
              static_cast<unsigned long long>(rs.syscalls_executed),
              static_cast<unsigned long long>(rs.signals_verified),
              static_cast<unsigned long long>(rs.slices_replayed),
              static_cast<unsigned long long>(rs.bytes_patched));
  if (replayer->diverged()) {
    std::printf("DIVERGED: %s\n", replayer->status().to_string().c_str());
    return 2;
  }
  if (!stats.all_exited || !replayer->finished()) {
    std::printf("INCOMPLETE: machine %s, trace %s\n",
                stats.all_exited ? "quiesced" : "did not quiesce",
                replayer->finished() ? "fully consumed" : "has unconsumed events");
    return 2;
  }
  std::printf("OK: deterministic replay, trace fully consumed\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && std::strcmp(argv[1], "--record") == 0) {
    const std::string mechanism = argc > 3 ? argv[3] : "lazypoline";
    const std::string workload = argc > 4 ? argv[4] : "webserver";
    return record(argv[2], mechanism, workload);
  }
  if (argc >= 3 && std::strcmp(argv[1], "--replay") == 0) {
    return replay_trace(argv[2]);
  }
  if (argc == 2 && argv[1][0] != '-') {
    return dump(argv[1]);
  }
  std::fprintf(stderr,
               "usage: %s --record <out.trace> [mechanism] [workload]\n"
               "       %s --replay <trace>\n"
               "       %s <trace>\n",
               argv[0], argv[0], argv[0]);
  return 1;
}
