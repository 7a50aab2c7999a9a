// One description of the paper's evaluation matrix: a program (the §V-B
// non-existent-syscall loop of Table II / Figure 4, or the Figure-5
// webserver) under one interposition mechanism (native, ptrace, SUD, SUD
// with an always-ALLOW selector, zpoline, or lazypoline with its options) on
// a given simulated CPU count and seed.
//
// build() sets a Scenario up on a caller-owned Machine; run() executes it
// and checks that it finished. The caller keeps everything that is not part
// of the matrix: the Machine (cost model, engine switches, a Recorder
// attached before build), and the handler chain the mechanism dispatches to
// (Recorder, PolicyEnforcer, Tracer, ... ending in a DummyHandler).
// install() is the mechanism half alone, for programs the Scenario does not
// describe (JIT runners, coreutils, hand-assembled guests).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "apps/webserver.hpp"
#include "core/lazypoline.hpp"
#include "interpose/handler.hpp"
#include "kernel/machine.hpp"
#include "kernel/smp.hpp"
#include "kernel/syscalls.hpp"

namespace lzp::scenario {

// `iterations` invocations of syscall `nr` in a tight loop, then exit(0).
struct Loop {
  std::uint64_t iterations = 50'000;
  std::uint64_t nr = kern::kSysNonexistent;
};

// `workers` server processes serving one static file of `file_bytes` to a
// closed-loop client with `connections` keepalive connections. With a shared
// listener every worker accepts from one listener that serves `requests` in
// total; otherwise each worker owns a private (SO_REUSEPORT-style) listener
// serving `requests` of its own. With `threads` > 0 each worker is the
// threaded server: that many CLONE_VM threads sharing one event loop's
// address space (§IV-B multithreading).
struct Web {
  apps::ServerProfile profile = apps::nginx_profile();
  unsigned workers = 1;
  std::uint64_t file_bytes = 4096;
  std::uint32_t connections = 36;
  std::uint64_t requests = 2400;
  bool shared_listener = true;
  unsigned threads = 0;
};

struct Mechanism {
  enum class Kind : std::uint8_t {
    kNative,
    kPtrace,
    kSud,
    kSudAllow,  // SUD armed with the selector fixed at ALLOW (Table II)
    kZpoline,
    kLazypoline,
  };
  // Implicit, so a plain Kind reads as that mechanism with default options.
  Mechanism(Kind kind = Kind::kNative) : kind(kind) {}  // NOLINT

  Kind kind;
  // Lazypoline only. use_sud = false additionally disarms SUD after install
  // (Figure 4's fast path without the exhaustiveness guarantee).
  core::LazypolineConfig lazypoline;
  // Lazypoline only: rewrite every syscall site of the program up front, so
  // no site pays its one-shot SIGSYS discovery (§V-B steady state).
  bool prerewrite = false;
};

// The four interposers every cross-mechanism comparison runs.
inline constexpr Mechanism::Kind kInterposers[] = {
    Mechanism::Kind::kPtrace, Mechanism::Kind::kSud, Mechanism::Kind::kZpoline,
    Mechanism::Kind::kLazypoline};

struct Scenario {
  std::variant<Loop, Web> program = Loop{};
  Mechanism mechanism = Mechanism::Kind::kNative;
  unsigned cpus = 1;
  // The machine's rng seed (getrandom) and, under cpus > 1, SmpConfig::seed.
  // A Recorder attached before build() must be given the same seed.
  std::uint64_t seed = kern::Machine::kDefaultRngSeed;
};

struct Instance {
  isa::Program program;
  std::vector<kern::Tid> workers;  // the Loop's one task, or each server
  std::vector<int> listeners;      // Web only: one shared, or one per worker
  // Lazypoline only: each worker's own runtime, as each server process
  // preloads its own copy. Runtimes keep per-process state unlocked, so
  // workers on different simulated CPUs must not share one.
  std::vector<std::shared_ptr<core::Lazypoline>> runtimes;
};

// Builds `scenario` on `machine` (which must not have loaded anything yet):
// seeds the file and listeners, builds, registers and loads the program, and
// installs the mechanism on every worker, dispatching to `handler`.
Result<Instance> build(const Scenario& scenario, kern::Machine& machine,
                       std::shared_ptr<interpose::SyscallHandler> handler);

struct Outcome {
  // Simulated wall time: the slowest worker's cycles (every worker on a
  // dedicated core); under cpus > 1, the busiest simulated CPU's summed
  // worker cycles (co-resident workers timeshare their CPU).
  std::uint64_t wall_cycles = 0;
  kern::SmpStats smp;  // cpus > 1 only
};

// Runs a built scenario (run_smp when cpus > 1) and fails, naming the
// scenario, unless every task exited and every listener served all of its
// requests.
Result<Outcome> run(const Scenario& scenario, kern::Machine& machine,
                    const Instance& instance);

// Installs `mechanism` on task `tid`, directing its syscalls to `handler`.
// A lazypoline mechanism installs into `*runtime` when that is set, else
// into a new runtime that it stores there (when `runtime` is not null);
// prerewrite needs the task's program registered with the machine.
Status install(const Mechanism& mechanism, kern::Machine& machine,
               kern::Tid tid, std::shared_ptr<interpose::SyscallHandler> handler,
               std::shared_ptr<core::Lazypoline>* runtime = nullptr);

// The §V-B loop program alone.
Result<isa::Program> make_loop(const Loop& loop);

// "native", "ptrace", "sud", "sud-allow", "zpoline", "lazypoline", and
// "lazypoline-nox" (lazypoline without xstate preservation).
Result<Mechanism> parse_mechanism(std::string_view name);
// "nginx" or "lighttpd".
Result<apps::ServerProfile> parse_profile(std::string_view name);

// One line, for failure messages and bench row names, e.g.
// "web:nginx workers=2 file=1024 conns=4 reqs=60 listener=shared sud cpus=1
// seed=0x1a5f9e37".
[[nodiscard]] std::string to_string(const Mechanism& mechanism);
[[nodiscard]] std::string to_string(const Scenario& scenario);

}  // namespace lzp::scenario
