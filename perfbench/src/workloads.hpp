// The benchmark's three headline workloads, their set-up, and the checked
// simulated outputs every run is compared on.
//
// Every workload is generated inside this one host process: the
// "connections" are simulated kern::Net clients in a closed loop (a client
// sends its next request only after the previous response completed), not
// host sockets.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "kernel/machine.hpp"
#include "policy/enforce.hpp"
#include "replay/recorder.hpp"

namespace perfbench {

class Probe;

enum class Workload : std::uint8_t { kWebLazypoline, kWebSudRecord, kSmpLazypoline };

struct WorkloadInfo {
  Workload id;
  const char* name;
  const char* why;  // one line; BENCHMARK.json carries the same text
};

[[nodiscard]] const std::vector<WorkloadInfo>& workloads();
[[nodiscard]] std::optional<Workload> find_workload(std::string_view name);
[[nodiscard]] const char* workload_name(Workload workload);

// Host time of the set-up phases, filled by traced set-ups only.
struct SetupSplit {
  double build_s = 0.0;    // apps::make_webserver
  double load_s = 0.0;     // Machine::load, every worker
  double install_s = 0.0;  // mechanism install, every worker
  double extract_s = 0.0;  // policy::extract_static (web-sud-record)
  double compile_s = 0.0;  // PolicyEnforcer::create (web-sud-record)
  std::uint64_t sites_resolved = 0;
};

struct BuildOptions {
  std::uint64_t seed = 0;
  // Run on the reference interpreter (block_exec_enabled = false): the oracle.
  bool reference_engine = false;
  lzp::kern::CostModel costs{};
  // Self-test: enforce the server's automaton with one exercised edge removed.
  bool drop_policy_edge = false;
  // Traced set-up: handler layers get timing shims, phases get timed.
  Probe* probe = nullptr;
  SetupSplit* split = nullptr;
};

// One set-up machine, ready for a single run.
struct Instance {
  Workload workload = Workload::kWebLazypoline;
  std::uint64_t seed = 0;
  std::unique_ptr<lzp::kern::Machine> machine;
  std::vector<lzp::kern::Tid> workers;
  std::vector<int> listeners;
  std::uint64_t requests_expected = 0;
  std::shared_ptr<lzp::replay::Recorder> recorder;
  std::shared_ptr<lzp::policy::PolicyEnforcer> enforcer;
};

// Builds the server program, loads its workers and installs the mechanism
// and decorators. Exits the process on a set-up error.
[[nodiscard]] Instance build(Workload workload, const BuildOptions& options);

struct RunResult {
  double run_s = 0.0;  // host wall time of Machine::run / run_smp
  bool all_exited = false;
  lzp::kern::SmpStats smp;  // smp-lazypoline only
};

// Runs the workload to completion or until `max_steps` machine steps.
RunResult run(Instance& instance, std::uint64_t max_steps);

// The simulated results of one run. All but sim_rps are compared exactly
// against the reference-engine oracle; none is ever a performance figure.
struct SimOutputs {
  std::uint64_t sim_cycles = 0;
  std::uint64_t insns_retired = 0;
  std::uint64_t machine_steps = 0;
  std::uint64_t syscalls = 0;  // dispatched, summed over tasks
  std::uint64_t requests = 0;  // completed, summed over listeners
  std::vector<int> exit_codes;  // per task, in tid order
  double sim_rps = 0.0;  // Fig. 5: requests per simulated second, 2.1 GHz
};

[[nodiscard]] SimOutputs collect(const Instance& instance);

// Empty when the run is sound on its own terms (every task exited, every
// request served, no policy violation, no uncaptured nondeterminism);
// otherwise the first reason it is not.
[[nodiscard]] std::string self_check(const Instance& instance,
                                     const RunResult& result,
                                     const SimOutputs& outputs);
// Empty when `run` matches `oracle` on every compared output.
[[nodiscard]] std::string compare(const SimOutputs& oracle, const SimOutputs& run);

}  // namespace perfbench
