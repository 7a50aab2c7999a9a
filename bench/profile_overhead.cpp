// Profiler overhead gate.
//
// Three configurations of the same lazypoline micro loop, each run under both
// execution engines (superblock batching on and off):
//   off      — no profile sink attached (the compiled-in null-check only)
//   disabled — Profiler attached, set_enabled(false): the machine's
//              profile_sink() accessor filters it out, probes never fire
//   enabled  — full attribution: class totals, site map, stack folding
//
// Three claims are enforced:
//   1. Profiling charges ZERO simulated cycles in every configuration — the
//      attribution mirror of Machine::charge() must never perturb what the
//      other benches measure, under either engine.
//   2. When enabled, the per-class cycle totals sum to the machine's retired
//      cycle counter exactly (the profiler's core invariant).
//   3. Host wall time stays within the gate ratios: disabled within
//      kDisabledGate of off, enabled within kEnabledGate (the ≤1.10x
//      acceptance bound). Wall times are min-of-N to shed scheduler noise.
// Results land in BENCH_profile_overhead.json for scripts/check.sh.
#include <chrono>
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "base/strings.hpp"
#include "bench_util.hpp"
#include "metrics/report.hpp"
#include "profile/profiler.hpp"

namespace {
using namespace lzp;

constexpr std::uint64_t kIterations = 20'000;
// Guest compute folded into each iteration (see make_profiled_loop).
constexpr std::uint64_t kPadInsns = 128;
// Step-engine site sampling period for the enabled profiler: the documented
// production configuration for per-instruction interpreters (ProfilerConfig
// — the machine batches skipped instructions' cycles onto the next probe, so
// class totals and site sums stay exact; only site granularity coarsens).
// The block engine keeps exact per-block attribution and no sampling.
constexpr std::uint64_t kStepSamplePeriod = 32;
// Min-of-N repetitions per mode: host timing noise on a shared machine runs
// to several percent, well above the 2% the disabled gate leaves, and only
// the minimum is stable against it. 15 interleaved reps keeps the gate's
// false-failure rate low at ~6s total runtime.
constexpr int kReps = 15;
constexpr double kDisabledGate = 1.02;
constexpr double kEnabledGate = 1.10;

// The profiled workload: the §V-B micro loop with a small guest compute
// kernel (kPadInsns add-immediates) folded into every iteration. The pure
// syscall storm charges an attribution transition every ~200 simulated
// cycles with almost no guest execution in between — an order of magnitude
// denser than any real program (the fig. 5 webservers retire thousands of
// guest instructions per request). 128 pad instructions per syscall still
// leans far toward the worst case but makes the gate measure profiling
// against a workload that actually executes guest code.
isa::Program make_profiled_loop(std::uint64_t iterations) {
  isa::Assembler a;
  const auto entry = a.new_label();
  const auto loop = a.new_label();
  const auto done = a.new_label();
  a.bind(entry);
  a.mov(isa::Gpr::rbx, iterations);
  a.mov(isa::Gpr::rcx, 0);
  a.bind(loop);
  a.cmp(isa::Gpr::rbx, 0);
  a.jz(done);
  for (std::uint64_t i = 0; i < kPadInsns; ++i) a.add(isa::Gpr::rcx, 1);
  a.mov(isa::Gpr::rax, kern::kSysNonexistent);
  a.syscall_();
  a.sub(isa::Gpr::rbx, 1);
  a.jmp(loop);
  a.bind(done);
  apps::emit_exit(a, 0);
  return bench::unwrap(isa::make_program("profile-loop", a, entry),
                       "assemble profile loop");
}

struct RunResult {
  double wall_ms = 0.0;  // min over kReps
  std::uint64_t sim_cycles = 0;
  std::uint64_t machine_cycles = 0;   // machine.total_cycles()
  std::uint64_t profiler_cycles = 0;  // sum of per-class attribution
  std::uint64_t folded_stacks = 0;
};

enum class Mode { kOff, kDisabled, kEnabled };

// One timed repetition of the micro loop under `mode`. The machine is built
// fresh per rep; only machine.run() is timed.
void run_once(Mode mode, bool block_engine, const isa::Program& program,
              const std::shared_ptr<interpose::DummyHandler>& dummy,
              RunResult* result) {
  profile::ProfilerConfig config;
  if (!block_engine) config.step_sample_period = kStepSamplePeriod;
  profile::Profiler profiler(config);
  profiler.set_enabled(mode == Mode::kEnabled);
  kern::Machine machine;
  machine.mmap_min_addr = 0;
  machine.block_exec_enabled = block_engine;
  if (mode != Mode::kOff) profiler.attach(machine);
  machine.register_program(program);
  const kern::Tid tid = bench::unwrap(machine.load(program), "load");
  bench::check(
      scenario::install(bench::steady_lazypoline(core::XstateMode::kFull),
                        machine, tid, dummy),
      "install");
  const auto start = std::chrono::steady_clock::now();
  const auto stats = machine.run();
  const auto end = std::chrono::steady_clock::now();
  if (!stats.all_exited) {
    bench::die("machine did not quiesce: " + machine.last_fatal());
  }
  if (result == nullptr) return;  // warmup rep
  const std::uint64_t cycles = machine.find_task(tid)->cycles;
  const double ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  result->wall_ms = std::min(result->wall_ms, ms);
  if (result->sim_cycles != 0 && result->sim_cycles != cycles) {
    bench::die("simulated cycles varied between repetitions");
  }
  result->sim_cycles = cycles;
  result->machine_cycles = machine.total_cycles();
  result->profiler_cycles = profiler.total_cycles();
  std::uint64_t stacks = 0;
  for (char c : profiler.folded_stacks()) stacks += c == '\n' ? 1 : 0;
  result->folded_stacks = stacks;
}

// All three modes, interleaved within each repetition so host-side drift
// (turbo decay, cache warmup, a noisy neighbor) biases every mode equally
// instead of whichever batch happened to run last. Rep -1 is a discarded
// warmup pass.
std::array<RunResult, 3> run_modes(bool block_engine) {
  const auto program = make_profiled_loop(kIterations);
  auto dummy = std::make_shared<interpose::DummyHandler>();
  std::array<RunResult, 3> out;
  for (auto& r : out) r.wall_ms = 1e18;
  constexpr Mode kModes[] = {Mode::kOff, Mode::kDisabled, Mode::kEnabled};
  for (int rep = -1; rep < kReps; ++rep) {
    for (int m = 0; m < 3; ++m) {
      run_once(kModes[m], block_engine, program, dummy,
               rep < 0 ? nullptr : &out[m]);
    }
  }
  return out;
}

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::kOff: return "off";
    case Mode::kDisabled: return "disabled";
    case Mode::kEnabled: return "enabled";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  const bench::CliArgs cli = bench::parse_cli(argc, argv);
  const std::string json_path =
      cli.positional_or(0, "BENCH_profile_overhead.json");

  std::vector<std::string> results;
  bool pass = true;
  for (const bool block_engine : {true, false}) {
    const char* engine = block_engine ? "block" : "step";
    const auto [off, disabled, enabled] = run_modes(block_engine);

    // Claim 1: cycle determinism — the simulated cost is identical whether
    // or not anyone is profiling.
    if (disabled.sim_cycles != off.sim_cycles ||
        enabled.sim_cycles != off.sim_cycles) {
      std::fprintf(stderr,
                   "FAIL(%s): profiling perturbed simulated cycles "
                   "(off=%llu disabled=%llu enabled=%llu)\n",
                   engine, static_cast<unsigned long long>(off.sim_cycles),
                   static_cast<unsigned long long>(disabled.sim_cycles),
                   static_cast<unsigned long long>(enabled.sim_cycles));
      return 1;
    }

    // Claim 2: attribution exactness when enabled.
    if (enabled.profiler_cycles != enabled.machine_cycles) {
      std::fprintf(stderr,
                   "FAIL(%s): class sums %llu != machine cycles %llu\n",
                   engine,
                   static_cast<unsigned long long>(enabled.profiler_cycles),
                   static_cast<unsigned long long>(enabled.machine_cycles));
      return 1;
    }

    const double disabled_x = disabled.wall_ms / off.wall_ms;
    const double enabled_x = enabled.wall_ms / off.wall_ms;

    metrics::Table table({"config", "wall ms (min)", "x off", "sim cycles",
                          "folded stacks"});
    const struct {
      Mode mode;
      const RunResult* r;
      double x;
    } rows[] = {{Mode::kOff, &off, 1.0},
                {Mode::kDisabled, &disabled, disabled_x},
                {Mode::kEnabled, &enabled, enabled_x}};
    for (const auto& row : rows) {
      table.add_row({mode_name(row.mode), format_double(row.r->wall_ms, 3),
                     metrics::ratio(row.x), std::to_string(row.r->sim_cycles),
                     std::to_string(row.r->folded_stacks)});
      results.push_back(metrics::JsonObject()
                            .add("engine", engine)
                            .add("config", mode_name(row.mode))
                            .add("wall_ms", row.r->wall_ms)
                            .add("x_off", row.x)
                            .add("sim_cycles", row.r->sim_cycles)
                            .add("folded_stacks", row.r->folded_stacks)
                            .render());
    }
    std::printf("== Profiler overhead (%s engine, lazypoline loop, "
                "%llu syscalls + %llu-insn compute kernel each, min of %d) "
                "==\n%s\n",
                engine, static_cast<unsigned long long>(kIterations),
                static_cast<unsigned long long>(kPadInsns), kReps,
                table.render().c_str());

    // Claim 3: wall-time gates.
    if (disabled_x > kDisabledGate) {
      std::fprintf(stderr,
                   "FAIL(%s): attached-but-disabled profiling costs %.3fx "
                   "(> %.2fx)\n",
                   engine, disabled_x, kDisabledGate);
      pass = false;
    }
    if (enabled_x > kEnabledGate) {
      std::fprintf(stderr, "FAIL(%s): enabled profiling costs %.3fx (> %.2fx)\n",
                   engine, enabled_x, kEnabledGate);
      pass = false;
    }
    if (pass) {
      std::printf("PASS(%s): disabled %.3fx <= %.2fx, enabled %.3fx <= %.2fx, "
                  "sim cycles identical, attribution exact\n\n",
                  engine, disabled_x, kDisabledGate, enabled_x, kEnabledGate);
    }
  }

  // The micro loop is single-task; --cpus only tags the artifact.
  bench::write_json_report(json_path, "profile_overhead", results, cli.cpus);
  return pass ? 0 : 1;
}
