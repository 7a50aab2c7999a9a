// Trace-subsystem overhead gate.
//
// Three configurations of the same lazypoline micro loop:
//   off      — no trace sink attached (the compiled-in null-check only)
//   disabled — Tracer attached, set_enabled(false): probes fire, recording
//              short-circuits on the enabled flag
//   enabled  — full recording into ring + registry
//
// Two claims are enforced: (1) tracing charges ZERO simulated cycles in every
// configuration — attaching a sink must never perturb what the other benches
// measure; (2) host-side wall time stays within the gate ratios (disabled
// within kDisabledGate of off, enabled within kEnabledGate). Wall times are
// min-of-N to shed scheduler noise. Results land in BENCH_trace_overhead.json
// for scripts/check.sh.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "base/strings.hpp"
#include "bench_util.hpp"
#include "metrics/report.hpp"
#include "trace/tracer.hpp"

namespace {
using namespace lzp;

constexpr std::uint64_t kIterations = 20'000;
constexpr int kReps = 7;
constexpr double kDisabledGate = 1.02;
constexpr double kEnabledGate = 1.15;

struct RunResult {
  double wall_ms = 0.0;      // min over kReps
  std::uint64_t sim_cycles = 0;
  std::uint64_t trace_events = 0;
  // Latency quantiles (simulated cycles) of the hottest per-(syscall, mech)
  // histogram the tracer recorded — deterministic, so any rep's copy works.
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

enum class Mode { kOff, kDisabled, kEnabled };

RunResult run_mode(Mode mode) {
  const auto program =
      bench::unwrap(scenario::make_loop(scenario::Loop{kIterations}), "loop");
  const scenario::Mechanism lazypoline =
      bench::steady_lazypoline(core::XstateMode::kFull);
  RunResult result;
  result.wall_ms = 1e18;
  for (int rep = 0; rep < kReps; ++rep) {
    trace::Tracer tracer;
    tracer.set_enabled(mode == Mode::kEnabled);
    const auto start = std::chrono::steady_clock::now();
    kern::Machine machine;
    machine.mmap_min_addr = 0;
    machine.register_program(program);
    const kern::Tid tid = bench::unwrap(machine.load(program), "load");
    // Attached between load and install: the trace counts the install's
    // events but not the load's.
    if (mode != Mode::kOff) tracer.attach(machine);
    bench::check(scenario::install(lazypoline, machine, tid,
                                   std::make_shared<interpose::DummyHandler>()),
                 "install");
    if (!machine.run().all_exited) {
      bench::die("machine did not quiesce: " + machine.last_fatal());
    }
    const std::uint64_t cycles = machine.find_task(tid)->cycles;
    const auto end = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(end - start).count();
    result.wall_ms = std::min(result.wall_ms, ms);
    if (result.sim_cycles != 0 && result.sim_cycles != cycles) {
      bench::die("simulated cycles varied between repetitions");
    }
    result.sim_cycles = cycles;
    result.trace_events = tracer.ring().size() + tracer.ring().dropped();
    const trace::LatencyHistogram* hottest = nullptr;
    for (const auto& [key, hist] : tracer.metrics().histograms()) {
      if (hottest == nullptr || hist.total() > hottest->total()) {
        hottest = &hist;
      }
    }
    if (hottest != nullptr) {
      result.p50 = hottest->quantile(0.50);
      result.p95 = hottest->quantile(0.95);
      result.p99 = hottest->quantile(0.99);
    }
  }
  return result;
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
      cli.positional_or(0, "BENCH_trace_overhead.json");

  const RunResult off = run_mode(Mode::kOff);
  const RunResult disabled = run_mode(Mode::kDisabled);
  const RunResult enabled = run_mode(Mode::kEnabled);

  // Claim 1: cycle determinism. The simulated cost of the run is identical
  // whether or not anyone is watching.
  if (disabled.sim_cycles != off.sim_cycles ||
      enabled.sim_cycles != off.sim_cycles) {
    std::fprintf(stderr,
                 "FAIL: tracing perturbed simulated cycles "
                 "(off=%llu disabled=%llu enabled=%llu)\n",
                 static_cast<unsigned long long>(off.sim_cycles),
                 static_cast<unsigned long long>(disabled.sim_cycles),
                 static_cast<unsigned long long>(enabled.sim_cycles));
    return 1;
  }

  const double disabled_x = disabled.wall_ms / off.wall_ms;
  const double enabled_x = enabled.wall_ms / off.wall_ms;

  metrics::Table table({"config", "wall ms (min)", "x off", "sim cycles",
                        "trace events", "p50", "p95", "p99"});
  const struct {
    Mode mode;
    const RunResult* r;
    double x;
  } rows[] = {{Mode::kOff, &off, 1.0},
              {Mode::kDisabled, &disabled, disabled_x},
              {Mode::kEnabled, &enabled, enabled_x}};
  std::vector<std::string> results;
  for (const auto& row : rows) {
    table.add_row({mode_name(row.mode), format_double(row.r->wall_ms, 3),
                   metrics::ratio(row.x), std::to_string(row.r->sim_cycles),
                   std::to_string(row.r->trace_events),
                   format_double(row.r->p50, 0), format_double(row.r->p95, 0),
                   format_double(row.r->p99, 0)});
    results.push_back(metrics::JsonObject()
                          .add("config", mode_name(row.mode))
                          .add("wall_ms", row.r->wall_ms)
                          .add("x_off", row.x)
                          .add("sim_cycles", row.r->sim_cycles)
                          .add("trace_events", row.r->trace_events)
                          .add("p50_cycles", row.r->p50)
                          .add("p95_cycles", row.r->p95)
                          .add("p99_cycles", row.r->p99)
                          .render());
  }
  std::printf("== Trace overhead (lazypoline micro loop, %llu syscalls, "
              "min of %d) ==\n%s\n",
              static_cast<unsigned long long>(kIterations), kReps,
              table.render().c_str());
  // The micro loop is single-task, so --cpus only tags the artifact (keeps
  // the JSON schema uniform with the SMP-capable benches).
  bench::write_json_report(json_path, "trace_overhead", results, cli.cpus);

  // Claim 2: wall-time gates.
  if (disabled_x > kDisabledGate) {
    std::fprintf(stderr,
                 "FAIL: attached-but-disabled tracing costs %.3fx (> %.2fx)\n",
                 disabled_x, kDisabledGate);
    return 1;
  }
  if (enabled_x > kEnabledGate) {
    std::fprintf(stderr, "FAIL: enabled tracing costs %.3fx (> %.2fx)\n",
                 enabled_x, kEnabledGate);
    return 1;
  }
  std::printf("PASS: disabled %.3fx <= %.2fx, enabled %.3fx <= %.2fx, "
              "sim cycles identical\n",
              disabled_x, kDisabledGate, enabled_x, kEnabledGate);
  return 0;
}
