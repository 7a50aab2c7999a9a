// Host-time cost of the four decorators: the tracer, the profiler, the
// SFIP-style policy enforcer and the rr-style recorder.
//
// The timed table has one row per {artifact, scenario, decorator, bounds}.
// A row's arms run one guest on fresh machines that differ only in the
// decorator: off, attached but disabled, and enabled. lzp::paired_ratios
// interleaves them; each bound gates an arm's median paired ratio to the off
// arm, printed beside the A/A control. Only the guest run is timed, and no
// arm may change the simulated cycles. The untimed checks ride along: exact
// profiler class sums; the enforcer's hit rates, zero false violations on
// the webserver, static ⊇ dynamic containment and minimization; the
// recorder's cycles over the webserver and the coreutils, its
// nondeterminism audit, and lazypoline recording cheaper than ptrace's.
//
//   ./build/bench/overhead [--cpus=N] [out-dir]
//
// Writes BENCH_trace_overhead.json, BENCH_profile_overhead.json,
// BENCH_policy.json and BENCH_record_overhead.json into out-dir (default:
// the working directory), then exits 1 if any FAIL line was printed.
// --cpus=N only tags the artifacts: every guest here is single-CPU.
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/coreutils.hpp"
#include "apps/webserver.hpp"
#include "base/stats.hpp"
#include "base/strings.hpp"
#include "bench_util.hpp"
#include "bpf/seccomp_filter.hpp"
#include "metrics/report.hpp"
#include "policy/compile.hpp"
#include "policy/enforce.hpp"
#include "policy/extract.hpp"
#include "profile/profiler.hpp"
#include "replay/recorder.hpp"
#include "trace/tracer.hpp"

namespace {
using namespace lzp;
using Kind = scenario::Mechanism::Kind;

constexpr std::uint64_t kIterations = 20'000;
// Guest compute folded into each iteration of the profiled loop.
constexpr std::uint64_t kPadInsns = 128;
// Step-engine site sampling period for the profiler: the documented
// production configuration for per-instruction interpreters (ProfilerConfig
// — the machine batches skipped instructions' cycles onto the next probe, so
// class totals and site sums stay exact; only site granularity coarsens).
// The block engine keeps exact per-block attribution and no sampling.
constexpr std::uint64_t kStepSamplePeriod = 32;

int failures = 0;

// Prints a failed check; main() exits 1 once every artifact is written.
void expect(bool ok, const std::string& message) {
  if (ok) return;
  std::fprintf(stderr, "FAIL: %s\n", message.c_str());
  ++failures;
}

// The profiled workload: the §V-B micro loop with kPadInsns add-immediates
// folded into every iteration. The bare syscall loop charges an attribution
// transition every ~200 simulated cycles with almost no guest execution in
// between, an order of magnitude denser than any real program; the pad keeps
// the worst case while making the profiler's gate measure a workload that
// executes guest code.
isa::Program make_profiled_loop() {
  isa::Assembler a;
  const auto entry = a.new_label();
  const auto loop = a.new_label();
  const auto done = a.new_label();
  a.bind(entry);
  a.mov(isa::Gpr::rbx, kIterations);
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

enum class Decorator { kTracer, kProfiler, kEnforcer };
enum class Mode { kOff, kDisabled, kEnabled };
constexpr const char* kModeNames[] = {"off", "disabled", "enabled"};

struct Row {
  const char* artifact;  // the BENCH_*.json benchmark the row reports to
  std::string scenario;  // its label there: engine or mechanism
  Decorator decorator;
  const isa::Program* program;
  scenario::Mechanism mechanism;
  bool block_engine;
  const policy::Automaton* policy;  // the enforcer's automaton
  double disabled_bound;  // no disabled arm when 0 (the enforcer has none)
  double enabled_bound;   // reported, not gated, when 0
};

// One run of one arm: its timed seconds and the simulated observables the
// artifacts report.
struct Run {
  double seconds = 0.0;
  std::uint64_t sim_cycles = 0;
  std::uint64_t machine_cycles = 0;
  std::uint64_t trace_events = 0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;  // the hottest trace histogram
  std::uint64_t profiled_cycles = 0;       // sum of the per-class totals
  std::uint64_t folded_stacks = 0;
  policy::EnforcerStats enforcer;
};

Run run_arm(const Row& row, Mode mode) {
  const bool attached = mode != Mode::kOff;
  const bool enabled = mode == Mode::kEnabled;
  profile::ProfilerConfig config;
  if (!row.block_engine) config.step_sample_period = kStepSamplePeriod;
  profile::Profiler profiler(config);
  profiler.set_enabled(enabled);
  trace::Tracer tracer;
  tracer.set_enabled(enabled);
  std::shared_ptr<policy::PolicyEnforcer> enforcer;
  if (row.decorator == Decorator::kEnforcer && enabled) {
    enforcer = bench::unwrap(policy::PolicyEnforcer::create(*row.policy, {}),
                             "create enforcer");
  }

  kern::Machine machine;
  machine.mmap_min_addr = 0;
  machine.block_exec_enabled = row.block_engine;
  // The profiler attaches before load. The tracer attaches between load and
  // install: its trace counts the install's events but not the load's.
  if (row.decorator == Decorator::kProfiler && attached) {
    profiler.attach(machine);
  }
  machine.register_program(*row.program);
  const kern::Tid tid = bench::unwrap(machine.load(*row.program), "load");
  if (row.decorator == Decorator::kTracer && attached) tracer.attach(machine);
  std::shared_ptr<interpose::SyscallHandler> handler = enforcer;
  if (!handler) handler = std::make_shared<interpose::DummyHandler>();
  bench::check(scenario::install(row.mechanism, machine, tid, handler),
               "install");
  const auto start = std::chrono::steady_clock::now();
  const bool exited = machine.run().all_exited;
  Run run;
  run.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  if (!exited) bench::die("machine did not quiesce: " + machine.last_fatal());

  run.sim_cycles = machine.find_task(tid)->cycles;
  run.machine_cycles = machine.total_cycles();
  run.trace_events = tracer.ring().size() + tracer.ring().dropped();
  const trace::LatencyHistogram* hottest = nullptr;
  for (const auto& [key, hist] : tracer.metrics().histograms()) {
    if (hottest == nullptr || hist.total() > hottest->total()) hottest = &hist;
  }
  if (hottest != nullptr) {
    run.p50 = hottest->quantile(0.50);
    run.p95 = hottest->quantile(0.95);
    run.p99 = hottest->quantile(0.99);
  }
  run.profiled_cycles = profiler.total_cycles();
  for (char c : profiler.folded_stacks()) run.folded_stacks += c == '\n';
  if (enforcer) run.enforcer = enforcer->stats();
  return run;
}

double hit_rate(const policy::EnforcerStats& stats) {
  if (stats.transitions_checked == 0) return 0.0;
  const std::uint64_t concrete = stats.transitions_checked -
                                 stats.wildcard_allows - stats.always_allows;
  return 100.0 * static_cast<double>(concrete) /
         static_cast<double>(stats.transitions_checked);
}

// Times `row`'s arms against each other, checks them, and returns its
// artifact rows.
std::vector<std::string> measure(const Row& row, metrics::Table& table) {
  std::vector<Mode> modes = {Mode::kOff};
  if (row.disabled_bound > 0) modes.push_back(Mode::kDisabled);
  modes.push_back(Mode::kEnabled);
  const std::string label = std::string(row.artifact) + " " + row.scenario;

  std::vector<Run> last(modes.size());
  std::vector<PairedArm> arms;
  for (std::size_t i = 0; i < modes.size(); ++i) {
    arms.push_back({kModeNames[static_cast<int>(modes[i])], [&, i] {
                      const Run run = run_arm(row, modes[i]);
                      if (last[i].seconds > 0 &&
                          run.sim_cycles != last[i].sim_cycles) {
                        bench::die(label + ": simulated cycles varied "
                                           "between repetitions");
                      }
                      last[i] = run;
                      return run.seconds;
                    }});
  }
  const PairedResult timing = paired_ratios(arms);

  std::vector<std::string> json;
  for (std::size_t i = 0; i < modes.size(); ++i) {
    const Run& run = last[i];
    const char* config = kModeNames[static_cast<int>(modes[i])];
    const double x = timing.arms[i].median_ratio;
    const double wall_ms = timing.arms[i].median_seconds * 1e3;
    const double bound = modes[i] == Mode::kDisabled ? row.disabled_bound
                         : modes[i] == Mode::kEnabled ? row.enabled_bound
                                                      : 0.0;
    expect(run.sim_cycles == last[0].sim_cycles,
           label + ": " + config + " perturbed simulated cycles (off=" +
               std::to_string(last[0].sim_cycles) + " " + config + "=" +
               std::to_string(run.sim_cycles) + ")");
    expect(bound == 0 || x <= bound,
           label + ": " + config + " costs " + format_double(x, 3) +
               "x (> " + format_double(bound, 2) + "x, A/A " +
               format_double(timing.aa_ratio, 3) + "x)");
    table.add_row({label, config, format_double(wall_ms, 3),
                   format_double(x, 3) + "x",
                   bound > 0 ? format_double(bound, 2) + "x" : "-",
                   std::to_string(timing.rounds),
                   std::to_string(run.sim_cycles)});

    metrics::JsonObject out;
    if (row.decorator == Decorator::kEnforcer) {
      if (modes[i] != Mode::kEnabled) continue;  // one row per mechanism
      expect(run.enforcer.violations == 0,
             label + ": the micro loop violated its own automaton");
      json.push_back(out.add("kind", "micro")
                         .add("mechanism", row.scenario)
                         .add("wall_ms_base",
                              timing.arms[0].median_seconds * 1e3)
                         .add("wall_ms_enforced", wall_ms)
                         .add("x_enforced", x)
                         .add("sim_cycles", last[0].sim_cycles)
                         .add("transitions", run.enforcer.transitions_checked)
                         .add("violations", run.enforcer.violations)
                         .add("hit_rate", hit_rate(run.enforcer))
                         .add("bpf_insns", run.enforcer.bpf_insns_executed)
                         .render());
      continue;
    }
    if (row.decorator == Decorator::kProfiler) out.add("engine", row.scenario);
    out.add("config", config)
        .add("wall_ms", wall_ms)
        .add("x_off", x)
        .add("sim_cycles", run.sim_cycles);
    if (row.decorator == Decorator::kTracer) {
      out.add("trace_events", run.trace_events)
          .add("p50_cycles", run.p50)
          .add("p95_cycles", run.p95)
          .add("p99_cycles", run.p99);
    } else {
      out.add("folded_stacks", run.folded_stacks);
      expect(modes[i] != Mode::kEnabled ||
                 run.profiled_cycles == run.machine_cycles,
             label + ": class sums " + std::to_string(run.profiled_cycles) +
                 " != machine cycles " + std::to_string(run.machine_cycles));
    }
    json.push_back(out.render());
  }
  table.add_row({label, "A/A", "", format_double(timing.aa_ratio, 3) + "x",
                 "-", std::to_string(timing.rounds), ""});
  return json;
}

// --- policy: the webserver under its own extracted automaton ----------------

// Two nginx workers serving 60 requests of a 1 KiB file over 4 connections.
scenario::Scenario policy_web(Kind kind) {
  return {scenario::Web{apps::nginx_profile(), 2, 1024, 4, 60}, kind};
}

std::vector<std::string> check_policy_precision() {
  std::vector<std::string> json;
  kern::Machine extract_machine;
  const scenario::Instance web = bench::unwrap(
      scenario::build(policy_web(Kind::kNative), extract_machine,
                      std::make_shared<interpose::DummyHandler>()),
      "build webserver");
  const policy::StaticExtraction web_static = policy::extract_static(web.program);
  auto tracer = std::make_shared<interpose::TracingHandler>();
  bench::run_scenario(policy_web(Kind::kLazypoline), tracer);
  std::vector<std::pair<kern::Tid, std::uint64_t>> stream;
  for (const interpose::TraceRecord& record : tracer->trace()) {
    stream.emplace_back(record.tid, record.nr);
  }
  const policy::Automaton web_dynamic =
      policy::learn_from_sequence(stream, "webserver");
  const bool contained = web_static.automaton.contains(web_dynamic);

  std::printf("== Webserver under its extracted policy ==\n"
              "mechanism   transitions  violations  hit-rate\n");
  for (const Kind kind : scenario::kInterposers) {
    const std::string mechanism = scenario::to_string(kind);
    auto enforcer = bench::unwrap(
        policy::PolicyEnforcer::create(web_static.automaton, {}),
        "create enforcer");
    bench::run_scenario(policy_web(kind), enforcer);
    const policy::EnforcerStats stats = enforcer->stats();
    expect(stats.violations == 0,
           "policy: " + std::to_string(stats.violations) +
               " false violations on the webserver under " + mechanism);
    std::printf("%-10s  %11llu  %10llu  %7.1f%%\n", mechanism.c_str(),
                static_cast<unsigned long long>(stats.transitions_checked),
                static_cast<unsigned long long>(stats.violations),
                hit_rate(stats));
    json.push_back(metrics::JsonObject()
                       .add("kind", "webserver")
                       .add("mechanism", mechanism)
                       .add("transitions", stats.transitions_checked)
                       .add("violations", stats.violations)
                       .add("hit_rate", hit_rate(stats))
                       .render());
  }

  // Lowering precision: the per-state cBPF artifact before and after
  // automaton minimization + equivalent-state sharing.
  policy::CompileOptions unshared;
  unshared.share_equivalent_states = false;
  const auto compiled_baseline = bench::unwrap(
      policy::compile_to_seccomp(web_static.automaton,
                                 bpf::SECCOMP_RET_KILL_PROCESS, unshared),
      "compile unminimized");
  const policy::MinimizeResult minimized =
      policy::minimize(web_static.automaton);
  const auto compiled_min = bench::unwrap(
      policy::compile_to_seccomp(minimized.automaton,
                                 bpf::SECCOMP_RET_KILL_PROCESS, {}),
      "compile minimized");
  const std::size_t insns_unmin = compiled_baseline.total_filter_insns();
  const std::size_t insns_min = compiled_min.total_filter_insns();
  expect(contained, "policy: static automaton does not contain dynamic");
  expect(insns_min <= insns_unmin,
         "policy: minimization grew the cBPF lowering (" +
             std::to_string(insns_min) + " > " + std::to_string(insns_unmin) +
             ")");

  std::printf("== Static vs dynamic precision (webserver) ==\n"
              "static (CFG walk): %zu states, %zu edges; dynamic (learned): "
              "%zu states, %zu edges\n"
              "containment (static ⊇ dynamic): %s; %zu/%zu sites statically "
              "resolved (%zu block-local + %zu value-flow), %zu predicated "
              "edges\nlowering: %zu cBPF insns minimized (%zu states, %zu "
              "filters) vs %zu unminimized\n\n",
              web_static.automaton.state_count(),
              web_static.automaton.edge_count(), web_dynamic.state_count(),
              web_dynamic.edge_count(), contained ? "yes" : "NO",
              web_static.sites_resolved, web_static.sites_total,
              web_static.sites_resolved_blocklocal,
              web_static.sites_resolved_dataflow,
              web_static.automaton.predicated_edge_count(),
              insns_min, minimized.automaton.state_count(),
              compiled_min.class_count(), insns_unmin);
  json.push_back(metrics::JsonObject()
                     .add("kind", "precision")
                     .add("static_edges", web_static.automaton.edge_count())
                     .add("static_states", web_static.automaton.state_count())
                     .add("dynamic_edges", web_dynamic.edge_count())
                     .add("dynamic_states", web_dynamic.state_count())
                     .add("contains_dynamic", contained)
                     .add("sites_total", web_static.sites_total)
                     .add("sites_resolved", web_static.sites_resolved)
                     .add("sites_resolved_blocklocal",
                          web_static.sites_resolved_blocklocal)
                     .add("sites_resolved_dataflow",
                          web_static.sites_resolved_dataflow)
                     .add("predicated_edges",
                          web_static.automaton.predicated_edge_count())
                     .add("insns_unminimized",
                          static_cast<std::uint64_t>(insns_unmin))
                     .add("insns_minimized",
                          static_cast<std::uint64_t>(insns_min))
                     .render());
  return json;
}

// --- record: the same Recorder over the four mechanisms ---------------------
// Recording cost tracks the mechanism's interposition cost (rr's finding), so
// these rows compare simulated cycles under each mechanism; nothing is timed.

constexpr std::uint64_t kRecordSeed = 0x1A5F'9E37ULL;

struct Recorded {
  std::uint64_t cycles = 0;
  std::uint64_t trace_events = 0;  // 0 when not recording
};

// Returns run(machine, handler)'s cycles on a fresh machine whose handler is
// an attached Recorder when `record`, which must capture every input.
template <typename Run>
Recorded run_recorded(Kind mech, bool record, const std::string& program,
                      const Run& run) {
  kern::Machine machine;
  machine.mmap_min_addr = 0;
  auto recorder = std::make_shared<replay::Recorder>();
  std::shared_ptr<interpose::SyscallHandler> handler = recorder;
  if (record) {
    recorder->attach(machine, kRecordSeed, scenario::to_string(mech), program);
  } else {
    handler = std::make_shared<interpose::DummyHandler>();
  }
  Recorded out{run(machine, handler), 0};
  if (record) {
    if (recorder->uncaptured_nondeterminism()) {
      expect(false, "record audit: " + recorder->audit_report().front());
    }
    out.trace_events = recorder->trace().events.size();
  }
  return out;
}

// One webserver run (2 workers); its cycles are the slowest worker's.
Recorded record_webserver(Kind mech, bool record) {
  const scenario::Scenario spec{
      scenario::Web{apps::nginx_profile(), 2, 4096, 8, 600}, mech,
      /*cpus=*/1, kRecordSeed};
  return run_recorded(mech, record, "webserver", [&](auto& machine,
                                                     auto handler) {
    return bench::run_scenario(spec, machine, handler).wall_cycles;
  });
}

// All ten coreutils (Ubuntu profile) back to back; cycles summed.
Recorded record_coreutils(Kind mech, bool record) {
  Recorded sum;
  for (const std::string& name : apps::coreutil_names()) {
    const Recorded one = run_recorded(mech, record, name, [&](auto& machine,
                                                              auto handler) {
      apps::populate_coreutil_fixtures(machine.vfs());
      const auto program = bench::unwrap(
          apps::make_coreutil(name, apps::LibcProfile::kUbuntu2004),
          "build coreutil");
      machine.register_program(program);
      const kern::Tid tid =
          bench::unwrap(machine.load(program), "load coreutil");
      bench::check(scenario::install(mech, machine, tid, handler), "install");
      if (!machine.run().all_exited) {
        bench::die(name + " hung: " + machine.last_fatal());
      }
      return machine.find_task(tid)->cycles;
    });
    sum.cycles += one.cycles;
    sum.trace_events += one.trace_events;
  }
  return sum;
}

std::vector<std::string> check_record() {
  std::vector<std::string> json;
  double ptrace_x = 0.0, lazypoline_x = 0.0;
  const struct {
    const char* name;
    Recorded (*run)(Kind, bool);
  } workloads[] = {{"webserver", record_webserver},
                   {"coreutils", record_coreutils}};
  for (const auto& workload : workloads) {
    const auto native =
        static_cast<double>(workload.run(Kind::kNative, false).cycles);
    std::printf("== Record-mode overhead: %s (native %.0f cycles) ==\n"
                "mechanism   plain x native   record x native   events\n",
                workload.name, native);
    for (const Kind mech : scenario::kInterposers) {
      const std::uint64_t plain = workload.run(mech, false).cycles;
      const Recorded recorded = workload.run(mech, true);
      const double plain_x = static_cast<double>(plain) / native;
      const double record_x = static_cast<double>(recorded.cycles) / native;
      if (mech == Kind::kPtrace) ptrace_x += record_x;
      if (mech == Kind::kLazypoline) lazypoline_x += record_x;
      const std::string mechanism = scenario::to_string(mech);
      std::printf("%-10s  %14.2fx  %15.2fx  %7llu\n", mechanism.c_str(),
                  plain_x, record_x,
                  static_cast<unsigned long long>(recorded.trace_events));
      json.push_back(metrics::JsonObject()
                         .add("workload", workload.name)
                         .add("mechanism", mechanism)
                         .add("plain_cycles", plain)
                         .add("record_cycles", recorded.cycles)
                         .add("plain_x_native", plain_x)
                         .add("record_x_native", record_x)
                         .add("trace_events", recorded.trace_events)
                         .render());
    }
  }
  expect(lazypoline_x < ptrace_x,
         "record: lazypoline record overhead (" +
             format_double(lazypoline_x, 2) +
             "x summed) not below ptrace (" + format_double(ptrace_x, 2) +
             "x summed)");
  return json;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::CliArgs cli = bench::parse_cli(argc, argv);
  const std::string out_dir = cli.positional_or(0, ".");

  const isa::Program loop =
      bench::unwrap(scenario::make_loop(scenario::Loop{kIterations}), "loop");
  const isa::Program profiled_loop = make_profiled_loop();
  const policy::Automaton loop_policy = policy::extract_static(loop).automaton;
  const scenario::Mechanism lazypoline =
      bench::steady_lazypoline(core::XstateMode::kFull);

  // The micro loop runs lazypoline in its §V-B steady state (sites
  // pre-rewritten). Only lazypoline's enforcement cost is gated.
  const Row rows[] = {
      {"trace_overhead", "lazypoline loop", Decorator::kTracer, &loop,
       lazypoline, true, nullptr, 1.02, 1.15},
      {"profile_overhead", "block", Decorator::kProfiler, &profiled_loop,
       lazypoline, true, nullptr, 1.02, 1.10},
      {"profile_overhead", "step", Decorator::kProfiler, &profiled_loop,
       lazypoline, false, nullptr, 1.02, 1.10},
      {"policy_overhead", "ptrace", Decorator::kEnforcer, &loop, Kind::kPtrace,
       true, &loop_policy, 0, 0},
      {"policy_overhead", "sud", Decorator::kEnforcer, &loop, Kind::kSud, true,
       &loop_policy, 0, 0},
      {"policy_overhead", "zpoline", Decorator::kEnforcer, &loop,
       Kind::kZpoline, true, &loop_policy, 0, 0},
      {"policy_overhead", "lazypoline", Decorator::kEnforcer, &loop,
       lazypoline, true, &loop_policy, 0, 1.15},
  };

  std::map<std::string, std::vector<std::string>> artifacts;
  metrics::Table table({"row", "config", "ms (median)", "x off (median)",
                        "bound", "rounds", "sim cycles"});
  for (const Row& row : rows) {
    for (std::string& json : measure(row, table)) {
      artifacts[row.artifact].push_back(std::move(json));
    }
  }
  std::printf("== Decorator overhead (paired median over rounds; micro loop "
              "%llu syscalls, profiled loop + %llu-insn kernel each) ==\n%s\n",
              static_cast<unsigned long long>(kIterations),
              static_cast<unsigned long long>(kPadInsns),
              table.render().c_str());
  for (std::string& json : check_policy_precision()) {
    artifacts["policy_overhead"].push_back(std::move(json));
  }
  artifacts["record_overhead"] = check_record();

  const std::pair<const char*, const char*> files[] = {
      {"trace_overhead", "BENCH_trace_overhead.json"},
      {"profile_overhead", "BENCH_profile_overhead.json"},
      {"policy_overhead", "BENCH_policy.json"},
      {"record_overhead", "BENCH_record_overhead.json"}};
  for (const auto& [benchmark, file] : files) {
    bench::write_json_report(out_dir + "/" + file, benchmark,
                             artifacts[benchmark], cli.cpus);
  }
  if (failures > 0) {
    std::fprintf(stderr, "overhead: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("PASS: every bound holds on its paired median, simulated cycles "
              "unchanged by every decorator, every untimed check holds\n");
  return 0;
}
