// Syscall-flow-integrity enforcement overhead gate.
//
// Three claims, one artifact (BENCH_policy.json):
//
//   1. OVERHEAD — the §V-B micro loop runs under each mechanism twice:
//      baseline (dummy handler) and enforced (PolicyEnforcer over the loop's
//      own statically extracted automaton, deny verdict, dummy inner). Wall
//      times are min-of-N; the gate is enforced/baseline <= 1.15x under
//      lazypoline. Enforcement must also charge ZERO simulated cycles: the
//      policy check is host-side bookkeeping, invisible to every other bench.
//
//   2. HIT-RATE — per mechanism, the fraction of checked transitions decided
//      by a concrete per-state seccomp-BPF filter (as opposed to the
//      wildcard allow-all or the exit always-allow): the policy must
//      actually be doing set-membership work, not degrading to allow-all.
//
//   3. PRECISION — the headline static-vs-dynamic table on the webserver:
//      edge/state counts of the statically extracted automaton vs the
//      dynamically learned one, and the static ⊇ dynamic containment the
//      soundness argument rests on. Enforcing the static automaton on the
//      webserver itself must produce zero violations on all four mechanisms.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "base/strings.hpp"
#include "bench_util.hpp"
#include "apps/webserver.hpp"
#include "bpf/seccomp_filter.hpp"
#include "metrics/report.hpp"
#include "policy/compile.hpp"
#include "policy/enforce.hpp"
#include "policy/extract.hpp"

namespace {
using namespace lzp;

constexpr std::uint64_t kIterations = 20'000;
constexpr int kReps = 7;
constexpr double kLazypolineGate = 1.15;

// The micro loop runs lazypoline in its §V-B steady state (sites
// pre-rewritten); the webserver discovers its sites live.
scenario::Mechanism micro_mechanism(scenario::Mechanism::Kind kind) {
  if (kind == scenario::Mechanism::Kind::kLazypoline) {
    return bench::steady_lazypoline(core::XstateMode::kFull);
  }
  return kind;
}

struct MicroResult {
  double wall_base_ms = 1e18;
  double wall_enforced_ms = 1e18;
  std::uint64_t cycles_base = 0;
  std::uint64_t cycles_enforced = 0;
  policy::EnforcerStats stats;  // from the last enforced rep
};

double hit_rate(const policy::EnforcerStats& stats) {
  if (stats.transitions_checked == 0) return 0.0;
  const std::uint64_t concrete = stats.transitions_checked -
                                 stats.wildcard_allows - stats.always_allows;
  return 100.0 * static_cast<double>(concrete) /
         static_cast<double>(stats.transitions_checked);
}

MicroResult run_micro(scenario::Mechanism::Kind kind,
                      const policy::Automaton& automaton) {
  const scenario::Scenario spec{scenario::Loop{kIterations},
                                micro_mechanism(kind)};
  MicroResult out;
  for (int rep = 0; rep < kReps; ++rep) {
    // Baseline leg.
    {
      const auto start = std::chrono::steady_clock::now();
      const std::uint64_t cycles = bench::run_scenario(spec).wall_cycles;
      const auto end = std::chrono::steady_clock::now();
      out.wall_base_ms = std::min(
          out.wall_base_ms,
          std::chrono::duration<double, std::milli>(end - start).count());
      if (out.cycles_base != 0 && out.cycles_base != cycles) {
        bench::die("baseline cycles varied between repetitions");
      }
      out.cycles_base = cycles;
    }
    // Enforced leg: a fresh enforcer per rep (per-task automaton state).
    {
      auto enforcer = bench::unwrap(
          policy::PolicyEnforcer::create(automaton, {}), "create enforcer");
      const auto start = std::chrono::steady_clock::now();
      const std::uint64_t cycles =
          bench::run_scenario(spec, enforcer).wall_cycles;
      const auto end = std::chrono::steady_clock::now();
      out.wall_enforced_ms = std::min(
          out.wall_enforced_ms,
          std::chrono::duration<double, std::milli>(end - start).count());
      if (out.cycles_enforced != 0 && out.cycles_enforced != cycles) {
        bench::die("enforced cycles varied between repetitions");
      }
      out.cycles_enforced = cycles;
      out.stats = enforcer->stats();
      if (out.stats.violations != 0) {
        bench::die("micro loop violated its own automaton under " +
                   scenario::to_string(kind));
      }
    }
  }
  return out;
}

// --- webserver leg -----------------------------------------------------------

// Two nginx workers serving 60 requests of a 1 KiB file over 4 connections.
scenario::Scenario web_scenario(scenario::Mechanism::Kind kind) {
  return {scenario::Web{apps::nginx_profile(), 2, 1024, 4, 60}, kind};
}

policy::EnforcerStats run_web_enforced(scenario::Mechanism::Kind kind,
                                       const policy::Automaton& automaton) {
  auto enforcer = bench::unwrap(policy::PolicyEnforcer::create(automaton, {}),
                                "create enforcer");
  bench::run_scenario(web_scenario(kind), enforcer);
  return enforcer->stats();
}

std::vector<std::pair<kern::Tid, std::uint64_t>> run_web_traced() {
  auto tracer = std::make_shared<interpose::TracingHandler>();
  bench::run_scenario(web_scenario(scenario::Mechanism::Kind::kLazypoline),
                      tracer);
  std::vector<std::pair<kern::Tid, std::uint64_t>> stream;
  stream.reserve(tracer->trace().size());
  for (const interpose::TraceRecord& record : tracer->trace()) {
    stream.emplace_back(record.tid, record.nr);
  }
  return stream;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::CliArgs cli = bench::parse_cli(argc, argv);
  const std::string json_path = cli.positional_or(0, "BENCH_policy.json");
  std::vector<std::string> results;

  // --- 1 + 2: micro-loop overhead and hit-rate per mechanism ---------------
  const isa::Program micro =
      bench::unwrap(scenario::make_loop(scenario::Loop{kIterations}), "loop");
  const policy::StaticExtraction micro_ex = policy::extract_static(micro);
  double lazypoline_x = 0.0;
  metrics::Table micro_table({"mechanism", "base ms", "enforced ms",
                              "x base", "transitions", "hit-rate"});
  for (const scenario::Mechanism::Kind kind : scenario::kInterposers) {
    const std::string mechanism = scenario::to_string(kind);
    const MicroResult r = run_micro(kind, micro_ex.automaton);
    if (r.cycles_enforced != r.cycles_base) {
      std::fprintf(stderr,
                   "FAIL: enforcement perturbed simulated cycles under %s "
                   "(base=%llu enforced=%llu)\n",
                   mechanism.c_str(),
                   static_cast<unsigned long long>(r.cycles_base),
                   static_cast<unsigned long long>(r.cycles_enforced));
      return 1;
    }
    const double x = r.wall_enforced_ms / r.wall_base_ms;
    if (mechanism == "lazypoline") lazypoline_x = x;
    micro_table.add_row(
        {mechanism, format_double(r.wall_base_ms, 3),
         format_double(r.wall_enforced_ms, 3), metrics::ratio(x),
         std::to_string(r.stats.transitions_checked),
         format_double(hit_rate(r.stats), 1) + "%"});
    results.push_back(metrics::JsonObject()
                          .add("kind", "micro")
                          .add("mechanism", mechanism)
                          .add("wall_ms_base", r.wall_base_ms)
                          .add("wall_ms_enforced", r.wall_enforced_ms)
                          .add("x_enforced", x)
                          .add("sim_cycles", r.cycles_base)
                          .add("transitions", r.stats.transitions_checked)
                          .add("violations", r.stats.violations)
                          .add("hit_rate", hit_rate(r.stats))
                          .add("bpf_insns", r.stats.bpf_insns_executed)
                          .render());
  }
  std::printf("== Policy enforcement overhead (micro loop, %llu syscalls, "
              "min of %d) ==\n%s\n",
              static_cast<unsigned long long>(kIterations), kReps,
              micro_table.render().c_str());

  // --- 3: webserver precision + zero-false-violation sweep -----------------
  kern::Machine extract_machine;
  const scenario::Instance web = bench::unwrap(
      scenario::build(web_scenario(scenario::Mechanism::Kind::kNative),
                      extract_machine,
                      std::make_shared<interpose::DummyHandler>()),
      "build webserver");
  const policy::StaticExtraction web_static = policy::extract_static(web.program);
  const policy::Automaton web_dynamic =
      policy::learn_from_sequence(run_web_traced(), "webserver");
  const bool contained = web_static.automaton.contains(web_dynamic);

  metrics::Table web_table({"mechanism", "transitions", "violations",
                            "hit-rate"});
  bool web_clean = true;
  for (const scenario::Mechanism::Kind kind : scenario::kInterposers) {
    const std::string mechanism = scenario::to_string(kind);
    const policy::EnforcerStats stats =
        run_web_enforced(kind, web_static.automaton);
    if (stats.violations != 0) web_clean = false;
    web_table.add_row({mechanism, std::to_string(stats.transitions_checked),
                       std::to_string(stats.violations),
                       format_double(hit_rate(stats), 1) + "%"});
    results.push_back(metrics::JsonObject()
                          .add("kind", "webserver")
                          .add("mechanism", mechanism)
                          .add("transitions", stats.transitions_checked)
                          .add("violations", stats.violations)
                          .add("hit_rate", hit_rate(stats))
                          .render());
  }
  std::printf("== Webserver under its extracted policy ==\n%s\n",
              web_table.render().c_str());

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

  metrics::Table precision({"automaton", "states", "edges"});
  precision.add_row({"static (CFG walk)",
                     std::to_string(web_static.automaton.state_count()),
                     std::to_string(web_static.automaton.edge_count())});
  precision.add_row({"dynamic (learned)",
                     std::to_string(web_dynamic.state_count()),
                     std::to_string(web_dynamic.edge_count())});
  std::printf("== Static vs dynamic precision (webserver) ==\n%s"
              "containment (static ⊇ dynamic): %s; %zu/%zu sites statically "
              "resolved (%zu block-local + %zu value-flow), %zu predicated "
              "edges\nlowering: %zu cBPF insns minimized (%zu states, %zu "
              "filters) vs %zu unminimized\n\n",
              precision.render().c_str(), contained ? "yes" : "NO",
              web_static.sites_resolved, web_static.sites_total,
              web_static.sites_resolved_blocklocal,
              web_static.sites_resolved_dataflow,
              web_static.automaton.predicated_edge_count(),
              insns_min, minimized.automaton.state_count(),
              compiled_min.class_count(), insns_unmin);
  results.push_back(metrics::JsonObject()
                        .add("kind", "precision")
                        .add("static_edges", web_static.automaton.edge_count())
                        .add("static_states",
                             web_static.automaton.state_count())
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

  // The workloads are single-CPU; --cpus only tags the artifact for schema
  // uniformity with the SMP-capable benches.
  bench::write_json_report(json_path, "policy_overhead", results, cli.cpus);

  // --- gates ----------------------------------------------------------------
  if (lazypoline_x > kLazypolineGate) {
    std::fprintf(stderr, "FAIL: lazypoline enforcement costs %.3fx (> %.2fx)\n",
                 lazypoline_x, kLazypolineGate);
    return 1;
  }
  if (!web_clean) {
    std::fprintf(stderr, "FAIL: false violations on the webserver\n");
    return 1;
  }
  if (!contained) {
    std::fprintf(stderr, "FAIL: static automaton does not contain dynamic\n");
    return 1;
  }
  if (insns_min > insns_unmin) {
    std::fprintf(stderr,
                 "FAIL: minimization grew the cBPF lowering (%zu > %zu)\n",
                 insns_min, insns_unmin);
    return 1;
  }
  std::printf("PASS: lazypoline enforcement %.3fx <= %.2fx, zero false "
              "violations on all mechanisms, static contains dynamic\n",
              lazypoline_x, kLazypolineGate);
  return 0;
}
