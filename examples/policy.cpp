// policy — the syscall-flow-integrity pipeline, end to end:
//
//   extraction (static CFG walk / dynamic trace learning)
//     -> lowering (per-state seccomp-BPF allowlists + SUD config)
//       -> enforcement (PolicyEnforcer under any of the four mechanisms).
//
//   ./build/examples/policy extract [workload]
//       Print the statically extracted automaton, the dynamically learned
//       one (webserver/getpid-loop run under lazypoline with a tracing
//       handler), and the containment/precision comparison.
//   ./build/examples/policy compile [workload]
//       Lower the static automaton: per-state filter sizes and the
//       SUD/lazypoline allowlist config.
//   ./build/examples/policy enforce [mechanism] [workload] [--verdict=V]
//       Run the workload under its own extracted policy on one mechanism
//       (V: deny | log | kill; default deny) and print enforcer stats.
//   ./build/examples/policy gate [--json]
//       Acceptance gate (scripts/check.sh): the webserver must run
//       violation-free under its extracted policy on all four mechanisms,
//       every adversarial-corpus program must be caught on all four, and
//       verdicts must agree across mechanisms. With dataflow on it also
//       gates full site resolution + zero wildcard edges, and with
//       minimization on it gates language preservation (contains both
//       ways) + minimized filter size <= the unminimized baseline.
//
//       workload:  webserver (default) | getpid-loop
//       mechanism: lazypoline (default) | sud | zpoline | ptrace
//
// Pipeline flags (all modes; every feature defaults ON):
//   --dataflow / --no-dataflow      value-flow site resolution (extract)
//   --predicates / --no-predicates  argument predicates on edges
//   --minimize / --no-minimize      automaton minimization before lowering
//
// Build & run:  cmake --build build && ./build/examples/policy gate
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/fuzz_programs.hpp"
#include "apps/minilibc.hpp"
#include "apps/webserver.hpp"
#include "bpf/seccomp_filter.hpp"
#include "isa/assemble.hpp"
#include "kernel/machine.hpp"
#include "kernel/syscalls.hpp"
#include "policy/compile.hpp"
#include "policy/enforce.hpp"
#include "policy/extract.hpp"
#include "scenario/scenario.hpp"
#include "workloads.hpp"

using namespace lzp;

namespace {

constexpr std::uint64_t kStepLimit = 400'000'000ULL;

// The value-flow / predicate / minimization knobs, threaded through every
// mode so the gate can also exercise the degraded configurations.
struct PipelineOptions {
  policy::ExtractOptions extract;
  bool minimize = true;
};

// States whose follower set degraded to allow-all (plus the global
// from_any wildcard): the imprecision the value-flow analysis exists to
// eliminate on the webserver.
std::size_t wildcard_edge_count(const policy::Automaton& automaton) {
  std::size_t n = automaton.from_any().count(policy::kAnySyscall);
  for (const auto& [from, tos] : automaton.edges()) {
    n += tos.count(policy::kAnySyscall);
  }
  return n;
}

// One traced (un-enforced) run: the dynamic-learning and profiling primitive.
struct TracedRun {
  bool completed = false;
  std::vector<std::pair<kern::Tid, std::uint64_t>> stream;
};

TracedRun run_traced(const std::string& workload_or_seed,
                     const std::string& mechanism,
                     std::uint64_t adversarial_seed = 0,
                     bool adversarial = false) {
  TracedRun out;
  kern::Machine machine;
  auto tracer = std::make_shared<interpose::TracingHandler>();
  const bool ok = adversarial
                      ? examples::load_program(
                            machine,
                            analysis::make_adversarial_program(adversarial_seed),
                            mechanism, tracer)
                      : examples::load_workload(machine, workload_or_seed,
                                                mechanism, tracer);
  if (!ok) return out;
  const auto stats = machine.run(kStepLimit);
  out.completed = stats.all_exited;
  out.stream.reserve(tracer->trace().size());
  for (const interpose::TraceRecord& record : tracer->trace()) {
    out.stream.emplace_back(record.tid, record.nr);
  }
  return out;
}

struct EnforcedRun {
  bool completed = false;
  policy::EnforcerStats stats;
};

EnforcedRun run_enforced(const std::string& workload,
                         const std::string& mechanism,
                         const policy::Automaton& automaton,
                         policy::EnforcerOptions options,
                         std::uint64_t adversarial_seed = 0,
                         bool adversarial = false) {
  EnforcedRun out;
  auto enforcer = policy::PolicyEnforcer::create(automaton, options);
  if (!enforcer.is_ok()) {
    std::fprintf(stderr, "enforcer: %s\n",
                 enforcer.status().to_string().c_str());
    return out;
  }
  kern::Machine machine;
  const bool ok = adversarial
                      ? examples::load_program(
                            machine,
                            analysis::make_adversarial_program(adversarial_seed),
                            mechanism, enforcer.value())
                      : examples::load_workload(machine, workload, mechanism,
                                                enforcer.value());
  if (!ok) return out;
  const auto stats = machine.run(kStepLimit);
  out.completed = stats.all_exited;
  out.stats = enforcer.value()->stats();
  return out;
}

void print_automaton(const char* heading, const policy::Automaton& automaton) {
  std::printf("--- %s: %zu states, %zu edges%s ---\n%s", heading,
              automaton.state_count(), automaton.edge_count(),
              automaton.has_wildcard() ? " (has wildcard)" : "",
              automaton.serialize().c_str());
}

struct Extracted {
  policy::StaticExtraction static_ex;
  policy::Automaton dynamic;
  bool dynamic_complete = false;
};

bool extract_both(const std::string& workload, const PipelineOptions& opts,
                  Extracted* out) {
  {
    kern::Machine machine;
    isa::Program program;
    if (!examples::load_workload(machine, workload, "native", nullptr,
                                 &program)) {
      return false;
    }
    out->static_ex = policy::extract_static(program, opts.extract);
  }
  TracedRun traced = run_traced(workload, "lazypoline");
  if (!traced.completed) {
    std::fprintf(stderr, "dynamic-learning run did not complete\n");
    return false;
  }
  out->dynamic = policy::learn_from_sequence(traced.stream, workload);
  out->dynamic_complete = true;
  return true;
}

int cmd_extract(const std::string& workload, const PipelineOptions& opts) {
  Extracted ex;
  if (!extract_both(workload, opts, &ex)) return 1;
  std::printf("static extraction: %zu blocks, %zu syscall sites (%zu "
              "resolved: %zu block-local + %zu dataflow; %zu with argument "
              "constraints)\n",
              ex.static_ex.blocks, ex.static_ex.sites_total,
              ex.static_ex.sites_resolved,
              ex.static_ex.sites_resolved_blocklocal,
              ex.static_ex.sites_resolved_dataflow,
              ex.static_ex.predicated_sites);
  std::printf("wildcard edges: %zu, predicated edges: %zu\n\n",
              wildcard_edge_count(ex.static_ex.automaton),
              ex.static_ex.automaton.predicated_edge_count());
  print_automaton("static", ex.static_ex.automaton);
  if (opts.minimize) {
    const policy::MinimizeResult min =
        policy::minimize(ex.static_ex.automaton);
    std::printf("\nminimized: %zu -> %zu states (%zu behavior classes, %zu "
                "redundant edges dropped)\n",
                min.states_before, min.states_after, min.classes,
                min.edges_dropped);
  }
  std::printf("\n");
  print_automaton("dynamic", ex.dynamic);
  const bool contained = ex.static_ex.automaton.contains(ex.dynamic);
  std::printf("\nstatic contains dynamic: %s\n", contained ? "yes" : "NO");
  std::printf("precision: static %zu edges vs dynamic %zu edges (%zu "
              "over-approximated)\n",
              ex.static_ex.automaton.edge_count(), ex.dynamic.edge_count(),
              ex.static_ex.automaton.edge_count() >= ex.dynamic.edge_count()
                  ? ex.static_ex.automaton.edge_count() -
                        ex.dynamic.edge_count()
                  : 0);
  return contained ? 0 : 1;
}

int cmd_compile(const std::string& workload, const PipelineOptions& opts) {
  Extracted ex;
  if (!extract_both(workload, opts, &ex)) return 1;
  const std::uint32_t action =
      bpf::SECCOMP_RET_ERRNO | static_cast<std::uint32_t>(kern::kEPERM);

  // Unminimized baseline: the raw automaton, one program per state.
  policy::CompileOptions baseline_opts;
  baseline_opts.share_equivalent_states = false;
  baseline_opts.arg_predicates = opts.extract.arg_predicates;
  auto baseline = policy::compile_to_seccomp(ex.static_ex.automaton, action,
                                             baseline_opts);

  policy::Automaton lowered = ex.static_ex.automaton;
  if (opts.minimize) {
    const policy::MinimizeResult min = policy::minimize(lowered);
    lowered = min.automaton;
    std::printf("minimized %zu -> %zu states (%zu behavior classes, %zu "
                "redundant edges dropped)\n",
                min.states_before, min.states_after, min.classes,
                min.edges_dropped);
  }
  policy::CompileOptions compile_opts;
  compile_opts.share_equivalent_states = opts.minimize;
  compile_opts.arg_predicates = opts.extract.arg_predicates;
  auto compiled = policy::compile_to_seccomp(lowered, action, compile_opts);
  if (!compiled.is_ok()) {
    std::fprintf(stderr, "compile: %s\n",
                 compiled.status().to_string().c_str());
    return 1;
  }
  std::printf("%zu states in %zu shared seccomp-BPF programs, %zu cBPF "
              "instructions total",
              compiled.value().state_count(), compiled.value().class_count(),
              compiled.value().total_filter_insns());
  if (baseline.is_ok()) {
    std::printf(" (unminimized baseline: %zu programs, %zu instructions)",
                baseline.value().class_count(),
                baseline.value().total_filter_insns());
  }
  std::printf("\n\n%-24s %7s %8s %10s %9s %s\n", "class", "members",
              "allowed", "predicated", "wildcard", "filter insns");
  for (const policy::StatePolicy& sp : compiled.value().classes) {
    const std::string label =
        sp.state == policy::kEntryState
            ? "entry"
            : std::string(kern::syscall_name(sp.state));
    std::printf("%-24s %7zu %8zu %10zu %9s %zu\n", label.c_str(),
                sp.members.size(), sp.allowed.size(), sp.predicated.size(),
                sp.wildcard ? "yes" : "no", sp.filter.size());
  }
  std::printf("\n--- SUD / lazypoline allowlist config ---\n%s",
              policy::sud_allowlist_config(lowered).c_str());
  return 0;
}

policy::EnforcerOptions options_for(const std::string& verdict) {
  policy::EnforcerOptions options;
  if (verdict == "log") {
    options.verdict = policy::Verdict::kLogOnly;
  } else if (verdict == "kill") {
    options.verdict = policy::Verdict::kKill;
  } else {
    options.verdict = policy::Verdict::kDenyErrno;
  }
  return options;
}

void print_stats(const policy::EnforcerStats& stats) {
  std::printf("transitions checked: %llu\n",
              static_cast<unsigned long long>(stats.transitions_checked));
  std::printf("violations:          %llu (denied %llu, killed %llu, logged "
              "%llu)\n",
              static_cast<unsigned long long>(stats.violations),
              static_cast<unsigned long long>(stats.denied),
              static_cast<unsigned long long>(stats.killed),
              static_cast<unsigned long long>(stats.logged));
  std::printf("wildcard allows:     %llu\n",
              static_cast<unsigned long long>(stats.wildcard_allows));
  std::printf("always-allow (exit): %llu\n",
              static_cast<unsigned long long>(stats.always_allows));
  std::printf("cBPF insns executed: %llu\n",
              static_cast<unsigned long long>(stats.bpf_insns_executed));
}

int cmd_enforce(const std::string& mechanism, const std::string& workload,
                const std::string& verdict, const PipelineOptions& opts) {
  Extracted ex;
  if (!extract_both(workload, opts, &ex)) return 1;
  policy::Automaton enforced = ex.static_ex.automaton;
  if (opts.minimize) enforced = policy::minimize(enforced).automaton;
  policy::EnforcerOptions enforcer_opts = options_for(verdict);
  enforcer_opts.compile.share_equivalent_states = opts.minimize;
  enforcer_opts.compile.arg_predicates = opts.extract.arg_predicates;
  const EnforcedRun run =
      run_enforced(workload, mechanism, enforced, enforcer_opts);
  std::printf("%s under %s, verdict %s:\n", workload.c_str(),
              mechanism.c_str(), verdict.c_str());
  std::printf("completed: %s\n", run.completed ? "yes" : "NO");
  print_stats(run.stats);
  return run.completed && run.stats.violations == 0 ? 0 : 1;
}

// --- the acceptance gate -----------------------------------------------------

int cmd_gate(bool json, const PipelineOptions& opts) {
  bool ok = true;
  std::string failures;
  auto fail = [&](const std::string& what) {
    ok = false;
    failures += "  FAIL: " + what + "\n";
  };

  // 1. Extraction + containment: the sound static automaton must contain
  //    everything the webserver actually did.
  Extracted ex;
  if (!extract_both("webserver", opts, &ex)) return 2;
  if (!ex.static_ex.automaton.contains(ex.dynamic)) {
    fail("static automaton does not contain the dynamically learned one");
  }

  // 1a. Precision gates (dataflow on): every webserver site must resolve —
  //     the value-flow analysis picks up what the block-local scan cannot —
  //     which leaves the automaton with zero wildcard edges.
  const std::size_t wildcard_edges =
      wildcard_edge_count(ex.static_ex.automaton);
  if (opts.extract.dataflow) {
    if (ex.static_ex.sites_resolved != ex.static_ex.sites_total) {
      fail("webserver: only " +
           std::to_string(ex.static_ex.sites_resolved) + " of " +
           std::to_string(ex.static_ex.sites_total) + " sites resolved");
    }
    if (wildcard_edges != 0) {
      fail("webserver automaton has " + std::to_string(wildcard_edges) +
           " wildcard edges (expected 0 with dataflow on)");
    }
  }

  // 1b. Minimization gates: the minimized automaton must accept exactly the
  //     same language (contains in both directions) and must lower to no
  //     more cBPF instructions than the unminimized one-program-per-state
  //     baseline.
  const std::uint32_t action =
      bpf::SECCOMP_RET_ERRNO | static_cast<std::uint32_t>(kern::kEPERM);
  policy::CompileOptions baseline_opts;
  baseline_opts.share_equivalent_states = false;
  baseline_opts.arg_predicates = opts.extract.arg_predicates;
  auto baseline =
      policy::compile_to_seccomp(ex.static_ex.automaton, action,
                                 baseline_opts);
  std::size_t insns_unminimized = 0;
  if (baseline.is_ok()) {
    insns_unminimized = baseline.value().total_filter_insns();
  } else {
    fail("unminimized compile failed: " + baseline.status().to_string());
  }
  policy::Automaton enforced = ex.static_ex.automaton;
  policy::MinimizeResult min;
  std::size_t insns_minimized = insns_unminimized;
  if (opts.minimize) {
    min = policy::minimize(ex.static_ex.automaton);
    if (!min.automaton.contains(ex.static_ex.automaton) ||
        !ex.static_ex.automaton.contains(min.automaton)) {
      fail("minimization changed the accepted language");
    }
    policy::CompileOptions min_opts;
    min_opts.arg_predicates = opts.extract.arg_predicates;
    auto min_compiled =
        policy::compile_to_seccomp(min.automaton, action, min_opts);
    if (!min_compiled.is_ok()) {
      fail("minimized compile failed: " + min_compiled.status().to_string());
    } else {
      insns_minimized = min_compiled.value().total_filter_insns();
      if (baseline.is_ok() && insns_minimized > insns_unminimized) {
        fail("minimized policy larger than baseline: " +
             std::to_string(insns_minimized) + " > " +
             std::to_string(insns_unminimized) + " cBPF instructions");
      }
    }
    enforced = min.automaton;
  }
  policy::EnforcerOptions enforcer_opts = options_for("deny");
  enforcer_opts.compile.share_equivalent_states = opts.minimize;
  enforcer_opts.compile.arg_predicates = opts.extract.arg_predicates;

  // 2. The webserver must run violation-free under its own extracted policy
  //    (deny verdict — a single false violation would break the workload)
  //    on all four mechanisms. Enforcement runs the minimized, predicated
  //    policy, so a false argument constraint or an over-merged state would
  //    surface right here as a violation.
  std::map<std::string, policy::EnforcerStats> self_stats;
  for (const auto kind : scenario::kInterposers) {
    const std::string mechanism = scenario::to_string(kind);
    const EnforcedRun run =
        run_enforced("webserver", mechanism, enforced, enforcer_opts);
    self_stats[mechanism] = run.stats;
    if (!run.completed) fail("webserver hung under " + mechanism);
    if (run.stats.violations != 0) {
      fail("false violations under " + mechanism + " (" +
           std::to_string(run.stats.violations) + ")");
    }
    if (run.stats.transitions_checked == 0) {
      fail("enforcer saw no syscalls under " + mechanism);
    }
  }

  // 3. Adversarial corpus: profile seeds until 8 qualify — the program must
  //    complete with an identical syscall stream under all four mechanisms
  //    (so enforcement verdicts are comparable) and actually reach an
  //    off-policy syscall (getpid).
  std::vector<std::uint64_t> corpus;
  for (std::uint64_t seed = 1; seed <= 64 && corpus.size() < 8; ++seed) {
    TracedRun reference;
    bool qualified = true;
    for (const auto kind : scenario::kInterposers) {
      TracedRun traced = run_traced("", scenario::to_string(kind), seed,
                                    /*adversarial=*/true);
      if (!traced.completed) {
        qualified = false;
        break;
      }
      if (kind == scenario::kInterposers[0]) {
        reference = std::move(traced);
      } else if (traced.stream != reference.stream) {
        qualified = false;
        break;
      }
    }
    if (!qualified) continue;
    bool has_getpid = false;
    for (const auto& [tid, nr] : reference.stream) {
      if (nr == kern::kSysGetpid) has_getpid = true;
    }
    if (has_getpid) corpus.push_back(seed);
  }
  if (corpus.size() < 8) {
    fail("adversarial corpus: only " + std::to_string(corpus.size()) +
         " of 8 seeds qualified");
  }

  // 4. Every corpus program must be caught — at least one violation — under
  //    every mechanism, with identical violation counts across mechanisms.
  std::size_t caught = 0;
  for (const std::uint64_t seed : corpus) {
    std::uint64_t reference_violations = 0;
    bool first = true;
    bool seed_ok = true;
    for (const auto kind : scenario::kInterposers) {
      const std::string mechanism = scenario::to_string(kind);
      const EnforcedRun run = run_enforced("", mechanism, enforced,
                                           enforcer_opts, seed,
                                           /*adversarial=*/true);
      if (!run.completed) {
        fail("adversarial seed " + std::to_string(seed) + " hung under " +
             mechanism);
        seed_ok = false;
        continue;
      }
      if (run.stats.violations == 0) {
        fail("adversarial seed " + std::to_string(seed) +
             " escaped the policy under " + mechanism);
        seed_ok = false;
      }
      if (first) {
        reference_violations = run.stats.violations;
        first = false;
      } else if (run.stats.violations != reference_violations) {
        fail("verdict mismatch for seed " + std::to_string(seed) + " under " +
             mechanism + ": " + std::to_string(run.stats.violations) +
             " violations vs " + std::to_string(reference_violations));
        seed_ok = false;
      }
    }
    if (seed_ok) ++caught;
  }

  if (json) {
    std::printf("{\n");
    std::printf("  \"ok\": %s,\n", ok ? "true" : "false");
    std::printf("  \"static_edges\": %zu,\n",
                ex.static_ex.automaton.edge_count());
    std::printf("  \"static_states\": %zu,\n",
                ex.static_ex.automaton.state_count());
    std::printf("  \"dynamic_edges\": %zu,\n", ex.dynamic.edge_count());
    std::printf("  \"dynamic_states\": %zu,\n", ex.dynamic.state_count());
    std::printf("  \"sites_total\": %zu,\n", ex.static_ex.sites_total);
    std::printf("  \"sites_resolved\": %zu,\n", ex.static_ex.sites_resolved);
    std::printf("  \"sites_resolved_blocklocal\": %zu,\n",
                ex.static_ex.sites_resolved_blocklocal);
    std::printf("  \"sites_resolved_dataflow\": %zu,\n",
                ex.static_ex.sites_resolved_dataflow);
    std::printf("  \"predicated_edges\": %zu,\n",
                ex.static_ex.automaton.predicated_edge_count());
    std::printf("  \"wildcard_edges\": %zu,\n", wildcard_edges);
    std::printf("  \"minimized_states\": %zu,\n",
                opts.minimize ? min.states_after
                              : ex.static_ex.automaton.state_count());
    std::printf("  \"insns_unminimized\": %zu,\n", insns_unminimized);
    std::printf("  \"insns_minimized\": %zu,\n", insns_minimized);
    std::printf("  \"contains_dynamic\": %s,\n",
                ex.static_ex.automaton.contains(ex.dynamic) ? "true"
                                                            : "false");
    std::printf("  \"corpus_size\": %zu,\n", corpus.size());
    std::printf("  \"corpus_caught\": %zu,\n", caught);
    std::printf("  \"mechanisms\": {");
    bool first_mech = true;
    for (const auto& [mechanism, stats] : self_stats) {
      std::printf("%s\n    \"%s\": {\"transitions\": %llu, \"violations\": "
                  "%llu}",
                  first_mech ? "" : ",", mechanism.c_str(),
                  static_cast<unsigned long long>(stats.transitions_checked),
                  static_cast<unsigned long long>(stats.violations));
      first_mech = false;
    }
    std::printf("\n  }\n}\n");
  } else {
    std::printf("webserver: static %zu edges / %zu states, dynamic %zu "
                "edges / %zu states, containment %s\n",
                ex.static_ex.automaton.edge_count(),
                ex.static_ex.automaton.state_count(),
                ex.dynamic.edge_count(), ex.dynamic.state_count(),
                ex.static_ex.automaton.contains(ex.dynamic) ? "ok" : "BROKEN");
    std::printf("sites: %zu/%zu resolved (%zu block-local + %zu dataflow), "
                "%zu wildcard edges, %zu predicated edges\n",
                ex.static_ex.sites_resolved, ex.static_ex.sites_total,
                ex.static_ex.sites_resolved_blocklocal,
                ex.static_ex.sites_resolved_dataflow, wildcard_edges,
                ex.static_ex.automaton.predicated_edge_count());
    std::printf("lowering: %zu cBPF insns minimized vs %zu unminimized\n",
                insns_minimized, insns_unminimized);
    for (const auto& [mechanism, stats] : self_stats) {
      std::printf("  %-10s %llu transitions, %llu violations\n",
                  mechanism.c_str(),
                  static_cast<unsigned long long>(stats.transitions_checked),
                  static_cast<unsigned long long>(stats.violations));
    }
    std::printf("adversarial corpus: %zu programs, %zu caught under all four "
                "mechanisms with matching verdicts\n",
                corpus.size(), caught);
    if (!ok) std::printf("%s", failures.c_str());
    std::printf("policy gate: %s\n", ok ? "PASS" : "FAIL");
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  bool json = false;
  std::string verdict = "deny";
  PipelineOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg.rfind("--verdict=", 0) == 0) {
      verdict = arg.substr(10);
    } else if (arg == "--dataflow") {
      opts.extract.dataflow = true;
    } else if (arg == "--no-dataflow") {
      opts.extract.dataflow = false;
    } else if (arg == "--predicates") {
      opts.extract.arg_predicates = true;
    } else if (arg == "--no-predicates") {
      opts.extract.arg_predicates = false;
    } else if (arg == "--minimize") {
      opts.minimize = true;
    } else if (arg == "--no-minimize") {
      opts.minimize = false;
    } else {
      positional.push_back(arg);
    }
  }
  const std::string mode = positional.empty() ? "gate" : positional[0];
  if (mode == "extract") {
    return cmd_extract(positional.size() > 1 ? positional[1] : "webserver",
                       opts);
  }
  if (mode == "compile") {
    return cmd_compile(positional.size() > 1 ? positional[1] : "webserver",
                       opts);
  }
  if (mode == "enforce") {
    return cmd_enforce(positional.size() > 1 ? positional[1] : "lazypoline",
                       positional.size() > 2 ? positional[2] : "webserver",
                       verdict, opts);
  }
  if (mode == "gate") return cmd_gate(json, opts);
  std::fprintf(stderr,
               "usage: policy [extract|compile|enforce|gate] ... (see header "
               "comment)\n");
  return 2;
}
