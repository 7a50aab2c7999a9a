// trace_dump — the always-on tracing front-end (src/trace). Runs a workload
// under one interposition mechanism with a Tracer attached, prints the
// metrics-registry summary, and writes a Chrome trace-event JSON file that
// loads directly into Perfetto (ui.perfetto.dev) or chrome://tracing: one
// track per simulated task, one span per interposed syscall with the
// mechanism as its category, instants for site rewrites, SIGSYS deliveries,
// and selector flips.
//
//   ./build/examples/trace_dump [mechanism] [workload] [out.json] [--policy]
//       mechanism: lazypoline (default) | sud | zpoline | ptrace
//       workload:  webserver (default)  | getpid-loop
//       --policy:  enforce the workload's statically extracted syscall-flow
//                  automaton (src/policy) during the run — the summary then
//                  shows the per-state policy counter table, and after the
//                  run the flight-recorder ring is fed back into the dynamic
//                  learner to compare against the static automaton.
//
// Build & run:  cmake --build build && ./build/examples/trace_dump
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "kernel/machine.hpp"
#include "policy/enforce.hpp"
#include "policy/extract.hpp"
#include "policy/from_flight_recorder.hpp"
#include "trace/export.hpp"
#include "trace/tracer.hpp"
#include "workloads.hpp"

using namespace lzp;

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  bool policy_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--policy") {
      policy_mode = true;
    } else {
      positional.emplace_back(argv[i]);
    }
  }
  const std::string mechanism = positional.size() > 0 ? positional[0] : "lazypoline";
  const std::string workload = positional.size() > 1 ? positional[1] : "webserver";
  const std::string out_path = positional.size() > 2 ? positional[2] : "trace.json";

  trace::Tracer tracer;
  kern::Machine machine;
  // Attach before install so mechanism arming (selector writes, site
  // rewrites) lands in the trace too.
  tracer.attach(machine);

  std::shared_ptr<interpose::SyscallHandler> handler =
      std::make_shared<interpose::DummyHandler>();
  policy::StaticExtraction extraction;
  std::shared_ptr<policy::PolicyEnforcer> enforcer;
  if (policy_mode) {
    // The enforcer wraps the handler before the traced machine loads the
    // workload, so extract from the same program built on a scratch machine.
    kern::Machine scratch;
    isa::Program program;
    if (!examples::load_workload(scratch, workload, "native", nullptr,
                                 &program)) {
      return 1;
    }
    extraction = policy::extract_static(program);
    auto created =
        policy::PolicyEnforcer::create(extraction.automaton, {}, handler);
    if (!created.is_ok()) {
      std::fprintf(stderr, "policy enforcer: %s\n",
                   created.status().to_string().c_str());
      return 1;
    }
    enforcer = created.value();
    handler = enforcer;
  }
  if (!examples::load_workload(machine, workload, mechanism, handler)) return 1;

  const auto stats = machine.run(400'000'000ULL);
  if (!stats.all_exited) {
    std::fprintf(stderr, "workload hung: %s\n", machine.last_fatal().c_str());
    return 1;
  }

  std::printf("%s under %s: %llu machine steps\n\n", workload.c_str(),
              mechanism.c_str(), static_cast<unsigned long long>(stats.insns));
  std::printf("%s", trace::render_summary(tracer).c_str());

  if (policy_mode) {
    // Close the loop: the ring the tracer just filled is itself a dynamic
    // policy source. Learn from it and compare with the enforced (static)
    // automaton.
    const policy::Automaton learned =
        policy::learn_from_flight_recorder(tracer.ring(), workload);
    const policy::EnforcerStats pstats = enforcer->stats();
    std::printf("\n== policy pipeline ==\n");
    std::printf("enforced (static):  %zu states, %zu edges\n",
                extraction.automaton.state_count(),
                extraction.automaton.edge_count());
    std::printf("learned from ring:  %zu states, %zu edges (%llu events "
                "dropped by the ring)\n",
                learned.state_count(), learned.edge_count(),
                static_cast<unsigned long long>(tracer.ring().dropped()));
    std::printf("static contains learned: %s\n",
                extraction.automaton.contains(learned) ? "yes" : "NO");
    std::printf("enforcer: %llu transitions, %llu violations\n",
                static_cast<unsigned long long>(pstats.transitions_checked),
                static_cast<unsigned long long>(pstats.violations));
  }

  std::ofstream out(out_path);
  out << trace::export_chrome_json(tracer);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nperfetto json -> %s (load at ui.perfetto.dev)\n",
              out_path.c_str());
  return 0;
}
