// Web server tour: run the nginx-profile event-loop server against the
// closed-loop client, natively and under lazypoline, and compare throughput —
// a miniature of the paper's Figure 5 at a single grid point, with the
// interposition statistics exposed.
//
// Build & run:  cmake --build build && ./build/examples/webserver_tour
#include <cstdio>

#include "kernel/machine.hpp"
#include "scenario/scenario.hpp"

using namespace lzp;

namespace {

struct RunOutcome {
  double rps = 0;
  std::uint64_t syscalls = 0;
  std::uint64_t slow_path = 0;
  std::uint64_t fast_path = 0;
};

RunOutcome serve(bool interposed, std::uint64_t file_size,
                 std::uint64_t requests) {
  const scenario::Scenario spec{
      scenario::Web{apps::nginx_profile(), 1, file_size, 36, requests},
      interposed ? scenario::Mechanism::Kind::kLazypoline
                 : scenario::Mechanism::Kind::kNative};
  kern::Machine machine;
  RunOutcome outcome;
  auto instance = scenario::build(spec, machine,
                                  std::make_shared<interpose::DummyHandler>());
  auto run = instance.is_ok()
                 ? scenario::run(spec, machine, instance.value())
                 : Result<scenario::Outcome>(instance.status());
  if (!run.is_ok()) {
    std::fprintf(stderr, "%s\n", run.status().to_string().c_str());
    return outcome;
  }
  const kern::Task* task = machine.find_task(instance.value().workers.front());
  outcome.rps = static_cast<double>(requests) /
                (static_cast<double>(run.value().wall_cycles) / 2.1e9);
  outcome.syscalls = task->syscalls_dispatched;
  for (const auto& runtime : instance.value().runtimes) {
    outcome.slow_path = runtime->stats().slow_path_hits;
    outcome.fast_path = runtime->stats().fast_path_hits();
  }
  return outcome;
}

}  // namespace

int main() {
  constexpr std::uint64_t kFileSize = 4096;
  constexpr std::uint64_t kRequests = 1000;

  std::printf("serving %llu requests of a %llu-byte file (nginx profile)\n\n",
              static_cast<unsigned long long>(kRequests),
              static_cast<unsigned long long>(kFileSize));

  const RunOutcome native = serve(false, kFileSize, kRequests);
  const RunOutcome lazy = serve(true, kFileSize, kRequests);

  std::printf("native:     %8.0f req/s  (%llu syscalls)\n", native.rps,
              static_cast<unsigned long long>(native.syscalls));
  std::printf("lazypoline: %8.0f req/s  (%.2f%% of native)\n", lazy.rps,
              100.0 * lazy.rps / native.rps);
  std::printf("\nlazypoline interposed every one of those syscalls:\n");
  std::printf("  slow path (first use of each site): %llu\n",
              static_cast<unsigned long long>(lazy.slow_path));
  std::printf("  fast path (rewritten sites):        %llu\n",
              static_cast<unsigned long long>(lazy.fast_path));
  std::printf("\nThe handful of slow-path hits amortize over the whole run —\n"
              "that is the paper's hybrid design working as intended.\n");
  return lazy.rps > 0.85 * native.rps ? 0 : 1;
}
