// Record-mode overhead of the src/replay Recorder across the four
// interposition mechanisms, on the two application workloads (webserver,
// coreutils). rr's authors report that recording cost is dominated by the
// price of intercepting syscalls and nondeterministic inputs; this bench
// turns the Table-I mechanism comparison into exactly that end-to-end
// application number: the same Recorder driven by ptrace, SUD, zpoline, and
// lazypoline.
//
// Expected shape: the recorder itself adds a small per-event cost (trace
// framing + out-buffer copies), so record-mode overhead tracks the
// mechanism's interposition cost — ptrace-based recording costs multiples of
// native, lazypoline-based recording stays within a few percent.
//
//   ./build/bench/record_overhead [out.json]
//
// Emits an ASCII table per workload plus a JSON summary (default
// BENCH_record_overhead.json) for the perf trajectory.
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "apps/coreutils.hpp"
#include "apps/webserver.hpp"
#include "bench_util.hpp"
#include "metrics/report.hpp"
#include "replay/recorder.hpp"

namespace {
using namespace lzp;
using bench::write_json_report;

constexpr std::uint64_t kSeed = 0x1A5F'9E37ULL;
constexpr std::uint64_t kRequests = 600;
constexpr std::uint64_t kFileSize = 4096;

using Kind = scenario::Mechanism::Kind;

struct RunResult {
  std::uint64_t wall_cycles = 0;
  std::size_t trace_events = 0;  // 0 when not recording
};

// One webserver run (2 workers); wall time = the slowest worker, as in fig5.
RunResult run_webserver(Kind mech, bool record) {
  const scenario::Scenario spec{
      scenario::Web{apps::nginx_profile(), 2, kFileSize, 8, kRequests}, mech,
      /*cpus=*/1, kSeed};
  kern::Machine machine;
  auto recorder = std::make_shared<replay::Recorder>();
  if (record) {
    recorder->attach(machine, spec.seed, scenario::to_string(mech), "webserver");
  }
  const std::shared_ptr<interpose::SyscallHandler> handler =
      record ? std::static_pointer_cast<interpose::SyscallHandler>(recorder)
             : std::make_shared<interpose::DummyHandler>();
  RunResult result;
  result.wall_cycles = bench::run_scenario(spec, machine, handler).wall_cycles;
  if (record && recorder->uncaptured_nondeterminism()) {
    bench::die("record audit: " + recorder->audit_report().front());
  }
  if (record) result.trace_events = recorder->trace().events.size();
  return result;
}

// All ten coreutils (Ubuntu profile) back to back; cycles summed.
RunResult run_coreutils(Kind mech, bool record) {
  RunResult result;
  for (const std::string& name : apps::coreutil_names()) {
    kern::Machine machine;
    machine.mmap_min_addr = 0;
    auto recorder = std::make_shared<replay::Recorder>();
    if (record) recorder->attach(machine, kSeed, scenario::to_string(mech), name);
    const std::shared_ptr<interpose::SyscallHandler> handler =
        record ? std::static_pointer_cast<interpose::SyscallHandler>(recorder)
               : std::make_shared<interpose::DummyHandler>();

    apps::populate_coreutil_fixtures(machine.vfs());
    const auto program = bench::unwrap(
        apps::make_coreutil(name, apps::LibcProfile::kUbuntu2004),
        "build coreutil");
    machine.register_program(program);
    const kern::Tid tid = bench::unwrap(machine.load(program), "load coreutil");
    bench::check(scenario::install(mech, machine, tid, handler),
                 "install");

    const auto stats = machine.run();
    if (!stats.all_exited) bench::die(name + " hung: " + machine.last_fatal());
    if (record && recorder->uncaptured_nondeterminism()) {
      bench::die("record audit: " + recorder->audit_report().front());
    }
    result.wall_cycles += machine.find_task(tid)->cycles;
    if (record) result.trace_events += recorder->trace().events.size();
  }
  return result;
}

struct Row {
  std::string workload;
  std::string mechanism;
  std::uint64_t plain_cycles = 0;
  std::uint64_t record_cycles = 0;
  std::size_t trace_events = 0;
  double plain_x_native = 0.0;
  double record_x_native = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      argc > 1 ? argv[1] : "BENCH_record_overhead.json";
  std::vector<Row> rows;
  double ptrace_x = 0.0, lazypoline_x = 0.0;

  struct Workload {
    const char* name;
    RunResult (*run)(Kind, bool);
  };
  const Workload workloads[] = {{"webserver", run_webserver},
                                {"coreutils", run_coreutils}};

  std::printf("== Record-mode overhead: the same Recorder over four "
              "mechanisms ==\n\n");
  for (const auto& workload : workloads) {
    const std::uint64_t native = workload.run(Kind::kNative, false).wall_cycles;
    metrics::Table table({"mechanism", "plain cycles", "record cycles",
                          "plain x native", "record x native", "events"});
    for (Kind mech : scenario::kInterposers) {
      Row row;
      row.workload = workload.name;
      row.mechanism = scenario::to_string(mech);
      row.plain_cycles = workload.run(mech, false).wall_cycles;
      const RunResult rec = workload.run(mech, true);
      row.record_cycles = rec.wall_cycles;
      row.trace_events = rec.trace_events;
      row.plain_x_native =
          static_cast<double>(row.plain_cycles) / static_cast<double>(native);
      row.record_x_native =
          static_cast<double>(row.record_cycles) / static_cast<double>(native);
      table.add_row({row.mechanism, std::to_string(row.plain_cycles),
                     std::to_string(row.record_cycles),
                     metrics::ratio(row.plain_x_native),
                     metrics::ratio(row.record_x_native),
                     std::to_string(row.trace_events)});
      if (mech == Kind::kPtrace) ptrace_x += row.record_x_native;
      if (mech == Kind::kLazypoline) lazypoline_x += row.record_x_native;
      rows.push_back(std::move(row));
    }
    std::printf("-- %s (native baseline: %llu cycles) --\n%s\n", workload.name,
                static_cast<unsigned long long>(native),
                table.render().c_str());
  }

  std::vector<std::string> results;
  results.reserve(rows.size());
  for (const Row& row : rows) {
    results.push_back(metrics::JsonObject()
                          .add("workload", row.workload)
                          .add("mechanism", row.mechanism)
                          .add("plain_cycles", row.plain_cycles)
                          .add("record_cycles", row.record_cycles)
                          .add("plain_x_native", row.plain_x_native)
                          .add("record_x_native", row.record_x_native)
                          .add("trace_events",
                               static_cast<std::uint64_t>(row.trace_events))
                          .render());
  }
  write_json_report(json_path, "record_overhead", results);

  // Acceptance: lazypoline-based recording must beat the ptrace recorder.
  if (lazypoline_x >= ptrace_x) {
    std::fprintf(stderr,
                 "FAIL: lazypoline record overhead (%.2fx summed) not below "
                 "ptrace (%.2fx summed)\n",
                 lazypoline_x, ptrace_x);
    return 1;
  }
  std::printf("lazypoline record overhead %.2fx vs ptrace %.2fx (summed over "
              "workloads): OK\n",
              lazypoline_x / 2.0, ptrace_x / 2.0);
  return 0;
}
