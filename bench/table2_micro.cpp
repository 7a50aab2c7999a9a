// Reproduces Table II: microbenchmarking overhead compared to baseline.
//
// Paper methodology (§V-B): interpose a non-existent syscall (number 500)
// 100M times; report geomean overhead over baseline across 10 repeats and
// the maximal standard deviation. We scale the iteration count down and run
// each configuration once: the simulator's cost model is cycle-deterministic,
// so repeats are bit-identical (stddev exactly 0) and precision does not
// depend on run length.
//
//   ./build/bench/table2_micro [out.json]
//
// Emits the table plus every configuration's exact simulated cycles
// (default BENCH_table2.json), pinned by scripts/bench_diff.py.
//
// Paper reference values:        ours should land on:
//   zpoline                ~1.2x   (value corrupted in the source text)
//   lazypoline w/o xstate  1.66x
//   lazypoline             2.38x
//   SUD                    20.8x
//   baseline + SUD enabled 1.42x
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "metrics/report.hpp"

namespace {

using namespace lzp;
using scenario::Mechanism;

constexpr std::uint64_t kIterations = 50'000;

std::uint64_t cycles_under(const Mechanism& mechanism) {
  return bench::run_scenario({scenario::Loop{kIterations}, mechanism})
      .wall_cycles;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_table2.json";
  const std::uint64_t baseline = cycles_under({});

  const std::vector<std::pair<std::string, Mechanism>> configs = {
      {"zpoline", {Mechanism::Kind::kZpoline}},
      {"lazypoline without xstate preservation",
       bench::steady_lazypoline(core::XstateMode::kNone)},
      {"lazypoline", bench::steady_lazypoline(core::XstateMode::kFull)},
      {"SUD", {Mechanism::Kind::kSud}},
      {"baseline with SUD enabled (selector=ALLOW)",
       {Mechanism::Kind::kSudAllow}},
  };

  std::printf("== Table II: microbenchmark overhead vs baseline ==\n");
  std::printf("(%llu x syscall(500); baseline %llu cycles/run)\n\n",
              static_cast<unsigned long long>(kIterations),
              static_cast<unsigned long long>(baseline));

  metrics::Table table({"Configuration", "Overhead", "Paper"});
  const char* paper_values[] = {"~1.2x", "1.66x", "2.38x", "20.8x", "1.42x"};
  auto json_row = [](const std::string& name, std::uint64_t cycles) {
    return metrics::JsonObject()
        .add("config", name)
        .add("iterations", kIterations)
        .add("cycles", cycles)
        .render();
  };
  std::vector<std::string> rows = {json_row("baseline", baseline)};

  int index = 0;
  for (const auto& [name, mechanism] : configs) {
    const std::uint64_t cycles = cycles_under(mechanism);
    table.add_row({name,
                   metrics::ratio(static_cast<double>(cycles) /
                                  static_cast<double>(baseline)),
                   paper_values[index]});
    rows.push_back(json_row(name, cycles));
    ++index;
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("The simulator's cost model is deterministic, so every repeat "
              "is exact\n(paper: standard deviation below 0.19%%).\n");
  bench::write_json_report(json_path, "table2_micro", rows);
  return 0;
}
