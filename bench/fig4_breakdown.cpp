// Reproduces Figure 4: lazypoline's overhead breakdown on the
// microbenchmark. The figure decomposes the total overhead into:
//
//   baseline  ->  + zpoline-style rewriting (the fast path itself)
//             ->  + enabling SUD (the exhaustiveness guarantee's kernel cost)
//             ->  + xstate preservation (ABI compliance)
//
// and shows that with SUD disabled, lazypoline's fast path matches zpoline
// exactly ("the overhead labeled as 'enabling SUD' precisely represents the
// added cost of our exhaustiveness guarantee over prior work").
#include <cstdio>

#include "bench_util.hpp"
#include "metrics/report.hpp"

namespace {
using namespace lzp;
using scenario::Mechanism;
constexpr std::uint64_t kIterations = 50'000;

double cycles_under(const Mechanism& mechanism) {
  return static_cast<double>(
      bench::run_scenario({scenario::Loop{kIterations}, mechanism})
          .wall_cycles);
}
}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_fig4.json";
  const double baseline = cycles_under({});
  const double zpoline = cycles_under({Mechanism::Kind::kZpoline});
  const double lazy_no_sud = cycles_under(
      bench::steady_lazypoline(core::XstateMode::kNone, /*use_sud=*/false));
  const double lazy_no_xstate =
      cycles_under(bench::steady_lazypoline(core::XstateMode::kNone));
  const double lazy_full =
      cycles_under(bench::steady_lazypoline(core::XstateMode::kFull));

  std::printf("== Figure 4: lazypoline overhead breakdown ==\n\n");
  metrics::Table table({"Component", "Cycles/run", "Cumulative overhead"});
  auto row = [&](const char* name, double cycles) {
    table.add_row({name, metrics::ratio(cycles / baseline, 3),
                   metrics::percent(100.0 * (cycles - baseline) / baseline, 1)});
  };
  row("baseline (native syscall 500)", baseline);
  row("+ rewriting to fast path (== zpoline)", lazy_no_sud);
  row("+ enabling SUD (exhaustiveness)", lazy_no_xstate);
  row("+ xstate preservation (full ABI)", lazy_full);
  std::printf("%s\n", table.render().c_str());

  const double fast_vs_zpoline = lazy_no_sud / zpoline;
  std::printf("fast path (SUD off) vs zpoline: %.4fx  (paper: identical)\n",
              fast_vs_zpoline);
  std::printf("'enabling SUD' component:       +%.1f%% of baseline\n",
              100.0 * (lazy_no_xstate - lazy_no_sud) / baseline);
  std::printf("'xstate preservation' component: +%.1f%% of baseline "
              "(the majority of lazypoline's overhead, as in the paper)\n",
              100.0 * (lazy_full - lazy_no_xstate) / baseline);

  std::vector<std::string> rows;
  for (const auto& [name, cycles] :
       {std::pair{"baseline", baseline}, std::pair{"zpoline", zpoline},
        std::pair{"lazypoline without SUD", lazy_no_sud},
        std::pair{"lazypoline without xstate", lazy_no_xstate},
        std::pair{"lazypoline", lazy_full}}) {
    rows.push_back(metrics::JsonObject()
                       .add("component", name)
                       .add("iterations", kIterations)
                       .add("cycles", static_cast<std::uint64_t>(cycles))
                       .render());
  }
  bench::write_json_report(json_path, "fig4_breakdown", rows);
  return 0;
}
