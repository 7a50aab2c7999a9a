// Accuracy + throughput gate for the static rewrite-safety analyzer.
//
// Runs the CFG analyzer and the two classic scanners (raw byte scan, linear
// sweep) over a corpus of randomized adversarial programs (0F 05 immediates,
// data islands, desync headers, jump-into-window gadgets — see
// analysis/fuzz_programs.hpp) and scores every strategy against assembler
// ground truth. Gates:
//
//   * soundness: ZERO SAFE false positives across the whole corpus — a
//     single one means the verified-eager rewriter would corrupt code;
//   * usefulness: the SAFE set is non-empty and strictly more precise than
//     the raw byte scan (fewer would-be-corrupting rewrites);
//   * bait coverage: the corpus actually makes the raw scan misfire, so the
//     soundness gate is not vacuous;
//   * throughput: analysis runs at >= 1 MB/s of text — eager verification
//     must stay negligible next to program load.
//
//   ./build/bench/analysis_accuracy [out.json]
//
// Emits an ASCII table plus a JSON summary (default BENCH_analysis.json).
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/fuzz_programs.hpp"
#include "analysis/report.hpp"
#include "bench_util.hpp"
#include "disasm/scanner.hpp"
#include "policy/extract.hpp"

namespace {
using namespace lzp;

constexpr std::uint64_t kCorpusSeed = 0xA11A;
constexpr int kCorpusSize = 40;
constexpr int kThroughputPasses = 50;
constexpr double kMinMbPerSec = 1.0;
constexpr std::uint64_t kPrecisionSeed = 0xDF01;
constexpr int kPerKind = 8;

// Records every interposed invocation with its site address for comparison
// against the static resolutions (the dynamic-falsification leg).
struct SiteRecorder final : interpose::SyscallHandler {
  struct Observation {
    std::uint64_t site = 0;
    std::uint64_t nr = 0;
    std::array<std::uint64_t, 6> args{};
  };
  std::vector<Observation> observations;

  std::uint64_t handle(interpose::InterposeContext& ctx) override {
    observations.push_back(
        {ctx.request().site, ctx.request().nr, ctx.request().args});
    return ctx.pass_through();
  }
  [[nodiscard]] std::string name() const override { return "site-recorder"; }
};

struct PrecisionTotals {
  std::size_t programs = 0;
  std::size_t sites_total = 0;
  std::size_t resolved_local = 0;     // dataflow OFF (block-local only)
  std::size_t resolved_dataflow = 0;  // dataflow ON (both tiers)
  std::size_t dataflow_only = 0;      // sites only the value-flow tier got
  std::size_t predicated_sites = 0;
  std::size_t observations = 0;
  std::size_t misresolutions = 0;     // dynamically falsified static claims
  std::size_t dominance_breaks = 0;   // local resolved a site dataflow lost
  std::size_t programs_without_crossblock = 0;
};

// One observed invocation against the static site table: the observed number
// must be a member of the site's resolved set and the observed argument
// words must satisfy every constraint of the site's clause.
bool observation_consistent(const policy::SiteResolution& site,
                            const SiteRecorder::Observation& obs) {
  if (!site.resolved()) return true;  // no claim to falsify
  if (site.nrs.count(obs.nr) == 0) return false;
  for (const policy::ArgConstraint& constraint : site.clause) {
    if (constraint.values.count(obs.args[constraint.arg]) == 0) return false;
  }
  return true;
}

void score_precision(const isa::Program& program, bool expect_predicates,
                     PrecisionTotals& totals) {
  policy::ExtractOptions local_only;
  local_only.dataflow = false;
  const policy::StaticExtraction local =
      policy::extract_static(program, local_only);
  const policy::StaticExtraction flow = policy::extract_static(program);

  ++totals.programs;
  totals.sites_total += flow.sites_total;
  totals.resolved_local += local.sites_resolved;
  totals.resolved_dataflow += flow.sites_resolved;
  totals.dataflow_only += flow.sites_resolved_dataflow;
  totals.predicated_sites += flow.predicated_sites;
  if (flow.sites_resolved_dataflow == 0) ++totals.programs_without_crossblock;
  if (expect_predicates && flow.predicated_sites == 0) {
    bench::die("no argument predicates extracted from " + program.name);
  }

  // Dominance: everything the local scan resolved, the two-tier pipeline
  // must resolve to the same set (the local tier runs first, so a break
  // here means the pipeline lost information).
  for (std::size_t i = 0; i < local.sites.size(); ++i) {
    if (!local.sites[i].resolved()) continue;
    if (i >= flow.sites.size() ||
        flow.sites[i].addr != local.sites[i].addr ||
        flow.sites[i].nrs != local.sites[i].nrs) {
      ++totals.dominance_breaks;
    }
  }

  // Dynamic falsification: run the program for real and check every
  // observed (site, nr, args) tuple against the static claims.
  auto recorder = std::make_shared<SiteRecorder>();
  bench::run_cycles(program, [&](kern::Machine& machine, kern::Tid tid) {
    bench::check(scenario::install(scenario::Mechanism::Kind::kSud, machine,
                                   tid, recorder),
                 "sud install");
  });
  for (const SiteRecorder::Observation& obs : recorder->observations) {
    if (obs.site == 0) continue;  // mechanism did not know the site
    ++totals.observations;
    bool found = false;
    for (const policy::SiteResolution& site : flow.sites) {
      if (site.addr != obs.site) continue;
      found = true;
      if (!observation_consistent(site, obs)) ++totals.misresolutions;
      break;
    }
    if (!found) ++totals.misresolutions;  // reachable site the CFG missed
  }
}

struct StrategyTotals {
  std::string name;
  std::size_t reported = 0;
  std::size_t true_positives = 0;
  std::size_t false_positives = 0;
  std::size_t missed = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_analysis.json";

  Xoshiro256 seeder(kCorpusSeed);
  std::vector<isa::Program> corpus;
  corpus.reserve(kCorpusSize);
  std::size_t corpus_bytes = 0;
  for (int i = 0; i < kCorpusSize; ++i) {
    corpus.push_back(analysis::make_adversarial_program(seeder.next()));
    corpus_bytes += corpus.back().image.size();
  }

  StrategyTotals raw{"raw byte scan"};
  StrategyTotals sweep{"linear sweep"};
  StrategyTotals analyzer{"cfg analyzer (SAFE)"};
  std::size_t verdict_counts[analysis::kNumVerdicts] = {};
  std::vector<std::string> unsound_seeds;

  for (const isa::Program& program : corpus) {
    const auto score = [&](disasm::Strategy strategy, StrategyTotals& totals) {
      const auto scan = disasm::scan(program.image, program.base, strategy);
      const auto acc = disasm::evaluate(scan, program);
      totals.reported += scan.syscall_sites.size();
      totals.true_positives += acc.true_positives.size();
      totals.false_positives += acc.false_positives.size();
      totals.missed += acc.missed.size();
    };
    score(disasm::Strategy::kRawBytes, raw);
    score(disasm::Strategy::kLinearSweep, sweep);

    const auto result =
        analysis::analyze(program.image, program.base, program.entry);
    for (const auto& site : result.sites) {
      ++verdict_counts[static_cast<std::size_t>(site.verdict)];
    }
    const auto acc = analysis::evaluate(result, program);
    analyzer.reported += acc.safe_true.size() + acc.safe_false.size();
    analyzer.true_positives += acc.safe_true.size();
    analyzer.false_positives += acc.safe_false.size();
    analyzer.missed += acc.not_eager.size();
    if (!acc.sound()) unsound_seeds.push_back(program.name);
  }

  const auto start = std::chrono::steady_clock::now();
  for (int pass = 0; pass < kThroughputPasses; ++pass) {
    for (const isa::Program& program : corpus) {
      const auto result =
          analysis::analyze(program.image, program.base, program.entry);
      if (result.sites.empty() && !program.ground_truth.empty()) {
        bench::die("throughput pass produced an empty analysis");
      }
    }
  }
  const auto end = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(end - start).count();
  const double analyzed_bytes =
      static_cast<double>(corpus_bytes) * kThroughputPasses;
  const double mb_per_sec = analyzed_bytes / 1e6 / (seconds > 0 ? seconds : 1e-9);

  std::printf("corpus: %d programs, %zu bytes of text\n\n", kCorpusSize,
              corpus_bytes);
  std::printf("  %-22s %8s %8s %8s %8s\n", "strategy", "reported", "true+",
              "false+", "missed");
  for (const StrategyTotals* totals : {&raw, &sweep, &analyzer}) {
    std::printf("  %-22s %8zu %8zu %8zu %8zu\n", totals->name.c_str(),
                totals->reported, totals->true_positives,
                totals->false_positives, totals->missed);
  }
  std::printf("\nverdicts: safe=%zu jump=%zu overlap=%zu unknown=%zu\n",
              verdict_counts[0], verdict_counts[1], verdict_counts[2],
              verdict_counts[3]);
  std::printf("throughput: %.1f MB/s (%d passes, %.3fs)\n", mb_per_sec,
              kThroughputPasses, seconds);

  // --- extraction precision: block-local vs value-flow ----------------------
  PrecisionTotals precision;
  Xoshiro256 precision_seeder(kPrecisionSeed);
  for (int i = 0; i < kPerKind; ++i) {
    score_precision(
        analysis::make_cross_block_constant_program(precision_seeder.next()),
        /*expect_predicates=*/false, precision);
    score_precision(
        analysis::make_join_point_conflict_program(precision_seeder.next()),
        /*expect_predicates=*/false, precision);
    score_precision(
        analysis::make_arg_constant_program(precision_seeder.next()),
        /*expect_predicates=*/true, precision);
  }
  std::printf(
      "\nextraction precision (%zu cross-block programs, %zu sites):\n"
      "  block-local resolved %zu, with value-flow %zu (+%zu cross-block), "
      "%zu predicated sites\n"
      "  dynamic check: %zu observations, %zu misresolutions, "
      "%zu dominance breaks\n",
      precision.programs, precision.sites_total, precision.resolved_local,
      precision.resolved_dataflow, precision.dataflow_only,
      precision.predicated_sites, precision.observations,
      precision.misresolutions, precision.dominance_breaks);

  std::vector<std::string> rows;
  for (const StrategyTotals* totals : {&raw, &sweep, &analyzer}) {
    metrics::JsonObject row;
    row.add("strategy", totals->name);
    row.add("reported", static_cast<std::uint64_t>(totals->reported));
    row.add("true_positives", static_cast<std::uint64_t>(totals->true_positives));
    row.add("false_positives",
            static_cast<std::uint64_t>(totals->false_positives));
    row.add("missed", static_cast<std::uint64_t>(totals->missed));
    rows.push_back(row.render());
  }
  metrics::JsonObject flow;
  flow.add("strategy", "dataflow precision");
  flow.add("programs", static_cast<std::uint64_t>(precision.programs));
  flow.add("sites_total", static_cast<std::uint64_t>(precision.sites_total));
  flow.add("resolved_blocklocal",
           static_cast<std::uint64_t>(precision.resolved_local));
  flow.add("resolved_dataflow",
           static_cast<std::uint64_t>(precision.resolved_dataflow));
  flow.add("resolved_dataflow_only",
           static_cast<std::uint64_t>(precision.dataflow_only));
  flow.add("predicated_sites",
           static_cast<std::uint64_t>(precision.predicated_sites));
  flow.add("dynamic_observations",
           static_cast<std::uint64_t>(precision.observations));
  flow.add("misresolutions",
           static_cast<std::uint64_t>(precision.misresolutions));
  rows.push_back(flow.render());

  metrics::JsonObject perf;
  perf.add("strategy", "throughput");
  perf.add("corpus_programs", static_cast<std::uint64_t>(kCorpusSize));
  perf.add("corpus_bytes", static_cast<std::uint64_t>(corpus_bytes));
  perf.add("passes", static_cast<std::uint64_t>(kThroughputPasses));
  perf.add("seconds", seconds);
  perf.add("mb_per_sec", mb_per_sec);
  rows.push_back(perf.render());
  bench::write_json_report(out_path, "analysis_accuracy", rows);

  // --- gates ---------------------------------------------------------------
  if (!unsound_seeds.empty()) {
    std::string list;
    for (const auto& name : unsound_seeds) list += " " + name;
    bench::die("SAFE false positive(s) in:" + list);
  }
  if (analyzer.true_positives == 0) {
    bench::die("analyzer proved no site SAFE — corpus or analyzer broken");
  }
  if (raw.false_positives == 0) {
    bench::die("corpus produced no raw-scan false positives — baits missing");
  }
  if (analyzer.false_positives >= raw.false_positives) {
    bench::die("analyzer is not more precise than the raw byte scan");
  }
  if (mb_per_sec < kMinMbPerSec) {
    bench::die("analysis throughput below " + std::to_string(kMinMbPerSec) +
               " MB/s");
  }
  if (precision.misresolutions != 0) {
    bench::die("value-flow extraction made dynamically falsified claims");
  }
  if (precision.dominance_breaks != 0) {
    bench::die("two-tier resolution lost block-local resolutions");
  }
  if (precision.resolved_dataflow <= precision.resolved_local) {
    bench::die("value-flow analysis does not strictly dominate block-local");
  }
  if (precision.programs_without_crossblock != 0) {
    bench::die("a cross-block corpus program had no dataflow-resolved site");
  }
  std::printf("\nanalysis_accuracy: all gates passed\n");
  return 0;
}
