// Reproduces Figure 5: throughput impact of interposition on web servers
// serving static content of different sizes, with 1 and 12 workers.
//
// Setup mirrors §V-B: a wrk-style client with 36 keepalive connections
// continuously requests the same static resource; server and client share
// the machine ("localhost"), so the workload is maximally syscall-intensive.
// Mechanisms: baseline (native), zpoline, lazypoline without xstate
// preservation, lazypoline (full), and a typical SUD deployment. The
// lazypoline runs include the live slow-path discovery (no pre-rewriting):
// the macrobenchmark evaluates exactly that aggregated cost.
//
// Expected shape (paper): in the worst single-worker case lazypoline w/o
// xstate keeps ~95% of baseline (within ~2-4pp of zpoline); xstate costs at
// most ~5pp more; SUD loses roughly half the throughput at small sizes and
// is still noticeable at 256K; gaps shrink as the file size grows; with 12
// workers the client/loopback becomes the bottleneck and the fast
// mechanisms converge.
#include <chrono>
#include <cstdio>

#include "base/stats.hpp"
#include "base/strings.hpp"
#include "bench_util.hpp"
#include "metrics/report.hpp"
#include "trace/metrics_registry.hpp"

namespace {
using namespace lzp;

constexpr double kGhz = 2.1;
constexpr std::uint64_t kRequests = 2400;
// Peak request rate the 36-thread client + loopback stack can sustain
// (requests/s); caps multi-worker results like the real testbed.
constexpr double kClientCapRps = 220'000.0;

using scenario::Mechanism;

// A mechanism column: its row label in the tables and BENCH JSON.
struct Column {
  const char* name;
  Mechanism mechanism;
};
const Column kBaseline{"baseline", Mechanism::Kind::kNative};
const Column kZpoline{"zpoline", Mechanism::Kind::kZpoline};
const Column kLazyNoX{"lazypoline-nox",
                      bench::unwrap(scenario::parse_mechanism("lazypoline-nox"),
                                    "mechanism")};
const Column kLazyFull{"lazypoline", Mechanism::Kind::kLazypoline};
const Column kSud{"sud", Mechanism::Kind::kSud};

// Block-cache counters accumulated across every simulated run, reported at
// the end so the figure's wall-clock cost is attributable (hit rate of the
// simulator hot loop, and how often the lazypoline/zpoline rewrites
// invalidated cached blocks).
cpu::BlockCacheStats g_bcache_totals;

// SMP scheduler telemetry accumulated across every run_smp via the shared
// counter surface (trace/metrics_registry.hpp is header-only, so this costs
// no extra link dependency). Reported at the end of --cpus=N mode — the fix
// for SmpStats having been accumulated but never surfaced.
trace::MetricsRegistry g_smp_metrics;

void accumulate_bcache(const kern::Machine& machine) {
  const cpu::BlockCacheStats blocks = machine.block_cache_totals();
  g_bcache_totals.hits += blocks.hits;
  g_bcache_totals.misses += blocks.misses;
  g_bcache_totals.invalidations += blocks.invalidations;
  g_bcache_totals.flushes += blocks.flushes;
  g_bcache_totals.blocks_built += blocks.blocks_built;
}

struct GridRun {
  std::uint64_t wall_cycles = 0;  // the slowest worker's simulated cycles
  double rps = 0.0;               // client-capped requests/s
};

GridRun run_one(const apps::ServerProfile& profile, std::uint64_t file_size,
                unsigned workers, const Mechanism& mechanism) {
  const scenario::Scenario spec{
      scenario::Web{profile, workers, file_size, 36, kRequests}, mechanism};
  kern::Machine machine;
  const scenario::Outcome outcome = bench::run_scenario(spec, machine);
  accumulate_bcache(machine);

  // Workers run on dedicated cores: wall time = the slowest worker.
  const double seconds =
      static_cast<double>(outcome.wall_cycles) / (kGhz * 1e9);
  const double rps = static_cast<double>(kRequests) / seconds;
  return {outcome.wall_cycles, std::min(rps, kClientCapRps)};
}

// --- SMP mode (--cpus=N) ----------------------------------------------------
//
// The datacenter-scale variant: N independent worker processes, each with its
// own SO_REUSEPORT-style listener (private request budget, 4 keepalive
// connections), executed on a simulated N'-CPU machine via run_smp. Because
// every worker is a separate process with a private listener, the workload is
// embarrassingly parallel and the deterministic rebalancer spreads the
// single-task gang groups evenly; simulated wall time is the slowest CPU's
// worker, so interposition overhead dilutes as workers scale out.

struct SmpRun {
  double rps = 0.0;        // simulated requests/s, client-capped like the
                           // testbed: past the cap mechanisms converge
  double host_ms = 0.0;    // host wall time of machine.run_smp
  std::uint64_t shootdowns = 0;
  std::uint64_t steals = 0;
  std::uint64_t barriers = 0;
  std::uint64_t mailbox_signals = 0;
  std::uint64_t inline_phases = 0;    // host-dependent (SmpStats::host_*)
  std::uint64_t parallel_phases = 0;
};

SmpRun run_one_smp(const apps::ServerProfile& profile, std::uint64_t file_size,
                   unsigned workers, const Mechanism& mechanism,
                   unsigned cpus) {
  // Total request volume stays ~kRequests; each worker owns an equal share
  // (floor of 8 so the 256-worker point still exercises every worker).
  const std::uint64_t per_worker =
      std::max<std::uint64_t>(kRequests / workers, 8);
  const scenario::Scenario spec{
      scenario::Web{profile, workers, file_size, 4, per_worker,
                    /*shared_listener=*/false},
      mechanism, cpus, /*seed=*/42};
  kern::Machine machine;
  const auto instance = bench::unwrap(
      scenario::build(spec, machine,
                      std::make_shared<interpose::DummyHandler>()),
      "build");
  const auto start = std::chrono::steady_clock::now();
  const auto outcome =
      bench::unwrap(scenario::run(spec, machine, instance), "run");
  const auto end = std::chrono::steady_clock::now();
  accumulate_bcache(machine);

  // Simulated wall time = the busiest simulated CPU: co-resident workers
  // timeshare it, and each CPU runs its share in parallel with the others.
  SmpRun out;
  const double seconds =
      static_cast<double>(outcome.wall_cycles) / (kGhz * 1e9);
  out.rps = std::min(static_cast<double>(per_worker * workers) / seconds,
                     kClientCapRps);
  out.host_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  out.shootdowns = outcome.smp.shootdowns;
  out.steals = outcome.smp.steals;
  out.barriers = outcome.smp.barriers;
  out.mailbox_signals = outcome.smp.mailbox_signals;
  out.inline_phases = outcome.smp.host_inline_phases;
  out.parallel_phases = outcome.smp.host_parallel_phases;
  trace::record_smp_stats(g_smp_metrics, outcome.smp);
  return out;
}

int run_smp_mode(unsigned cpus, const std::string& json_path) {
  const apps::ServerProfile& profile = apps::nginx_profile();
  constexpr std::uint64_t kSize = 16 * 1024;
  std::printf("== Figure 5 (SMP): nginx 16K scale-out, %u simulated CPUs ==\n\n",
              cpus);

  const unsigned worker_counts[] = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  const Column mechs[] = {kBaseline, kZpoline, kLazyFull, kSud};

  std::vector<std::string> rows;
  metrics::Table table(
      {"workers", "baseline", "zpoline", "lazypoline", "SUD"});
  for (unsigned workers : worker_counts) {
    double base_rps = 0.0;
    std::vector<std::string> cells;
    cells.push_back(std::to_string(workers));
    for (const Column& m : mechs) {
      const SmpRun r = run_one_smp(profile, kSize, workers, m.mechanism, cpus);
      const bool is_baseline = &m == &mechs[0];
      if (is_baseline) base_rps = r.rps;
      const double pct = 100.0 * r.rps / base_rps;
      char buffer[64];
      if (is_baseline) {
        std::snprintf(buffer, sizeof(buffer), "%9.0f", r.rps);
      } else {
        std::snprintf(buffer, sizeof(buffer), "%9.0f (%6.2f%%)", r.rps, pct);
      }
      cells.push_back(buffer);
      rows.push_back(metrics::JsonObject()
                         .add("kind", "throughput")
                         .add("workers", static_cast<std::uint64_t>(workers))
                         .add("mech", m.name)
                         .add("rps", r.rps)
                         .add("pct_of_baseline", pct)
                         .add("host_ms", r.host_ms)
                         .add("shootdowns", r.shootdowns)
                         .add("steals", r.steals)
                         .add("barriers", r.barriers)
                         .add("mailbox_signals", r.mailbox_signals)
                         .render());
    }
    table.add_row(cells);
  }
  std::printf("-- simulated rps (%% of baseline), overhead dilution --\n%s\n",
              table.render().c_str());

  // Host wall-clock speedup: the same 8-worker baseline workload executed on
  // 1 simulated CPU (serial scheduler) vs. `cpus` (barrier phases inline or
  // on host lanes), paired by lzp::paired_ratios; the speedup is the inverse
  // of the parallel run's median ratio to the serial one.
  std::uint64_t inline_phases = 0;
  std::uint64_t parallel_phases = 0;
  const auto host_seconds = [&](unsigned run_cpus) {
    const SmpRun run =
        run_one_smp(profile, kSize, 8, kBaseline.mechanism, run_cpus);
    inline_phases += run.inline_phases;
    parallel_phases += run.parallel_phases;
    return run.host_ms / 1e3;
  };
  const PairedResult timing =
      paired_ratios({{"1 cpu", [&] { return host_seconds(1); }},
                     {"smp", [&] { return host_seconds(cpus); }}});
  const double serial_ms = timing.arms[0].median_seconds * 1e3;
  const double parallel_ms = timing.arms[1].median_seconds * 1e3;
  const double speedup = 1.0 / timing.arms[1].median_ratio;
  const unsigned host_cores = ThreadPool::host_cores();
  std::printf("-- host speedup (8 workers, baseline, paired median of %zu "
              "rounds, A/A %.3fx) --\n",
              timing.rounds, timing.aa_ratio);
  std::printf("1 cpu: %.2f ms   %u cpus: %.2f ms   speedup: %.2fx "
              "(host has %u core%s; phases inline %llu, parallel %llu)\n\n",
              serial_ms, cpus, parallel_ms, speedup, host_cores,
              host_cores == 1 ? "" : "s",
              static_cast<unsigned long long>(inline_phases),
              static_cast<unsigned long long>(parallel_phases));
  rows.push_back(metrics::JsonObject()
                     .add("kind", "speedup")
                     .add("workers", std::uint64_t{8})
                     .add("mech", "baseline")
                     .add("host_ms_1cpu", serial_ms)
                     .add("host_ms_smp", parallel_ms)
                     .add("host_speedup_x", speedup)
                     .render());

  // Scheduler telemetry summed over every run_smp above (throughput grid +
  // speedup rounds): the previously write-only SmpStats counters, surfaced via
  // the shared MetricsRegistry counter space.
  std::printf("-- smp scheduler telemetry (all runs) --\n%s\n",
              metrics::counters_table(
                  {g_smp_metrics.counters().begin(),
                   g_smp_metrics.counters().end()})
                  .c_str());

  bench::write_json_report(json_path, "fig5_smp", rows, cpus);

  int status = 0;
  // Gate on every host: SMP is at most 10% slower than the serial run.
  // Phases run on host lanes only while lanes measure clearly cheaper than
  // the calling thread, so a host with one core's throughput runs nearly all
  // of them inline and reads about 1x.
  constexpr double kMinSpeedup = 0.9;
  if (speedup < kMinSpeedup) {
    std::fprintf(stderr, "FAIL: host speedup %.2fx < %.1fx at %u CPUs\n",
                 speedup, kMinSpeedup, cpus);
    status = 1;
  } else {
    std::printf("PASS: host speedup %.2fx >= %.1fx at %u CPUs\n", speedup,
                kMinSpeedup, cpus);
  }

  // Gate: >=2x host speedup at 8 simulated CPUs — only meaningful when the
  // host actually has >=8 cores to run the lanes on.
  if (cpus >= 8 && host_cores >= 8) {
    if (speedup < 2.0) {
      std::fprintf(stderr,
                   "FAIL: host speedup %.2fx < 2.0x at %u CPUs "
                   "(%u host cores)\n",
                   speedup, cpus, host_cores);
      status = 1;
    } else {
      std::printf("PASS: host speedup %.2fx >= 2.0x at %u CPUs\n", speedup,
                  cpus);
    }
  } else {
    std::printf("SKIP: >=2x speedup gate needs --cpus>=8 and >=8 host cores "
                "(have --cpus=%u, %u host core%s); measured %.2fx\n",
                cpus, host_cores, host_cores == 1 ? "" : "s", speedup);
  }
  return status;
}

// Exact simulated results of every 1-CPU grid cell, pinned by
// scripts/bench_diff.py against bench/baselines/BENCH_fig5.json.
std::vector<std::string> g_grid_rows;

void run_grid(const apps::ServerProfile& profile, unsigned workers) {
  std::printf("-- %s, %u worker%s (requests/s; %% of baseline) --\n",
              profile.name.c_str(), workers, workers == 1 ? "" : "s");
  metrics::Table table({"size", "baseline", "zpoline", "lazyp-nox", "lazypoline",
                        "SUD"});
  const std::uint64_t sizes[] = {1024, 4096, 16 * 1024, 64 * 1024, 256 * 1024};
  for (std::uint64_t size : sizes) {
    auto measure = [&](const Column& column) {
      const GridRun run = run_one(profile, size, workers, column.mechanism);
      g_grid_rows.push_back(
          metrics::JsonObject()
              .add("server", profile.name)
              .add("workers", static_cast<std::uint64_t>(workers))
              .add("size", size)
              .add("mech", column.name)
              .add("wall_cycles", run.wall_cycles)
              .add("rps", run.rps)
              .render());
      return run.rps;
    };
    const double base = measure(kBaseline);
    auto cell = [&](const Column& column) {
      const double rps = measure(column);
      char buffer[64];
      std::snprintf(buffer, sizeof(buffer), "%8.0f (%5.2f%%)", rps,
                    100.0 * rps / base);
      return std::string(buffer);
    };
    char base_text[32];
    std::snprintf(base_text, sizeof(base_text), "%8.0f", base);
    table.add_row({lzp::human_size(size), base_text, cell(kZpoline),
                   cell(kLazyNoX), cell(kLazyFull), cell(kSud)});
  }
  std::printf("%s\n", table.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const bench::CliArgs cli = bench::parse_cli(argc, argv);
  if (cli.cpus > 1) {
    return run_smp_mode(cli.cpus, cli.positional_or(0, "BENCH_smp.json"));
  }

  // One optional argument picks a server profile ("nginx" or
  // "--server=nginx"); with none, both profiles run.
  std::vector<apps::ServerProfile> profiles = {apps::nginx_profile(),
                                               apps::lighttpd_profile()};
  if (!cli.positional.empty()) {
    std::string which = cli.positional[0];
    if (which.rfind("--server=", 0) == 0) which = which.substr(9);
    auto profile = scenario::parse_profile(which);
    if (!profile.is_ok() || cli.positional.size() > 1) {
      std::fprintf(stderr,
                   "fig5_webservers: %s\n"
                   "usage: fig5_webservers [nginx|lighttpd]\n"
                   "       fig5_webservers --cpus=N [out.json]\n",
                   profile.is_ok() ? "too many arguments"
                                   : profile.status().to_string().c_str());
      return 2;
    }
    profiles = {profile.value()};
  }

  std::printf("== Figure 5: web server throughput under interposition ==\n\n");
  for (const apps::ServerProfile& profile : profiles) {
    run_grid(profile, 1);
    run_grid(profile, 12);
  }

  std::printf("-- simulator block cache (all runs) --\n");
  std::printf("%s", metrics::counters_table(
                        {{"hits", g_bcache_totals.hits},
                         {"misses", g_bcache_totals.misses},
                         {"invalidations", g_bcache_totals.invalidations},
                         {"flushes", g_bcache_totals.flushes},
                         {"blocks built", g_bcache_totals.blocks_built}})
                        .c_str());
  std::printf("hit rate: %s\n",
              metrics::percent(100.0 * g_bcache_totals.hit_rate()).c_str());

  bench::write_json_report("BENCH_fig5.json", "fig5_webservers", g_grid_rows);
  return 0;
}
