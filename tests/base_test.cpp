#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "base/log.hpp"
#include "base/rng.hpp"
#include "base/stats.hpp"
#include "base/status.hpp"
#include "base/strings.hpp"
#include "base/thread_pool.hpp"

namespace lzp {
namespace {

// --- Status / Result ---------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.is_ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.to_string(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = make_error(StatusCode::kNotFound, "missing thing");
  EXPECT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.message(), "missing thing");
  EXPECT_EQ(status.to_string(), "not-found: missing thing");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int code = 0; code <= static_cast<int>(StatusCode::kInternal); ++code) {
    EXPECT_NE(to_string(static_cast<StatusCode>(code)), "unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> result = 42;
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(result.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> result = make_error(StatusCode::kInvalidArgument, "bad");
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(result.value_or(7), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> result = std::string("payload");
  std::string moved = std::move(result).value();
  EXPECT_EQ(moved, "payload");
}

TEST(StatusTest, ReturnIfErrorMacroPropagates) {
  auto fails = [] { return make_error(StatusCode::kInternal, "boom"); };
  auto wrapper = [&]() -> Status {
    LZP_RETURN_IF_ERROR(fails());
    return Status::ok();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kInternal);
}

// --- RNG ----------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Xoshiro256 a(123);
  Xoshiro256 b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.next() == b.next()) ? 1 : 0;
  EXPECT_LT(equal, 3);
}

TEST(RngTest, NextBelowIsBounded) {
  Xoshiro256 rng(99);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
  EXPECT_EQ(rng.next_below(0), 0u);
  EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Xoshiro256 rng(7);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Xoshiro256 rng(11);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.next_gaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.03);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.03);
}

TEST(RngTest, ReseedResetsStream) {
  Xoshiro256 rng(5);
  const std::uint64_t first = rng.next();
  rng.next();
  rng.reseed(5);
  EXPECT_EQ(rng.next(), first);
}

// --- stats ---------------------------------------------------------------------

TEST(StatsTest, EmptyInputs) {
  EXPECT_EQ(median({}), 0.0);
}

TEST(StatsTest, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

// paired_ratios drives arms it knows nothing about; these scripted arms
// return script(arm, call) on each arm's call-th call (the warm-up round's
// calls included) and log the order in which the arms ran.
struct ScriptedArms {
  std::function<double(std::size_t arm, std::size_t call)> script;
  std::vector<std::size_t> calls;
  std::vector<std::size_t> order;

  std::vector<PairedArm> make(std::size_t n) {
    calls.assign(n, 0);
    std::vector<PairedArm> arms;
    for (std::size_t arm = 0; arm < n; ++arm) {
      arms.push_back({"arm" + std::to_string(arm), [this, arm] {
                        order.push_back(arm);
                        return script(arm, calls[arm]++);
                      }});
    }
    return arms;
  }
};

// Far above the budget, and a power of two, so every ratio below is exact.
constexpr double kLong = 1024.0;

TEST(StatsTest, PairedRatiosDiscardsWarmupRound) {
  ASSERT_GE(kLong, kPairedBudgetSeconds);
  // Each round of three calls returns 3/64 s, so the budget alone decides
  // when to stop; the warm-up round's huge durations must not count toward
  // it, nor skew any median.
  constexpr double kShort = 1.0 / 64;
  const auto budget_rounds =
      static_cast<std::size_t>(std::ceil(kPairedBudgetSeconds / (3 * kShort)));
  ASSERT_GT(budget_rounds, kPairedMinRounds);
  ScriptedArms scripted;
  scripted.script = [](std::size_t arm, std::size_t call) {
    const bool warmup = call < (arm == 0 ? 2u : 1u);
    return warmup ? kLong : kShort;
  };
  const PairedResult result = paired_ratios(scripted.make(2));
  EXPECT_EQ(result.rounds, budget_rounds);
  EXPECT_EQ(scripted.order.size(), (budget_rounds + 1) * 3);
  ASSERT_EQ(result.arms.size(), 2u);
  EXPECT_EQ(result.arms[0].name, "arm0");
  EXPECT_EQ(result.arms[1].name, "arm1");
  EXPECT_DOUBLE_EQ(result.arms[0].median_seconds, kShort);
  EXPECT_DOUBLE_EQ(result.arms[1].median_seconds, kShort);
  EXPECT_DOUBLE_EQ(result.arms[1].median_ratio, 1.0);
  EXPECT_DOUBLE_EQ(result.aa_ratio, 1.0);
}

TEST(StatsTest, PairedRatiosRotatesArmOrder) {
  ScriptedArms scripted;
  scripted.script = [](std::size_t, std::size_t) { return kLong; };
  (void)paired_ratios(scripted.make(3));
  // Warm-up, then rounds 0, 1 and 2: each starts one arm later than the
  // round before, and ends with the baseline's A/A run.
  const std::vector<std::size_t> expected = {0, 1, 2, 0,  0, 1, 2, 0,
                                             1, 2, 0, 0,  2, 0, 1, 0};
  ASSERT_GE(scripted.order.size(), expected.size());
  EXPECT_EQ(std::vector<std::size_t>(scripted.order.begin(),
                                     scripted.order.begin() + 16),
            expected);
}

TEST(StatsTest, PairedRatiosStopsAtBudgetAndMinimumRounds) {
  ScriptedArms scripted;
  // One round overshoots the budget: the minimum round count decides.
  scripted.script = [](std::size_t, std::size_t) { return kLong; };
  EXPECT_EQ(paired_ratios(scripted.make(2)).rounds, kPairedMinRounds);
  // Rounds of 3/256 s: the budget decides.
  constexpr double kShort = 1.0 / 256;
  const auto budget_rounds =
      static_cast<std::size_t>(std::ceil(kPairedBudgetSeconds / (3 * kShort)));
  ASSERT_GT(budget_rounds, kPairedMinRounds);
  scripted.script = [](std::size_t, std::size_t) { return kShort; };
  EXPECT_EQ(paired_ratios(scripted.make(2)).rounds, budget_rounds);
  EXPECT_TRUE(paired_ratios({}).arms.empty());
}

TEST(StatsTest, PairedRatiosMediansAreExact) {
  ScriptedArms scripted;
  // The host is twice as slow in odd rounds; the paired ratios cancel that.
  // Arm 1 costs 1.25x but reads 8x in rounds 0-2, arm 2 costs 0.75x, and the
  // A/A run reads 1.125x but 64x in rounds 3 and 4.
  scripted.script = [](std::size_t arm, std::size_t call) {
    // Warm-up is call 0 (the baseline's calls 0 and 1); after it, arm 0 runs
    // twice per round and every other arm once.
    const std::size_t warmup_calls = arm == 0 ? 2 : 1;
    if (call < warmup_calls) return kLong;
    const std::size_t round = (call - warmup_calls) / (arm == 0 ? 2 : 1);
    const double host = kLong * (round % 2 == 0 ? 1.0 : 2.0);
    switch (arm) {
      case 0:
        if ((call - warmup_calls) % 2 == 0) return host;
        return host * (round == 3 || round == 4 ? 64.0 : 1.125);
      case 1:
        return host * (round < 3 ? 8.0 : 1.25);
      default:
        return host * 0.75;
    }
  };
  const PairedResult result = paired_ratios(scripted.make(3));
  ASSERT_EQ(result.rounds, kPairedMinRounds);
  ASSERT_EQ(kPairedMinRounds % 2, 0u);  // half the rounds run at each speed
  EXPECT_DOUBLE_EQ(result.arms[0].median_ratio, 1.0);
  EXPECT_DOUBLE_EQ(result.arms[0].median_seconds, 1.5 * kLong);
  EXPECT_DOUBLE_EQ(result.arms[1].median_ratio, 1.25);
  EXPECT_DOUBLE_EQ(result.arms[2].median_ratio, 0.75);
  EXPECT_DOUBLE_EQ(result.arms[2].median_seconds, 0.75 * 1.5 * kLong);
  EXPECT_DOUBLE_EQ(result.aa_ratio, 1.125);
}

TEST(StatsTest, RunningStatsMatchesBatch) {
  const double samples[] = {1.5, 2.5, 3.5, 10.0, -4.0};
  RunningStats running;
  for (double s : samples) running.add(s);
  EXPECT_EQ(running.count(), 5u);
  // The batch mean is 13.5 / 5 and the sample variance (n - 1 denominator)
  // 100.3 / 4.
  EXPECT_NEAR(running.mean(), 2.7, 1e-12);
  EXPECT_NEAR(running.stddev(), 5.0074943834217125, 1e-12);
}

// --- strings --------------------------------------------------------------------

TEST(StringsTest, HexFormatting) {
  EXPECT_EQ(hex_u64(0), "0x0");
  EXPECT_EQ(hex_u64(0xDEADBEEF), "0xdeadbeef");
  EXPECT_EQ(hex_byte(0x0F), "0f");
  const std::uint8_t bytes[] = {0x0F, 0x05};
  EXPECT_EQ(hex_dump(bytes), "0f 05");
}

TEST(StringsTest, HumanSize) {
  EXPECT_EQ(human_size(512), "512B");
  EXPECT_EQ(human_size(1024), "1K");
  EXPECT_EQ(human_size(64 * 1024), "64K");
  EXPECT_EQ(human_size(2 * 1024 * 1024), "2M");
  EXPECT_EQ(human_size(1536), "1536B");  // non-integral KiB stays in bytes
}

TEST(StringsTest, SplitJoin) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(join(parts, "-"), "a-b--c");
  EXPECT_EQ(split("", ',').size(), 1u);
}

TEST(StringsTest, Padding) {
  EXPECT_EQ(pad_left("7", 3), "  7");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("long", 2), "long");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(starts_with("/etc/passwd", "/etc"));
  EXPECT_FALSE(starts_with("/etc", "/etc/passwd"));
}

TEST(StringsTest, FormatDouble) {
  EXPECT_EQ(format_double(2.375, 2), "2.38");
  EXPECT_EQ(format_double(20.8, 1), "20.8");
}

// --- log -------------------------------------------------------------------------

TEST(LogTest, SinkReceivesMessagesAtOrAboveLevel) {
  std::vector<std::string> captured;
  set_log_sink([&](LogLevel level, std::string_view message) {
    captured.push_back(std::string(to_string(level)) + ":" + std::string(message));
  });
  set_log_level(LogLevel::kInfo);
  LZP_LOG_DEBUG << "hidden";
  LZP_LOG_INFO << "visible " << 42;
  LZP_LOG_ERROR << "bad";
  set_log_sink(nullptr);
  set_log_level(LogLevel::kWarn);
  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0], "INFO:visible 42");
  EXPECT_EQ(captured[1], "ERROR:bad");
}

// --- thread pool -----------------------------------------------------------------

constexpr unsigned kPoolLanes = 4;

// Holds the calling lane for about a microsecond, so that workers claim
// indices too instead of the caller draining every phase before they wake.
void hold_lane() {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::microseconds(1);
  while (std::chrono::steady_clock::now() < until) {
  }
}

// Many short back-to-back phases: the pattern of the SMP barrier loop, and
// the one where a lane still leaving phase k runs into phase k+1.
TEST(ThreadPoolTest, EveryIndexRunsExactlyOncePerPhase) {
  ThreadPool pool(kPoolLanes);
  ASSERT_EQ(pool.lanes(), kPoolLanes);
  const std::thread::id caller = std::this_thread::get_id();
  constexpr int kPhases = 10'000;
  for (const unsigned n : {kPoolLanes - 2, kPoolLanes, 2 * kPoolLanes + 1}) {
    std::vector<std::atomic<int>> hits(n);
    std::atomic<unsigned> on_workers{0};
    const std::function<void(unsigned)> fn = [&](unsigned i) {
      hold_lane();
      hits[i].fetch_add(1, std::memory_order_relaxed);
      if (std::this_thread::get_id() != caller) {
        on_workers.fetch_add(1, std::memory_order_relaxed);
      }
    };
    int bad_phases = 0;
    for (int phase = 1; phase <= kPhases; ++phase) {
      pool.run_indexed(n, fn);
      for (const std::atomic<int>& count : hits) {
        if (count.load(std::memory_order_relaxed) != phase) {
          ++bad_phases;
          break;
        }
      }
    }
    EXPECT_EQ(bad_phases, 0) << "n = " << n;
    EXPECT_GT(on_workers.load(), 0u) << "n = " << n << ": no worker ran a call";
  }
}

TEST(ThreadPoolTest, ZeroAndOneIndexRunOnTheCaller) {
  ThreadPool pool(kPoolLanes);
  int calls = 0;
  std::thread::id ran_on;
  const std::function<void(unsigned)> fn = [&](unsigned i) {
    EXPECT_EQ(i, 0u);
    ++calls;
    ran_on = std::this_thread::get_id();
  };
  pool.run_indexed(0, fn);
  EXPECT_EQ(calls, 0);
  pool.run_indexed(1, fn);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ThreadPoolTest, OneLanePoolIsAPlainLoop) {
  ThreadPool pool(0);  // clamped to one lane
  EXPECT_EQ(pool.lanes(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<unsigned> order;
  pool.run_indexed(3, [&](unsigned i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<unsigned>{0, 1, 2}));
}

// Plain (non-atomic) writes: each phase writes one buffer and reads the one
// the previous phase wrote at another index, so every read crosses lanes
// through a run_indexed return; the caller checks the writes after each.
TEST(ThreadPoolTest, LaneWritesAreVisibleAfterReturn) {
  ThreadPool pool(kPoolLanes);
  constexpr unsigned kN = 2 * kPoolLanes;
  std::array<std::vector<std::uint64_t>, 2> buffers{
      std::vector<std::uint64_t>(kN, 0), std::vector<std::uint64_t>(kN, 0)};
  std::vector<std::uint64_t> stale_reads(kN, 0);
  std::uint64_t bad_returns = 0;
  for (std::uint64_t phase = 1; phase <= 2'000; ++phase) {
    std::vector<std::uint64_t>& now = buffers[phase % 2];
    const std::vector<std::uint64_t>& before = buffers[(phase + 1) % 2];
    pool.run_indexed(kN, [&](unsigned i) {
      hold_lane();
      const unsigned j = (i + 1) % kN;
      if (before[j] != (phase - 1) * kN + j) ++stale_reads[i];
      now[i] = phase * kN + i;
    });
    for (unsigned i = 0; i < kN; ++i) {
      if (now[i] != phase * kN + i) ++bad_returns;
    }
  }
  EXPECT_EQ(bad_returns, 0u);
  // Phase 1 reads the zeroed buffer, which matches only at index 0.
  std::uint64_t stale = 0;
  for (std::uint64_t count : stale_reads) stale += count;
  EXPECT_EQ(stale, kN - 1);
}

TEST(ThreadPoolTest, DestructorJoinsParkedWorkers) {
  { ThreadPool never_used(kPoolLanes); }
  std::atomic<unsigned> calls{0};
  {
    ThreadPool pool(kPoolLanes);
    pool.run_indexed(kPoolLanes, [&](unsigned) { calls.fetch_add(1); });
    // The workers are idle, waiting for a job, when the pool dies.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(calls.load(), kPoolLanes);
}

TEST(ThreadPoolTest, ThrowingCallIsRethrownAndThePoolStaysUsable) {
  ThreadPool pool(kPoolLanes);
  std::atomic<unsigned> calls{0};
  EXPECT_THROW(pool.run_indexed(kPoolLanes,
                                [&](unsigned i) {
                                  calls.fetch_add(1);
                                  if (i == 2) throw std::runtime_error("lane");
                                }),
               std::runtime_error);
  calls.store(0);
  pool.run_indexed(kPoolLanes, [&](unsigned) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), kPoolLanes);
}

}  // namespace
}  // namespace lzp
