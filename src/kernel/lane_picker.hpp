// LanePicker: where Machine::run_smp runs each parallel phase (smp.cpp).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>

namespace lzp::kern {

// Where a parallel phase runs: inline on the calling thread or on host
// lanes. Which host thread runs a lane never changes a simulated result, so
// this decides host time only, and it is decided from host time measured
// while running rather than from an assumed number of free cores: on a
// 4-vCPU host that delivers about one core of throughput,
// fig5_webservers --cpus=8 (~90 us phases) ran 1.00-1.03x the serial run
// with every phase inline and 0.93-0.99x with nearly every phase on lanes,
// while under TSan its --cpus=4 ran 1.39-1.62x with every phase on lanes.
//
// Lanes are tried only while phases are long inline: a phase of T spread
// over L cores takes at best T/L + W, where W is the wake-up and final wait,
// so a phase shorter than 2W cannot win on two lanes even on an idle host,
// and a run of short phases never starts a lane. Phase length is a running
// mean over about kShortWindow phases, so neither a burst of long phases
// among short ones nor one short phase among long ones flips it.
//
// While phases are long, each mode has a host time per guest step: a
// running mean for the current mode (the incumbent), the last trial for the
// other. A trial runs kTrialWarmup + 1 phases and is judged by its last,
// since the first phases after a switch find cold caches on other cores:
// under TSan, single-phase lanes trials cost 1.1-1.2x the inline phases,
// against the 0.72x above. Lanes take over only when cheaper by
// kLanesWinBelow, so noise between modes of near-equal cost keeps phases
// inline; inline takes back on any lower cost. After each trial the losing
// mode waits a span of long phases before its next; the span doubles on
// every loss, up to kMaxSpan, and drops back to kMinSpan when the modes
// swap. What was learned carries from one run_smp call to the next, so a
// process of many short runs, such as fig5_webservers, pays for the trials
// once rather than in every run.
class LanePicker {
 public:
  // 2W, with W = 18-20 us on a 4-vCPU 2.1 GHz host (gbench_micro
  // BM_ThreadPoolPhaseAllLanes: four lanes woken from parked).
  static constexpr std::chrono::nanoseconds kMinParallelPhase{40'000};
  static constexpr double kLanesWinBelow = 0.85;
  static constexpr unsigned kTrialWarmup = 2;
  static constexpr unsigned kShortWindow = 8;
  // The first trial also waits out a run's first phases, which fill cold
  // caches.
  static constexpr unsigned kMinSpan = 16;
  static constexpr unsigned kMaxSpan = 256;

  // Starts the next run_smp call: what was learned about the host (the
  // cheaper mode, the costs, the loser's span and wait) carries over; the
  // phase length is the new run's own.
  void start_run() {
    long_ = false;
    next_lanes_ = false;
    inline_phase_ns_ = 0.0;
    trial_phase_ = 0;
  }

  // Whether the next phase should run on host lanes.
  [[nodiscard]] bool lanes() const { return next_lanes_; }
  // Phases until the next record(): while phases are short the clock is
  // read once per kShortWindow of them.
  [[nodiscard]] unsigned window() const { return long_ ? 1 : kShortWindow; }

  // Records the last window: `phases` phases that all ran on lanes or all
  // inline, took `host` (barrier to barrier) and executed `steps` steps.
  void record(bool ran_lanes, unsigned phases, std::chrono::nanoseconds host,
              std::uint64_t steps) {
    if (!ran_lanes) {
      const double phase_ns = static_cast<double>(host.count()) / phases;
      const double weight =
          static_cast<double>(std::min(phases, kShortWindow)) / kShortWindow;
      inline_phase_ns_ = inline_phase_ns_ == 0.0
                             ? phase_ns
                             : inline_phase_ns_ +
                                   (phase_ns - inline_phase_ns_) * weight;
      if (inline_phase_ns_ < static_cast<double>(kMinParallelPhase.count())) {
        if (incumbent_) {  // lanes were winning: retry them soon
          incumbent_ = false;
          span_ = wait_ = kMinSpan;
        }
        long_ = false;
        next_lanes_ = false;
        trial_phase_ = 0;
        return;
      }
    }
    long_ = true;
    if (steps == 0) return;
    const double cost =
        static_cast<double>(host.count()) / static_cast<double>(steps);
    if (ran_lanes != incumbent_) {  // a trial phase
      if (++trial_phase_ <= kTrialWarmup) return;
      trial_phase_ = 0;
      cost_[ran_lanes] = cost;
      const bool lanes_win = cost_[1] < kLanesWinBelow * cost_[0];
      if (lanes_win == ran_lanes) {
        incumbent_ = ran_lanes;
        span_ = kMinSpan;
      } else {
        span_ = std::min(2 * span_, kMaxSpan);
      }
      wait_ = span_;
    } else {
      double& mean = cost_[ran_lanes];
      mean = mean == 0.0 ? cost : mean + (cost - mean) / kShortWindow;
      if (wait_ > 0) --wait_;
    }
    next_lanes_ = wait_ == 0 ? !incumbent_ : incumbent_;
  }

 private:
  bool long_ = false;       // phases are long enough to try lanes
  bool incumbent_ = false;  // the cheaper mode: lanes (true) or inline
  bool next_lanes_ = false;
  double inline_phase_ns_ = 0.0;  // running mean of an inline phase
  double cost_[2] = {0.0, 0.0};   // host ns per guest step: inline, lanes
  unsigned span_ = kMinSpan;      // phases between the loser's trials
  unsigned wait_ = kMinSpan;      // incumbent phases until the next trial
  unsigned trial_phase_ = 0;      // warm-up phases of the current trial
};

}  // namespace lzp::kern
