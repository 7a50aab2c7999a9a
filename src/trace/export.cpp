#include "trace/export.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/crosscheck.hpp"
#include "base/strings.hpp"
#include "kernel/syscalls.hpp"
#include "metrics/json.hpp"
#include "metrics/report.hpp"

namespace lzp::trace {
namespace {

using metrics::JsonObject;

std::string event_name(const Event& event) {
  switch (event.type) {
    case EventType::kSyscallEnter:
    case EventType::kSyscallExit:
      return std::string(kern::syscall_name(event.a));
    case EventType::kSignal:
      return "signal " + std::string(kern::signal_name(static_cast<int>(event.a)));
    case EventType::kSeccompDecision:
      return "seccomp " + std::string(kern::syscall_name(event.a));
    case EventType::kPolicyDecision:
      return "policy " + std::string(kern::syscall_name(event.a));
    default:
      return std::string(to_string(event.type));
  }
}

std::string policy_state_name(std::uint64_t state) {
  return state == kern::kPolicyEntryState
             ? std::string("entry")
             : std::string(kern::syscall_name(state));
}

std::string instant_args(const Event& event) {
  JsonObject args;
  switch (event.type) {
    case EventType::kSelectorFlip:
      args.add("selector", event.a);
      break;
    case EventType::kSignal:
      args.add("signo", event.a).add("code", event.b).add("syscall_nr", event.c);
      break;
    case EventType::kSiteRewrite:
    case EventType::kDecodeInvalidation:
    case EventType::kBlockInvalidation:
      args.add("addr", hex_u64(event.a));
      break;
    case EventType::kSeccompDecision:
      args.add("nr", event.a).add("action", event.b);
      break;
    case EventType::kPolicyDecision:
      args.add("nr", event.a)
          .add("from_state", policy_state_name(event.b))
          .add("decision",
               to_string(static_cast<kern::PolicyDecision>(event.c)));
      break;
    case EventType::kCrosscheck:
      args.add("site", hex_u64(event.a))
          .add("verdict", to_string(static_cast<analysis::Verdict>(event.b)))
          .add("outcome",
               to_string(static_cast<analysis::CrosscheckOutcome>(event.c)));
      break;
    case EventType::kTaskStart:
      args.add("entry", hex_u64(event.a));
      break;
    case EventType::kClone:
      args.add("child_tid", event.a);
      break;
    case EventType::kTaskExit:
      args.add("exit_code", event.a);
      break;
    default:
      break;
  }
  return args.render();
}

// One Perfetto counter-track sample: "ph":"C" with the value in args. Tracks
// are keyed by (pid, name); successive samples draw the counter's area chart.
std::string counter_event(std::string_view name, std::uint64_t pid,
                          std::uint64_t ts, double value) {
  JsonObject obj;
  obj.add("name", name).add("ph", "C").add("ts", ts).add("pid", pid);
  obj.add_raw("args", JsonObject().add("value", value).render());
  return obj.render();
}

// Appends the SMP scheduler telemetry events for one finished run_smp.
void append_smp_events(const kern::SmpStats& smp,
                       std::vector<std::string>& events) {
  constexpr std::uint64_t kSchedulerPid = 0;
  std::uint64_t prev_cycles = 0;
  for (const kern::SmpBarrierSample& sample : smp.timeline) {
    const std::uint64_t ts = sample.total_cycles;
    // Per-barrier-round span on the scheduler lane.
    {
      JsonObject obj;
      obj.add("name", "barrier round " + std::to_string(sample.round))
          .add("cat", "smp")
          .add("ph", "X")
          .add("ts", prev_cycles)
          .add("dur", ts - prev_cycles)
          .add("pid", kSchedulerPid)
          .add("tid", static_cast<std::uint64_t>(0));
      JsonObject args;
      args.add("round", sample.round)
          .add("insns", sample.total_insns)
          .add("steals", sample.steals)
          .add("shootdowns", sample.shootdowns)
          .add("mailbox_signals", sample.mailbox_signals);
      obj.add_raw("args", args.render());
      events.push_back(obj.render());
    }
    prev_cycles = ts;

    // Scheduler-global cumulative counters.
    events.push_back(counter_event("smp.steals", kSchedulerPid, ts,
                                   static_cast<double>(sample.steals)));
    events.push_back(counter_event("smp.shootdowns", kSchedulerPid, ts,
                                   static_cast<double>(sample.shootdowns)));
    events.push_back(counter_event("smp.mailbox_signals", kSchedulerPid, ts,
                                   static_cast<double>(sample.mailbox_signals)));

    // Per-CPU tracks on the CPU's own lane (pid = cpu + 1, matching the
    // syscall spans). Utilization is the CPU's share of the busiest lane's
    // steps this round — 100% means it kept pace with the hottest CPU.
    std::uint64_t busiest = 1;
    for (std::uint64_t steps : sample.cpu_steps) {
      busiest = std::max(busiest, steps);
    }
    for (std::size_t c = 0; c < sample.cpu_steps.size(); ++c) {
      const std::uint64_t pid = c + 1;
      events.push_back(counter_event("cpu.steps", pid, ts,
                                     static_cast<double>(sample.cpu_steps[c])));
      events.push_back(counter_event(
          "cpu.utilization", pid, ts,
          100.0 * static_cast<double>(sample.cpu_steps[c]) /
              static_cast<double>(busiest)));
      events.push_back(counter_event("cpu.run_queue", pid, ts,
                                     static_cast<double>(sample.run_queue[c])));
    }
  }
}

void append_ring_events(const FlightRecorder& ring,
                        std::vector<std::string>& events) {
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const Event& event = ring.at(i);
    JsonObject obj;
    if (event.type == EventType::kSyscallExit) {
      // A completed interposition: one "X" span covering enter..exit.
      obj.add("name", event_name(event))
          .add("cat", kern::to_string(event.mech))
          .add("ph", "X")
          .add("ts", event.cycles - event.c)
          .add("dur", event.c)
          // One Perfetto "process" lane per simulated CPU (cpu 0 -> pid 1,
          // so single-CPU traces render exactly as before).
          .add("pid", static_cast<std::uint64_t>(event.cpu) + 1)
          .add("tid", static_cast<std::uint64_t>(event.tid));
      obj.add_raw("args", JsonObject()
                              .add("nr", event.a)
                              .add("result", static_cast<std::int64_t>(event.b))
                              .render());
    } else if (event.type == EventType::kSyscallEnter) {
      // The matching exit carries the span; skip to avoid double-drawing.
      continue;
    } else {
      obj.add("name", event_name(event))
          .add("cat", event.mech == kern::InterposeMechanism::kNone
                          ? std::string_view("kernel")
                          : kern::to_string(event.mech))
          .add("ph", "i")
          .add("ts", event.cycles)
          .add("pid", static_cast<std::uint64_t>(event.cpu) + 1)
          .add("tid", static_cast<std::uint64_t>(event.tid))
          .add("s", "t");  // thread-scoped instant
      obj.add_raw("args", instant_args(event));
    }
    events.push_back(obj.render());
  }
}

std::string render_trace_root(const std::vector<std::string>& events,
                              std::uint64_t dropped) {
  JsonObject root;
  root.add_raw("traceEvents", metrics::json_array(events));
  root.add("displayTimeUnit", "ns");
  root.add_raw("otherData", JsonObject()
                                .add("clock", "simulated-cycles")
                                .add("droppedEvents", dropped)
                                .render());
  return root.render();
}

}  // namespace

std::string export_chrome_json(const FlightRecorder& ring,
                               std::uint64_t dropped) {
  std::vector<std::string> events;
  events.reserve(ring.size());
  append_ring_events(ring, events);
  return render_trace_root(events, dropped);
}

std::string export_chrome_json(const FlightRecorder& ring,
                               std::uint64_t dropped,
                               const kern::SmpStats& smp) {
  std::vector<std::string> events;
  events.reserve(ring.size() + 16 * smp.timeline.size());
  append_ring_events(ring, events);
  append_smp_events(smp, events);
  return render_trace_root(events, dropped);
}

std::string export_chrome_json(const Tracer& tracer) {
  return export_chrome_json(tracer.ring(), tracer.ring().dropped());
}

std::string export_chrome_json(const Tracer& tracer,
                               const kern::SmpStats& smp) {
  return export_chrome_json(tracer.ring(), tracer.ring().dropped(), smp);
}

std::string render_summary(const MetricsRegistry& registry,
                           const FlightRecorder& ring) {
  std::string out;

  out += "== counters ==\n";
  std::vector<std::pair<std::string, std::uint64_t>> counters(
      registry.counters().begin(), registry.counters().end());
  counters.emplace_back("ring.events", ring.size());
  counters.emplace_back("ring.dropped", ring.dropped());
  out += metrics::counters_table(counters);

  // Policy activity: rendered only when a PolicyEnforcer reported into this
  // registry (the "policy.*" counters exist). Per-state hit-rate is that
  // state's share of all transition checks — together the rows account for
  // every syscall the enforcer saw.
  const auto& counters_map = registry.counters();
  const auto transitions_it = counters_map.find("policy.transitions");
  if (transitions_it != counters_map.end() && transitions_it->second != 0) {
    const double total = static_cast<double>(transitions_it->second);
    const auto violations_it = counters_map.find("policy.violations");
    const std::uint64_t violations =
        violations_it == counters_map.end() ? 0 : violations_it->second;
    out += "\n== policy (syscall-flow integrity) ==\n";
    out += "transitions checked: " + std::to_string(transitions_it->second) +
           ", violations: " + std::to_string(violations) + "\n";
    metrics::Table table({"state", "checks", "violations", "hit-rate"});
    const std::string prefix = "policy.state.";
    const std::string checks_suffix = ".checks";
    for (const auto& [name, value] : counters_map) {
      if (name.rfind(prefix, 0) != 0) continue;
      if (name.size() < checks_suffix.size() ||
          name.compare(name.size() - checks_suffix.size(),
                       checks_suffix.size(), checks_suffix) != 0) {
        continue;
      }
      const std::string state =
          name.substr(prefix.size(),
                      name.size() - prefix.size() - checks_suffix.size());
      const auto viol_it =
          counters_map.find(prefix + state + ".violations");
      const std::uint64_t state_violations =
          viol_it == counters_map.end() ? 0 : viol_it->second;
      table.add_row({state, std::to_string(value),
                     std::to_string(state_violations),
                     format_double(100.0 * static_cast<double>(value) / total,
                                   1) +
                         "%"});
    }
    out += table.render();
  }

  out += "\n== interposition latency (cycles) ==\n";
  metrics::Table table({"syscall", "mechanism", "count", "mean", "stddev",
                        "p50", "p95", "p99", "p-bucket"});
  for (const auto& [key, hist] : registry.histograms()) {
    // The widest populated log2 bucket: "[512, 1024)" style.
    std::size_t top = 0;
    for (std::size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
      if (hist.buckets[i] != 0) top = i;
    }
    const std::uint64_t lo = top == 0 ? 0 : (1ULL << top);
    table.add_row({std::string(kern::syscall_name(key.nr)),
                   std::string(kern::to_string(key.mech)),
                   std::to_string(hist.total()),
                   format_double(hist.stats.mean(), 1),
                   format_double(hist.stats.stddev(), 1),
                   format_double(hist.quantile(0.50), 0),
                   format_double(hist.quantile(0.95), 0),
                   format_double(hist.quantile(0.99), 0),
                   "[" + std::to_string(lo) + ", " +
                       std::to_string(1ULL << (top + 1)) + ")"});
  }
  out += table.render();
  return out;
}

std::string render_summary(const Tracer& tracer) {
  return render_summary(tracer.metrics(), tracer.ring());
}

}  // namespace lzp::trace
