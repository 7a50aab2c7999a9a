// Tests for the always-on interposition tracing subsystem (src/trace) and
// the kernel probe/observer plumbing it rides on.
#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <memory>
#include <string>

#include "apps/minilibc.hpp"
#include "apps/webserver.hpp"
#include "isa/assemble.hpp"
#include "kernel/machine.hpp"
#include "kernel/syscalls.hpp"
#include "mechanisms/sud_tool.hpp"
#include "replay/recorder.hpp"
#include "scenario/scenario.hpp"
#include "trace/export.hpp"
#include "trace/flight_recorder.hpp"
#include "trace/metrics_registry.hpp"
#include "trace/tracer.hpp"

namespace lzp::trace {
namespace {

// --- flight recorder ---------------------------------------------------------

Event make_event(std::uint64_t seq) {
  Event event;
  event.type = EventType::kSyscallExit;
  event.a = seq;
  event.cycles = seq * 10;
  return event;
}

TEST(FlightRecorderTest, OverflowDropsOldestAndCounts) {
  FlightRecorder ring(8);
  for (std::uint64_t seq = 0; seq < 20; ++seq) ring.push(make_event(seq));
  EXPECT_EQ(ring.size(), 8u);
  EXPECT_EQ(ring.capacity(), 8u);
  EXPECT_EQ(ring.dropped(), 12u);
  // Survivors are the newest 8, oldest-first, uncorrupted.
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring.at(i).a, 12 + i);
    EXPECT_EQ(ring.at(i).cycles, (12 + i) * 10);
  }
}

TEST(FlightRecorderTest, NoDropBelowCapacity) {
  FlightRecorder ring(8);
  for (std::uint64_t seq = 0; seq < 5; ++seq) ring.push(make_event(seq));
  EXPECT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(ring.at(0).a, 0u);
  EXPECT_EQ(ring.at(4).a, 4u);
}

TEST(LatencyHistogramTest, Log2Buckets) {
  EXPECT_EQ(LatencyHistogram::bucket_of(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_of(1), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_of(2), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_of(1023), 9u);
  EXPECT_EQ(LatencyHistogram::bucket_of(1024), 10u);
  EXPECT_EQ(LatencyHistogram::bucket_of(~0ULL), 63u);
  LatencyHistogram hist;
  hist.add(900);
  hist.add(950);
  hist.add(3000);
  EXPECT_EQ(hist.buckets[9], 2u);
  EXPECT_EQ(hist.buckets[11], 1u);
  EXPECT_EQ(hist.total(), 3u);
}

// --- minimal JSON parser for exporter round-trips ---------------------------

// Enough JSON to validate the exporter's output structurally: objects,
// arrays, strings with escapes, numbers, true/false/null. Returns false on
// the first syntax error.
class MiniJsonParser {
 public:
  explicit MiniJsonParser(const std::string& text) : text_(text) {}

  bool parse() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* word) {
    const std::string_view sv(word);
    if (text_.compare(pos_, sv.size(), sv) != 0) return false;
    pos_ += sv.size();
    return true;
  }
  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

std::size_t count_occurrences(const std::string& text, const std::string& sub) {
  std::size_t count = 0;
  for (std::size_t pos = text.find(sub); pos != std::string::npos;
       pos = text.find(sub, pos + sub.size())) {
    ++count;
  }
  return count;
}

// --- workloads ---------------------------------------------------------------

isa::Program make_getpid_loop(std::uint64_t iterations) {
  isa::Assembler a;
  const auto entry = a.new_label();
  const auto loop = a.new_label();
  const auto done = a.new_label();
  a.bind(entry);
  a.mov(isa::Gpr::rbx, iterations);
  a.bind(loop);
  a.cmp(isa::Gpr::rbx, 0);
  a.jz(done);
  a.mov(isa::Gpr::rax, kern::kSysGetpid);
  a.syscall_();
  a.sub(isa::Gpr::rbx, 1);
  a.jmp(loop);
  a.bind(done);
  apps::emit_exit(a, 0);
  return std::move(isa::make_program("getpid-loop", a, entry)).value();
}

// Counts every handler invocation — the independent ground truth the
// registry's per-mechanism totals are checked against.
class CountingHandler final : public interpose::SyscallHandler {
 public:
  std::uint64_t handle(interpose::InterposeContext& ctx) override {
    ++count_;
    return ctx.pass_through();
  }
  [[nodiscard]] std::string name() const override { return "counting"; }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

 private:
  std::uint64_t count_ = 0;
};

std::uint64_t mechanism_total_for(const MetricsRegistry& metrics,
                                  const std::string& mechanism) {
  using kern::InterposeMechanism;
  if (mechanism == "ptrace") {
    return metrics.mechanism_total(InterposeMechanism::kPtrace);
  }
  if (mechanism == "sud") {
    return metrics.mechanism_total(InterposeMechanism::kSud);
  }
  if (mechanism == "zpoline") {
    return metrics.mechanism_total(InterposeMechanism::kZpoline);
  }
  return metrics.mechanism_total(InterposeMechanism::kLazypolineFast) +
         metrics.mechanism_total(InterposeMechanism::kLazypolineSlow);
}

std::uint64_t counter_total_for(const MetricsRegistry& metrics,
                                const std::string& mechanism) {
  if (mechanism == "lazypoline") {
    return metrics.counter("syscalls.lazypoline-fast") +
           metrics.counter("syscalls.lazypoline-slow");
  }
  return metrics.counter("syscalls." + mechanism);
}

// Runs the two-worker webserver under `mechanism` with a Tracer attached.
void run_traced_webserver(const std::string& mechanism, Tracer& tracer,
                          std::uint64_t* handled) {
  kern::Machine machine;
  tracer.attach(machine);
  auto handler = std::make_shared<CountingHandler>();
  auto parsed = scenario::parse_mechanism(mechanism);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  // Two nginx workers serving 60 requests of a 1 KiB file over 4
  // connections.
  const scenario::Scenario spec{
      scenario::Web{apps::nginx_profile(), 2, 1024, 4, 60}, parsed.value()};
  auto instance = scenario::build(spec, machine, handler);
  ASSERT_TRUE(instance.is_ok()) << instance.status().to_string();
  const int listener = instance.value().listeners.front();

  const auto stats = machine.run(400'000'000ULL);
  ASSERT_TRUE(stats.all_exited) << machine.last_fatal();
  ASSERT_EQ(machine.net().completed_requests(listener), 60u);
  *handled = handler->count();
}

// The acceptance criterion: for each mechanism, the registry's histogram
// totals, the "syscalls.<mech>" counters, and the exporter's per-track "X"
// span count all equal the number of handler invocations the workload
// actually made.
class PerMechanismCounts : public ::testing::TestWithParam<const char*> {};

TEST_P(PerMechanismCounts, WebserverHistogramsMatchHandlerCount) {
  const std::string mechanism = GetParam();
  Tracer tracer;
  std::uint64_t handled = 0;
  run_traced_webserver(mechanism, tracer, &handled);
  ASSERT_GT(handled, 0u);

  EXPECT_EQ(mechanism_total_for(tracer.metrics(), mechanism), handled);
  EXPECT_EQ(counter_total_for(tracer.metrics(), mechanism), handled);
  EXPECT_EQ(tracer.metrics().counter("trace.unmatched_exit"), 0u);
  EXPECT_EQ(tracer.ring().dropped(), 0u);

  const std::string json = export_chrome_json(tracer);
  MiniJsonParser parser(json);
  EXPECT_TRUE(parser.parse()) << "exporter emitted unparseable JSON";
  EXPECT_EQ(count_occurrences(json, "\"ph\": \"X\""), handled);

  // The human summary mentions the mechanism and the headline counters.
  const std::string summary = render_summary(tracer);
  EXPECT_NE(summary.find("ring.events"), std::string::npos);
  if (mechanism != "lazypoline") {
    EXPECT_NE(summary.find(mechanism), std::string::npos);
  } else {
    EXPECT_NE(summary.find("lazypoline-fast"), std::string::npos);
  }
}

INSTANTIATE_TEST_SUITE_P(Mechanisms, PerMechanismCounts,
                         ::testing::Values("ptrace", "sud", "zpoline",
                                           "lazypoline"));

TEST(TracerTest, ExportSurvivesRingOverflow) {
  // A tiny ring under the sud tool (2 events per syscall + selector flips)
  // must overflow; the export still parses and reports the drops.
  Tracer tracer(16);
  kern::Machine machine;
  machine.mmap_min_addr = 0;
  tracer.attach(machine);
  auto handler = std::make_shared<CountingHandler>();
  const auto program = make_getpid_loop(50);
  machine.register_program(program);
  auto tid = machine.load(program);
  ASSERT_TRUE(tid.is_ok());
  ASSERT_TRUE(scenario::install(scenario::Mechanism::Kind::kSud, machine,
                                tid.value(), handler)
                  .is_ok());
  ASSERT_TRUE(machine.run().all_exited);

  EXPECT_GT(tracer.ring().dropped(), 0u);
  EXPECT_EQ(tracer.ring().size(), 16u);
  // Counters are exact even though the ring wrapped.
  EXPECT_EQ(tracer.metrics().counter("syscalls.sud"), handler->count());

  const std::string json = export_chrome_json(tracer);
  MiniJsonParser parser(json);
  EXPECT_TRUE(parser.parse());
  EXPECT_NE(json.find("\"droppedEvents\": " +
                      std::to_string(tracer.ring().dropped())),
            std::string::npos);
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer tracer;
  tracer.set_enabled(false);
  kern::Machine machine;
  machine.mmap_min_addr = 0;
  tracer.attach(machine);
  auto handler = std::make_shared<CountingHandler>();
  const auto program = make_getpid_loop(10);
  machine.register_program(program);
  auto tid = machine.load(program);
  ASSERT_TRUE(tid.is_ok());
  ASSERT_TRUE(scenario::install(scenario::Mechanism::Kind::kSud, machine,
                                tid.value(), handler)
                  .is_ok());
  ASSERT_TRUE(machine.run().all_exited);

  EXPECT_GT(handler->count(), 0u);
  EXPECT_EQ(tracer.ring().size(), 0u);
  EXPECT_EQ(tracer.ring().dropped(), 0u);
  EXPECT_TRUE(tracer.metrics().counters().empty());
}

TEST(TracerTest, TracingChargesNoSimulatedCycles) {
  auto run_once = [](bool traced) {
    Tracer tracer;
    kern::Machine machine;
    machine.mmap_min_addr = 0;
    if (traced) tracer.attach(machine);
    auto handler = std::make_shared<CountingHandler>();
    const auto program = make_getpid_loop(25);
    machine.register_program(program);
    auto tid = machine.load(program).value();
    mechanisms::SudMechanism mechanism;
    EXPECT_TRUE(mechanism.install(machine, tid, handler).is_ok());
    EXPECT_TRUE(machine.run().all_exited);
    return machine.find_task(tid)->cycles;
  };
  EXPECT_EQ(run_once(false), run_once(true));
}

// --- multicast observers (satellite: observer setters -> add_*/remove_*) ----

TEST(MulticastObserverTest, TwoSyscallObserversBothFire) {
  kern::Machine machine;
  machine.mmap_min_addr = 0;
  std::uint64_t first = 0;
  std::uint64_t second = 0;
  const auto id1 = machine.add_syscall_observer(
      [&](const kern::Task&, std::uint64_t, const std::array<std::uint64_t, 6>&,
          kern::Machine::SyscallOrigin) { ++first; });
  machine.add_syscall_observer(
      [&](const kern::Task&, std::uint64_t, const std::array<std::uint64_t, 6>&,
          kern::Machine::SyscallOrigin) { ++second; });

  const auto program = make_getpid_loop(5);
  machine.register_program(program);
  ASSERT_TRUE(machine.load(program).is_ok());
  ASSERT_TRUE(machine.run().all_exited);
  EXPECT_GT(first, 0u);
  EXPECT_EQ(first, second);

  // Removing one must not disturb the other.
  machine.remove_syscall_observer(id1);
  const std::uint64_t first_before = first;
  const auto program2 = make_getpid_loop(5);
  machine.register_program(program2);
  ASSERT_TRUE(machine.load(program2).is_ok());
  ASSERT_TRUE(machine.run().all_exited);
  EXPECT_EQ(first, first_before);
  EXPECT_GT(second, first_before);
}

TEST(MulticastObserverTest, RecorderComposesWithUserObserver) {
  // The replay Recorder (slice + signal + nondet observers) and a user slice
  // observer registered on the same machine must both see every slice.
  kern::Machine machine;
  machine.mmap_min_addr = 0;
  auto recorder = std::make_shared<replay::Recorder>();
  recorder->attach(machine, /*rng_seed=*/1234, "sud", "getpid-loop");
  std::uint64_t user_slices = 0;
  machine.add_slice_observer(
      [&](const kern::Task&, std::uint64_t) { ++user_slices; });

  const auto program = make_getpid_loop(10);
  machine.register_program(program);
  auto tid = machine.load(program);
  ASSERT_TRUE(tid.is_ok());
  mechanisms::SudMechanism mechanism;
  auto handler = std::static_pointer_cast<interpose::SyscallHandler>(recorder);
  ASSERT_TRUE(mechanism.install(machine, tid.value(), handler).is_ok());
  ASSERT_TRUE(machine.run().all_exited);

  EXPECT_GT(user_slices, 0u);
  EXPECT_EQ(recorder->trace().count(replay::EventKind::kSchedule), user_slices);
  EXPECT_GT(recorder->trace().syscall_count(), 0u);
}

TEST(MulticastObserverTest, TracerComposesWithRecorder) {
  // Probe layer and observer layer are independent: a Tracer (trace sink) and
  // a Recorder (observers + handler) on the same run both get full streams.
  Tracer tracer;
  kern::Machine machine;
  machine.mmap_min_addr = 0;
  tracer.attach(machine);
  auto recorder = std::make_shared<replay::Recorder>();
  recorder->attach(machine, /*rng_seed=*/1234, "sud", "getpid-loop");

  const auto program = make_getpid_loop(10);
  machine.register_program(program);
  auto tid = machine.load(program);
  ASSERT_TRUE(tid.is_ok());
  mechanisms::SudMechanism mechanism;
  auto handler = std::static_pointer_cast<interpose::SyscallHandler>(recorder);
  ASSERT_TRUE(mechanism.install(machine, tid.value(), handler).is_ok());
  ASSERT_TRUE(machine.run().all_exited);

  EXPECT_EQ(tracer.metrics().counter("syscalls.sud"),
            recorder->trace().syscall_count());
  EXPECT_GT(tracer.ring().size(), 0u);
}

}  // namespace
}  // namespace lzp::trace
