#include "trace/tracer.hpp"

#include <string>

#include "analysis/crosscheck.hpp"
#include "kernel/syscalls.hpp"

namespace lzp::trace {
namespace {

std::string mech_counter(std::string_view prefix, kern::InterposeMechanism mech) {
  return std::string(prefix) + "." + std::string(kern::to_string(mech));
}

}  // namespace

void Tracer::attach(kern::Machine& machine) {
  machine_ = &machine;
  machine.set_trace_sink(this);
}

void Tracer::detach(kern::Machine& machine) {
  if (machine.trace_sink() == this) machine.set_trace_sink(nullptr);
  machine_ = nullptr;
}

void Tracer::clear() {
  ring_.clear();
  metrics_.clear();
  open_.clear();
  reset_slot_caches();
}

void Tracer::reset_slot_caches() noexcept {
  syscall_count_slots_.fill(nullptr);
  policy_transitions_slot_ = nullptr;
  policy_violations_slot_ = nullptr;
  policy_state_slots_.clear();
  selector_flip_slot_ = nullptr;
  signals_delivered_slot_ = nullptr;
  sigsys_slot_ = nullptr;
  seccomp_decision_slot_ = nullptr;
  last_hist_ = nullptr;
  last_hist_nr_ = ~0ULL;
  last_hist_mech_ = kern::InterposeMechanism::kNone;
  last_open_ = nullptr;
  last_open_tid_ = 0;
}

std::uint64_t Tracer::now() const noexcept {
  return machine_ == nullptr ? 0 : machine_->total_cycles();
}

std::uint64_t& Tracer::cached_counter(std::uint64_t*& slot, const char* name) {
  if (slot == nullptr) slot = &metrics_.counter_slot(name);
  return *slot;
}

std::vector<Tracer::OpenFrame>& Tracer::open_frames(kern::Tid tid) {
  if (last_open_ == nullptr || last_open_tid_ != tid) {
    last_open_ = &open_[tid];
    last_open_tid_ = tid;
  }
  return *last_open_;
}

void Tracer::push_event(const kern::Task& task, Event event) {
  event.tid = task.tid;
  event.cpu = task.cpu;
  // Concurrent (SMP) tracers stamp with the task's own cycles: the
  // machine-global counter is reconciled only at barriers, and per-task
  // time is what a per-CPU track renders anyway.
  event.cycles = concurrent_ ? task.cycles : now();
  ring_.push(event);
}

void Tracer::on_interpose_enter(const kern::Task& task, std::uint64_t nr,
                                kern::InterposeMechanism mech) {
  if (!enabled()) return;
  auto lock = maybe_lock();
  open_frames(task.tid).push_back(OpenFrame{nr, mech, task.cycles, now()});
  Event event;
  event.type = EventType::kSyscallEnter;
  event.mech = mech;
  event.a = nr;
  push_event(task, event);
}

void Tracer::on_interpose_exit(const kern::Task& task, std::uint64_t nr,
                               kern::InterposeMechanism mech,
                               std::uint64_t result) {
  if (!enabled()) return;
  auto lock = maybe_lock();
  std::uint64_t latency = 0;
  std::vector<OpenFrame>& frames = open_frames(task.tid);
  if (!frames.empty()) {
    // LIFO: nested interposition (a handler's own syscall getting interposed)
    // closes inner frames first.
    const OpenFrame frame = frames.back();
    frames.pop_back();
    latency = task.cycles - frame.enter_task_cycles;
    if (last_hist_ == nullptr || last_hist_nr_ != nr ||
        last_hist_mech_ != mech) {
      last_hist_ = &metrics_.histogram_slot(nr, mech);
      last_hist_nr_ = nr;
      last_hist_mech_ = mech;
    }
    last_hist_->add(latency);
  } else {
    // Exit without a recorded enter: the tracer was enabled mid-syscall.
    metrics_.bump("trace.unmatched_exit");
  }
  std::uint64_t*& count_slot =
      syscall_count_slots_[static_cast<std::size_t>(mech)];
  if (count_slot == nullptr) {
    count_slot = &metrics_.counter_slot(mech_counter("syscalls", mech));
  }
  ++*count_slot;
  Event event;
  event.type = EventType::kSyscallExit;
  event.mech = mech;
  event.a = nr;
  event.b = result;
  event.c = latency;
  push_event(task, event);
}

void Tracer::on_selector_flip(const kern::Task& task, std::uint8_t value) {
  if (!enabled()) return;
  auto lock = maybe_lock();
  ++cached_counter(selector_flip_slot_, "sud.selector_flips");
  Event event;
  event.type = EventType::kSelectorFlip;
  event.a = value;
  push_event(task, event);
}

void Tracer::on_site_rewrite(const kern::Task& task, std::uint64_t site_addr) {
  if (!enabled()) return;
  auto lock = maybe_lock();
  metrics_.bump("zpoline.site_rewrites");
  Event event;
  event.type = EventType::kSiteRewrite;
  event.a = site_addr;
  push_event(task, event);
}

void Tracer::on_signal_delivery(const kern::Task& task,
                                const kern::SigInfo& info) {
  if (!enabled()) return;
  auto lock = maybe_lock();
  ++cached_counter(signals_delivered_slot_, "signals.delivered");
  if (info.signo == kern::kSigsys) {
    ++cached_counter(sigsys_slot_, "signals.sigsys");
  }
  Event event;
  event.type = EventType::kSignal;
  event.a = static_cast<std::uint64_t>(info.signo);
  event.b = static_cast<std::uint64_t>(info.code);
  event.c = info.syscall_nr;
  push_event(task, event);
}

void Tracer::on_seccomp_decision(const kern::Task& task, std::uint64_t nr,
                                 std::uint32_t action) {
  if (!enabled()) return;
  auto lock = maybe_lock();
  ++cached_counter(seccomp_decision_slot_, "seccomp.decisions");
  Event event;
  event.type = EventType::kSeccompDecision;
  event.mech = kern::InterposeMechanism::kSeccompBpf;
  event.a = nr;
  event.b = action;
  push_event(task, event);
}

void Tracer::on_decode_invalidation(const kern::Task& task, std::uint64_t rip) {
  if (!enabled()) return;
  auto lock = maybe_lock();
  metrics_.bump("dcache.invalidations");
  Event event;
  event.type = EventType::kDecodeInvalidation;
  event.a = rip;
  push_event(task, event);
}

void Tracer::on_block_invalidation(const kern::Task& task, std::uint64_t rip) {
  if (!enabled()) return;
  auto lock = maybe_lock();
  metrics_.bump("bcache.invalidations");
  Event event;
  event.type = EventType::kBlockInvalidation;
  event.a = rip;
  push_event(task, event);
}

void Tracer::on_mechanism_install(const kern::Task& task,
                                  kern::InterposeMechanism mech) {
  if (!enabled()) return;
  auto lock = maybe_lock();
  metrics_.bump(mech_counter("installs", mech));
  Event event;
  event.type = EventType::kMechanismInstall;
  event.mech = mech;
  push_event(task, event);
}

void Tracer::on_crosscheck(const kern::Task& task, std::uint64_t site,
                           std::uint8_t verdict, std::uint8_t outcome) {
  if (!enabled()) return;
  auto lock = maybe_lock();
  metrics_.bump("crosscheck." +
                std::string(to_string(
                    static_cast<analysis::CrosscheckOutcome>(outcome))));
  Event event;
  event.type = EventType::kCrosscheck;
  event.a = site;
  event.b = verdict;
  event.c = outcome;
  push_event(task, event);
}

std::pair<std::uint64_t*, std::uint64_t*>& Tracer::policy_state_slots(
    std::uint64_t state) {
  auto it = policy_state_slots_.find(state);
  if (it == policy_state_slots_.end()) {
    const std::string label =
        state == kern::kPolicyEntryState
            ? std::string("entry")
            : std::string(kern::syscall_name(state));
    it = policy_state_slots_
             .emplace(state,
                      std::make_pair(
                          &metrics_.counter_slot("policy.state." + label +
                                                 ".checks"),
                          &metrics_.counter_slot("policy.state." + label +
                                                 ".violations")))
             .first;
  }
  return it->second;
}

void Tracer::on_policy_decision(const kern::Task& task, std::uint64_t nr,
                                std::uint64_t from_state,
                                kern::PolicyDecision decision) {
  if (!enabled()) return;
  auto lock = maybe_lock();
  ++cached_counter(policy_transitions_slot_, "policy.transitions");
  auto& [checks, violations] = policy_state_slots(from_state);
  ++*checks;
  const bool violation = decision == kern::PolicyDecision::kViolationLogged ||
                         decision == kern::PolicyDecision::kViolationDenied ||
                         decision == kern::PolicyDecision::kViolationKilled;
  if (violation) {
    ++cached_counter(policy_violations_slot_, "policy.violations");
    ++*violations;
  }
  Event event;
  event.type = EventType::kPolicyDecision;
  event.a = nr;
  event.b = from_state;
  event.c = static_cast<std::uint64_t>(decision);
  push_event(task, event);
}

void Tracer::on_task_event(const kern::Task& task, TaskEvent te,
                           std::uint64_t detail) {
  if (!enabled()) return;
  auto lock = maybe_lock();
  Event event;
  switch (te) {
    case TaskEvent::kStart:
      metrics_.bump("tasks.started");
      event.type = EventType::kTaskStart;
      break;
    case TaskEvent::kSwitch:
      metrics_.bump("tasks.switches");
      event.type = EventType::kTaskSwitch;
      break;
    case TaskEvent::kClone:
      metrics_.bump("tasks.clones");
      event.type = EventType::kClone;
      break;
    case TaskEvent::kExecve:
      metrics_.bump("tasks.execves");
      event.type = EventType::kExecve;
      break;
    case TaskEvent::kExit:
      metrics_.bump("tasks.exits");
      event.type = EventType::kTaskExit;
      break;
  }
  event.a = detail;
  push_event(task, event);
}

}  // namespace lzp::trace
