// Typed flight-recorder events.
//
// One POD per observable occurrence on the interposition path, stamped with
// the simulated global cycle counter and the tid it happened on. The a/b/c
// payload slots are typed per event kind (see the enum comments) — a union
// would save nothing (the struct is padded to 40 bytes either way) and would
// complicate the exporter.
#pragma once

#include <cstdint>
#include <string_view>

#include "kernel/task.hpp"
#include "kernel/trace_sink.hpp"

namespace lzp::trace {

enum class EventType : std::uint8_t {
  kSyscallEnter,        // a = nr
  kSyscallExit,         // a = nr, b = result, c = cycle latency (enter->exit)
  kSelectorFlip,        // a = new selector value
  kSignal,              // a = signo, b = code, c = syscall nr (SIGSYS)
  kSiteRewrite,         // a = rewritten site address
  kSeccompDecision,     // a = nr, b = decisive action word
  kDecodeInvalidation,  // a = rip whose cached decode went stale
  kBlockInvalidation,   // a = rip whose cached superblock went stale
  kMechanismInstall,    // mech = the mechanism that finished arming
  kCrosscheck,          // a = site, b = static verdict, c = outcome
  kPolicyDecision,      // a = nr, b = from-state, c = kern::PolicyDecision
  kTaskStart,           // a = entry rip
  kTaskSwitch,
  kClone,               // a = child tid
  kExecve,
  kTaskExit,            // a = exit code
};

[[nodiscard]] constexpr std::string_view to_string(EventType type) noexcept {
  switch (type) {
    case EventType::kSyscallEnter: return "syscall-enter";
    case EventType::kSyscallExit: return "syscall-exit";
    case EventType::kSelectorFlip: return "selector-flip";
    case EventType::kSignal: return "signal";
    case EventType::kSiteRewrite: return "site-rewrite";
    case EventType::kSeccompDecision: return "seccomp-decision";
    case EventType::kDecodeInvalidation: return "decode-invalidation";
    case EventType::kBlockInvalidation: return "block-invalidation";
    case EventType::kMechanismInstall: return "mechanism-install";
    case EventType::kCrosscheck: return "crosscheck";
    case EventType::kPolicyDecision: return "policy-decision";
    case EventType::kTaskStart: return "task-start";
    case EventType::kTaskSwitch: return "task-switch";
    case EventType::kClone: return "clone";
    case EventType::kExecve: return "execve";
    case EventType::kTaskExit: return "task-exit";
  }
  return "?";
}

struct Event {
  EventType type = EventType::kTaskSwitch;
  kern::InterposeMechanism mech = kern::InterposeMechanism::kNone;
  kern::Tid tid = 0;
  // Simulated CPU the event happened on (Task::cpu at emission; always 0
  // outside run_smp). The Perfetto exporter renders one track per CPU.
  unsigned cpu = 0;
  // Machine::total_cycles() at emission — or the task's own cycle counter in
  // a concurrent (SMP) tracer, where the global counter is barrier-stale.
  std::uint64_t cycles = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
};

}  // namespace lzp::trace
