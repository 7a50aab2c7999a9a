// The kernel-side trace probe interface.
//
// A TraceSink is the single low-level observability hook the Machine and the
// interposer runtimes report into: syscall interpositions tagged with the
// mechanism that handled them, SUD selector flips, signal deliveries, zpoline
// site rewrites, seccomp filter decisions, decode-cache invalidations, and
// task lifecycle events. The default implementation of every probe is a
// no-op, so sinks override only what they consume; src/trace's Tracer is the
// full-fat implementation (flight recorder + metrics registry).
//
// Probes never charge simulated cycles: attaching a sink must not perturb
// the cycle counts the benches measure (bench/overhead.cpp asserts
// this). A detached or disabled sink costs each `if (auto* sink =
// machine.trace_sink())` call site one load and one branch.
#pragma once

#include <cstdint>
#include <string_view>

namespace lzp::kern {

struct Task;
struct SigInfo;

// Which interposition path handled (or decided about) a syscall. The split
// of lazypoline into fast/slow mirrors the paper's Fig. 4 cost accounting:
// the SIGSYS-mediated discovery path and the rewritten CALL-RAX path have
// very different cycle profiles even though they share the generic entry.
enum class InterposeMechanism : std::uint8_t {
  kNone = 0,        // no interposer involved (native dispatch)
  kPtrace,
  kSeccompBpf,      // kernel-side filter decision; no user handler runs
  kSeccompUser,     // SECCOMP_RET_USER_NOTIF supervisor
  kSud,             // plain SUD tool (SIGSYS every time)
  kZpoline,         // static-rewrite trampoline
  kLazypolineFast,  // rewritten site -> generic entry
  kLazypolineSlow,  // SUD SIGSYS discovery -> generic entry
};
inline constexpr std::size_t kNumMechanisms = 8;

[[nodiscard]] constexpr std::string_view to_string(InterposeMechanism mech) noexcept {
  switch (mech) {
    case InterposeMechanism::kNone: return "native";
    case InterposeMechanism::kPtrace: return "ptrace";
    case InterposeMechanism::kSeccompBpf: return "seccomp-bpf";
    case InterposeMechanism::kSeccompUser: return "seccomp-user";
    case InterposeMechanism::kSud: return "sud";
    case InterposeMechanism::kZpoline: return "zpoline";
    case InterposeMechanism::kLazypolineFast: return "lazypoline-fast";
    case InterposeMechanism::kLazypolineSlow: return "lazypoline-slow";
  }
  return "?";
}

// Sentinel automaton states for the on_policy_decision probe. Mirrored by
// src/policy (which links the kernel anyway); defined here so the probe's
// contract — "state ~0 means the pre-first-syscall entry state" — lives with
// the probe and sinks like src/trace's Tracer can render it without
// depending on the policy library.
inline constexpr std::uint64_t kPolicyEntryState = ~0ULL;
inline constexpr std::uint64_t kPolicyAnySyscall = ~0ULL - 1;

// Outcome of one syscall-flow-integrity check (policy/enforce.hpp), passed
// to on_policy_decision as a raw byte so the probe layer stays independent
// of the policy library.
enum class PolicyDecision : std::uint8_t {
  kAllow = 0,         // transition permitted by the automaton
  kAlwaysAllow,       // on the enforcer's unconditional allowlist (exit etc.)
  kWildcardAllow,     // state compiled to a wildcard filter (unknowable set)
  kViolationLogged,   // off-automaton, log-only verdict: executed anyway
  kViolationDenied,   // off-automaton, denied with an errno, not executed
  kViolationKilled,   // off-automaton, process killed
};

[[nodiscard]] constexpr std::string_view to_string(PolicyDecision d) noexcept {
  switch (d) {
    case PolicyDecision::kAllow: return "allow";
    case PolicyDecision::kAlwaysAllow: return "always-allow";
    case PolicyDecision::kWildcardAllow: return "wildcard-allow";
    case PolicyDecision::kViolationLogged: return "violation-logged";
    case PolicyDecision::kViolationDenied: return "violation-denied";
    case PolicyDecision::kViolationKilled: return "violation-killed";
  }
  return "?";
}

class TraceSink {
 public:
  virtual ~TraceSink() = default;

  // Runtime gate, non-virtual so Machine::trace_sink() can filter a disabled
  // sink with a plain load instead of dispatching probes that would return
  // immediately. A disabled sink stays attached but receives no probes.
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  enum class TaskEvent : std::uint8_t {
    kStart,   // detail: entry rip
    kSwitch,  // scheduler picked this task after running another
    kClone,   // detail: child tid
    kExecve,  // detail: 0
    kExit,    // detail: exit code
  };

  // An interposer is about to run / has run its handler for a syscall.
  // Mechanism tools bracket their handler invocation with this pair; the
  // exit carries the result placed in the application's rax.
  virtual void on_interpose_enter(const Task&, std::uint64_t /*nr*/,
                                  InterposeMechanism) {}
  virtual void on_interpose_exit(const Task&, std::uint64_t /*nr*/,
                                 InterposeMechanism, std::uint64_t /*result*/) {}

  // A runtime stored a new value into a task's SUD selector byte.
  virtual void on_selector_flip(const Task&, std::uint8_t /*value*/) {}
  // A syscall instruction was rewritten to CALL RAX (zpoline/lazypoline).
  virtual void on_site_rewrite(const Task&, std::uint64_t /*site_addr*/) {}
  // A signal is being delivered (before disposition is applied).
  virtual void on_signal_delivery(const Task&, const SigInfo&) {}
  // The seccomp filter chain produced its decisive action for a syscall.
  virtual void on_seccomp_decision(const Task&, std::uint64_t /*nr*/,
                                   std::uint32_t /*action*/) {}
  // The decode cache dropped an entry whose page generation went stale (the
  // SMC signature of a runtime rewrite landing on cached code).
  virtual void on_decode_invalidation(const Task&, std::uint64_t /*rip*/) {}
  // Same event for the superblock cache (cpu/block_cache.hpp): a cached
  // straight-line decode was dropped because its page generation went stale.
  virtual void on_block_invalidation(const Task&, std::uint64_t /*rip*/) {}
  // An interposition mechanism finished arming itself on a task.
  virtual void on_mechanism_install(const Task&, InterposeMechanism) {}
  // The static/dynamic cross-checker (analysis/crosscheck.hpp) matched a
  // runtime observation at `site` against the static rewrite-safety verdict.
  // `verdict` is an analysis::Verdict and `outcome` an
  // analysis::CrosscheckOutcome, passed as raw bytes so the kernel probe
  // layer stays independent of the analysis library.
  virtual void on_crosscheck(const Task&, std::uint64_t /*site*/,
                             std::uint8_t /*verdict*/,
                             std::uint8_t /*outcome*/) {}
  // A syscall-flow-integrity enforcer (policy/enforce.hpp) checked syscall
  // `nr` against the per-task automaton state `from_state` (a syscall
  // number, or kPolicyEntryState before the first syscall) and reached
  // `decision` (a PolicyDecision).
  virtual void on_policy_decision(const Task&, std::uint64_t /*nr*/,
                                  std::uint64_t /*from_state*/,
                                  PolicyDecision /*decision*/) {}
  // Task lifecycle: start/switch/clone/execve/exit.
  virtual void on_task_event(const Task&, TaskEvent, std::uint64_t /*detail*/) {}

 private:
  bool enabled_ = true;
};

}  // namespace lzp::kern
