// The public interposer API.
//
// A SyscallHandler is the user-supplied interposition function: it sees
// every intercepted syscall with full context — number, arguments, the
// invoking task's memory (for deep argument inspection: dereferencing
// pointers, reading strings) — and decides what to do: pass the syscall
// through, rewrite its arguments, emulate it, or deny it. This is the "full
// expressiveness" column of the paper's Table I; mechanisms that cannot run
// such a handler (seccomp-bpf) expose a narrower installation API instead.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/status.hpp"
#include "kernel/machine.hpp"

namespace lzp::interpose {

struct SyscallRequest {
  std::uint64_t nr = 0;
  std::array<std::uint64_t, 6> args{};
  // Address of the invoking syscall instruction, when the mechanism knows it
  // (rewriters and SUD do; 0 otherwise).
  std::uint64_t site = 0;
};

// Handed to the handler. Provides the "deep inspection" capabilities that
// distinguish expressive interposers, plus the pass-through primitive.
class InterposeContext {
 public:
  InterposeContext(kern::Machine& machine, kern::Task& task, SyscallRequest req,
                   std::function<std::uint64_t(std::uint64_t,
                                               const std::array<std::uint64_t, 6>&)>
                       raw_syscall)
      : machine_(machine),
        task_(task),
        req_(req),
        raw_syscall_(std::move(raw_syscall)) {}

  [[nodiscard]] const SyscallRequest& request() const noexcept { return req_; }
  [[nodiscard]] kern::Task& task() noexcept { return task_; }
  [[nodiscard]] kern::Machine& machine() noexcept { return machine_; }

  // Executes the (possibly modified) syscall for real and returns rax.
  std::uint64_t pass_through() { return raw_syscall_(req_.nr, req_.args); }
  std::uint64_t execute(std::uint64_t nr,
                        const std::array<std::uint64_t, 6>& args) {
    return raw_syscall_(nr, args);
  }

  // Deep argument inspection: dereference user pointers (what BPF cannot do).
  Result<std::string> read_cstring(std::uint64_t addr, std::size_t max = 4096) const;
  Result<std::vector<std::uint8_t>> read_bytes(std::uint64_t addr,
                                               std::size_t length) const;
  Status write_bytes(std::uint64_t addr, std::span<const std::uint8_t> data);

  // Mutable request (argument rewriting).
  SyscallRequest& mutable_request() noexcept { return req_; }

 private:
  kern::Machine& machine_;
  kern::Task& task_;
  SyscallRequest req_;
  std::function<std::uint64_t(std::uint64_t, const std::array<std::uint64_t, 6>&)>
      raw_syscall_;
};

// Under run_smp one handler instance can be called from several host
// threads at once (scenario::build hands one handler to every worker), so a
// handler shared by a multi-CPU run must guard whatever it mutates.
class SyscallHandler {
 public:
  virtual ~SyscallHandler() = default;
  // Must return the value to place in the application's rax.
  virtual std::uint64_t handle(InterposeContext& ctx) = 0;
  // Entry-stop interposition. Mechanisms that stop the tracee BEFORE kernel
  // execution (ptrace) call this first; returning true suppresses execution
  // entirely and places *result in rax (rr's orig_rax = -1 injection
  // pattern). `handle` is not called for a suppressed syscall. Handlers that
  // only observe (the default) return false and are invoked at exit stop.
  virtual bool pre_execute(InterposeContext& ctx, std::uint64_t* result) {
    (void)ctx;
    (void)result;
    return false;
  }
  [[nodiscard]] virtual std::string name() const = 0;
};

// --- standard handlers -------------------------------------------------------

// Executes the syscall unmodified ("dummy" interposition function used for
// all of the paper's overhead measurements, §V-B).
class DummyHandler final : public SyscallHandler {
 public:
  std::uint64_t handle(InterposeContext& ctx) override {
    return ctx.pass_through();
  }
  [[nodiscard]] std::string name() const override { return "dummy"; }
};

// One trace record per interposed syscall (the §V-A exhaustiveness probe:
// "print the current system call with all its arguments, then execute it").
struct TraceRecord {
  std::uint64_t nr = 0;
  std::array<std::uint64_t, 6> args{};
  std::uint64_t result = 0;
  kern::Tid tid = 0;
  // strace-style decoded detail (e.g. the dereferenced path of an open).
  std::string detail;

  [[nodiscard]] std::string to_string() const;
  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};

// Safe to share under run_smp: appends go through a mutex. trace() hands out
// the log itself, so read it once the run is over.
class TracingHandler final : public SyscallHandler {
 public:
  std::uint64_t handle(InterposeContext& ctx) override;
  [[nodiscard]] std::string name() const override { return "tracing"; }

  [[nodiscard]] const std::vector<TraceRecord>& trace() const noexcept {
    return trace_;
  }
  [[nodiscard]] std::vector<std::uint64_t> traced_numbers() const;
  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    trace_.clear();
  }

 private:
  mutable std::mutex mu_;
  std::vector<TraceRecord> trace_;
};

// Path-based sandbox policy: denies opens of protected path prefixes. This
// requires dereferencing the path pointer — the canonical "deep argument
// inspection" that seccomp-bpf cannot express.
class PathPolicyHandler final : public SyscallHandler {
 public:
  explicit PathPolicyHandler(std::vector<std::string> denied_prefixes)
      : denied_prefixes_(std::move(denied_prefixes)) {}

  std::uint64_t handle(InterposeContext& ctx) override;
  [[nodiscard]] std::string name() const override { return "path-policy"; }

  [[nodiscard]] std::uint64_t denials() const noexcept { return denials_; }

 private:
  std::vector<std::string> denied_prefixes_;
  std::uint64_t denials_ = 0;
};

// Wraps another handler and deliberately clobbers extended state, modeling
// interposer code whose compiler freely uses SSE/AVX/x87 (paper §IV-B). An
// interposition mechanism that does not preserve xstate will leak this
// corruption into the application.
class XstateClobberingHandler final : public SyscallHandler {
 public:
  explicit XstateClobberingHandler(std::shared_ptr<SyscallHandler> inner)
      : inner_(std::move(inner)) {}

  std::uint64_t handle(InterposeContext& ctx) override;
  [[nodiscard]] std::string name() const override {
    return "xstate-clobbering(" + inner_->name() + ")";
  }

 private:
  std::shared_ptr<SyscallHandler> inner_;
};

// Deterministic fault injection: forces the Nth, 2Nth, ... matching syscall
// to fail with a chosen errno instead of executing — the
// reliability-testing use case of the paper's introduction (i/ii). With an
// exhaustive mechanism underneath, no syscall can dodge the campaign.
class FaultInjectionHandler final : public SyscallHandler {
 public:
  struct Config {
    std::uint64_t target_nr = 0;   // syscall to sabotage
    std::uint64_t every_nth = 2;   // fail every Nth occurrence (1 = always)
    std::int64_t error = 0;        // errno to return (positive, e.g. EINTR)
  };

  explicit FaultInjectionHandler(Config config) : config_(config) {}

  std::uint64_t handle(InterposeContext& ctx) override;
  [[nodiscard]] std::string name() const override { return "fault-injection"; }

  [[nodiscard]] std::uint64_t injected() const noexcept { return injected_; }
  [[nodiscard]] std::uint64_t observed() const noexcept { return observed_; }

 private:
  Config config_;
  std::uint64_t observed_ = 0;
  std::uint64_t injected_ = 0;
};

// Emulation handler: answers getpid/gettid from a cache without entering the
// kernel (an "OS emulation" use case, Table I row (iii)); everything else
// passes through.
class PidCachingHandler final : public SyscallHandler {
 public:
  std::uint64_t handle(InterposeContext& ctx) override;
  [[nodiscard]] std::string name() const override { return "pid-cache"; }
  [[nodiscard]] std::uint64_t cache_hits() const noexcept { return hits_; }

 private:
  std::uint64_t cached_pid_ = 0;
  std::uint64_t hits_ = 0;
};

}  // namespace lzp::interpose
