// The workloads the example CLIs (policy, profile, trace_dump, replay_dump)
// share, each loaded under an interposition mechanism named as on their
// command lines (see scenario::parse_mechanism):
//
//   getpid-loop  50 getpid calls, then exit(0)
//   webserver    two nginx workers serving 60 requests of a 1 KiB file over
//                4 keepalive connections
#pragma once

#include <cstdio>
#include <memory>
#include <string>

#include "apps/minilibc.hpp"
#include "isa/assemble.hpp"
#include "kernel/machine.hpp"
#include "kernel/syscalls.hpp"
#include "scenario/scenario.hpp"

namespace lzp::examples {

inline isa::Program make_getpid_loop() {
  isa::Assembler a;
  const auto entry = a.new_label();
  const auto loop = a.new_label();
  const auto done = a.new_label();
  a.bind(entry);
  a.mov(isa::Gpr::rbx, 50);
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

// Reports a failed step on stderr; true when it succeeded.
inline bool report(const Status& status, const std::string& what) {
  if (status.is_ok()) return true;
  std::fprintf(stderr, "%s: %s\n", what.c_str(), status.to_string().c_str());
  return false;
}
template <typename T>
bool report(const Result<T>& result, const std::string& what) {
  return result.is_ok() || report(result.status(), what);
}

// Loads `program` as the machine's one task under `mechanism`, dispatching
// to `handler`.
inline bool load_program(kern::Machine& machine, const isa::Program& program,
                         const std::string& mechanism,
                         std::shared_ptr<interpose::SyscallHandler> handler) {
  auto parsed = scenario::parse_mechanism(mechanism);
  if (!report(parsed, "mechanism")) return false;
  machine.mmap_min_addr = 0;
  machine.register_program(program);
  auto tid = machine.load(program);
  if (!report(tid, "load")) return false;
  return report(scenario::install(parsed.value(), machine, tid.value(),
                                  std::move(handler)),
                "install " + mechanism);
}

// Loads `workload` onto `machine` under `mechanism`, dispatching to
// `handler`, and stores its program in `*program` when given. With
// `live_client` false the webserver's client sends nothing (replay supplies
// every payload from the trace).
inline bool load_workload(kern::Machine& machine, const std::string& workload,
                          const std::string& mechanism,
                          std::shared_ptr<interpose::SyscallHandler> handler,
                          isa::Program* program = nullptr,
                          bool live_client = true) {
  if (workload == "getpid-loop") {
    const isa::Program loop = make_getpid_loop();
    if (program != nullptr) *program = loop;
    return load_program(machine, loop, mechanism, std::move(handler));
  }
  if (workload != "webserver") {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return false;
  }
  auto parsed = scenario::parse_mechanism(mechanism);
  if (!report(parsed, "mechanism")) return false;
  const scenario::Scenario spec{
      scenario::Web{apps::nginx_profile(), 2, 1024, 4, live_client ? 60u : 0u},
      parsed.value()};
  auto instance = scenario::build(spec, machine, std::move(handler));
  if (!report(instance, "webserver")) return false;
  if (program != nullptr) *program = std::move(instance.value().program);
  return true;
}

}  // namespace lzp::examples
