// minitrace — an strace-like CLI over the simulated machine: pick a guest
// workload and an interposition mechanism, get a syscall trace plus the
// mechanism's cost. Demonstrates swapping mechanisms behind the common
// SyscallHandler API.
//
//   ./build/examples/minitrace [mechanism] [workload]
//     mechanism: lazypoline (default) | sud | zpoline | ptrace | seccomp-user
//     workload:  getpid-loop (default) | jit | ls | webserver
//
// Build & run:  cmake --build build && ./build/examples/minitrace sud jit
#include <cstdio>
#include <string>

#include "apps/coreutils.hpp"
#include "apps/jitcc.hpp"
#include "kernel/machine.hpp"
#include "mechanisms/seccomp_user_tool.hpp"
#include "scenario/scenario.hpp"

using namespace lzp;

namespace {

Result<isa::Program> build_workload(kern::Machine& machine,
                                    const std::string& name) {
  if (name == "getpid-loop") {
    isa::Assembler a;
    const auto entry = a.new_label();
    const auto loop = a.new_label();
    const auto done = a.new_label();
    a.bind(entry);
    a.mov(isa::Gpr::rbx, 5);
    a.bind(loop);
    a.cmp(isa::Gpr::rbx, 0);
    a.jz(done);
    a.mov(isa::Gpr::rax, kern::kSysGetpid);
    a.syscall_();
    a.sub(isa::Gpr::rbx, 1);
    a.jmp(loop);
    a.bind(done);
    apps::emit_exit(a, 0);
    return isa::make_program("getpid-loop", a, entry);
  }
  if (name == "jit") {
    const std::string src = apps::exhaustiveness_test_source();
    LZP_RETURN_IF_ERROR(machine.vfs().put_file(
        "prog.c", std::vector<std::uint8_t>(src.begin(), src.end())));
    auto runner = apps::make_jit_runner(machine, "prog.c");
    if (!runner) return runner.status();
    return std::move(runner).value().program;
  }
  if (name == "ls") {
    apps::populate_coreutil_fixtures(machine.vfs());
    return apps::make_coreutil("ls", apps::LibcProfile::kUbuntu2004);
  }
  return make_error(StatusCode::kNotFound, "unknown workload: " + name);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mechanism = argc > 1 ? argv[1] : "lazypoline";
  const std::string workload = argc > 2 ? argv[2] : "getpid-loop";
  const auto usage = [](const Status& status) {
    std::fprintf(stderr, "minitrace: %s\n", status.to_string().c_str());
    std::fprintf(stderr,
                 "usage: minitrace [lazypoline|sud|zpoline|ptrace|seccomp-user]"
                 " [getpid-loop|jit|ls|webserver]\n");
    return 2;
  };
  // seccomp-user is not a scenario mechanism: load natively, install after.
  const bool seccomp_user = mechanism == "seccomp-user";
  auto parsed = seccomp_user
                    ? Result<scenario::Mechanism>(scenario::Mechanism{})
                    : scenario::parse_mechanism(mechanism);
  if (!parsed.is_ok()) return usage(parsed.status());

  kern::Machine machine;
  auto handler = std::make_shared<interpose::TracingHandler>();
  std::shared_ptr<core::Lazypoline> lazypoline;
  kern::Tid tid = 0;
  Status installed = Status::ok();
  if (workload == "webserver") {
    // One nginx worker serving 3 requests of a 1 KiB file.
    const scenario::Scenario spec{
        scenario::Web{apps::nginx_profile(), 1, 1024, 36, 3}, parsed.value()};
    auto instance = scenario::build(spec, machine, handler);
    if (!instance.is_ok()) return usage(instance.status());
    tid = instance.value().workers.front();
    if (!instance.value().runtimes.empty()) {
      lazypoline = instance.value().runtimes.front();
    }
  } else {
    machine.mmap_min_addr = 0;
    auto program = build_workload(machine, workload);
    if (!program.is_ok()) return usage(program.status());
    machine.register_program(program.value());
    auto loaded = machine.load(program.value());
    if (!loaded.is_ok()) return 2;
    tid = loaded.value();
    installed =
        scenario::install(parsed.value(), machine, tid, handler, &lazypoline);
  }
  if (seccomp_user) {
    installed = mechanisms::SeccompUserMechanism().install(machine, tid, handler);
  }
  if (!installed.is_ok()) {
    std::fprintf(stderr, "minitrace: install failed: %s\n",
                 installed.to_string().c_str());
    return 2;
  }

  const auto stats = machine.run();
  if (!stats.all_exited) {
    std::fprintf(stderr, "minitrace: guest hung: %s\n",
                 machine.last_fatal().c_str());
    return 1;
  }

  std::printf("minitrace: %s under %s\n", workload.c_str(), mechanism.c_str());
  for (const auto& record : handler->trace()) {
    std::printf("  [tid %u] %s\n", record.tid, record.to_string().c_str());
  }
  const kern::Task* task = machine.find_task(tid);
  std::printf("+++ exited with %d (%llu cycles, %llu syscalls dispatched) +++\n",
              task->exit_code, static_cast<unsigned long long>(task->cycles),
              static_cast<unsigned long long>(task->syscalls_dispatched));
  if (lazypoline) {
    std::printf("lazypoline: %llu slow-path, %llu fast-path, %llu rewrites\n",
                static_cast<unsigned long long>(lazypoline->stats().slow_path_hits),
                static_cast<unsigned long long>(lazypoline->stats().fast_path_hits()),
                static_cast<unsigned long long>(lazypoline->stats().sites_rewritten));
  }
  return 0;
}
