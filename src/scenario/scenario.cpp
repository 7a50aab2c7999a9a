#include "scenario/scenario.hpp"

#include <algorithm>
#include <cstdio>

#include "apps/minilibc.hpp"
#include "isa/assemble.hpp"
#include "mechanisms/ptrace_tool.hpp"
#include "mechanisms/sud_tool.hpp"
#include "zpoline/zpoline.hpp"

namespace lzp::scenario {

namespace {

// Generous enough for the largest Figure-5 cell; only a hung guest reaches it.
constexpr std::uint64_t kStepBudget = 4'000'000'000ULL;

constexpr const char* kResourcePath = "index.html";

const char* kind_name(Mechanism::Kind kind) {
  switch (kind) {
    case Mechanism::Kind::kNative: return "native";
    case Mechanism::Kind::kPtrace: return "ptrace";
    case Mechanism::Kind::kSud: return "sud";
    case Mechanism::Kind::kSudAllow: return "sud-allow";
    case Mechanism::Kind::kZpoline: return "zpoline";
    case Mechanism::Kind::kLazypoline: return "lazypoline";
  }
  return "?";
}

Status context(const Status& status, const Scenario& scenario) {
  return make_error(status.code(),
                    status.message() + " [" + to_string(scenario) + "]");
}

// Seeds the file and listeners, then builds, registers and loads the server.
Status load_web(const Web& web, kern::Machine& machine, Instance& out) {
  LZP_RETURN_IF_ERROR(
      machine.vfs().put_file_of_size(kResourcePath, web.file_bytes));
  const unsigned listeners = web.shared_listener ? 1 : web.workers;
  for (unsigned i = 0; i < listeners; ++i) {
    kern::ClientWorkload client;
    client.connections = web.connections;
    client.total_requests = web.requests;
    client.response_bytes = web.profile.header_bytes + web.file_bytes;
    out.listeners.push_back(machine.net().create_listener(client));
  }
  auto program =
      web.threads > 0
          ? apps::make_threaded_webserver(machine, web.profile, kResourcePath,
                                          static_cast<int>(web.threads))
          : apps::make_webserver(machine, web.profile, kResourcePath);
  if (!program) return program.status();
  out.program = std::move(program).value();
  machine.register_program(out.program);
  for (unsigned w = 0; w < web.workers; ++w) {
    auto tid = machine.load(out.program);
    if (!tid) return tid.status();
    kern::FdEntry entry;
    entry.kind = kern::FdEntry::Kind::kListener;
    entry.net_id = out.listeners[web.shared_listener ? 0 : w];
    machine.find_task(tid.value())->process->install_fd_at(apps::kListenerFd,
                                                            entry);
    out.workers.push_back(tid.value());
  }
  return Status::ok();
}

Status load_loop(const Loop& loop, kern::Machine& machine, Instance& out) {
  auto program = make_loop(loop);
  if (!program) return program.status();
  out.program = std::move(program).value();
  machine.register_program(out.program);
  auto tid = machine.load(out.program);
  if (!tid) return tid.status();
  out.workers.push_back(tid.value());
  return Status::ok();
}

}  // namespace

Result<isa::Program> make_loop(const Loop& loop) {
  isa::Assembler a;
  const auto entry = a.new_label();
  const auto top = a.new_label();
  const auto done = a.new_label();
  a.bind(entry);
  a.mov(isa::Gpr::rbx, loop.iterations);
  a.bind(top);
  a.cmp(isa::Gpr::rbx, 0);
  a.jz(done);
  a.mov(isa::Gpr::rax, loop.nr);
  a.syscall_();
  a.sub(isa::Gpr::rbx, 1);
  a.jmp(top);
  a.bind(done);
  apps::emit_exit(a, 0);
  return isa::make_program("micro-loop", a, entry);
}

Status install(const Mechanism& mechanism, kern::Machine& machine,
               kern::Tid tid, std::shared_ptr<interpose::SyscallHandler> handler,
               std::shared_ptr<core::Lazypoline>* runtime) {
  switch (mechanism.kind) {
    case Mechanism::Kind::kNative:
      return Status::ok();
    case Mechanism::Kind::kPtrace:
      return mechanisms::PtraceMechanism().install(machine, tid, handler);
    case Mechanism::Kind::kSud:
      return mechanisms::SudMechanism().install(machine, tid, handler);
    case Mechanism::Kind::kSudAllow:
      return mechanisms::SudMechanism::install_always_allow(machine, tid);
    case Mechanism::Kind::kZpoline:
      return zpoline::ZpolineMechanism().install(machine, tid, handler);
    case Mechanism::Kind::kLazypoline:
      break;
  }
  std::shared_ptr<core::Lazypoline> own;
  std::shared_ptr<core::Lazypoline>& lazypoline =
      runtime != nullptr ? *runtime : own;
  if (!lazypoline) {
    lazypoline = core::Lazypoline::create(machine, mechanism.lazypoline);
  }
  LZP_RETURN_IF_ERROR(lazypoline->install(machine, tid, std::move(handler)));
  if (mechanism.prerewrite) {
    const kern::Task* task = machine.find_task(tid);
    const isa::Program* program =
        task != nullptr ? machine.find_program(task->process->program_name)
                        : nullptr;
    if (program == nullptr) {
      return make_error(StatusCode::kFailedPrecondition,
                        "prerewrite: task " + std::to_string(tid) +
                            " runs no registered program");
    }
    for (std::uint64_t site : program->true_syscall_addresses()) {
      LZP_RETURN_IF_ERROR(lazypoline->rewrite_site_manually(tid, site));
    }
  }
  if (!mechanism.lazypoline.use_sud) {
    LZP_RETURN_IF_ERROR(lazypoline->disable_sud(tid));
  }
  return Status::ok();
}

Result<Instance> build(const Scenario& scenario, kern::Machine& machine,
                       std::shared_ptr<interpose::SyscallHandler> handler) {
  machine.mmap_min_addr = 0;
  machine.reseed_rng(scenario.seed);
  Instance out;
  const Status loaded =
      std::holds_alternative<Web>(scenario.program)
          ? load_web(std::get<Web>(scenario.program), machine, out)
          : load_loop(std::get<Loop>(scenario.program), machine, out);
  if (!loaded.is_ok()) return context(loaded, scenario);
  for (kern::Tid tid : out.workers) {
    std::shared_ptr<core::Lazypoline> runtime;
    const Status installed =
        install(scenario.mechanism, machine, tid, handler, &runtime);
    if (!installed.is_ok()) return context(installed, scenario);
    if (runtime) out.runtimes.push_back(std::move(runtime));
  }
  return out;
}

Result<Outcome> run(const Scenario& scenario, kern::Machine& machine,
                    const Instance& instance) {
  Outcome out;
  bool all_exited = false;
  if (scenario.cpus > 1) {
    kern::SmpConfig config;
    config.cpus = scenario.cpus;
    config.seed = scenario.seed;
    out.smp = machine.run_smp(config, kStepBudget);
    all_exited = out.smp.all_exited;
  } else {
    all_exited = machine.run(kStepBudget).all_exited;
  }
  if (!all_exited) {
    return context(make_error(StatusCode::kInternal,
                              "guest hung: " + machine.last_fatal()),
                   scenario);
  }
  if (const Web* web = std::get_if<Web>(&scenario.program)) {
    for (int listener : instance.listeners) {
      const std::uint64_t served = machine.net().completed_requests(listener);
      if (served != web->requests) {
        return context(make_error(StatusCode::kInternal,
                                  "listener " + std::to_string(listener) +
                                      " served " + std::to_string(served) +
                                      " of " + std::to_string(web->requests) +
                                      " requests"),
                       scenario);
      }
    }
  }
  const unsigned cpus = std::max(scenario.cpus, 1u);
  std::vector<std::uint64_t> busy(cpus, 0);
  for (kern::Tid tid : instance.workers) {
    const kern::Task* task = machine.find_task(tid);
    if (cpus > 1) {
      busy[task->cpu % cpus] += task->cycles;
    } else {
      busy[0] = std::max(busy[0], task->cycles);
    }
  }
  out.wall_cycles = *std::max_element(busy.begin(), busy.end());
  return out;
}

Result<Mechanism> parse_mechanism(std::string_view name) {
  Mechanism mechanism;
  for (auto kind :
       {Mechanism::Kind::kNative, Mechanism::Kind::kPtrace,
        Mechanism::Kind::kSud, Mechanism::Kind::kSudAllow,
        Mechanism::Kind::kZpoline, Mechanism::Kind::kLazypoline}) {
    if (name == kind_name(kind)) {
      mechanism.kind = kind;
      return mechanism;
    }
  }
  if (name == "lazypoline-nox") {
    mechanism.kind = Mechanism::Kind::kLazypoline;
    mechanism.lazypoline.xstate = core::XstateMode::kNone;
    return mechanism;
  }
  return make_error(StatusCode::kInvalidArgument,
                    "unknown mechanism '" + std::string(name) +
                        "' (native|ptrace|sud|sud-allow|zpoline|lazypoline|"
                        "lazypoline-nox)");
}

Result<apps::ServerProfile> parse_profile(std::string_view name) {
  for (const apps::ServerProfile& profile :
       {apps::nginx_profile(), apps::lighttpd_profile()}) {
    if (name == profile.name) return profile;
  }
  return make_error(StatusCode::kInvalidArgument,
                    "unknown server profile '" + std::string(name) +
                        "' (nginx|lighttpd)");
}

std::string to_string(const Mechanism& mechanism) {
  std::string out = kind_name(mechanism.kind);
  if (mechanism.kind != Mechanism::Kind::kLazypoline) return out;
  const core::LazypolineConfig& config = mechanism.lazypoline;
  const core::LazypolineConfig defaults;
  if (config.xstate != defaults.xstate) {
    out += "/xstate=" + std::string(core::to_string(config.xstate));
  }
  if (!config.use_sud) out += "/nosud";
  if (!config.rewrite_to_fast_path) out += "/norewrite";
  if (config.eager_verified_rewrite) out += "/eager";
  if (config.protect_selector) out += "/protect";
  if (mechanism.prerewrite) out += "/prerewrite";
  return out;
}

std::string to_string(const Scenario& scenario) {
  std::string out;
  if (const Web* web = std::get_if<Web>(&scenario.program)) {
    out = "web:" + web->profile.name +
          " workers=" + std::to_string(web->workers) +
          " file=" + std::to_string(web->file_bytes) +
          " conns=" + std::to_string(web->connections) +
          " reqs=" + std::to_string(web->requests) +
          (web->shared_listener ? " listener=shared" : " listener=per-worker") +
          (web->threads > 0 ? " threads=" + std::to_string(web->threads) : "");
  } else {
    const Loop& loop = std::get<Loop>(scenario.program);
    out = "loop:nr=" + std::to_string(loop.nr) +
          " iterations=" + std::to_string(loop.iterations);
  }
  char seed[32];
  std::snprintf(seed, sizeof(seed), "%#llx",
                static_cast<unsigned long long>(scenario.seed));
  return out + " " + to_string(scenario.mechanism) +
         " cpus=" + std::to_string(scenario.cpus) + " seed=" + seed;
}

}  // namespace lzp::scenario
