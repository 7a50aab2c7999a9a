#include <gtest/gtest.h>

#include "apps/coreutils.hpp"
#include "apps/jitcc.hpp"
#include "apps/webserver.hpp"
#include "scenario/scenario.hpp"
#include "sim_test_util.hpp"

namespace lzp::apps {
namespace {

using kern::Machine;
using kern::Tid;

int run_coreutil(Machine& machine, const std::string& name, LibcProfile profile,
                 Tid* tid_out = nullptr) {
  populate_coreutil_fixtures(machine.vfs());
  auto program = make_coreutil(name, profile).value();
  return testutil::load_and_run(machine, program, tid_out);
}

TEST(CoreutilsTest, AllTenBuildAndRunCleanOnBothProfiles) {
  for (const std::string& name : coreutil_names()) {
    for (LibcProfile profile :
         {LibcProfile::kUbuntu2004, LibcProfile::kClearLinux}) {
      Machine machine;
      EXPECT_EQ(run_coreutil(machine, name, profile), 0)
          << name << " on " << to_string(profile);
    }
  }
}

TEST(CoreutilsTest, LsListsDirectoryToStdout) {
  Machine machine;
  Tid tid = 0;
  ASSERT_EQ(run_coreutil(machine, "ls", LibcProfile::kUbuntu2004, &tid), 0);
  const std::string& console = machine.find_task(tid)->process->console;
  EXPECT_NE(console.find("a.txt"), std::string::npos);
  EXPECT_NE(console.find("b.txt"), std::string::npos);
}

TEST(CoreutilsTest, CatPrintsFileContents) {
  Machine machine;
  Tid tid = 0;
  ASSERT_EQ(run_coreutil(machine, "cat", LibcProfile::kClearLinux, &tid), 0);
  EXPECT_EQ(machine.find_task(tid)->process->console, "hello\n");
}

TEST(CoreutilsTest, MkdirCreatesDirectory) {
  Machine machine;
  ASSERT_EQ(run_coreutil(machine, "mkdir", LibcProfile::kUbuntu2004), 0);
  auto meta = machine.vfs().stat("newdir");
  ASSERT_TRUE(meta.is_ok());
  EXPECT_TRUE(meta.value().is_dir);
}

TEST(CoreutilsTest, MvRenamesFile) {
  Machine machine;
  ASSERT_EQ(run_coreutil(machine, "mv", LibcProfile::kUbuntu2004), 0);
  EXPECT_FALSE(machine.vfs().exists("data/a.txt"));
  EXPECT_TRUE(machine.vfs().exists("data/moved.txt"));
}

TEST(CoreutilsTest, CpCopiesContents) {
  Machine machine;
  ASSERT_EQ(run_coreutil(machine, "cp", LibcProfile::kClearLinux), 0);
  std::vector<std::uint8_t> contents;
  auto n = machine.vfs().read("data/copy.txt", 0, 100, &contents);
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(std::string(contents.begin(), contents.end()), "hello\n");
}

TEST(CoreutilsTest, RmUnlinks) {
  Machine machine;
  ASSERT_EQ(run_coreutil(machine, "rm", LibcProfile::kUbuntu2004), 0);
  EXPECT_FALSE(machine.vfs().exists("data/b.txt"));
}

TEST(CoreutilsTest, TouchCreates) {
  Machine machine;
  ASSERT_EQ(run_coreutil(machine, "touch", LibcProfile::kUbuntu2004), 0);
  EXPECT_TRUE(machine.vfs().exists("newfile"));
}

TEST(CoreutilsTest, ChmodChangesMode) {
  Machine machine;
  ASSERT_EQ(run_coreutil(machine, "chmod", LibcProfile::kUbuntu2004), 0);
  EXPECT_EQ(machine.vfs().stat("data/a.txt").value().mode, 0644u);
}

TEST(CoreutilsTest, UnknownUtilityFails) {
  EXPECT_FALSE(make_coreutil("frobnicate", LibcProfile::kUbuntu2004).is_ok());
}

// --- web server -------------------------------------------------------------

struct WebFixture {
  Machine machine;
  int listener_id = 0;
  std::vector<Tid> workers;

  WebFixture(const ServerProfile& profile, std::uint64_t file_size,
             std::uint64_t total_requests, unsigned num_workers) {
    // Every worker gets the listener as fd 3, by convention.
    const scenario::Scenario spec{
        scenario::Web{profile, num_workers, file_size, 36, total_requests}};
    auto instance = scenario::build(spec, machine, nullptr);
    EXPECT_TRUE(instance.is_ok()) << instance.status().to_string();
    if (!instance.is_ok()) return;
    listener_id = instance.value().listeners.front();
    workers = instance.value().workers;
  }
};

TEST(WebServerTest, ServesAllRequestsSingleWorker) {
  WebFixture f(nginx_profile(), 1024, 200, 1);
  auto stats = f.machine.run();
  EXPECT_TRUE(stats.all_exited) << f.machine.last_fatal();
  EXPECT_EQ(f.machine.net().completed_requests(f.listener_id), 200u);
  EXPECT_EQ(f.machine.find_task(f.workers[0])->exit_code, 0);
}

TEST(WebServerTest, MultiWorkerSharesTheLoad) {
  WebFixture f(nginx_profile(), 1024, 600, 4);
  auto stats = f.machine.run();
  EXPECT_TRUE(stats.all_exited) << f.machine.last_fatal();
  EXPECT_EQ(f.machine.net().completed_requests(f.listener_id), 600u);
  // Every worker did a nontrivial share.
  for (Tid tid : f.workers) {
    EXPECT_GT(f.machine.find_task(tid)->syscalls_dispatched, 50u);
  }
}

TEST(WebServerTest, LighttpdProfileDoesMoreSyscallsPerRequest) {
  const std::uint64_t requests = 100;
  WebFixture nginx(nginx_profile(), 4096, requests, 1);
  nginx.machine.run();
  WebFixture lighttpd(lighttpd_profile(), 4096, requests, 1);
  lighttpd.machine.run();
  EXPECT_GT(
      lighttpd.machine.find_task(lighttpd.workers[0])->syscalls_dispatched,
      nginx.machine.find_task(nginx.workers[0])->syscalls_dispatched);
}

TEST(WebServerTest, LargerFilesCostMoreCyclesPerRequest) {
  const std::uint64_t requests = 50;
  WebFixture small(nginx_profile(), 1024, requests, 1);
  small.machine.run();
  WebFixture large(nginx_profile(), 256 * 1024, requests, 1);
  large.machine.run();
  EXPECT_GT(large.machine.find_task(large.workers[0])->cycles,
            2 * small.machine.find_task(small.workers[0])->cycles);
}

// --- JIT runner ---------------------------------------------------------------

TEST(JitRunnerTest, CompilesAndRunsAtRuntime) {
  Machine machine;
  const std::string src = exhaustiveness_test_source();
  (void)machine.vfs().put_file(
      "prog.c", std::vector<std::uint8_t>(src.begin(), src.end()));
  auto runner = make_jit_runner(machine, "prog.c").value();
  EXPECT_GT(runner.static_syscall_sites, 0u);
  auto tid = machine.load(runner.program).value();
  auto stats = machine.run();
  EXPECT_TRUE(stats.all_exited) << machine.last_fatal();
  EXPECT_EQ(machine.find_task(tid)->exit_code, 21);
}

TEST(JitRunnerTest, JitSyscallIsNotAStaticSite) {
  Machine machine;
  const std::string src = "int main() { return syscall1(39, 0); }";
  (void)machine.vfs().put_file(
      "p.c", std::vector<std::uint8_t>(src.begin(), src.end()));
  auto runner = make_jit_runner(machine, "p.c").value();
  // The runner's static image has open/read/close/mmap/mprotect/exit
  // syscalls, but the getpid only exists in JIT-ed code.
  for (std::uint64_t site : runner.program.true_syscall_addresses()) {
    (void)site;  // static sites exist
  }
  auto tid = machine.load(runner.program).value();
  machine.run();
  EXPECT_EQ(machine.find_task(tid)->exit_code, 100);  // first pid
}

TEST(JitRunnerTest, CompileErrorKillsWithDiagnostic) {
  Machine machine;
  const std::string src = "int main() { return syntax error!!! }";
  (void)machine.vfs().put_file(
      "bad.c", std::vector<std::uint8_t>(src.begin(), src.end()));
  auto runner = make_jit_runner(machine, "bad.c").value();
  (void)machine.load(runner.program).value();
  machine.run();
  EXPECT_NE(machine.last_fatal().find("compile error"), std::string::npos);
}

// --- libc emitters --------------------------------------------------------------

TEST(MinilibcTest, PthreadInitWritesStackUserList) {
  Machine machine;
  isa::Assembler a;
  auto entry = a.new_label();
  a.bind(entry);
  emit_pthread_init_glibc231(a);
  emit_exit(a, 0);
  auto program = isa::make_program("pthread-init", a, entry).value();
  Tid tid = 0;
  ASSERT_EQ(testutil::load_and_run(machine, program, &tid), 0);
  kern::Task* task = machine.find_task(tid);
  // movups [r12], xmm0 wrote &__stack_user to both 'prev' and 'next'.
  EXPECT_EQ(task->mem->read_u64(kStackUserAddr).value(), kStackUserAddr);
  EXPECT_EQ(task->mem->read_u64(kStackUserAddr + 8).value(), kStackUserAddr);
  // And set_tid_address took effect.
  EXPECT_EQ(task->clear_child_tid, kDataBase + 0x20);
}

TEST(MinilibcTest, EmbeddedStringIsNulTerminated) {
  isa::Assembler a;
  auto entry = a.new_label();
  a.bind(entry);
  const std::uint64_t addr = embed_string(a, "xyz");
  emit_exit(a, 0);
  auto program = isa::make_program("strtest", a, entry).value();
  const std::uint64_t offset = addr - program.base;
  ASSERT_LT(offset + 3, program.image.size());
  EXPECT_EQ(program.image[offset], 'x');
  EXPECT_EQ(program.image[offset + 3], 0);
}

}  // namespace
}  // namespace lzp::apps
