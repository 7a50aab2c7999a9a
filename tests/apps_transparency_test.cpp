// Transparency across realistic workloads: every coreutil, on both libc
// profiles, must produce byte-identical observable behaviour (exit code,
// console output, VFS effects) when run under lazypoline with a dummy
// interposer — including the ones whose startup code keeps xstate live
// across syscalls (the Table-III programs lazypoline's ABI compliance is
// *for*).
#include <gtest/gtest.h>

#include "apps/coreutils.hpp"
#include "scenario/scenario.hpp"
#include "sim_test_util.hpp"

namespace lzp::apps {
namespace {

struct Observation {
  int exit_code = 0;
  std::string console;
  std::vector<std::string> data_listing;
  std::uint64_t stack_user_prev = 0;  // the Listing-1 write target
};

Observation run_native(const std::string& name, LibcProfile profile) {
  kern::Machine machine;
  populate_coreutil_fixtures(machine.vfs());
  auto program = make_coreutil(name, profile).value();
  kern::Tid tid = 0;
  Observation obs;
  obs.exit_code = testutil::load_and_run(machine, program, &tid);
  obs.console = machine.find_task(tid)->process->console;
  obs.data_listing = machine.vfs().list("data");
  obs.stack_user_prev =
      machine.find_task(tid)->mem->read_u64(kStackUserAddr).value_or(0);
  return obs;
}

Observation run_interposed(const std::string& name, LibcProfile profile,
                           core::XstateMode xstate) {
  kern::Machine machine;
  machine.mmap_min_addr = 0;
  populate_coreutil_fixtures(machine.vfs());
  auto program = make_coreutil(name, profile).value();
  machine.register_program(program);
  const kern::Tid tid = machine.load(program).value();
  scenario::Mechanism lazypoline = scenario::Mechanism::Kind::kLazypoline;
  lazypoline.lazypoline.xstate = xstate;
  // The clobbering wrapper models an interposer whose native code freely
  // uses vector registers — the §IV-B compatibility threat.
  auto handler = std::make_shared<interpose::XstateClobberingHandler>(
      std::make_shared<interpose::DummyHandler>());
  EXPECT_TRUE(scenario::install(lazypoline, machine, tid, handler).is_ok());
  const auto stats = machine.run();
  EXPECT_TRUE(stats.all_exited) << machine.last_fatal();
  Observation obs;
  obs.exit_code = machine.find_task(tid)->exit_code;
  obs.console = machine.find_task(tid)->process->console;
  obs.data_listing = machine.vfs().list("data");
  obs.stack_user_prev =
      machine.find_task(tid)->mem->read_u64(kStackUserAddr).value_or(0);
  return obs;
}

struct Case {
  const char* name;
  LibcProfile profile;
};

// gtest puts the printed parameter into each test's listed name; without this
// it prints the raw bytes, pointer included, so the names changed every build.
void PrintTo(const Case& c, std::ostream* os) {
  *os << c.name << "/"
      << (c.profile == LibcProfile::kUbuntu2004 ? "ubuntu" : "clearlinux");
}

class CoreutilTransparencyTest : public ::testing::TestWithParam<Case> {};

TEST_P(CoreutilTransparencyTest, FullXstateModeIsInvisible) {
  const Case param = GetParam();
  const Observation native = run_native(param.name, param.profile);
  const Observation interposed =
      run_interposed(param.name, param.profile, core::XstateMode::kFull);
  EXPECT_EQ(native.exit_code, interposed.exit_code);
  EXPECT_EQ(native.console, interposed.console);
  EXPECT_EQ(native.data_listing, interposed.data_listing);
  EXPECT_EQ(native.stack_user_prev, interposed.stack_user_prev);
}

INSTANTIATE_TEST_SUITE_P(
    AllUtilitiesBothProfiles, CoreutilTransparencyTest,
    ::testing::Values(
        Case{"ls", LibcProfile::kUbuntu2004}, Case{"ls", LibcProfile::kClearLinux},
        Case{"pwd", LibcProfile::kUbuntu2004}, Case{"pwd", LibcProfile::kClearLinux},
        Case{"chmod", LibcProfile::kUbuntu2004}, Case{"chmod", LibcProfile::kClearLinux},
        Case{"mkdir", LibcProfile::kUbuntu2004}, Case{"mkdir", LibcProfile::kClearLinux},
        Case{"mv", LibcProfile::kUbuntu2004}, Case{"mv", LibcProfile::kClearLinux},
        Case{"cp", LibcProfile::kUbuntu2004}, Case{"cp", LibcProfile::kClearLinux},
        Case{"rm", LibcProfile::kUbuntu2004}, Case{"rm", LibcProfile::kClearLinux},
        Case{"touch", LibcProfile::kUbuntu2004}, Case{"touch", LibcProfile::kClearLinux},
        Case{"cat", LibcProfile::kUbuntu2004}, Case{"cat", LibcProfile::kClearLinux},
        Case{"clear", LibcProfile::kUbuntu2004}, Case{"clear", LibcProfile::kClearLinux}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(info.param.name) + "_" +
             (info.param.profile == LibcProfile::kUbuntu2004 ? "ubuntu"
                                                             : "clearlinux");
    });

TEST(CoreutilCorruptionTest, NoXstateModeCorruptsAffectedPrograms) {
  // The counterpoint: with preservation off and a clobbering interposer,
  // the Listing-1 program writes garbage through xmm0 — the pthread
  // __stack_user list no longer points to itself.
  const Observation native = run_native("ls", LibcProfile::kUbuntu2004);
  const Observation corrupted =
      run_interposed("ls", LibcProfile::kUbuntu2004, core::XstateMode::kNone);
  EXPECT_EQ(native.stack_user_prev, kStackUserAddr);
  EXPECT_NE(corrupted.stack_user_prev, kStackUserAddr)
      << "without xstate preservation, the clobber must corrupt the list "
         "head (this is exactly the bug class the paper's Pin study found)";
}

TEST(CoreutilCorruptionTest, UnaffectedProgramsSurviveNoXstateMode) {
  // pwd (Ubuntu) has no cross-syscall xstate liveness: even the clobbering
  // interposer without preservation is invisible — the "large potential for
  // users to avoid needlessly suffering the xstate preservation cost".
  const Observation native = run_native("pwd", LibcProfile::kUbuntu2004);
  const Observation interposed =
      run_interposed("pwd", LibcProfile::kUbuntu2004, core::XstateMode::kNone);
  EXPECT_EQ(native.exit_code, interposed.exit_code);
  EXPECT_EQ(native.console, interposed.console);
}

}  // namespace
}  // namespace lzp::apps
