#include <gtest/gtest.h>

#include "apps/coreutils.hpp"
#include "pintool/xstate_tracker.hpp"
#include "sim_test_util.hpp"

namespace lzp::pintool {
namespace {

using apps::LibcProfile;
using kern::Machine;

Report run_with_tracker(const isa::Program& program) {
  Machine machine;
  apps::populate_coreutil_fixtures(machine.vfs());
  XstateTracker tracker;
  tracker.attach(machine);
  auto tid = machine.load(program).value();
  auto stats = machine.run();
  EXPECT_TRUE(stats.all_exited) << machine.last_fatal();
  EXPECT_EQ(machine.find_task(tid)->exit_code, 0);
  return tracker.report();
}

TEST(XstateTrackerTest, DetectsListing1PthreadPattern) {
  isa::Assembler a;
  auto entry = a.new_label();
  a.bind(entry);
  apps::emit_pthread_init_glibc231(a);
  apps::emit_exit(a, 0);
  auto program = isa::make_program("listing1", a, entry).value();

  const Report report = run_with_tracker(program);
  EXPECT_TRUE(report.any_xstate_expectation());
  ASSERT_GE(report.expectations.size(), 1u);
  bool found = false;
  for (const Expectation& e : report.expectations) {
    if (e.cls == isa::RegClass::kXmm && e.reg_index == 0) {
      found = true;
      // The intervening syscall is one of the two pthread-init syscalls.
      EXPECT_TRUE(e.syscall_nr == kern::kSysSetTidAddress ||
                  e.syscall_nr == kern::kSysSetRobustList);
    }
  }
  EXPECT_TRUE(found) << "xmm0 live across set_tid_address must be flagged";
}

TEST(XstateTrackerTest, DetectsPtmallocGetrandomPattern) {
  isa::Assembler a;
  auto entry = a.new_label();
  a.bind(entry);
  apps::emit_ptmalloc_init_glibc239(a);
  apps::emit_exit(a, 0);
  auto program = isa::make_program("ptmalloc", a, entry).value();

  const Report report = run_with_tracker(program);
  EXPECT_TRUE(report.any_xstate_expectation());
  bool found = false;
  for (const Expectation& e : report.expectations) {
    if (e.cls == isa::RegClass::kXmm && e.reg_index == 1 &&
        e.syscall_nr == kern::kSysGetrandom) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(XstateTrackerTest, PlainStartupHasNoExpectations) {
  isa::Assembler a;
  auto entry = a.new_label();
  a.bind(entry);
  apps::emit_plain_startup(a);
  apps::emit_exit(a, 0);
  auto program = isa::make_program("plain", a, entry).value();
  const Report report = run_with_tracker(program);
  EXPECT_FALSE(report.any_xstate_expectation());
}

TEST(XstateTrackerTest, WriteAfterSyscallClearsLiveness) {
  // write xmm; syscall; write xmm again; read — NOT an expectation.
  isa::Assembler a;
  auto entry = a.new_label();
  a.bind(entry);
  a.mov(isa::Gpr::r12, 1);
  a.xmov_from_gpr(0, isa::Gpr::r12);
  a.mov(isa::Gpr::rax, kern::kSysGetpid);
  a.syscall_();
  a.xmov_from_gpr(0, isa::Gpr::r12);  // overwrite after the syscall
  a.xmov_to_gpr(isa::Gpr::rbx, 0);    // read
  apps::emit_exit(a, 0);
  auto program = isa::make_program("cleared", a, entry).value();
  const Report report = run_with_tracker(program);
  EXPECT_FALSE(report.any_xstate_expectation());
}

TEST(XstateTrackerTest, ReadWithoutInterveningSyscallNotFlagged) {
  isa::Assembler a;
  auto entry = a.new_label();
  a.bind(entry);
  a.mov(isa::Gpr::r12, 1);
  a.xmov_from_gpr(3, isa::Gpr::r12);
  a.xmov_to_gpr(isa::Gpr::rbx, 3);  // read immediately
  a.mov(isa::Gpr::rax, kern::kSysGetpid);
  a.syscall_();
  apps::emit_exit(a, 0);
  auto program = isa::make_program("nosyscall", a, entry).value();
  const Report report = run_with_tracker(program);
  EXPECT_FALSE(report.any_xstate_expectation());
}

TEST(XstateTrackerTest, AbiClobberedGprsAreIgnored) {
  // rax/rcx/r11 are clobbered by the syscall ABI; reading them across a
  // syscall is not a preservation expectation.
  isa::Assembler a;
  auto entry = a.new_label();
  a.bind(entry);
  a.mov(isa::Gpr::rcx, 1);
  a.mov(isa::Gpr::r11, 2);
  a.mov(isa::Gpr::rax, kern::kSysGetpid);
  a.syscall_();
  a.add(isa::Gpr::rcx, isa::Gpr::r11);  // reads both
  apps::emit_exit(a, 0);
  auto program = isa::make_program("abiclobber", a, entry).value();
  const Report report = run_with_tracker(program);
  for (const Expectation& e : report.expectations) {
    if (e.cls == isa::RegClass::kGpr) {
      EXPECT_NE(e.reg_index, static_cast<std::uint8_t>(isa::Gpr::rcx));
      EXPECT_NE(e.reg_index, static_cast<std::uint8_t>(isa::Gpr::r11));
      EXPECT_NE(e.reg_index, static_cast<std::uint8_t>(isa::Gpr::rax));
    }
  }
}

TEST(XstateTrackerTest, PreservedGprExpectationIsTracked) {
  // rbx live across a syscall IS an expectation — the kernel honours it, and
  // so must any interposer (the "GPR" rows the paper takes as table stakes).
  isa::Assembler a;
  auto entry = a.new_label();
  a.bind(entry);
  a.mov(isa::Gpr::rbx, 5);
  a.mov(isa::Gpr::rax, kern::kSysGetpid);
  a.syscall_();
  a.add(isa::Gpr::rbx, 1);
  apps::emit_exit(a, 0);
  auto program = isa::make_program("gpr-live", a, entry).value();
  const Report report = run_with_tracker(program);
  EXPECT_GE(report.count_for(isa::RegClass::kGpr), 1u);
  EXPECT_FALSE(report.any_xstate_expectation());
}

TEST(XstateTrackerTest, YmmAndX87Expectations) {
  isa::Assembler a;
  auto entry = a.new_label();
  a.bind(entry);
  a.mov(isa::Gpr::r12, 9);
  a.ymov_hi(4, isa::Gpr::r12);
  a.fld(0x3FF0000000000000ULL);
  a.mov(isa::Gpr::rax, kern::kSysGetpid);
  a.syscall_();
  a.ymov_rd_hi(isa::Gpr::rbx, 4);
  a.fstp(isa::Gpr::rcx);
  apps::emit_exit(a, 0);
  auto program = isa::make_program("ymmx87", a, entry).value();
  const Report report = run_with_tracker(program);
  EXPECT_GE(report.count_for(isa::RegClass::kYmmHi), 1u);
  EXPECT_GE(report.count_for(isa::RegClass::kX87), 1u);
}

TEST(XstateTrackerTest, ExpectationToStringIsReadable) {
  Expectation e;
  e.cls = isa::RegClass::kXmm;
  e.reg_index = 0;
  e.syscall_nr = kern::kSysSetTidAddress;
  e.read_rip = 0x401000;
  const std::string text = e.to_string();
  EXPECT_NE(text.find("xmm0"), std::string::npos);
  EXPECT_NE(text.find("set_tid_address"), std::string::npos);
}

// --- Table III: the coreutils matrix -------------------------------------------

struct CoreutilCase {
  const char* name;
  bool affected_ubuntu;
};

// gtest puts the printed parameter into each test's listed name; without this
// it prints the raw bytes, pointer included, so the names changed every build.
void PrintTo(const CoreutilCase& c, std::ostream* os) { *os << c.name; }

class TableThreeTest : public ::testing::TestWithParam<CoreutilCase> {};

TEST_P(TableThreeTest, UbuntuMatchesPaperMatrix) {
  const CoreutilCase param = GetParam();
  auto program =
      apps::make_coreutil(param.name, LibcProfile::kUbuntu2004).value();
  const Report report = run_with_tracker(program);
  EXPECT_EQ(report.any_xstate_expectation(), param.affected_ubuntu)
      << param.name << " on Ubuntu 20.04";
}

TEST_P(TableThreeTest, ClearLinuxIsAlwaysAffected) {
  const CoreutilCase param = GetParam();
  auto program =
      apps::make_coreutil(param.name, LibcProfile::kClearLinux).value();
  const Report report = run_with_tracker(program);
  EXPECT_TRUE(report.any_xstate_expectation())
      << param.name << " on Clear Linux (ptmalloc_init affects every binary)";
}

INSTANTIATE_TEST_SUITE_P(
    Coreutils, TableThreeTest,
    ::testing::Values(CoreutilCase{"ls", true}, CoreutilCase{"pwd", false},
                      CoreutilCase{"chmod", false}, CoreutilCase{"mkdir", true},
                      CoreutilCase{"mv", true}, CoreutilCase{"cp", true},
                      CoreutilCase{"rm", false}, CoreutilCase{"touch", false},
                      CoreutilCase{"cat", false}, CoreutilCase{"clear", false}),
    [](const ::testing::TestParamInfo<CoreutilCase>& info) {
      return std::string(info.param.name);
    });

TEST(XstateTrackerTest, ResetClearsState) {
  isa::Assembler a;
  auto entry = a.new_label();
  a.bind(entry);
  apps::emit_pthread_init_glibc231(a);
  apps::emit_exit(a, 0);
  auto program = isa::make_program("resettable", a, entry).value();

  Machine machine;
  XstateTracker tracker;
  tracker.attach(machine);
  (void)machine.load(program).value();
  machine.run();
  EXPECT_TRUE(tracker.report().any_xstate_expectation());
  tracker.reset();
  EXPECT_TRUE(tracker.report().expectations.empty());
}

}  // namespace
}  // namespace lzp::pintool
