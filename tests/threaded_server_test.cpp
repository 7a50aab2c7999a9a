// The threaded web server under lazypoline: CLONE_VM workers share one
// address space (one trampoline, one set of rewritten sites, one rewrite
// lock) while every thread carries its own %gs selector — §IV-B end to end
// at workload scale.
#include <gtest/gtest.h>

#include <set>

#include "apps/webserver.hpp"
#include "core/lazypoline.hpp"
#include "scenario/scenario.hpp"
#include "sim_test_util.hpp"

namespace lzp::apps {
namespace {

struct ThreadedFixture {
  kern::Machine machine;
  int listener = 0;
  kern::Tid main_tid = 0;
  std::shared_ptr<core::Lazypoline> runtime;
  std::shared_ptr<interpose::TracingHandler> handler =
      std::make_shared<interpose::TracingHandler>();

  ThreadedFixture(unsigned threads, std::uint64_t requests, bool interposed) {
    const scenario::Scenario spec{
        scenario::Web{nginx_profile(), 1, 2048, 12, requests,
                      /*shared_listener=*/true, threads},
        interposed ? scenario::Mechanism::Kind::kLazypoline
                   : scenario::Mechanism::Kind::kNative};
    auto instance = scenario::build(spec, machine, handler);
    EXPECT_TRUE(instance.is_ok()) << instance.status().to_string();
    if (!instance.is_ok()) return;
    listener = instance.value().listeners.front();
    main_tid = instance.value().workers.front();
    if (interposed) runtime = instance.value().runtimes.front();
  }
};

TEST(ThreadedServerTest, ServesAllRequestsNatively) {
  ThreadedFixture f(4, 300, /*interposed=*/false);
  auto stats = f.machine.run();
  EXPECT_TRUE(stats.all_exited) << f.machine.last_fatal();
  EXPECT_EQ(f.machine.net().completed_requests(f.listener), 300u);
  EXPECT_EQ(f.machine.task_ids().size(), 4u);
}

TEST(ThreadedServerTest, ServesAllRequestsUnderLazypoline) {
  const std::uint64_t requests = 300;
  ThreadedFixture f(4, requests, /*interposed=*/true);
  auto stats = f.machine.run();
  EXPECT_TRUE(stats.all_exited) << f.machine.last_fatal();
  EXPECT_EQ(f.machine.net().completed_requests(f.listener), requests);

  // Three clone children were re-armed.
  EXPECT_EQ(f.runtime->stats().children_initialized, 3u);

  // All threads share the address space; selectors are per-thread distinct.
  std::set<const mem::AddressSpace*> spaces;
  std::set<std::uint64_t> selectors;
  for (kern::Tid tid : f.machine.task_ids()) {
    const kern::Task* task = f.machine.find_task(tid);
    spaces.insert(task->mem.get());
    selectors.insert(task->sud.selector_addr);
    EXPECT_TRUE(task->sud.enabled);
    EXPECT_EQ(task->sud.allow_len, 0u);
  }
  EXPECT_EQ(spaces.size(), 1u);
  EXPECT_EQ(selectors.size(), 4u);

  // Shared text means each syscall site was rewritten exactly once, under
  // the rewrite lock, no matter which thread discovered it first.
  EXPECT_EQ(f.runtime->stats().rewrite_lock_acquisitions,
            f.runtime->stats().sites_rewritten);

  // The trace covers the whole workload: every request performs at least
  // recvfrom + openat + fstat + writev + sendfile + close.
  EXPECT_GE(f.handler->trace().size(), requests * 6);
}

TEST(ThreadedServerTest, EveryThreadDidRealWork) {
  ThreadedFixture f(4, 400, /*interposed=*/true);
  auto stats = f.machine.run();
  EXPECT_TRUE(stats.all_exited) << f.machine.last_fatal();
  std::uint64_t total_dispatched = 0;
  for (kern::Tid tid : f.machine.task_ids()) {
    const kern::Task* task = f.machine.find_task(tid);
    EXPECT_GT(task->syscalls_dispatched, 20u) << "tid " << tid;
    total_dispatched += task->syscalls_dispatched;
  }
  EXPECT_GT(total_dispatched, 400 * 6u);
}

TEST(ThreadedServerTest, SingleThreadVariantDegeneratesToPlainServer) {
  ThreadedFixture f(1, 100, /*interposed=*/true);
  auto stats = f.machine.run();
  EXPECT_TRUE(stats.all_exited) << f.machine.last_fatal();
  EXPECT_EQ(f.machine.net().completed_requests(f.listener), 100u);
  EXPECT_EQ(f.runtime->stats().children_initialized, 0u);
}

TEST(ThreadedServerTest, RejectsUnsupportedThreadCounts) {
  kern::Machine machine;
  EXPECT_FALSE(
      make_threaded_webserver(machine, nginx_profile(), "x", 0).is_ok());
  EXPECT_FALSE(
      make_threaded_webserver(machine, nginx_profile(), "x", 9).is_ok());
}

}  // namespace
}  // namespace lzp::apps
