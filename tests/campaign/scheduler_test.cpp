#include "campaign/scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace fbist::campaign {
namespace {

TEST(Scheduler, DefaultWorkersAtLeastOne) {
  EXPECT_GE(Scheduler::default_workers(), 1u);
  EXPECT_GE(Scheduler::global().num_workers(), 1u);
  EXPECT_GE(Scheduler::global().loop_slots(), 2u);
}

TEST(Scheduler, ParallelForVisitsEveryIndexOnce) {
  Scheduler sched(4);
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  sched.parallel_for(n, [&](std::size_t i, std::size_t) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(Scheduler, ParallelForSlotsWithinBound) {
  Scheduler sched(3);
  std::atomic<bool> bad{false};
  sched.parallel_for(5000, [&](std::size_t, std::size_t slot) {
    if (slot >= sched.loop_slots()) bad.store(true);
  });
  EXPECT_FALSE(bad.load());
}

TEST(Scheduler, SmallLoopRunsSerialOnCaller) {
  Scheduler sched(4);
  std::set<std::size_t> slots;
  sched.parallel_for(5, [&](std::size_t, std::size_t slot) { slots.insert(slot); });
  EXPECT_EQ(slots, std::set<std::size_t>{0});
}

TEST(Scheduler, SubmitAndWaitRunsEveryTask) {
  Scheduler sched(4);
  TaskGroup group(sched);
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) {
    group.run([&ran] { ran.fetch_add(1); });
  }
  group.wait();
  EXPECT_EQ(ran.load(), 64);
}

TEST(Scheduler, NestedSubmissionFromTasks) {
  // The campaign runner's shape: per-circuit tasks fan out per-run
  // tasks; wait() must cover the nested generation too.
  Scheduler sched(4);
  TaskGroup group(sched);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    group.run([&group, &ran] {
      for (int j = 0; j < 8; ++j) {
        group.run([&ran] { ran.fetch_add(1); });
      }
    });
  }
  group.wait();
  EXPECT_EQ(ran.load(), 64);
}

TEST(Scheduler, NestedParallelForInsideTasks) {
  // Loops issued from pool tasks must compose with task-level
  // parallelism instead of deadlocking, even on a single-worker pool.
  for (const std::size_t workers : {1u, 4u}) {
    Scheduler sched(workers);
    TaskGroup group(sched);
    std::vector<std::atomic<long long>> sums(6);
    for (std::size_t t = 0; t < 6; ++t) {
      group.run([&sched, &sums, t] {
        sched.parallel_for(1000, [&sums, t](std::size_t i, std::size_t) {
          sums[t].fetch_add(static_cast<long long>(i));
        });
      });
    }
    group.wait();
    for (auto& s : sums) EXPECT_EQ(s.load(), 999ll * 1000 / 2);
  }
}

TEST(Scheduler, TaskExceptionSurfacesFromWait) {
  Scheduler sched(2);
  TaskGroup group(sched);
  group.run([] { throw std::runtime_error("boom"); });
  group.run([] {});
  EXPECT_THROW(group.wait(), std::runtime_error);
  // The group remains usable after the rethrow.
  std::atomic<int> ran{0};
  group.run([&ran] { ran.fetch_add(1); });
  group.wait();
  EXPECT_EQ(ran.load(), 1);
}

TEST(Scheduler, ParallelForRethrowsTheFirstBodyException) {
  // A body that throws on the caller's own slot, or on a worker's,
  // reaches the caller once every participant has left the loop, and
  // the pool then runs a full loop.
  constexpr std::size_t kN = 4096;
  for (const std::size_t workers : {1u, 4u}) {
    Scheduler sched(workers);
    for (const bool throw_on_caller : {true, false}) {
      SCOPED_TRACE(std::to_string(workers) + " workers, throw on " +
                   (throw_on_caller ? "the caller" : "a worker"));
      const std::thread::id caller = std::this_thread::get_id();
      std::atomic<bool> caller_ran{false};
      std::atomic<bool> worker_ran{false};
      const auto until =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      try {
        sched.parallel_for(kN, [&](std::size_t i, std::size_t) {
          const bool on_caller = std::this_thread::get_id() == caller;
          (on_caller ? caller_ran : worker_ran).store(true);
          // Hold each side until the other has run an index, so both
          // share the loop when the body throws.  A blocked side holds
          // one chunk, so the other always finds one left.
          const std::atomic<bool>& other = on_caller ? worker_ran : caller_ran;
          while (!other.load() && std::chrono::steady_clock::now() < until) {
            std::this_thread::yield();
          }
          if (on_caller == throw_on_caller) {
            throw std::runtime_error("body " + std::to_string(i));
          }
        });
        ADD_FAILURE() << "no exception reached the caller";
      } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string(e.what()).rfind("body ", 0), 0u) << e.what();
      }
      EXPECT_TRUE(caller_ran.load());
      EXPECT_TRUE(worker_ran.load());
      std::vector<std::atomic<int>> hits(kN);
      sched.parallel_for(kN, [&](std::size_t i, std::size_t) {
        hits[i].fetch_add(1);
      });
      for (std::size_t i = 0; i < kN; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
      }
    }
  }
}

TEST(Scheduler, SetWorkersRestartsThePool) {
  Scheduler sched(1);
  EXPECT_EQ(sched.num_workers(), 1u);
  sched.set_workers(3);
  EXPECT_EQ(sched.num_workers(), 3u);
  std::atomic<int> ran{0};
  TaskGroup group(sched);
  for (int i = 0; i < 16; ++i) group.run([&ran] { ran.fetch_add(1); });
  group.wait();
  EXPECT_EQ(ran.load(), 16);
}

TEST(Scheduler, ManyWorkersOnFewCoresStillCorrect) {
  // Worker counts beyond the physical core count must stay correct
  // (the determinism tests run --jobs 8 anywhere).
  Scheduler sched(8);
  std::atomic<long long> total{0};
  sched.parallel_for(4096, [&](std::size_t i, std::size_t) {
    total.fetch_add(static_cast<long long>(i));
  });
  EXPECT_EQ(total.load(), 4095ll * 4096 / 2);
}

TEST(Scheduler, OnWorkerThreadIdentity) {
  Scheduler sched(2);
  EXPECT_FALSE(sched.on_worker_thread());
  std::atomic<bool> inside{false};
  TaskGroup group(sched);
  group.run([&] { inside.store(sched.on_worker_thread()); });
  group.wait();
  EXPECT_TRUE(inside.load());
}

}  // namespace
}  // namespace fbist::campaign
