// Completion-waitable tasks and scheduler stress: waitables park instead of
// pinning workers, honor dependency clauses, release successors on the
// completing attempt, funnel blocking polls through a single slot given to
// the earliest-submitted parked wait, and surface poll exceptions as
// TaskError; dense overlapping-inout graphs and mixed waitable/plain
// task sets stay correct under many workers (this file also runs under
// TSan in CI).
#include "tasking/runtime.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/error.hpp"

namespace {

using fx::core::TaskError;
using fx::task::TaskRuntime;

TEST(Waitable, ParksUntilExternalCompletionWithoutPinningWorkers) {
  TaskRuntime rt(2);
  std::atomic<bool> ready{false};
  std::atomic<int> polls{0};
  std::atomic<int> other_tasks{0};
  // The waitable completes only once `ready` flips -- which a later plain
  // task does, so completion *requires* that a worker stayed available
  // while the waitable was parked.
  rt.submit_waitable("wait_flag", {}, [&](bool last_chance) {
    polls.fetch_add(1);
    if (ready.load()) return true;
    if (last_chance) {
      while (!ready.load()) std::this_thread::yield();
      return true;
    }
    return false;
  });
  for (int i = 0; i < 8; ++i) {
    rt.submit("work", [&] { other_tasks.fetch_add(1); });
  }
  rt.submit("flip", [&] { ready.store(true); });
  rt.taskwait();
  EXPECT_EQ(other_tasks.load(), 8);
  EXPECT_GE(polls.load(), 1);
}

TEST(Waitable, DependencyClausesOrderWaitablesAndSuccessors) {
  TaskRuntime rt(3);
  char token = 0;
  std::mutex mu;
  std::vector<int> order;
  auto record = [&](int id) {
    std::lock_guard lock(mu);
    order.push_back(id);
  };
  std::atomic<int> attempts{0};
  rt.submit("produce", {fx::task::inout(token)}, [&] { record(1); });
  rt.submit_waitable("exchange", {fx::task::inout(token)},
                     [&](bool /*last_chance*/) {
                       // Retire on the third attempt: successors must not
                       // start on the parked attempts.
                       if (attempts.fetch_add(1) < 2) return false;
                       record(2);
                       return true;
                     });
  rt.submit("consume", {fx::task::inout(token)}, [&] { record(3); });
  rt.taskwait();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Waitable, OldestParkedGetsTheBlockingAttemptFirst) {
  // One worker, two parked waitables that only complete on the blocking
  // (last-chance) attempt: the runtime must hand the blocking slot to the
  // older one first.
  TaskRuntime rt(1);
  std::mutex mu;
  std::vector<int> blocking_order;
  auto waitable = [&](int id) {
    return [&, id](bool last_chance) {
      if (!last_chance) return false;
      std::lock_guard lock(mu);
      blocking_order.push_back(id);
      return true;
    };
  };
  rt.submit_waitable("older", {}, waitable(1));
  rt.submit_waitable("younger", {}, waitable(2));
  rt.taskwait();
  EXPECT_EQ(blocking_order, (std::vector<int>{1, 2}));
}

TEST(Waitable, LateParkedWaitStillPolledWhileBlockingSlotHeld) {
  // A wait that parks AFTER the blocking slot was claimed can become
  // completable with no remaining task activity to trigger a sweep.  The
  // blocked wait here only finishes once the late-parked one retires, so
  // idle workers must keep nonblocking polls flowing while the blocking
  // slot is held -- exactly the streaming-pipeline deadlock shape where
  // rank A blocks on a young collective whose peers are stuck behind a
  // wait that parked on A after A's blocking slot was already claimed.
  TaskRuntime rt(2);
  std::atomic<bool> flag{false};
  rt.submit_waitable("older_blocking", {}, [&](bool last_chance) {
    if (!last_chance) return false;
    while (!flag.load()) std::this_thread::yield();
    return true;
  });
  // Let a worker escalate the first wait into the blocking slot.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto t0 = std::chrono::steady_clock::now();
  rt.submit_waitable("late_parked", {}, [&, t0](bool /*last_chance*/) {
    // Incomplete during the submission-time sweep, completable shortly
    // after -- but only a periodic idle sweep will ever notice.
    if (std::chrono::steady_clock::now() - t0 <
        std::chrono::milliseconds(50)) {
      return false;
    }
    flag.store(true);
    return true;
  });
  rt.taskwait();
  EXPECT_TRUE(flag.load());
}

TEST(Waitable, ThrowingPollCompletesTheTaskWithTaskError) {
  TaskRuntime rt(2);
  rt.submit_waitable("doomed", {}, [](bool /*last_chance*/) -> bool {
    throw fx::core::Error("exchange failed");
  });
  // A dependent successor must still be released (error path drains).
  std::atomic<bool> ran{false};
  rt.submit("after", [&] { ran.store(true); });
  EXPECT_THROW(rt.taskwait(), TaskError);
  EXPECT_TRUE(ran.load());
}

TEST(Waitable, ManyInFlightWaitablesRetireInChainOrderPerSlot) {
  // Streaming-executor shape: D slots, each a chain of compute -> post ->
  // waitable -> compute, all slots concurrent.  Per-slot program order
  // must hold at any interleaving.
  constexpr int kSlots = 6;
  constexpr int kRounds = 20;
  TaskRuntime rt(4);
  std::vector<char> tokens(kSlots, 0);
  std::vector<std::vector<int>> trace(kSlots);
  std::vector<std::atomic<bool>> posted(kSlots);
  std::mutex mu;
  for (int r = 0; r < kRounds; ++r) {
    for (int s = 0; s < kSlots; ++s) {
      rt.submit("post", {fx::task::inout(tokens[s])}, [&, s, r] {
        std::lock_guard lock(mu);
        trace[s].push_back(2 * r);
        posted[s].store(true);
      });
      rt.submit_waitable("wait", {fx::task::inout(tokens[s])},
                         [&, s, r](bool last_chance) {
                           if (!posted[s].load() && !last_chance) {
                             return false;
                           }
                           std::lock_guard lock(mu);
                           trace[s].push_back(2 * r + 1);
                           posted[s].store(false);
                           return true;
                         });
    }
  }
  rt.taskwait();
  for (int s = 0; s < kSlots; ++s) {
    ASSERT_EQ(trace[s].size(), static_cast<std::size_t>(2 * kRounds));
    for (int i = 0; i < 2 * kRounds; ++i) {
      EXPECT_EQ(trace[s][static_cast<std::size_t>(i)], i) << "slot " << s;
    }
  }
}

TEST(Scheduler, DenseOverlappingInoutRanges) {
  // Many tasks over overlapping windows of one buffer on four workers: the
  // dependency graph must serialize every overlapping pair, whichever
  // worker takes each ready task.
  constexpr int kCells = 64;
  constexpr int kTasks = 200;
  TaskRuntime rt(4);
  std::vector<int> cells(kCells, 0);
  std::vector<int> expected(kCells, 0);
  for (int t = 0; t < kTasks; ++t) {
    const int lo = (t * 7) % (kCells - 8);
    const int hi = lo + 1 + (t * 3) % 8;
    for (int c = lo; c < hi; ++c) ++expected[static_cast<std::size_t>(c)];
    const std::span<int> window{cells.data() + lo,
                                static_cast<std::size_t>(hi - lo)};
    rt.submit("bump", {fx::task::inout(window)},
              [window] {
                // Unsynchronized on purpose: only the dependency graph
                // orders overlapping windows (TSan verifies).
                for (int& c : window) ++c;
              });
  }
  rt.taskwait();
  EXPECT_EQ(cells, expected);
}

TEST(Scheduler, RunsWaitablesAndTasksMixed) {
  TaskRuntime rt(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 30; ++i) {
    if (i % 3 == 0) {
      std::atomic<int>* d = &done;
      auto tries = std::make_shared<std::atomic<int>>(0);
      rt.submit_waitable(
          "w", {},
          [d, tries](bool last_chance) {
            if (tries->fetch_add(1) < 1 && !last_chance) return false;
            d->fetch_add(1);
            return true;
          });
    } else {
      rt.submit("t", [&] { done.fetch_add(1); });
    }
  }
  rt.taskwait();
  EXPECT_EQ(done.load(), 30);
}

}  // namespace
