// taskloop semantics, randomized dependency-graph stress validated against
// sequential execution, and task+simmpi integration (tagged collectives
// issued from dynamically scheduled tasks).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <map>
#include <numeric>
#include <vector>

#include "core/rng.hpp"
#include "simmpi/runtime.hpp"
#include "tasking/runtime.hpp"

namespace {

using fx::core::Rng;
using fx::task::TaskRuntime;

TEST(Taskloop, CoversEveryIterationExactlyOnce) {
  TaskRuntime rt(4);
  constexpr std::size_t kN = 1003;
  std::vector<std::atomic<int>> hits(kN);
  rt.taskloop("loop", 0, kN, 10, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "i=" << i;
  }
}

class GrainSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GrainSweep, AllGrainsCoverRange) {
  const std::size_t grain = GetParam();
  TaskRuntime rt(3);
  constexpr std::size_t kN = 257;
  std::vector<std::atomic<int>> hits(kN);
  rt.taskloop("g", 0, kN, grain, [&](std::size_t lo, std::size_t hi) {
    ASSERT_LE(hi - lo, grain);
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  int total = 0;
  for (auto& h : hits) {
    ASSERT_EQ(h.load(), 1);
    total += h.load();
  }
  EXPECT_EQ(total, static_cast<int>(kN));
}

// Grain sizes include the paper's choices (10 for cft_2xy, 200 for cft_2z).
INSTANTIATE_TEST_SUITE_P(Grains, GrainSweep,
                         ::testing::Values(1, 3, 10, 64, 200, 257, 1000));

TEST(Taskloop, EmptyRangeIsNoop) {
  TaskRuntime rt(2);
  bool ran = false;
  rt.taskloop("e", 5, 5, 10, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
  EXPECT_EQ(rt.tasks_executed(), 0U);
}

TEST(Taskloop, NestedInsideTask) {
  // The paper's strategy 1: a step task internally task-loops its FFT work.
  TaskRuntime rt(4);
  constexpr std::size_t kN = 100;
  std::vector<std::atomic<int>> hits(kN);
  std::atomic<bool> loop_done_inside{false};
  rt.submit("step", [&] {
    rt.taskloop("inner", 0, kN, 7, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
    });
    // taskloop must have fully completed before the step task continues.
    bool all = true;
    for (auto& h : hits) all = all && h.load() == 1;
    loop_done_inside.store(all);
  });
  rt.taskwait();
  EXPECT_TRUE(loop_done_inside.load());
}

TEST(Taskloop, TwoLevelNesting) {
  TaskRuntime rt(4);
  std::atomic<long> sum{0};
  rt.submit("outer", [&] {
    rt.taskloop("mid", 0, 4, 1, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        rt.taskloop("leaf", 0, 10, 3, [&](std::size_t a, std::size_t b) {
          sum.fetch_add(static_cast<long>(b - a));
        });
      }
    });
  });
  rt.taskwait();
  EXPECT_EQ(sum.load(), 40);
}

TEST(Taskloop, RejectsZeroGrain) {
  TaskRuntime rt(1);
  EXPECT_THROW(
      rt.taskloop("bad", 0, 10, 0, [](std::size_t, std::size_t) {}),
      fx::core::Error);
}

/// Randomized stress: build a random DAG over K virtual "objects"; tasks
/// append (task id) to a per-object log.  Execute once sequentially (1
/// worker) and once with 8 workers; per-object write orders must match, as
/// dependencies fully determine them.
TEST(Stress, RandomGraphMatchesSequentialExecution) {
  constexpr int kObjects = 12;
  constexpr int kTasks = 300;

  struct Obj {
    alignas(64) long payload = 0;
  };

  auto run = [&](int workers, std::uint64_t seed) {
    std::vector<Obj> objects(kObjects);
    std::vector<std::vector<int>> writer_log(kObjects);
    std::mutex log_mu;
    Rng rng(seed);
    TaskRuntime rt(workers);
    for (int t = 0; t < kTasks; ++t) {
      // 1-3 clauses per task over distinct objects.
      const int nclauses = 1 + static_cast<int>(rng.next_below(3));
      std::vector<fx::task::Dep> deps;
      std::vector<int> targets;
      for (int c = 0; c < nclauses; ++c) {
        const int o = static_cast<int>(rng.next_below(kObjects));
        if (std::find(targets.begin(), targets.end(), o) != targets.end()) {
          continue;
        }
        targets.push_back(o);
        const auto mode = static_cast<fx::task::DepMode>(rng.next_below(3));
        deps.push_back({&objects[static_cast<std::size_t>(o)], sizeof(Obj),
                        mode});
      }
      std::vector<int> writes;
      for (std::size_t c = 0; c < deps.size(); ++c) {
        if (deps[c].mode != fx::task::DepMode::In) {
          writes.push_back(targets[c]);
        }
      }
      rt.submit("t", std::move(deps), [&, writes, t] {
        std::lock_guard lock(log_mu);
        for (int o : writes) {
          writer_log[static_cast<std::size_t>(o)].push_back(t);
        }
      });
    }
    rt.taskwait();
    return writer_log;
  };

  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const auto sequential = run(1, seed);
    const auto parallel = run(8, seed);
    for (int o = 0; o < kObjects; ++o) {
      EXPECT_EQ(parallel[static_cast<std::size_t>(o)],
                sequential[static_cast<std::size_t>(o)])
          << "object " << o << " seed " << seed;
    }
  }
}

/// Integration: tasks on every rank issue tagged collectives in dynamic
/// order.  FIFO dispatch + tags must complete without deadlock and with
/// correct payloads -- the heart of the task-per-FFT pipeline.
TEST(Integration, TasksIssueTaggedCollectivesAcrossRanks) {
  constexpr int kRanks = 4;
  constexpr int kWorkersPerRank = 3;
  constexpr int kBands = 12;

  fx::mpi::Runtime::run(kRanks, [&](fx::mpi::Comm& comm) {
    TaskRuntime rt(kWorkersPerRank);
    std::vector<std::vector<int>> results(
        kBands, std::vector<int>(kRanks, -1));
    for (int band = 0; band < kBands; ++band) {
      rt.submit("band", [&, band] {
        std::vector<int> send(kRanks, 1000 * band + comm.rank());
        comm.alltoall(std::span<const int>(send),
                      std::span<int>(results[static_cast<std::size_t>(band)]),
                      /*tag=*/band);
      });
    }
    rt.taskwait();
    for (int band = 0; band < kBands; ++band) {
      for (int p = 0; p < kRanks; ++p) {
        ASSERT_EQ(results[static_cast<std::size_t>(band)]
                         [static_cast<std::size_t>(p)],
                  1000 * band + p)
            << "band " << band << " peer " << p;
      }
    }
  });
}

TEST(Integration, ManyMoreBandsThanWorkers) {
  // Sliding-window schedule: 32 bands over 2 workers per rank must drain.
  constexpr int kRanks = 3;
  constexpr int kBands = 32;
  fx::mpi::Runtime::run(kRanks, [&](fx::mpi::Comm& comm) {
    TaskRuntime rt(2);
    std::atomic<int> completed{0};
    for (int band = 0; band < kBands; ++band) {
      rt.submit("band", [&, band] {
        long v = comm.rank() + band;
        long sum = 0;
        comm.allreduce(&v, &sum, 1, fx::mpi::ReduceOp::Sum, band);
        ASSERT_EQ(sum, 3L * band + 3);
        completed.fetch_add(1);
      });
    }
    rt.taskwait();
    EXPECT_EQ(completed.load(), kBands);
  });
}

}  // namespace
