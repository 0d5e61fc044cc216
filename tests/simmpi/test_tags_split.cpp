// Tagged out-of-order collective matching, communicator splitting (the
// two-layer FFT scheme), and observer events.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <map>
#include <thread>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "simmpi/comm.hpp"
#include "simmpi/runtime.hpp"

// Heap accounting through mallinfo2 reads glibc's allocator, which the
// address and thread sanitizers replace.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define FX_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define FX_TEST_SANITIZED 1
#endif
#endif

namespace {

using fx::mpi::Comm;
using fx::mpi::CommEvent;
using fx::mpi::CommOpKind;
using fx::mpi::ReduceOp;
using fx::mpi::Runtime;

TEST(Tags, CollectivesMatchByTagNotArrivalOrder) {
  // Even ranks start tag A's collective first, odd ranks tag B's first;
  // both are in flight concurrently (separate threads -- collectives are
  // blocking rendezvous, so a *single* thread issuing mismatched orders
  // across ranks would deadlock by construction, exactly like MPI).
  // Tag-based matching must pair the instances regardless of the
  // rank-dependent start order.
  constexpr int kRanks = 4;
  Runtime::run(kRanks, [&](Comm& comm) {
    const int r = comm.rank();
    std::vector<int> sa(kRanks, 10 + r);
    std::vector<int> sb(kRanks, 20 + r);
    std::vector<int> ra(kRanks, -1);
    std::vector<int> rb(kRanks, -1);
    {
      std::jthread first([&] {
        if (r % 2 == 0) {
          comm.alltoall(std::span<const int>(sa), std::span<int>(ra), 1);
        } else {
          comm.alltoall(std::span<const int>(sb), std::span<int>(rb), 2);
        }
      });
      // Stagger the second issue to randomize arrival interleavings.
      std::this_thread::yield();
      std::jthread second([&] {
        if (r % 2 == 0) {
          comm.alltoall(std::span<const int>(sb), std::span<int>(rb), 2);
        } else {
          comm.alltoall(std::span<const int>(sa), std::span<int>(ra), 1);
        }
      });
    }
    for (int p = 0; p < kRanks; ++p) {
      ASSERT_EQ(ra[static_cast<std::size_t>(p)], 10 + p);
      ASSERT_EQ(rb[static_cast<std::size_t>(p)], 20 + p);
    }
  });
}

TEST(Tags, ConcurrentCollectivesFromThreadsOfOneRank) {
  // Each rank runs two threads, one per tag -- the task-per-FFT situation.
  constexpr int kRanks = 3;
  Runtime::run(kRanks, [&](Comm& comm) {
    const int r = comm.rank();
    std::vector<double> s1(kRanks, 1.0 + r);
    std::vector<double> s2(kRanks, 100.0 + r);
    std::vector<double> r1(kRanks);
    std::vector<double> r2(kRanks);
    {
      std::jthread t1([&] {
        comm.alltoall(std::span<const double>(s1), std::span<double>(r1), 1);
      });
      std::jthread t2([&] {
        comm.alltoall(std::span<const double>(s2), std::span<double>(r2), 2);
      });
    }
    for (int p = 0; p < kRanks; ++p) {
      ASSERT_DOUBLE_EQ(r1[static_cast<std::size_t>(p)], 1.0 + p);
      ASSERT_DOUBLE_EQ(r2[static_cast<std::size_t>(p)], 100.0 + p);
    }
  });
}

TEST(Tags, SameTagRepeatedCallsMatchInOrder) {
  constexpr int kRanks = 2;
  Runtime::run(kRanks, [&](Comm& comm) {
    for (int it = 0; it < 10; ++it) {
      long v = comm.rank() + it;
      long sum = 0;
      comm.allreduce(&v, &sum, 1, ReduceOp::Sum, /*tag=*/5);
      ASSERT_EQ(sum, 2L * it + 1);
    }
  });
}

TEST(Split, TwoLayerFftCommunicators) {
  // The paper's 8x8-style layout at 4x2: world of R*T = 8 ranks; "scatter"
  // groups of R ranks with stride T; "pack" groups of T neighboring ranks.
  constexpr int kR = 4;
  constexpr int kT = 2;
  Runtime::run(kR * kT, [&](Comm& world) {
    const int w = world.rank();
    const int group = w % kT;      // task-group id (scatter comm color)
    const int member = w / kT;     // rank inside the task group
    Comm scatter = world.split(group, member);
    ASSERT_EQ(scatter.size(), kR);
    ASSERT_EQ(scatter.rank(), member);

    Comm pack = world.split(/*color=*/w / kT, /*key=*/w % kT);
    ASSERT_EQ(pack.size(), kT);
    ASSERT_EQ(pack.rank(), w % kT);

    // Verify membership: every member sends its world rank to every peer,
    // so block i of the exchange holds member i's world rank.  The scatter
    // comm must show the stride-T pattern {group, group+T, ...}.
    const std::vector<int> wr(kR, w);
    std::vector<int> members(kR, -1);
    scatter.alltoall(std::span<const int>(wr), std::span<int>(members));
    for (int i = 0; i < kR; ++i) {
      ASSERT_EQ(members[static_cast<std::size_t>(i)], group + i * kT);
    }

    // And the pack comm holds T consecutive ranks {b*T .. b*T+T-1}.
    const std::vector<int> pwr(kT, w);
    std::vector<int> pmembers(kT, -1);
    pack.alltoall(std::span<const int>(pwr), std::span<int>(pmembers));
    for (int i = 0; i < kT; ++i) {
      ASSERT_EQ(pmembers[static_cast<std::size_t>(i)], (w / kT) * kT + i);
    }
  });
}

TEST(Split, KeyControlsOrderingAndIdsDiffer) {
  Runtime::run(4, [&](Comm& world) {
    // Reverse ordering via key.
    Comm rev = world.split(0, -world.rank());
    EXPECT_EQ(rev.size(), 4);
    EXPECT_EQ(rev.rank(), 3 - world.rank());
    EXPECT_NE(rev.id(), world.id());

    // Sub-communicators work as full communicators.
    int v = rev.rank();
    int sum = 0;
    rev.allreduce(&v, &sum, 1, ReduceOp::Sum);
    EXPECT_EQ(sum, 6);
  });
}

TEST(Split, SingletonGroups) {
  Runtime::run(3, [&](Comm& world) {
    Comm solo = world.split(world.rank(), 0);
    EXPECT_EQ(solo.size(), 1);
    EXPECT_EQ(solo.rank(), 0);
    solo.barrier();  // must not hang
  });
}

TEST(Split, DroppedChildrenDoNotGrowTheHeap) {
  // A parent remembers its split children (to poison them) only while they
  // live: a long-lived world that splits for every pipeline must not keep
  // one entry per dead child.  Each round is a pipeline's pair of splits at
  // ntg == 1 -- two singleton pack comms and one two-rank scatter comm.
#if defined(FX_TEST_SANITIZED) || !defined(__GLIBC__)
  GTEST_SKIP() << "needs glibc's mallinfo2 without a sanitizer allocator";
#else
  constexpr int kRounds = 10000;
  std::size_t grown = 0;
  Runtime::run(2, [&](Comm& world) {
    auto round = [&] {
      const Comm pack = world.split(/*color=*/world.rank(), /*key=*/0);
      const Comm scat = world.split(/*color=*/0, /*key=*/world.rank());
    };
    for (int i = 0; i < 100; ++i) round();  // warm the allocator's caches
    world.barrier();
    const std::size_t before = mallinfo2().uordblks;
    world.barrier();
    for (int i = 0; i < kRounds; ++i) round();
    world.barrier();
    if (world.rank() == 0) {
      const std::size_t after = mallinfo2().uordblks;
      grown = after > before ? after - before : 0;
    }
  });
  // Leaking every child costs well over a kilobyte per round (16 MB in all).
  EXPECT_LT(grown, std::size_t{1} << 20) << "heap grew by " << grown << " B";
#endif
}

TEST(Observer, EventsCarryKindCommAndBytes) {
  Runtime::run(2, [&](Comm& comm) {
    std::vector<CommEvent> events;
    comm.set_observer([&](const CommEvent& e) { events.push_back(e); });

    comm.barrier();
    std::vector<int> s(2, comm.rank());
    std::vector<int> r(2);
    comm.alltoall(std::span<const int>(s), std::span<int>(r), /*tag=*/9);

    ASSERT_EQ(events.size(), 2U);
    EXPECT_EQ(events[0].kind, CommOpKind::Barrier);
    EXPECT_EQ(events[1].kind, CommOpKind::Alltoall);
    EXPECT_EQ(events[1].tag, 9);
    EXPECT_EQ(events[1].comm_size, 2);
    EXPECT_EQ(events[1].comm_id, comm.id());
    EXPECT_EQ(events[1].bytes, 2 * sizeof(int));
    EXPECT_GE(events[1].t_end, events[1].t_begin);
    comm.set_observer(nullptr);
    comm.barrier();
    EXPECT_EQ(events.size(), 2U);
  });
}

TEST(Observer, InheritedBySplitCommunicators) {
  Runtime::run(2, [&](Comm& comm) {
    std::atomic<int> count{0};
    comm.set_observer([&](const CommEvent&) { count.fetch_add(1); });
    Comm sub = comm.split(0, 0);  // split itself is observed (+1)
    sub.barrier();                // observed through inheritance (+1)
    EXPECT_EQ(count.load(), 2);
  });
}

TEST(Stress, ManyTagsManyRanksInterleaved) {
  constexpr int kRanks = 8;
  constexpr int kWindows = 5;
  constexpr int kTagsPerWindow = 5;
  Runtime::run(kRanks, [&](Comm& comm) {
    const int r = comm.rank();
    // Window of 5 concurrent collectives per rank, one thread per tag,
    // started in a rank-dependent order: the matcher must pair all of
    // them under heavy interleaving.  (All five are in flight at once, so
    // the blocking rendezvous always makes progress.)
    for (int window = 0; window < kWindows; ++window) {
      const int base = window * kTagsPerWindow;
      std::vector<long> sums(kTagsPerWindow, -1);
      {
        std::vector<std::jthread> issuers;
        issuers.reserve(kTagsPerWindow);
        for (int k = 0; k < kTagsPerWindow; ++k) {
          const int tag = base + (k + r) % kTagsPerWindow;
          issuers.emplace_back([&comm, &sums, tag, base, r] {
            long v = r + tag;
            comm.allreduce(&v, &sums[static_cast<std::size_t>(tag - base)], 1,
                           ReduceOp::Sum, tag);
          });
        }
      }
      for (int k = 0; k < kTagsPerWindow; ++k) {
        const int tag = base + k;
        ASSERT_EQ(sums[static_cast<std::size_t>(k)],
                  static_cast<long>(kRanks) * (kRanks - 1) / 2 +
                      static_cast<long>(kRanks) * tag);
      }
    }
  });
}

}  // namespace
