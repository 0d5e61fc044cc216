// Collective correctness across a sweep of rank counts, validated against
// hand-computed results.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "simmpi/comm.hpp"
#include "simmpi/runtime.hpp"

namespace {

using fx::mpi::Comm;
using fx::mpi::ReduceOp;
using fx::mpi::Runtime;

class RankSweep : public ::testing::TestWithParam<int> {};

TEST_P(RankSweep, BarrierCompletesRepeatedly) {
  const int n = GetParam();
  std::atomic<int> phase_sum{0};
  Runtime::run(n, [&](Comm& comm) {
    for (int it = 0; it < 5; ++it) {
      phase_sum.fetch_add(1);
      comm.barrier();
      // After the barrier every rank must observe all arrivals of this phase.
      ASSERT_GE(phase_sum.load(), (it + 1) * n);
      comm.barrier();
    }
  });
  EXPECT_EQ(phase_sum.load(), 5 * n);
}

TEST_P(RankSweep, BcastDeliversRootPayload) {
  const int n = GetParam();
  Runtime::run(n, [&](Comm& comm) {
    for (int root = 0; root < n; ++root) {
      std::vector<int> data(4, comm.rank() == root ? 1000 + root : -1);
      comm.bcast_bytes(data.data(), data.size() * sizeof(int), root);
      for (int v : data) ASSERT_EQ(v, 1000 + root);
    }
  });
}

TEST_P(RankSweep, AllreduceSumMaxMin) {
  const int n = GetParam();
  Runtime::run(n, [&](Comm& comm) {
    const int r = comm.rank();
    const double mine[3] = {static_cast<double>(r + 1),
                            static_cast<double>(r * r),
                            static_cast<double>(-r)};
    double out[3] = {};
    comm.allreduce(mine, out, 3, ReduceOp::Sum);
    ASSERT_DOUBLE_EQ(out[0], n * (n + 1) / 2.0);
    ASSERT_DOUBLE_EQ(out[2], -n * (n - 1) / 2.0);

    comm.allreduce(mine, out, 3, ReduceOp::Max);
    ASSERT_DOUBLE_EQ(out[0], static_cast<double>(n));
    ASSERT_DOUBLE_EQ(out[1], static_cast<double>((n - 1) * (n - 1)));

    comm.allreduce(mine, out, 3, ReduceOp::Min);
    ASSERT_DOUBLE_EQ(out[0], 1.0);
    ASSERT_DOUBLE_EQ(out[2], static_cast<double>(-(n - 1)));
  });
}

TEST_P(RankSweep, AllreduceInPlaceAliasing) {
  const int n = GetParam();
  Runtime::run(n, [&](Comm& comm) {
    long v = comm.rank() + 1;
    comm.allreduce(&v, &v, 1, ReduceOp::Sum);
    ASSERT_EQ(v, static_cast<long>(n) * (n + 1) / 2);
  });
}

TEST_P(RankSweep, AlltoallExchangesPersonalizedBlocks) {
  const int n = GetParam();
  Runtime::run(n, [&](Comm& comm) {
    const int r = comm.rank();
    // Rank r sends value 100*r + p to peer p (two ints per pair).
    std::vector<int> send(static_cast<std::size_t>(2 * n));
    for (int p = 0; p < n; ++p) {
      send[static_cast<std::size_t>(2 * p)] = 100 * r + p;
      send[static_cast<std::size_t>(2 * p + 1)] = -(100 * r + p);
    }
    std::vector<int> recv(static_cast<std::size_t>(2 * n), 0);
    comm.alltoall(std::span<const int>(send), std::span<int>(recv));
    for (int p = 0; p < n; ++p) {
      ASSERT_EQ(recv[static_cast<std::size_t>(2 * p)], 100 * p + r);
      ASSERT_EQ(recv[static_cast<std::size_t>(2 * p + 1)], -(100 * p + r));
    }
  });
}

TEST_P(RankSweep, AlltoallvVariableBlocks) {
  const int n = GetParam();
  Runtime::run(n, [&](Comm& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    const auto un = static_cast<std::size_t>(n);
    // Rank r sends (r + p + 1) elements to peer p; element values encode
    // (sender, receiver, index).
    std::vector<std::size_t> scounts(un);
    std::vector<std::size_t> sdispls(un);
    std::size_t total = 0;
    for (std::size_t p = 0; p < un; ++p) {
      scounts[p] = r + p + 1;
      sdispls[p] = total;
      total += scounts[p];
    }
    std::vector<long> send(total);
    for (std::size_t p = 0; p < un; ++p) {
      for (std::size_t i = 0; i < scounts[p]; ++i) {
        send[sdispls[p] + i] =
            static_cast<long>(r * 1000000 + p * 1000 + i);
      }
    }
    std::vector<std::size_t> rcounts(un);
    std::vector<std::size_t> rdispls(un);
    std::size_t rtotal = 0;
    for (std::size_t p = 0; p < un; ++p) {
      rcounts[p] = p + r + 1;  // peer p sends me p + r + 1
      rdispls[p] = rtotal;
      rtotal += rcounts[p];
    }
    std::vector<long> recv(rtotal, -1);
    comm.alltoallv(send.data(), scounts.data(), sdispls.data(), recv.data(),
                   rcounts.data(), rdispls.data());
    for (std::size_t p = 0; p < un; ++p) {
      for (std::size_t i = 0; i < rcounts[p]; ++i) {
        ASSERT_EQ(recv[rdispls[p] + i],
                  static_cast<long>(p * 1000000 + r * 1000 + i))
            << "p=" << p << " i=" << i;
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, RankSweep, ::testing::Values(1, 2, 3, 4, 7, 8, 16));

TEST(Collectives, SizeMismatchAcrossRanksIsDetected) {
  EXPECT_THROW(
      Runtime::run(2,
                   [&](Comm& comm) {
                     // Rank 0 reduces 1 element, rank 1 reduces 2: a bug.
                     // Rank 1 arrives last and runs the check, so the check
                     // must compare rank 0's count too.
                     const std::size_t mine = comm.rank() == 0 ? 1 : 2;
                     if (comm.rank() == 1) {
                       std::this_thread::sleep_for(
                           std::chrono::milliseconds(20));
                     }
                     std::vector<int> buf(64, 1);
                     comm.allreduce(buf.data(), buf.data() + 32, mine,
                                    ReduceOp::Sum);
                   }),
      fx::core::Error);
}

TEST(Collectives, WorldIdIsSharedAndSizeCorrect) {
  Runtime::run(3, [&](Comm& comm) {
    EXPECT_EQ(comm.size(), 3);
    int id = comm.id();
    int max_id = 0;
    comm.allreduce(&id, &max_id, 1, ReduceOp::Max);
    EXPECT_EQ(id, max_id);  // same communicator id on every rank
  });
}

TEST(Collectives, RankExceptionAbortsPeersInsteadOfDeadlocking) {
  EXPECT_THROW(Runtime::run(4,
                            [&](Comm& comm) {
                              if (comm.rank() == 2) {
                                throw std::logic_error("rank 2 exploded");
                              }
                              comm.barrier();  // would deadlock without abort
                            }),
               std::logic_error);
}

TEST(Collectives, BytesSentAccounting) {
  Runtime::run(2, [&](Comm& comm) {
    std::vector<int> send(8, comm.rank());
    std::vector<int> recv(8, 0);
    comm.alltoall(std::span<const int>(send), std::span<int>(recv));
    EXPECT_EQ(comm.bytes_sent(), 8 * sizeof(int));
  });
}

}  // namespace
