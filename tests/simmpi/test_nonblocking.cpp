// Nonblocking collectives (Ialltoall/Ialltoallv, contiguous and
// scatter-gather views) behind the pipeline's fused overlapped transposes:
// completion semantics, posting order, the overlap pattern the paper's
// future work (MPI inside tasks) relies on, and their behavior under fault
// injection, the watchdog, and revocation.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/error.hpp"
#include "core/metrics.hpp"
#include "core/timer.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/runtime.hpp"

namespace {

using fx::core::CommError;
using fx::core::DeadlockError;
using fx::core::FaultError;
using fx::mpi::Comm;
using fx::mpi::CommEvent;
using fx::mpi::CommOpKind;
using fx::mpi::Request;
using fx::mpi::RunOptions;
using fx::mpi::Runtime;
using fx::mpi::SegRun;
using fx::mpi::SegView;

/// Quiet-watchdog options for tests that exercise other features.
RunOptions quiet_options() {
  RunOptions opts;
  opts.watchdog.window_ms = 60000.0;
  return opts;
}

/// Elements rank r sends to rank p in the irregular exchange tests.
std::size_t seg_count(int r, int p) {
  return static_cast<std::size_t>(1 + r + 2 * p);
}

double seg_value(int r, int p, std::size_t i) {
  return 100.0 * r + 10.0 * p + static_cast<double>(i);
}

TEST(Nonblocking, DefaultRequestIsComplete) {
  Request r;
  EXPECT_TRUE(r.test());
  r.wait();  // must not block
}

/// Builds the irregular send/recv buffers of `seg_count`/`seg_value` for
/// `rank` in a `size`-rank world, returning {send, scounts, sdispls}.
struct VBufs {
  std::vector<double> send;
  std::vector<double> recv;
  std::vector<std::size_t> scounts, sdispls, rcounts, rdispls;
};

VBufs make_vbufs(int rank, int size) {
  VBufs b;
  const auto n = static_cast<std::size_t>(size);
  b.scounts.resize(n);
  b.sdispls.resize(n);
  b.rcounts.resize(n);
  b.rdispls.resize(n);
  std::size_t soff = 0;
  std::size_t roff = 0;
  for (int p = 0; p < size; ++p) {
    const auto pu = static_cast<std::size_t>(p);
    b.scounts[pu] = seg_count(rank, p);
    b.sdispls[pu] = soff;
    soff += b.scounts[pu];
    b.rcounts[pu] = seg_count(p, rank);
    b.rdispls[pu] = roff;
    roff += b.rcounts[pu];
  }
  b.send.resize(soff);
  b.recv.resize(roff, -1.0);
  for (int p = 0; p < size; ++p) {
    const auto pu = static_cast<std::size_t>(p);
    for (std::size_t i = 0; i < b.scounts[pu]; ++i) {
      b.send[b.sdispls[pu] + i] = seg_value(rank, p, i);
    }
  }
  return b;
}

void expect_vrecv(const VBufs& b, int rank, int size) {
  for (int p = 0; p < size; ++p) {
    const auto pu = static_cast<std::size_t>(p);
    for (std::size_t i = 0; i < b.rcounts[pu]; ++i) {
      EXPECT_DOUBLE_EQ(b.recv[b.rdispls[pu] + i], seg_value(p, rank, i))
          << "from rank " << p << " element " << i;
    }
  }
}

TEST(NonblockingCollective, IalltoallvMatchesBlockingAlltoallv) {
  Runtime::run(4, [&](Comm& comm) {
    VBufs nb = make_vbufs(comm.rank(), comm.size());
    VBufs bl = make_vbufs(comm.rank(), comm.size());
    Request r = comm.ialltoallv_bytes(
        nb.send.data(), nb.scounts.data(), nb.sdispls.data(), nb.recv.data(),
        nb.rcounts.data(), nb.rdispls.data(), sizeof(double), /*tag=*/3);
    comm.alltoallv(bl.send.data(), bl.scounts.data(), bl.sdispls.data(),
                   bl.recv.data(), bl.rcounts.data(), bl.rdispls.data(),
                   /*tag=*/4);
    r.wait();
    EXPECT_TRUE(r.test());
    expect_vrecv(nb, comm.rank(), comm.size());
    EXPECT_EQ(nb.recv, bl.recv);
  });
}

TEST(NonblockingCollective, IalltoallMatchesBlockingAlltoall) {
  Runtime::run(3, [&](Comm& comm) {
    const auto n = static_cast<std::size_t>(comm.size());
    std::vector<std::int64_t> send(n);
    std::vector<std::int64_t> nb_recv(n, -1);
    std::vector<std::int64_t> bl_recv(n, -1);
    for (std::size_t p = 0; p < n; ++p) {
      send[p] = 1000 * comm.rank() + static_cast<std::int64_t>(p);
    }
    Request r = comm.ialltoall_bytes(send.data(), nb_recv.data(),
                                     sizeof(std::int64_t), /*tag=*/0);
    comm.alltoall_bytes(send.data(), bl_recv.data(), sizeof(std::int64_t),
                        /*tag=*/1);
    r.wait();
    EXPECT_EQ(nb_recv, bl_recv);
    for (std::size_t p = 0; p < n; ++p) {
      EXPECT_EQ(nb_recv[p], static_cast<std::int64_t>(1000 * p) + comm.rank());
    }
  });
}

TEST(NonblockingCollective, StridedViewsExchangeWithoutStaging) {
  // Rank r sends column r of a 2x2 row-major matrix (stride 2) and
  // receives each peer's segment into column slots of its own matrix:
  // a transpose exchanged directly between strided layouts, no staging.
  Runtime::run(2, [&](Comm& comm) {
    const int me = comm.rank();
    std::vector<double> mat = {10.0 + me, 20.0 + me,   // row 0
                               30.0 + me, 40.0 + me};  // row 1
    std::vector<double> out(4, -1.0);
    // Send column p to peer p; receive from peer p into column p.
    std::vector<SegRun> sruns = {SegRun{0, 2, 2}, SegRun{1, 2, 2}};
    std::vector<SegRun> rruns = {SegRun{0, 2, 2}, SegRun{1, 2, 2}};
    std::vector<SegView> sviews = {SegView(&sruns[0], 1),
                                   SegView(&sruns[1], 1)};
    std::vector<SegView> rviews = {SegView(&rruns[0], 1),
                                   SegView(&rruns[1], 1)};
    Request r = comm.ialltoallv_view(mat.data(), sviews, out.data(), rviews,
                                     sizeof(double), /*tag=*/0);
    r.wait();
    // out column p = peer p's column me.
    for (int p = 0; p < 2; ++p) {
      EXPECT_DOUBLE_EQ(out[static_cast<std::size_t>(p)],
                       10.0 * (1 + me) + p);
      EXPECT_DOUBLE_EQ(out[static_cast<std::size_t>(2 + p)],
                       10.0 * (3 + me) + p);
    }
  });
}

TEST(NonblockingCollective, PostedExchangeOverlapsCompute) {
  Runtime::run(2, [&](Comm& comm) {
    const auto n = static_cast<std::size_t>(comm.size());
    std::vector<double> send(n, static_cast<double>(comm.rank()));
    std::vector<double> recv(n, -1.0);
    Request r = comm.ialltoall_bytes(send.data(), recv.data(),
                                     sizeof(double), /*tag=*/0);
    // "Compute" while the exchange is in flight; the request makes
    // progress in wait(), not here.
    double acc = 0.0;
    for (int i = 0; i < 10000; ++i) acc += static_cast<double>(i) * 0.5;
    EXPECT_GT(acc, 0.0);
    r.wait();
    for (std::size_t p = 0; p < n; ++p) {
      EXPECT_DOUBLE_EQ(recv[p], static_cast<double>(p));
    }
  });
}

TEST(NonblockingCollective, SeveralInFlightSameTagMatchInPostOrder) {
  // The overlapped pipeline posts one exchange per Z-FFT chunk, all under
  // the iteration tag; (kind, tag, seq) matching must pair chunk c with
  // chunk c on every rank.
  Runtime::run(2, [&](Comm& comm) {
    constexpr int kChunks = 4;
    const auto n = static_cast<std::size_t>(comm.size());
    std::vector<std::vector<double>> send(kChunks);
    std::vector<std::vector<double>> recv(kChunks);
    std::vector<Request> reqs;
    for (int c = 0; c < kChunks; ++c) {
      send[c].assign(n, 100.0 * comm.rank() + c);
      recv[c].assign(n, -1.0);
      reqs.push_back(comm.ialltoall_bytes(send[c].data(), recv[c].data(),
                                          sizeof(double), /*tag=*/9));
    }
    for (int c = kChunks - 1; c >= 0; --c) reqs[c].wait();
    for (int c = 0; c < kChunks; ++c) {
      for (std::size_t p = 0; p < n; ++p) {
        EXPECT_DOUBLE_EQ(recv[c][p], 100.0 * static_cast<double>(p) + c);
      }
    }
  });
}

TEST(NonblockingCollective, EachRankCopiesItsOwnColumn) {
  // Receiver-copies rule: rank 1's later post pulls only its own column,
  // so the transfer 1 -> 0 is still pending when that post returns and
  // lands in rank 0's buffer only through rank 0's own wait().
  std::atomic<int> stage{0};
  Runtime::run(2, quiet_options(), [&](Comm& comm) {
    const int me = comm.rank();
    std::vector<double> send(2, 10.0 + me);
    std::vector<double> recv(2, -1.0);
    if (me == 0) {
      Request r =
          comm.ialltoall_bytes(send.data(), recv.data(), sizeof(double));
      stage = 1;  // rank 0's post returned
      while (stage.load() < 2) std::this_thread::yield();
      EXPECT_EQ(recv[1], -1.0) << "rank 1's post copied into rank 0's column";
      stage = 3;  // rank 0 read its slot; rank 1 may wait now
      r.wait();
      EXPECT_EQ(recv[1], 11.0);
    } else {
      while (stage.load() < 1) std::this_thread::yield();
      Request r =
          comm.ialltoall_bytes(send.data(), recv.data(), sizeof(double));
      stage = 2;  // rank 1's post returned
      while (stage.load() < 3) std::this_thread::yield();
      r.wait();
    }
    EXPECT_EQ(recv[static_cast<std::size_t>(me)], 10.0 + me);
    EXPECT_EQ(recv[static_cast<std::size_t>(1 - me)], 11.0 - me);
  });
}

TEST(NonblockingCollective, BlockedWaiterFinishesItsRowAlone) {
  // Rank 0 posts and then does not poll until rank 1's wait() returned:
  // rank 1, blocked with its column complete, must copy its own row
  // (1 -> 0) rather than wait for a receiver that is not polling.
  std::atomic<bool> posted0{false};
  std::atomic<bool> waited1{false};
  Runtime::run(2, quiet_options(), [&](Comm& comm) {
    const int me = comm.rank();
    std::vector<double> send(2, 10.0 + me);
    std::vector<double> recv(2, -1.0);
    if (me == 0) {
      Request r =
          comm.ialltoall_bytes(send.data(), recv.data(), sizeof(double));
      posted0 = true;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (!waited1 && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      EXPECT_TRUE(waited1.load()) << "rank 1's wait needed rank 0 to poll";
      r.wait();
    } else {
      while (!posted0) std::this_thread::yield();
      comm.ialltoall_bytes(send.data(), recv.data(), sizeof(double)).wait();
      waited1 = true;
    }
    EXPECT_EQ(recv[static_cast<std::size_t>(me)], 10.0 + me);
    EXPECT_EQ(recv[static_cast<std::size_t>(1 - me)], 11.0 - me);
  });
}

TEST(NonblockingCollective, AliasedBuffersThrow) {
  EXPECT_THROW(Runtime::run(1,
                            [&](Comm& comm) {
                              std::vector<double> buf(1, 0.0);
                              comm.ialltoall_bytes(buf.data(), buf.data(),
                                                   sizeof(double))
                                  .wait();
                            }),
               fx::core::Error);
}

TEST(NonblockingCollective, BlockingAlltoallvAliasedBuffersThrow) {
  // The aliasing guard the blocking variant was missing (alltoall_bytes
  // always had it).
  EXPECT_THROW(Runtime::run(1,
                            [&](Comm& comm) {
                              std::vector<double> buf(1, 0.0);
                              const std::size_t one = 1;
                              const std::size_t zero = 0;
                              comm.alltoallv_bytes(buf.data(), &one, &zero,
                                                   buf.data(), &one, &zero,
                                                   sizeof(double));
                            }),
               fx::core::Error);
}

TEST(NonblockingCollective, PostedAndCompletedCountersAdvance) {
  auto& reg = fx::core::MetricsRegistry::global();
  const auto posted0 = reg.counter("simmpi.ialltoallv.posted").value();
  const auto completed0 = reg.counter("simmpi.ialltoallv.completed").value();
  Runtime::run(2, [&](Comm& comm) {
    const auto n = static_cast<std::size_t>(comm.size());
    std::vector<double> send(n, 1.0);
    std::vector<double> recv(n, 0.0);
    comm.ialltoall_bytes(send.data(), recv.data(), sizeof(double)).wait();
  });
  EXPECT_EQ(reg.counter("simmpi.ialltoallv.posted").value(), posted0 + 2);
  EXPECT_EQ(reg.counter("simmpi.ialltoallv.completed").value(),
            completed0 + 2);
}

TEST(NonblockingFaults, KillMidExchangeUnwindsPeers) {
  RunOptions opts = quiet_options();
  opts.faults.kill_rank = 1;
  opts.faults.kill_op = 0;
  opts.faults.only_kind = static_cast<int>(CommOpKind::Ialltoallv);
  std::atomic<int> peer_unwinds{0};
  try {
    Runtime::run(4, opts, [&](Comm& comm) {
      try {
        VBufs b = make_vbufs(comm.rank(), comm.size());
        comm.ialltoallv_bytes(b.send.data(), b.scounts.data(),
                              b.sdispls.data(), b.recv.data(),
                              b.rcounts.data(), b.rdispls.data(),
                              sizeof(double))
            .wait();
      } catch (const CommError& e) {
        EXPECT_NE(std::string(e.what()).find("rank 1 failed"),
                  std::string::npos)
            << e.what();
        peer_unwinds.fetch_add(1);
        throw;
      }
    });
    FAIL() << "expected FaultError";
  } catch (const FaultError& e) {
    EXPECT_NE(std::string(e.what()).find("killed rank 1"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("Ialltoallv"), std::string::npos);
  }
  EXPECT_EQ(peer_unwinds.load(), 3);
}

TEST(NonblockingFaults, StallMidExchangeStillCompletes) {
  RunOptions opts = quiet_options();
  opts.faults.stall_rank = 0;
  opts.faults.stall_op = 0;
  opts.faults.stall_ms = 50.0;
  opts.faults.only_kind = static_cast<int>(CommOpKind::Ialltoallv);
  fx::core::WallTimer timer;
  Runtime::run(2, opts, [&](Comm& comm) {
    VBufs b = make_vbufs(comm.rank(), comm.size());
    Request r = comm.ialltoallv_bytes(
        b.send.data(), b.scounts.data(), b.sdispls.data(), b.recv.data(),
        b.rcounts.data(), b.rdispls.data(), sizeof(double));
    r.wait();
    expect_vrecv(b, comm.rank(), comm.size());
  });
  EXPECT_GE(timer.seconds(), 0.045);
}

/// Every all-to-all opens its CommEvent window before the fault hook, so
/// an injected stall is exchange time whether the exchange blocks
/// (Alltoallv) or is posted and waited (Ialltoallv).
class ExchangeWindow : public ::testing::TestWithParam<CommOpKind> {};

TEST_P(ExchangeWindow, StallLandsInsideTheEvent) {
  const CommOpKind kind = GetParam();
  RunOptions opts = quiet_options();
  opts.faults.stall_rank = 0;
  opts.faults.stall_op = 0;
  opts.faults.stall_ms = 50.0;
  opts.faults.only_kind = static_cast<int>(kind);
  double span_s = -1.0;  // written by rank 0's thread, read after the join
  Runtime::run(2, opts, [&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.set_observer([&](const CommEvent& e) {
        if (e.kind == kind) span_s = e.t_end - e.t_begin;
      });
    }
    VBufs b = make_vbufs(comm.rank(), comm.size());
    if (kind == CommOpKind::Alltoallv) {
      comm.alltoallv_bytes(b.send.data(), b.scounts.data(), b.sdispls.data(),
                           b.recv.data(), b.rcounts.data(), b.rdispls.data(),
                           sizeof(double));
    } else {
      comm.ialltoallv_bytes(b.send.data(), b.scounts.data(),
                            b.sdispls.data(), b.recv.data(),
                            b.rcounts.data(), b.rdispls.data(),
                            sizeof(double))
          .wait();
    }
    expect_vrecv(b, comm.rank(), comm.size());
  });
  EXPECT_GE(span_s, 0.050);
}

INSTANTIATE_TEST_SUITE_P(Kinds, ExchangeWindow,
                         ::testing::Values(CommOpKind::Alltoallv,
                                           CommOpKind::Ialltoallv),
                         [](const auto& info) {
                           return std::string(fx::mpi::to_string(info.param));
                         });

TEST(NonblockingFaults, CorruptMidFlightFlipsExactlyOneBit) {
  RunOptions opts = quiet_options();
  opts.faults.corrupt_rank = 0;
  opts.faults.corrupt_op = 0;
  opts.faults.only_kind = static_cast<int>(CommOpKind::Ialltoallv);
  std::atomic<int> flipped_bits{0};
  Runtime::run(2, opts, [&](Comm& comm) {
    VBufs b = make_vbufs(comm.rank(), comm.size());
    comm.ialltoallv_bytes(b.send.data(), b.scounts.data(), b.sdispls.data(),
                          b.recv.data(), b.rcounts.data(), b.rdispls.data(),
                          sizeof(double))
        .wait();
    // Diff the received payload bitwise against the clean expectation.
    VBufs want = make_vbufs(comm.rank(), comm.size());
    for (int p = 0; p < comm.size(); ++p) {
      const auto pu = static_cast<std::size_t>(p);
      for (std::size_t i = 0; i < want.rcounts[pu]; ++i) {
        want.recv[want.rdispls[pu] + i] = seg_value(p, comm.rank(), i);
      }
    }
    for (std::size_t k = 0; k < b.recv.size(); ++k) {
      std::uint64_t got = 0;
      std::uint64_t exp = 0;
      std::memcpy(&got, &b.recv[k], sizeof(got));
      std::memcpy(&exp, &want.recv[k], sizeof(exp));
      flipped_bits.fetch_add(std::popcount(got ^ exp));
    }
  });
  EXPECT_EQ(flipped_bits.load(), 1);
}

TEST(NonblockingFaults, WatchdogCatchesNeverMatchedExchange) {
  // Rank 1 never posts: rank 0 blocks in wait() with its ProgressBoard
  // registration, so the deadlock report names the nonblocking kind.
  RunOptions opts;
  opts.watchdog.window_ms = 250.0;
  fx::core::WallTimer timer;
  try {
    Runtime::run(2, opts, [&](Comm& comm) {
      if (comm.rank() == 0) {
        const auto n = static_cast<std::size_t>(comm.size());
        std::vector<double> send(n, 0.0);
        std::vector<double> recv(n, 0.0);
        comm.ialltoall_bytes(send.data(), recv.data(), sizeof(double),
                             /*tag=*/5)
            .wait();
      } else {
        std::this_thread::sleep_for(std::chrono::seconds(1));
      }
    });
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    EXPECT_NE(std::string(e.what()).find("Ialltoall"), std::string::npos)
        << e.what();
  }
  EXPECT_LT(timer.seconds(), 10.0);
}

TEST(NonblockingFaults, RevokedCommUnwindsWaiter) {
  std::atomic<int> revoked_unwinds{0};
  Runtime::run(2, quiet_options(), [&](Comm& comm) {
    if (comm.rank() == 1) {
      // Let rank 0 block in the wait first, then revoke.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      comm.revoke("test revoke");
      return;
    }
    try {
      const auto n = static_cast<std::size_t>(comm.size());
      std::vector<double> send(n, 0.0);
      std::vector<double> recv(n, 0.0);
      comm.ialltoall_bytes(send.data(), recv.data(), sizeof(double)).wait();
      FAIL() << "expected RevokedError";
    } catch (const fx::core::RevokedError& e) {
      EXPECT_NE(std::string(e.what()).find("revoked"), std::string::npos);
      revoked_unwinds.fetch_add(1);
    }
  });
  EXPECT_EQ(revoked_unwinds.load(), 1);
}

TEST(NonblockingFaults, AbandonedExchangeFailsPeersInsteadOfCopying) {
  // Rank 0 posts and drops its request unwaited -- the path of a rank that
  // unwinds between post and wait -- and its buffers die with the scope.
  // A later peer must not claim transfers against those dead buffers: the
  // exchange fails for it instead.
  std::atomic<bool> abandoned{false};
  std::vector<double> recv1(2, -1.0);
  try {
    Runtime::run(2, quiet_options(), [&](Comm& comm) {
      if (comm.rank() == 0) {
        {
          std::vector<double> send(2, 7.0);
          std::vector<double> recv(2, 0.0);
          Request r =
              comm.ialltoall_bytes(send.data(), recv.data(), sizeof(double));
        }
        abandoned = true;
        return;
      }
      while (!abandoned) std::this_thread::yield();
      const std::vector<double> send(2, 1.0);
      comm.ialltoall_bytes(send.data(), recv1.data(), sizeof(double)).wait();
    });
    FAIL() << "expected CommError";
  } catch (const CommError& e) {
    EXPECT_NE(std::string(e.what()).find("abandoned by rank 0"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(recv1[0], -1.0) << "data moved out of an abandoned exchange";
}

}  // namespace
