// Hardening subsystem: fault-injector determinism, watchdog deadlock
// detection, collective-matching validation, and cross-rank error
// propagation (poisoning).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/timer.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/faults.hpp"
#include "simmpi/runtime.hpp"
#include "simmpi/watchdog.hpp"

namespace {

using fx::core::CommError;
using fx::core::DeadlockError;
using fx::core::FaultError;
using fx::mpi::Comm;
using fx::mpi::CommOpKind;
using fx::mpi::FaultInjector;
using fx::mpi::FaultPlan;
using fx::mpi::ReduceOp;
using fx::mpi::RunOptions;
using fx::mpi::Runtime;

/// Quiet-watchdog options for tests that exercise other features.
RunOptions quiet_options() {
  RunOptions opts;
  opts.watchdog.window_ms = 60000.0;
  return opts;
}

/// Corruption decisions of `plan` over a fixed op grid, as one bitmap.
std::vector<bool> corruption_bitmap(const FaultPlan& plan, int nranks,
                                    int nops) {
  FaultInjector injector(plan, nranks);
  std::vector<bool> decisions;
  std::vector<unsigned char> buf(64);
  for (int r = 0; r < nranks; ++r) {
    for (int i = 0; i < nops; ++i) {
      std::memset(buf.data(), 0, buf.size());
      const bool hit =
          injector.maybe_corrupt(r, CommOpKind::Alltoallv, buf.data(),
                                 buf.size());
      decisions.push_back(hit);
      // A hit must actually flip exactly one bit somewhere.
      int flipped = 0;
      for (unsigned char b : buf) flipped += std::popcount(unsigned{b});
      EXPECT_EQ(flipped, hit ? 1 : 0);
    }
  }
  return decisions;
}

TEST(FaultInjector, DecisionsAreDeterministicPerSeed) {
  FaultPlan plan;
  plan.seed = 7;
  plan.corrupt_prob = 0.05;
  const auto first = corruption_bitmap(plan, 4, 200);
  const auto second = corruption_bitmap(plan, 4, 200);
  EXPECT_EQ(first, second);

  const int hits = static_cast<int>(std::count(first.begin(), first.end(),
                                               true));
  EXPECT_GT(hits, 0);     // 800 draws at 5%: ~40 expected
  EXPECT_LT(hits, 400);   // and nowhere near "always"

  FaultPlan other = plan;
  other.seed = 8;
  EXPECT_NE(first, corruption_bitmap(other, 4, 200));
}

TEST(FaultInjector, KindFilterRestrictsInjection) {
  FaultPlan plan;
  plan.corrupt_rank = 0;
  plan.corrupt_op = 0;
  plan.only_kind = static_cast<int>(CommOpKind::Alltoallv);
  FaultInjector injector(plan, 1);
  std::vector<unsigned char> buf(16, 0);
  // Unselected kinds neither corrupt nor advance the corruptible-op index.
  EXPECT_FALSE(
      injector.maybe_corrupt(0, CommOpKind::Bcast, buf.data(), buf.size()));
  EXPECT_TRUE(injector.maybe_corrupt(0, CommOpKind::Alltoallv, buf.data(),
                                     buf.size()));
}

TEST(FaultInjector, KillUnwindsEveryRank) {
  RunOptions opts = quiet_options();
  opts.faults.kill_rank = 1;
  opts.faults.kill_op = 2;
  std::atomic<int> peer_unwinds{0};
  try {
    Runtime::run(4, opts, [&](Comm& comm) {
      try {
        for (int it = 0; it < 10; ++it) {
          double x = comm.rank();
          double sum = 0.0;
          comm.allreduce(&x, &sum, 1, ReduceOp::Sum);
        }
      } catch (const CommError& e) {
        EXPECT_NE(std::string(e.what()).find("rank 1 failed"),
                  std::string::npos);
        peer_unwinds.fetch_add(1);
        throw;
      }
    });
    FAIL() << "expected FaultError";
  } catch (const FaultError& e) {
    EXPECT_NE(std::string(e.what()).find("killed rank 1"), std::string::npos);
  }
  // The three surviving ranks unwound out of their blocked collectives.
  EXPECT_EQ(peer_unwinds.load(), 3);
}

TEST(FaultInjector, StallDelaysTheRun) {
  RunOptions opts = quiet_options();
  opts.faults.stall_rank = 0;
  opts.faults.stall_op = 0;
  opts.faults.stall_ms = 50.0;
  fx::core::WallTimer timer;
  Runtime::run(2, opts, [&](Comm& comm) { comm.barrier(); });
  EXPECT_GE(timer.seconds(), 0.045);
}

TEST(Watchdog, FiresOnMismatchedTagsAndNamesBothSides) {
  RunOptions opts;
  opts.watchdog.window_ms = 250.0;
  fx::core::WallTimer timer;
  try {
    // Different tags match independently, so this is a genuine deadlock the
    // validator cannot flag -- exactly the watchdog's job.
    Runtime::run(2, opts, [&](Comm& comm) {
      int x = 0;
      comm.bcast_bytes(&x, sizeof(x), /*root=*/0,
                       /*tag=*/comm.rank() == 0 ? 1 : 2);
    });
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("deadlock detected"), std::string::npos) << what;
    EXPECT_NE(what.find("Bcast(tag 1"), std::string::npos) << what;
    EXPECT_NE(what.find("Bcast(tag 2"), std::string::npos) << what;
    EXPECT_NE(what.find("missing local ranks {1}"), std::string::npos)
        << what;
    EXPECT_NE(what.find("missing local ranks {0}"), std::string::npos)
        << what;
  }
  // Detection within a few windows, not a hung test run.
  EXPECT_LT(timer.seconds(), 10.0);
}

TEST(Validator, FlagsKindMismatchUnderOneTag) {
  try {
    Runtime::run(2, quiet_options(), [&](Comm& comm) {
      double x = 1.0;
      double y = 0.0;
      if (comm.rank() == 0) {
        comm.bcast_bytes(&x, sizeof(x), /*root=*/0, /*tag=*/3);
      } else {
        comm.allreduce(&x, &y, 1, ReduceOp::Sum, /*tag=*/3);
      }
    });
    FAIL() << "expected CommError";
  } catch (const CommError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("collective mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find("Bcast(tag 3"), std::string::npos) << what;
    EXPECT_NE(what.find("Allreduce(tag 3"), std::string::npos) << what;
  }
}

TEST(Validator, CanBeDisabled) {
  RunOptions opts;
  opts.validate_collectives = false;
  opts.watchdog.window_ms = 200.0;  // the mismatch now hangs; watchdog saves
  EXPECT_THROW(Runtime::run(2,
                            opts,
                            [&](Comm& comm) {
                              double x = 1.0;
                              double y = 0.0;
                              if (comm.rank() == 0) {
                                comm.bcast_bytes(&x, sizeof(x), 0, /*tag=*/3);
                              } else {
                                comm.allreduce(&x, &y, 1, ReduceOp::Sum,
                                               /*tag=*/3);
                              }
                            }),
               DeadlockError);
}

TEST(Poisoning, RankFailurePropagatesToBlockedPeers) {
  std::atomic<int> unwound{0};
  try {
    Runtime::run(4, quiet_options(), [&](Comm& comm) {
      if (comm.rank() == 0) throw std::runtime_error("boom");
      try {
        comm.barrier();
      } catch (const CommError& e) {
        EXPECT_NE(std::string(e.what()).find("rank 0 failed: boom"),
                  std::string::npos);
        unwound.fetch_add(1);
        throw;
      }
    });
    FAIL() << "expected the originating error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  EXPECT_EQ(unwound.load(), 3);
}

TEST(Poisoning, ReachesSplitCommunicators) {
  try {
    Runtime::run(4, quiet_options(), [&](Comm& world) {
      Comm half = world.split(world.rank() % 2, world.rank());
      if (world.rank() == 3) throw std::runtime_error("split casualty");
      half.barrier();  // rank 1 shares this comm with the dead rank 3
      world.barrier();
    });
    FAIL() << "expected the originating error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "split casualty");
  }
}

TEST(Mismatch, AlltoallvCountMismatchNamesBothSides) {
  // The pair check poisons the exchange, so every rank unwinds with the
  // same diagnosis -- the sender too, not only the rank whose receive
  // count disagrees.
  std::vector<std::string> whats(2);
  Runtime::run(2, quiet_options(), [&](Comm& comm) {
    // Rank 1 under-declares what it receives from rank 0.
    const std::size_t scounts[2] = {2, 2};
    const std::size_t sdispls[2] = {0, 2};
    const std::size_t rcounts[2] = {2, comm.rank() == 1 ? 1UL : 2UL};
    const std::size_t rdispls[2] = {0, 2};
    const double send[4] = {1, 2, 3, 4};
    double recv[4] = {};
    try {
      comm.alltoallv(send, scounts, sdispls, recv, rcounts, rdispls,
                     /*tag=*/0);
    } catch (const CommError& e) {
      whats[static_cast<std::size_t>(comm.rank())] = e.what();
    }
  });
  for (std::size_t r = 0; r < whats.size(); ++r) {
    const std::string& what = whats[r];
    EXPECT_NE(what.find("alltoallv count mismatch"), std::string::npos)
        << "rank " << r << ": " << what;
    EXPECT_NE(what.find("sends 2 element(s)"), std::string::npos)
        << "rank " << r << ": " << what;
    EXPECT_NE(what.find("expects 1 element(s)"), std::string::npos)
        << "rank " << r << ": " << what;
  }
}

TEST(RunOptions, FromEnvReadsFaultAndWatchdogVars) {
  ::setenv("FFTX_FAULT_SEED", "42", 1);
  ::setenv("FFTX_FAULT_CORRUPT_PROB", "0.25", 1);
  ::setenv("FFTX_FAULT_KILL_RANK", "3", 1);
  ::setenv("FFTX_WATCHDOG_MS", "1234", 1);
  ::setenv("FFTX_VALIDATE", "0", 1);
  const RunOptions opts = RunOptions::from_env();
  EXPECT_EQ(opts.faults.seed, 42U);
  EXPECT_DOUBLE_EQ(opts.faults.corrupt_prob, 0.25);
  EXPECT_EQ(opts.faults.kill_rank, 3);
  EXPECT_TRUE(opts.faults.any());
  EXPECT_DOUBLE_EQ(opts.watchdog.window_ms, 1234.0);
  EXPECT_FALSE(opts.validate_collectives);
  ::unsetenv("FFTX_FAULT_SEED");
  ::unsetenv("FFTX_FAULT_CORRUPT_PROB");
  ::unsetenv("FFTX_FAULT_KILL_RANK");
  ::unsetenv("FFTX_WATCHDOG_MS");
  ::unsetenv("FFTX_VALIDATE");
  EXPECT_FALSE(RunOptions::from_env().faults.any());
}

TEST(RunOptions, FromEnvReadsFlipVars) {
  ::setenv("FFTX_FAULT_FLIP_RANK", "2", 1);
  ::setenv("FFTX_FAULT_FLIP_OP", "17", 1);
  ::setenv("FFTX_FAULT_FLIP_COUNT", "3", 1);
  ::setenv("FFTX_FAULT_FLIP_PROB", "0.5", 1);
  const FaultPlan plan = FaultPlan::from_env();
  EXPECT_EQ(plan.flip_rank, 2);
  EXPECT_EQ(plan.flip_op, 17U);
  EXPECT_EQ(plan.flip_count, 3);
  EXPECT_DOUBLE_EQ(plan.flip_prob, 0.5);
  EXPECT_TRUE(plan.flips_active());
  EXPECT_TRUE(plan.any());
  ::unsetenv("FFTX_FAULT_FLIP_RANK");
  ::unsetenv("FFTX_FAULT_FLIP_OP");
  ::unsetenv("FFTX_FAULT_FLIP_COUNT");
  ::unsetenv("FFTX_FAULT_FLIP_PROB");
  EXPECT_FALSE(FaultPlan::from_env().flips_active());
}

TEST(FaultEnv, MalformedValuesThrowNamingTheVariable) {
  auto expect_error = [](const char* name, const char* value,
                         const char* needle) {
    ::setenv(name, value, 1);
    try {
      (void)FaultPlan::from_env();
      FAIL() << name << "='" << value << "' was accepted";
    } catch (const fx::core::Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(name), std::string::npos) << what;
      EXPECT_NE(what.find(needle), std::string::npos) << what;
    }
    ::unsetenv(name);
  };
  expect_error("FFTX_FAULT_FLIP_PROB", "1.5", "probability in [0, 1]");
  expect_error("FFTX_FAULT_FLIP_PROB", "banana", "a finite number");
  expect_error("FFTX_FAULT_FLIP_RANK", "2x", "an integer");
  expect_error("FFTX_FAULT_FLIP_OP", "-3", "an unsigned integer");
  expect_error("FFTX_FAULT_SEED", "0xg", "an unsigned integer");
  expect_error("FFTX_FAULT_KIND", "99", "CommOpKind integer");
}

TEST(FaultEnv, UnknownVariableThrowsListingAcceptedOnes) {
  // A typo'd FFTX_FAULT_* variable must not silently run fault-free.
  ::setenv("FFTX_FAULT_FLIP_RNAK", "0", 1);
  try {
    (void)FaultPlan::from_env();
    FAIL() << "unknown FFTX_FAULT_FLIP_RNAK was accepted";
  } catch (const fx::core::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("FFTX_FAULT_FLIP_RNAK"), std::string::npos) << what;
    EXPECT_NE(what.find("accepted variables"), std::string::npos) << what;
    EXPECT_NE(what.find("FFTX_FAULT_FLIP_RANK"), std::string::npos) << what;
  }
  ::unsetenv("FFTX_FAULT_FLIP_RNAK");
  EXPECT_FALSE(FaultPlan::from_env().any());
}

TEST(FaultInjector, FlipsAreDeterministicAndSingleBit) {
  FaultPlan plan;
  plan.seed = 7;
  plan.flip_rank = 1;
  plan.flip_op = 3;
  plan.flip_count = 2;

  auto run = [&] {
    FaultInjector injector(plan, /*nranks=*/2);
    std::vector<std::pair<int, std::vector<double>>> hits;
    for (int op = 0; op < 8; ++op) {
      for (int r = 0; r < 2; ++r) {
        std::vector<double> buf(16, 1.0);
        if (injector.maybe_flip(r, buf.data(), buf.size() * sizeof(double))) {
          hits.emplace_back(r, buf);
        }
      }
    }
    EXPECT_EQ(injector.flips(), 2U);
    return hits;
  };

  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);  // same seed, same opportunity grid -> same bits
  ASSERT_EQ(a.size(), 2U);
  for (const auto& [rank, buf] : a) {
    EXPECT_EQ(rank, plan.flip_rank);
    int changed = 0;
    for (double v : buf) changed += v != 1.0;
    EXPECT_EQ(changed, 1) << "a flip must corrupt exactly one word";
  }
}

TEST(FaultInjector, FlipOpportunityIndexAdvancesPastEmptyBuffers) {
  // Opportunity counting must be buffer-size independent, or FLIP_OP
  // becomes irreproducible across configurations where some stages see
  // empty slices on some ranks.
  FaultPlan plan;
  plan.flip_rank = 0;
  plan.flip_op = 2;

  FaultInjector injector(plan, 1);
  double word = 1.0;
  EXPECT_FALSE(injector.maybe_flip(0, &word, sizeof word));   // op 0
  EXPECT_FALSE(injector.maybe_flip(0, nullptr, 0));           // op 1 (empty)
  EXPECT_TRUE(injector.maybe_flip(0, &word, sizeof word));    // op 2 hits
  EXPECT_NE(word, 1.0);
}

}  // namespace
