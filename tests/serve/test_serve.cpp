// Serve frontend: admission control, fairness, degradation ladder,
// deadline cancellation, and shrink-and-continue under rank death.
#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <string>
#include <thread>
#include <vector>

#include "core/error.hpp"
#include "core/metrics.hpp"
#include "fftx/reference.hpp"
#include "pw/lattice.hpp"
#include "serve/frontend.hpp"
#include "simmpi/runtime.hpp"

namespace {

using fx::fft::cplx;
using fx::mpi::Comm;
using fx::mpi::CommOpKind;
using fx::mpi::RunOptions;
using fx::mpi::Runtime;
using fx::mpi::WireFormat;
using fx::serve::Frontend;
using fx::serve::Overloaded;
using fx::serve::Request;
using fx::serve::Response;
using fx::serve::ServeConfig;
using fx::serve::ShedReason;
using fx::serve::Status;
using fx::serve::Ticket;

constexpr int kProc = 4;

RunOptions quiet_options() {
  RunOptions opts;
  opts.watchdog.window_ms = 60000.0;
  return opts;
}

/// Deterministic execution guts for tests: blocking staged exchange (the
/// path the fault plans target), short repair backoffs.
ServeConfig test_config() {
  ServeConfig cfg;
  cfg.pipeline.fused_exchange = false;
  cfg.recovery.enabled = true;
  cfg.recovery.checkpoint_bands = 2;
  cfg.recovery.retry.base_delay_ms = 0.1;
  cfg.idle_poll_ms = 1.0;
  return cfg;
}

/// Runs `client` against a serving world and returns after both finished.
/// The client must call fe.request_stop() when done submitting.
void run_service(Frontend& fe, const RunOptions& opts, int nranks,
                 const std::function<void()>& client) {
  std::thread client_thread(client);
  Runtime::run(nranks, opts, [&](Comm& world) { fe.serve(world); });
  client_thread.join();
  fe.fail_pending("test: world terminated");
}

// --- Pure ladder functions -------------------------------------------------

TEST(ServeLadder, ChooseLevelFollowsPressureAndShrink) {
  EXPECT_EQ(fx::serve::choose_degrade_level(0.0, false, 0.75), 0);
  EXPECT_EQ(fx::serve::choose_degrade_level(0.74, false, 0.75), 0);
  EXPECT_EQ(fx::serve::choose_degrade_level(0.75, false, 0.75), 1);
  EXPECT_EQ(fx::serve::choose_degrade_level(0.90, false, 0.75), 2);
  EXPECT_EQ(fx::serve::choose_degrade_level(1.0, false, 0.75), 2);
  EXPECT_EQ(fx::serve::choose_degrade_level(0.0, true, 0.75), 1);
  EXPECT_EQ(fx::serve::choose_degrade_level(1.0, true, 0.75), 3);
  // The ladder tops out at 3 even under maximal pressure and shrink: the
  // stream-depth rung rides L2, it does not add a level of its own.
  EXPECT_EQ(fx::serve::choose_degrade_level(1.0, true, 0.0), 3);
}

TEST(ServeLadder, ApplyLevelStepsWireStreamDepthCheckpoint) {
  // A Streaming schedule at depth 4 with a checkpoint every 8 bands: every
  // rung has something to change.
  constexpr int kDepth = 4;
  constexpr int kCadence = 8;
  const auto l0 =
      fx::serve::apply_degrade_level(0, WireFormat::Fp64, kDepth, kCadence);
  EXPECT_EQ(l0.wire, WireFormat::Fp64);
  EXPECT_EQ(l0.checkpoint_bands, -1);
  EXPECT_EQ(l0.stream_bands, 0);

  const auto l1 =
      fx::serve::apply_degrade_level(1, WireFormat::Fp64, kDepth, kCadence);
  EXPECT_EQ(l1.wire, WireFormat::Fp32);
  EXPECT_EQ(l1.stream_bands, 0);  // streaming depth survives L1

  // L2 sheds the extra in-flight band buffers.
  const auto l2 =
      fx::serve::apply_degrade_level(2, WireFormat::Fp64, kDepth, kCadence);
  EXPECT_EQ(l2.wire, WireFormat::Fp32);
  EXPECT_EQ(l2.stream_bands, 1);
  EXPECT_EQ(l2.checkpoint_bands, -1);
  EXPECT_EQ(l2.note, "wire fp64->fp32, stream depth->1");

  const auto l3 =
      fx::serve::apply_degrade_level(3, WireFormat::Fp64, kDepth, kCadence);
  EXPECT_EQ(l3.checkpoint_bands, 0);
  EXPECT_EQ(l3.stream_bands, 1);

  // An already-narrow request does not widen or re-narrow.
  const auto n1 =
      fx::serve::apply_degrade_level(1, WireFormat::Fp32, kDepth, kCadence);
  EXPECT_EQ(n1.wire, WireFormat::Fp32);
  EXPECT_EQ(n1.note, "no applicable step");

  // The default service execution -- Original schedule (depth 1), cadence
  // 0 -- has no streaming ring to fold and already checkpoints at the end
  // of the run: L3 changes, and names, only the wire.
  const auto orig = fx::serve::apply_degrade_level(3, WireFormat::Fp64,
                                                   /*stream_depth=*/1,
                                                   /*checkpoint_bands=*/0);
  EXPECT_EQ(orig.wire, WireFormat::Fp32);
  EXPECT_EQ(orig.stream_bands, 0);
  EXPECT_EQ(orig.checkpoint_bands, -1);
  EXPECT_EQ(orig.note, "wire fp64->fp32");
}

// --- Admission control (no world needed) -----------------------------------

TEST(ServeAdmission, QueueBoundSheds) {
  ServeConfig cfg = test_config();
  cfg.queue_depth = 2;
  Frontend fe(cfg);
  Ticket a = fe.submit(Request{});
  Ticket b = fe.submit(Request{});
  try {
    fe.submit(Request{});
    FAIL() << "third submit should shed";
  } catch (const Overloaded& e) {
    EXPECT_EQ(e.reason(), ShedReason::QueueFull);
  }
  // Another tenant's queue is independent.
  Request other;
  other.tenant = "second";
  Ticket c = fe.submit(other);
  EXPECT_TRUE(a.valid() && b.valid() && c.valid());
  EXPECT_EQ(fe.fail_pending("test teardown"), 3);
  EXPECT_EQ(a.wait().status, Status::Failed);
}

TEST(ServeAdmission, TokenBucketRateLimits) {
  ServeConfig cfg = test_config();
  cfg.rate = 1e-3;  // effectively no refill within the test
  cfg.burst = 2.0;
  Frontend fe(cfg);
  (void)fe.submit(Request{});
  (void)fe.submit(Request{});
  try {
    fe.submit(Request{});
    FAIL() << "bucket should be empty";
  } catch (const Overloaded& e) {
    EXPECT_EQ(e.reason(), ShedReason::RateLimited);
  }
  fe.fail_pending("test teardown");
}

TEST(ServeAdmission, StopShedsNewSubmissions) {
  Frontend fe(test_config());
  fe.request_stop();
  try {
    fe.submit(Request{});
    FAIL() << "submit after stop should shed";
  } catch (const Overloaded& e) {
    EXPECT_EQ(e.reason(), ShedReason::ShuttingDown);
  }
}

// --- End-to-end completion and coalescing ----------------------------------

TEST(ServeEndToEnd, MixedTenantsCompleteWithCorrectSlices) {
  ServeConfig cfg = test_config();
  Frontend fe(cfg);
  // Submit before the world starts serving so the first scheduling pass
  // sees all three requests -- coalescing is then deterministic.
  std::vector<Ticket> tickets;
  for (int i = 0; i < 3; ++i) {
    Request r;
    r.tenant = i % 2 == 0 ? "alice" : "bob";
    r.num_bands = 2 + i;  // 2, 3, 4
    tickets.push_back(fe.submit(r));
  }
  run_service(fe, quiet_options(), kProc, [&] {
    for (auto& t : tickets) {
      while (!t.done()) std::this_thread::yield();
    }
    fe.request_stop();
  });

  const fx::fftx::Descriptor oracle(fx::pw::Cell{8.0}, 8.0, kProc, 1);
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    Response r = tickets[i].wait();
    ASSERT_EQ(r.status, Status::Completed) << "request " << i << ": "
                                           << r.detail;
    ASSERT_EQ(static_cast<int>(r.bands.size()), 2 + static_cast<int>(i));
    for (std::size_t b = 0; b < r.bands.size(); ++b) {
      const auto want = fx::fftx::reference_band_output(
          oracle, r.assigned_first_band + static_cast<int>(b), true);
      ASSERT_EQ(r.bands[b].size(), want.size());
      double err = 0.0;
      for (std::size_t k = 0; k < want.size(); ++k) {
        err = std::max(err, std::abs(r.bands[b][k] - want[k]));
      }
      EXPECT_LT(err, 1e-12) << "request " << i << " band " << b;
    }
  }

  // Coalescing engaged: 3 requests (9 carried bands <= 32) in one group.
  const auto log = fe.execution_log();
  int members = 0;
  for (const auto& rec : log) members += static_cast<int>(rec.tenants.size());
  EXPECT_EQ(members, 3);
  EXPECT_EQ(log.size(), 1u) << "compatible requests should share executions";
}

TEST(ServeEndToEnd, R2cRequestsPackPairsWithoutStraddling) {
  ServeConfig cfg = test_config();
  Frontend fe(cfg);
  Request r;
  r.real_bands = true;
  r.num_bands = 3;  // odd: pads to 2 carried pairs
  Ticket odd = fe.submit(r);
  r.num_bands = 4;
  Ticket even = fe.submit(r);
  run_service(fe, quiet_options(), kProc, [&] {
    while (!odd.done() || !even.done()) std::this_thread::yield();
    fe.request_stop();
  });

  // Both requests coalesce into one group; the oracle's generation context
  // is the group's (padded, even) band total.
  const auto log = fe.execution_log();
  ASSERT_EQ(log.size(), 1u);
  const int group_bands = 2 * log[0].carried_bands;

  const fx::fftx::Descriptor oracle(fx::pw::Cell{8.0}, 8.0, kProc, 1);
  for (Response r : {odd.wait(), even.wait()}) {
    ASSERT_EQ(r.status, Status::Completed) << r.detail;
    EXPECT_EQ(r.assigned_first_band % 2, 0)
        << "r2c slices must start on a pair boundary";
    ASSERT_EQ(r.bands.size(), 2u);  // both carry two packed pairs
    for (std::size_t p = 0; p < r.bands.size(); ++p) {
      const int pair = r.assigned_first_band / 2 + static_cast<int>(p);
      const auto want = fx::fftx::reference_packed_band_output(
          oracle, pair, group_bands, true);
      ASSERT_EQ(r.bands[p].size(), want.size());
      double err = 0.0;
      for (std::size_t k = 0; k < want.size(); ++k) {
        err = std::max(err, std::abs(r.bands[p][k] - want[k]));
      }
      EXPECT_LT(err, 1e-12) << "pair " << p;
    }
  }
}

// --- Deadlines --------------------------------------------------------------

TEST(ServeDeadline, CancelledCleanlyAndWorldStaysUsable) {
  ServeConfig cfg = test_config();
  Frontend fe(cfg);
  Ticket doomed, healthy;
  run_service(fe, quiet_options(), kProc, [&] {
    Request r;
    r.deadline_s = 1e-6;  // expired before it can possibly dispatch
    doomed = fe.submit(r);
    healthy = fe.submit(Request{});  // no deadline: must not coalesce in
    while (!doomed.done() || !healthy.done()) std::this_thread::yield();
    fe.request_stop();
  });

  Response d = doomed.wait();
  EXPECT_EQ(d.status, Status::DeadlineCancelled);
  EXPECT_TRUE(d.bands.empty()) << "partial work must be discarded";

  // The acceptance criterion: the same world served the next request.
  Response h = healthy.wait();
  EXPECT_EQ(h.status, Status::Completed) << h.detail;
  EXPECT_FALSE(h.bands.empty());
}

// --- Fairness ---------------------------------------------------------------

TEST(ServeFairness, LightTenantIsNotStarvedByAFlood) {
  ServeConfig cfg = test_config();
  cfg.queue_depth = 64;
  cfg.coalesce_bands = 4;  // flood cannot collapse into one group
  cfg.starvation_ms = 200.0;
  Frontend fe(cfg);
  // heavy floods with one problem size; light wants a different one
  // (different cutoff -> never coalesces with the flood).  All queued
  // before serving starts, so scheduling order is deterministic.
  std::vector<Ticket> tickets;
  for (int i = 0; i < 12; ++i) {
    Request r;
    r.tenant = "heavy";
    r.num_bands = 4;
    tickets.push_back(fe.submit(r));
  }
  Request lr;
  lr.tenant = "light";
  lr.ecut_ry = 6.0;
  lr.num_bands = 2;
  tickets.push_back(fe.submit(lr));
  run_service(fe, quiet_options(), kProc, [&] {
    for (auto& t : tickets) {
      while (!t.done()) std::this_thread::yield();
    }
    fe.request_stop();
  });

  const auto log = fe.execution_log();
  std::size_t light_at = log.size();
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (std::find(log[i].tenants.begin(), log[i].tenants.end(), "light") !=
        log[i].tenants.end()) {
      light_at = i;
      break;
    }
  }
  ASSERT_LT(light_at, log.size()) << "light tenant never ran";
  // Round-robin bound: the light tenant runs within a couple of rotations,
  // not after the entire flood drains.
  EXPECT_LE(light_at, 3u);
}

// --- Rank death: shrink-and-continue, circuit breaker ----------------------

TEST(ServeResilience, RankKillShrinksWorldAndServiceContinues) {
  ServeConfig cfg = test_config();
  Frontend fe(cfg);
  RunOptions opts = quiet_options();
  opts.faults.kill_rank = 1;
  opts.faults.kill_op = 9;  // mid-execution, inside the band exchanges
  opts.faults.only_kind = static_cast<int>(CommOpKind::Alltoallv);

  Ticket first, second;
  run_service(fe, opts, kProc, [&] {
    Request r;
    r.num_bands = 8;
    first = fe.submit(r);
    while (!first.done()) std::this_thread::yield();
    second = fe.submit(Request{});
    while (!second.done()) std::this_thread::yield();
    fe.request_stop();
  });

  // The driver repairs the first group in place (replay on the shrunk
  // world), so the request still completes; the serve world then shrinks
  // and later requests run at degraded capacity, declared on the response.
  Response r1 = first.wait();
  EXPECT_TRUE(r1.status == Status::Completed ||
              r1.status == Status::CompletedDegraded)
      << r1.detail;
  EXPECT_FALSE(r1.bands.empty());
  Response r2 = second.wait();
  EXPECT_TRUE(r2.status == Status::Completed ||
              r2.status == Status::CompletedDegraded)
      << r2.detail;
  EXPECT_FALSE(r2.bands.empty());
}

TEST(ServeResilience, RepeatedFailuresOpenTheBreaker) {
  ServeConfig cfg = test_config();
  cfg.recovery.enabled = false;  // kill becomes a terminal group failure
  cfg.breaker_strikes = 1;
  cfg.breaker_cooldown_s = 60.0;  // stays open for the rest of the test
  Frontend fe(cfg);
  RunOptions opts = quiet_options();
  opts.faults.kill_rank = 1;
  opts.faults.kill_op = 5;
  opts.faults.only_kind = static_cast<int>(CommOpKind::Alltoallv);

  Ticket doomed;
  bool quarantined = false;
  run_service(fe, opts, kProc, [&] {
    Request r;
    r.tenant = "flaky";
    r.num_bands = 8;
    doomed = fe.submit(r);
    while (!doomed.done()) std::this_thread::yield();
    try {
      (void)fe.submit(r);
    } catch (const Overloaded& e) {
      quarantined = e.reason() == ShedReason::Quarantined;
    }
    fe.request_stop();
  });

  EXPECT_EQ(doomed.wait().status, Status::Failed);
  EXPECT_TRUE(quarantined)
      << "one strike with breaker_strikes=1 must quarantine the tenant";
}

// --- Config -----------------------------------------------------------------

TEST(ServeConfigEnv, RejectsGarbage) {
  setenv("FFTX_SERVE_QUEUE", "lots", 1);
  EXPECT_THROW(ServeConfig::from_env(), fx::core::Error);
  setenv("FFTX_SERVE_QUEUE", "0", 1);
  EXPECT_THROW(ServeConfig::from_env(), fx::core::Error);
  unsetenv("FFTX_SERVE_QUEUE");
  setenv("FFTX_SERVE_DEGRADE_WATERMARK", "1.5", 1);
  EXPECT_THROW(ServeConfig::from_env(), fx::core::Error);
  unsetenv("FFTX_SERVE_DEGRADE_WATERMARK");
  const ServeConfig cfg = ServeConfig::from_env();
  EXPECT_EQ(cfg.queue_depth, 64);
}

}  // namespace
