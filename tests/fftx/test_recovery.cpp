// Shrink-and-continue recovery acceptance: the driver finishes multi-band
// workloads despite injected rank kills, stalls and persistent payload
// corruption, and the recovered output is bit-for-bit the fault-free one.
#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/metrics.hpp"
#include "fftx/pipeline.hpp"
#include "fftx/recovery.hpp"
#include "fftx/reference.hpp"
#include "simmpi/runtime.hpp"

namespace {

using fx::core::CommError;
using fx::fft::cplx;
using fx::fftx::Descriptor;
using fx::fftx::PipelineConfig;
using fx::fftx::PipelineMode;
using fx::fftx::RecoveryConfig;
using fx::fftx::RecoveryDriver;
using fx::mpi::Comm;
using fx::mpi::CommOpKind;
using fx::mpi::RunOptions;
using fx::mpi::Runtime;
using fx::pw::Cell;

constexpr double kAlat = 8.0;
constexpr double kEcut = 8.0;
constexpr int kBands = 8;
constexpr int kProc = 4;
constexpr int kTg = 2;

RunOptions quiet_options() {
  RunOptions opts;
  opts.watchdog.window_ms = 60000.0;
  return opts;
}

RecoveryConfig recovery_config(int checkpoint_bands = 2) {
  RecoveryConfig rcfg;
  rcfg.enabled = true;
  rcfg.checkpoint_bands = checkpoint_bands;
  rcfg.retry.max_attempts = 6;
  rcfg.retry.base_delay_ms = 0.1;  // keep test-time backoffs short
  return rcfg;
}

struct RecoveryRun {
  std::vector<std::vector<cplx>> bands;  // replicated output, global order
  int completed = 0;
  int died = 0;
  int shrinks = 0;   // max over ranks
  int replayed = 0;  // summed over ranks
  int final_nproc = -1;
  int final_ntg = -1;
};

/// One recovered run under `opts`; every completing rank's replica must
/// agree (they are gathered to all ranks, so this is the real guarantee).
RecoveryRun run_recovered(const RunOptions& opts, const RecoveryConfig& rcfg,
                          bool guard = false) {
  auto desc =
      std::make_shared<const Descriptor>(Cell{kAlat}, kEcut, kProc, kTg);
  RecoveryRun out;
  std::mutex mu;
  Runtime::run(kProc, opts, [&](Comm& world) {
    PipelineConfig cfg;
    cfg.num_bands = kBands;
    cfg.mode = PipelineMode::Original;
    cfg.guard_exchanges = guard;
    // The fault plans here select the staged blocking Alltoallv; pin that
    // path so FFTX_FUSED_EXCHANGE in the environment cannot redirect the
    // injection.  (The fused recovery path has its own test in
    // test_fused_exchange.cpp.)
    cfg.fused_exchange = false;
    RecoveryDriver driver(world, desc, cfg, rcfg);
    std::vector<std::vector<cplx>> mine;
    const auto rep = driver.run(mine);
    std::lock_guard lock(mu);
    if (rep.died) {
      ++out.died;
      return;
    }
    ASSERT_TRUE(rep.completed);
    ++out.completed;
    out.shrinks = std::max(out.shrinks, rep.shrinks);
    out.replayed += rep.replayed_bands;
    out.final_nproc = rep.final_nproc;
    out.final_ntg = rep.final_ntg;
    if (out.bands.empty()) {
      out.bands = std::move(mine);
    } else {
      EXPECT_EQ(out.bands, mine) << "survivor replicas disagree";
    }
  });
  return out;
}

TEST(Recovery, DegradedNtgPicksLargestFeasibleDivisor) {
  EXPECT_EQ(fx::fftx::degraded_ntg(4, 2, 8), 2);
  EXPECT_EQ(fx::fftx::degraded_ntg(3, 2, 2), 1);   // 3 has no divisor 2
  EXPECT_EQ(fx::fftx::degraded_ntg(6, 4, 8), 2);   // 3 | 6 but 3 does not | 8
  EXPECT_EQ(fx::fftx::degraded_ntg(8, 4, 8), 4);
  EXPECT_EQ(fx::fftx::degraded_ntg(1, 4, 8), 1);
}

TEST(Recovery, FaultFreeRunMatchesReference) {
  const RecoveryRun clean = run_recovered(quiet_options(), recovery_config());
  EXPECT_EQ(clean.completed, kProc);
  EXPECT_EQ(clean.died, 0);
  EXPECT_EQ(clean.shrinks, 0);
  EXPECT_EQ(clean.final_nproc, kProc);
  const Descriptor oracle(Cell{kAlat}, kEcut, kProc, kTg);
  for (int n = 0; n < kBands; ++n) {
    const auto want = fx::fftx::reference_band_output(oracle, n, true);
    const auto& got = clean.bands[static_cast<std::size_t>(n)];
    ASSERT_EQ(got.size(), want.size());
    double err = 0.0;
    for (std::size_t k = 0; k < want.size(); ++k) {
      err = std::max(err, std::abs(got[k] - want[k]));
    }
    EXPECT_LT(err, 1e-12) << "band " << n;
  }
}

TEST(Recovery, KillMidRunCompletesBitExact) {
  const RecoveryRun clean = run_recovered(quiet_options(), recovery_config());

  RunOptions faulty = quiet_options();
  faulty.faults.kill_rank = 1;
  faulty.faults.kill_op = 25;  // mid-run: after some checkpoints committed
  const RecoveryRun healed = run_recovered(faulty, recovery_config());

  EXPECT_EQ(healed.died, 1);
  EXPECT_EQ(healed.completed, kProc - 1);
  EXPECT_GE(healed.shrinks, 1);
  EXPECT_EQ(healed.final_nproc, kProc - 1);
  EXPECT_EQ(healed.final_ntg, 1);  // 3 survivors: no larger feasible divisor
  EXPECT_EQ(healed.bands, clean.bands);
}

TEST(Recovery, PersistentCorruptionThenKillCompletesBitExact) {
  auto& reg = fx::core::MetricsRegistry::global();
  const auto shrinks_before = reg.counter("fftx.recovery.shrinks").value();

  const RecoveryRun clean =
      run_recovered(quiet_options(), recovery_config(), /*guard=*/true);

  // Corruption outlasting one guard's whole retry budget (4 attempts) plus
  // a later rank kill: the guard exhausts collectively, the world repairs
  // in place, the replay absorbs the tail of the corruption window, and the
  // kill then shrinks the world for real.
  RunOptions faulty = quiet_options();
  faulty.faults.corrupt_rank = 0;
  faulty.faults.corrupt_op = 2;
  faulty.faults.corrupt_count = 6;
  faulty.faults.only_kind = static_cast<int>(CommOpKind::Alltoallv);
  // only_kind restricts the op counter too: indices advance on Alltoallv
  // ops alone, so the kill lands mid-run among roughly 24 such ops.
  faulty.faults.kill_rank = 2;
  faulty.faults.kill_op = 15;
  const RecoveryRun healed =
      run_recovered(faulty, recovery_config(), /*guard=*/true);

  EXPECT_EQ(healed.died, 1);
  EXPECT_EQ(healed.completed, kProc - 1);
  EXPECT_GE(healed.shrinks, 2);  // corruption repair + kill repair
  EXPECT_EQ(healed.final_nproc, kProc - 1);
  EXPECT_EQ(healed.bands, clean.bands);
  EXPECT_GE(reg.counter("fftx.recovery.shrinks").value(), shrinks_before + 2);
}

TEST(Recovery, StallIsAbsorbedWithoutRepair) {
  const RecoveryRun clean = run_recovered(quiet_options(), recovery_config());

  RunOptions faulty = quiet_options();
  faulty.faults.stall_rank = 0;
  faulty.faults.stall_op = 5;
  faulty.faults.stall_ms = 50.0;
  const RecoveryRun stalled = run_recovered(faulty, recovery_config());

  EXPECT_EQ(stalled.completed, kProc);
  EXPECT_EQ(stalled.died, 0);
  EXPECT_EQ(stalled.shrinks, 0);
  EXPECT_EQ(stalled.bands, clean.bands);
}

TEST(Recovery, CascadingKillsShrinkTwiceIfNeeded) {
  const RecoveryRun clean = run_recovered(quiet_options(), recovery_config());

  RunOptions faulty = quiet_options();
  faulty.faults.kill_rank = 1;
  faulty.faults.kill_count = 2;  // ranks 1 and 2
  faulty.faults.kill_op = 12;
  const RecoveryRun healed = run_recovered(faulty, recovery_config());

  EXPECT_EQ(healed.died, 2);
  EXPECT_EQ(healed.completed, kProc - 2);
  EXPECT_GE(healed.shrinks, 1);
  EXPECT_EQ(healed.final_nproc, kProc - 2);
  EXPECT_EQ(healed.bands, clean.bands);
}

TEST(Recovery, ReplayedBandsAreReported) {
  auto& reg = fx::core::MetricsRegistry::global();
  const auto replayed_before =
      reg.counter("fftx.recovery.replayed_bands").value();

  RunOptions faulty = quiet_options();
  faulty.faults.kill_rank = 1;
  faulty.faults.kill_op = 25;
  const RecoveryRun healed = run_recovered(faulty, recovery_config());

  // Each survivor replays at least the in-flight checkpoint batch.
  EXPECT_GE(healed.replayed, 2 * (kProc - 1));
  EXPECT_GE(reg.counter("fftx.recovery.replayed_bands").value(),
            replayed_before + 2U * (kProc - 1));
}

TEST(Recovery, DisabledRecoveryRethrowsTheFailure) {
  RunOptions faulty = quiet_options();
  faulty.faults.kill_rank = 1;
  faulty.faults.kill_op = 25;
  RecoveryConfig rcfg = recovery_config();
  rcfg.enabled = false;
  EXPECT_THROW(run_recovered(faulty, rcfg), CommError);
}

TEST(Recovery, ConfigFromEnvReadsTheKnobs) {
  ::setenv("FFTX_RECOVER", "1", 1);
  ::setenv("FFTX_CHECKPOINT_BANDS", "4", 1);
  ::setenv("FFTX_RETRY_MAX_ATTEMPTS", "7", 1);
  const RecoveryConfig cfg = RecoveryConfig::from_env();
  EXPECT_TRUE(cfg.enabled);
  EXPECT_EQ(cfg.checkpoint_bands, 4);
  EXPECT_EQ(cfg.retry.max_attempts, 7);
  ::unsetenv("FFTX_RECOVER");
  ::unsetenv("FFTX_CHECKPOINT_BANDS");
  ::unsetenv("FFTX_RETRY_MAX_ATTEMPTS");
  EXPECT_FALSE(RecoveryConfig::from_env().enabled);
}

}  // namespace
