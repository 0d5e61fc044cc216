// Fused zero-copy transposes acceptance: every pipeline mode on the fused
// layouts is bit-identical to the staged blocking oracle, and the guard
// and the recovery driver keep working on the fused path.  (The split
// nonblocking exchanges of the Streaming schedule have their own tests in
// test_streaming.cpp.)
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "fftx/pipeline.hpp"
#include "fftx/recovery.hpp"
#include "fftx/reference.hpp"
#include "simmpi/runtime.hpp"

namespace {

using fx::fft::cplx;
using fx::fftx::BandFftPipeline;
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

struct RunResult {
  std::vector<std::vector<cplx>> bands;  // [band][global G position]
  std::uint64_t guard_retries = 0;
};

/// One pipeline run gathering every band in global G order, with the
/// exchange variant pinned explicitly (env knobs must not leak in).
RunResult run_variant(PipelineMode mode, int nthreads, bool fused,
                      const RunOptions& opts = RunOptions{},
                      bool guard = false) {
  auto desc =
      std::make_shared<const Descriptor>(Cell{kAlat}, kEcut, kProc, kTg);
  RunResult result;
  result.bands.assign(kBands, std::vector<cplx>(desc->sphere().size()));
  std::mutex mu;
  Runtime::run(kProc, opts, [&](Comm& world) {
    PipelineConfig cfg;
    cfg.num_bands = kBands;
    cfg.mode = mode;
    cfg.nthreads = nthreads;
    cfg.guard_exchanges = guard;
    cfg.fused_exchange = fused;
    BandFftPipeline pipe(world, desc, cfg);
    pipe.initialize_bands();
    pipe.run();
    const auto index = desc->world_g_index(world.rank());
    std::lock_guard lock(mu);
    for (int n = 0; n < kBands; ++n) {
      const auto mine = pipe.band(n);
      for (std::size_t k = 0; k < index.size(); ++k) {
        result.bands[static_cast<std::size_t>(n)][index[k]] = mine[k];
      }
    }
    result.guard_retries += pipe.guard_retries();
  });
  return result;
}

double worst_error_vs_reference(const RunResult& r) {
  const Descriptor oracle(Cell{kAlat}, kEcut, kProc, kTg);
  double err = 0.0;
  for (int n = 0; n < kBands; ++n) {
    const auto want = fx::fftx::reference_band_output(oracle, n, true);
    const auto& got = r.bands[static_cast<std::size_t>(n)];
    for (std::size_t k = 0; k < want.size(); ++k) {
      err = std::max(err, std::abs(got[k] - want[k]));
    }
  }
  return err;
}

TEST(FusedExchange, EveryModeBitIdenticalToStagedOracle) {
  const struct {
    PipelineMode mode;
    int nthreads;
  } kModes[] = {
      {PipelineMode::Original, 1},
      {PipelineMode::TaskPerFft, 3},
      {PipelineMode::TaskPerStep, 2},
      {PipelineMode::Combined, 3},
  };
  for (const auto& m : kModes) {
    const RunResult staged = run_variant(m.mode, m.nthreads, /*fused=*/false);
    EXPECT_LT(worst_error_vs_reference(staged), 1e-12)
        << fx::fftx::to_string(m.mode);
    const RunResult fused = run_variant(m.mode, m.nthreads, /*fused=*/true);
    EXPECT_EQ(fused.bands, staged.bands) << fx::fftx::to_string(m.mode);
  }
}

TEST(FusedExchange, StagingBytesCountOnlyTheStagedPath) {
  // The zero-copy claim, measurable: the fused path touches no staging
  // buffer, the staged path marshals through them.
  auto& staging =
      fx::core::MetricsRegistry::global().counter("fftx.exchange.staging_bytes");
  const auto before_fused = staging.value();
  run_variant(PipelineMode::Original, 1, /*fused=*/true);
  EXPECT_EQ(staging.value(), before_fused);
  const auto before_staged = staging.value();
  run_variant(PipelineMode::Original, 1, /*fused=*/false);
  EXPECT_GT(staging.value(), before_staged);
}

TEST(FusedExchange, GuardRecoversBitFlipOnFusedExchange) {
  // A bit flip injected into a guarded view exchange's payload must be
  // caught and retried away, reproducing the fault-free result exactly.
  const RunResult clean =
      run_variant(PipelineMode::Original, 1, /*fused=*/true);
  RunOptions opts = quiet_options();
  opts.faults.corrupt_rank = 0;
  opts.faults.corrupt_op = 0;
  opts.faults.only_kind = static_cast<int>(CommOpKind::Ialltoallv);
  const RunResult healed = run_variant(PipelineMode::Original, 1,
                                       /*fused=*/true, opts, /*guard=*/true);
  EXPECT_GE(healed.guard_retries, 1U);
  EXPECT_EQ(healed.bands, clean.bands);
}

TEST(FusedExchange, RecoveryDriverSurvivesKillOnFusedPath) {
  auto desc =
      std::make_shared<const Descriptor>(Cell{kAlat}, kEcut, kProc, kTg);
  RecoveryConfig rcfg;
  rcfg.enabled = true;
  rcfg.checkpoint_bands = 2;
  rcfg.retry.max_attempts = 6;
  rcfg.retry.base_delay_ms = 0.1;

  auto run_recovered = [&](const RunOptions& opts) {
    std::vector<std::vector<cplx>> bands;
    int completed = 0;
    int died = 0;
    std::mutex mu;
    Runtime::run(kProc, opts, [&](Comm& world) {
      PipelineConfig cfg;
      cfg.num_bands = kBands;
      cfg.mode = PipelineMode::Original;
      cfg.fused_exchange = true;
      RecoveryDriver driver(world, desc, cfg, rcfg);
      std::vector<std::vector<cplx>> mine;
      const auto rep = driver.run(mine);
      std::lock_guard lock(mu);
      if (rep.died) {
        ++died;
        return;
      }
      ASSERT_TRUE(rep.completed);
      ++completed;
      if (bands.empty()) {
        bands = std::move(mine);
      } else {
        EXPECT_EQ(bands, mine) << "survivor replicas disagree";
      }
    });
    return std::tuple(std::move(bands), completed, died);
  };

  const auto [clean, clean_done, clean_died] = run_recovered(quiet_options());
  EXPECT_EQ(clean_done, kProc);
  EXPECT_EQ(clean_died, 0);

  // Kill a rank at a late view exchange: peers unwind out of their
  // exchange waits, the world repairs, and the replay finishes bit-exact
  // on the shrunken fused pipeline.
  RunOptions faulty = quiet_options();
  faulty.faults.kill_rank = 1;
  faulty.faults.kill_op = 15;
  faulty.faults.only_kind = static_cast<int>(CommOpKind::Ialltoallv);
  const auto [healed, healed_done, healed_died] = run_recovered(faulty);
  EXPECT_EQ(healed_died, 1);
  EXPECT_EQ(healed_done, kProc - 1);
  EXPECT_EQ(healed, clean);
}

}  // namespace
