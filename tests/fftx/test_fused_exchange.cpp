// Fused zero-copy transposes acceptance: every pipeline mode on the fused
// layouts is bit-identical to the staged blocking oracle, one-rank groups
// (ntg == 1 packs, nproc == ntg scatters) reproduce the multi-rank
// decompositions bit for bit, and the guard and the recovery driver keep
// working on the fused path.  (The split nonblocking exchanges of the
// Streaming schedule have their own tests in test_streaming.cpp.)
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
using fx::mpi::WireFormat;
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
  std::vector<std::vector<cplx>> bands;  // [carried band][global G position]
  std::uint64_t guard_retries = 0;
};

/// One pipeline run on `desc` gathering every carried band in global G
/// order.  `cfg` pins every exchange setting (env knobs must not leak in).
RunResult run_on(const std::shared_ptr<const Descriptor>& desc,
                 const PipelineConfig& cfg,
                 const RunOptions& opts = RunOptions{}) {
  RunResult result;
  std::mutex mu;
  Runtime::run(desc->nproc(), opts, [&](Comm& world) {
    BandFftPipeline pipe(world, desc, cfg);
    pipe.initialize_bands();
    pipe.run();
    const auto index = desc->world_g_index(world.rank());
    std::lock_guard lock(mu);
    if (result.bands.empty()) {
      result.bands.assign(static_cast<std::size_t>(pipe.num_psi()),
                          std::vector<cplx>(desc->sphere().size()));
    }
    for (int n = 0; n < pipe.num_psi(); ++n) {
      const auto mine = pipe.band(n);
      for (std::size_t k = 0; k < index.size(); ++k) {
        result.bands[static_cast<std::size_t>(n)][index[k]] = mine[k];
      }
    }
    result.guard_retries += pipe.guard_retries();
  });
  return result;
}

/// run_on at the suite's kProc x kTg decomposition, fp64 wire, c2c bands.
RunResult run_variant(PipelineMode mode, int nthreads, bool fused,
                      const RunOptions& opts = RunOptions{},
                      bool guard = false) {
  PipelineConfig cfg;
  cfg.num_bands = kBands;
  cfg.mode = mode;
  cfg.nthreads = nthreads;
  cfg.guard_exchanges = guard;
  cfg.fused_exchange = fused;
  cfg.real_bands = false;
  cfg.wire_format = WireFormat::Fp64;
  return run_on(
      std::make_shared<const Descriptor>(Cell{kAlat}, kEcut, kProc, kTg), cfg,
      opts);
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
  // Every schedule, staged and fused, on every decomposition reproduces the
  // staged Original run at (nproc, ntg) = (2, 1) bit for bit: c2c and r2c,
  // at the fp64 wire and at the fp32 wire (which quantizes at the same
  // points everywhere).  The one-rank groups take shortcuts: at ntg == 1
  // the pack and unpack are local copies, and at nproc == ntg every
  // scatter is a self-exchange on the fused views, on the staged path too.
  const struct {
    PipelineMode mode;
    int nthreads;
  } kModes[] = {
      {PipelineMode::Original, 1},   {PipelineMode::TaskPerStep, 2},
      {PipelineMode::TaskPerFft, 3}, {PipelineMode::Combined, 3},
      {PipelineMode::Streaming, 2},
  };
  auto decomposition = [](int nproc, int ntg) {
    return std::make_shared<const Descriptor>(Cell{kAlat}, kEcut, nproc, ntg);
  };
  const auto oracle = decomposition(2, 1);
  const std::shared_ptr<const Descriptor> kLayouts[] = {
      decomposition(kProc, kTg), decomposition(1, 1), decomposition(2, 2)};
  for (const WireFormat wire : {WireFormat::Fp64, WireFormat::Fp32}) {
    for (const bool real_bands : {false, true}) {
      PipelineConfig cfg;
      cfg.num_bands = kBands;
      cfg.guard_exchanges = false;
      cfg.real_bands = real_bands;
      cfg.wire_format = wire;
      cfg.fused_exchange = false;
      const RunResult want = run_on(oracle, cfg);
      if (wire == WireFormat::Fp64 && !real_bands) {
        EXPECT_LT(worst_error_vs_reference(want), 1e-12);
      }
      for (const auto& desc : kLayouts) {
        for (const auto& m : kModes) {
          for (const bool fused : {false, true}) {
            cfg.mode = m.mode;
            cfg.nthreads = m.nthreads;
            cfg.fused_exchange = fused;
            EXPECT_EQ(run_on(desc, cfg).bands, want.bands)
                << "(" << desc->nproc() << ", " << desc->ntg() << ") "
                << fx::fftx::to_string(m.mode)
                << (fused ? " fused" : " staged")
                << (real_bands ? " r2c" : " c2c") << " wire "
                << fx::mpi::to_string(wire);
          }
        }
      }
    }
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

  // A one-rank scatter group (nproc == ntg) stages only its pack and
  // unpack: every rank marshals its ntg bands' coefficients once each way
  // per iteration, and its scatters are self-exchanges on the views.
  auto desc = std::make_shared<const Descriptor>(Cell{kAlat}, kEcut, 2, 2);
  PipelineConfig cfg;
  cfg.num_bands = kBands;
  cfg.guard_exchanges = false;
  cfg.fused_exchange = false;
  cfg.real_bands = false;
  cfg.wire_format = WireFormat::Fp64;
  std::size_t coefficients = 0;
  for (int w = 0; w < desc->nproc(); ++w) coefficients += desc->ng_world(w);
  const auto before_one_rank = staging.value();
  run_on(desc, cfg);
  EXPECT_EQ(staging.value() - before_one_rank,
            2 * kBands * coefficients * sizeof(cplx));
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
