// Streaming band-dataflow executor acceptance: every stream depth and
// exchange variant is bit-identical to the Original oracle (including the
// r2c, narrow-wire, guarded and ABFT compositions), the split nonblocking
// path actually posts nonblocking exchanges and hides wait behind other
// bands' compute (fftx.stream.* metrics advance), and the RecoveryDriver
// survives a rank kill mid-run under every schedule with a bit-exact
// replay.
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
using fx::fftx::AbftMode;
using fx::fftx::BandFftPipeline;
using fx::fftx::Descriptor;
using fx::fftx::PipelineConfig;
using fx::fftx::PipelineMode;
using fx::fftx::RecoveryConfig;
using fx::fftx::RecoveryDriver;
using fx::mpi::Comm;
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

/// Knobs a variant pins explicitly so environment overrides cannot leak in.
struct Variant {
  int stream_bands = 2;
  bool fused = false;
  bool guard = false;
  bool real_bands = false;
  WireFormat wire = WireFormat::Fp64;
  AbftMode abft = AbftMode::Off;
};

PipelineConfig make_config(PipelineMode mode, int nthreads,
                           const Variant& v) {
  PipelineConfig cfg;
  cfg.num_bands = kBands;
  cfg.mode = mode;
  cfg.nthreads = nthreads;
  cfg.stream_bands = v.stream_bands;
  cfg.fused_exchange = v.fused;
  cfg.guard_exchanges = v.guard;
  cfg.real_bands = v.real_bands;
  cfg.wire_format = v.wire;
  cfg.abft = v.abft;
  return cfg;
}

/// One pipeline run gathering every carried band in global G order.
std::vector<std::vector<cplx>> run_variant(PipelineMode mode, int nthreads,
                                           const Variant& v) {
  auto desc =
      std::make_shared<const Descriptor>(Cell{kAlat}, kEcut, kProc, kTg);
  const int npsi = v.real_bands ? kBands / 2 : kBands;
  std::vector<std::vector<cplx>> bands(
      static_cast<std::size_t>(npsi),
      std::vector<cplx>(desc->sphere().size()));
  std::mutex mu;
  Runtime::run(kProc, quiet_options(), [&](Comm& world) {
    BandFftPipeline pipe(world, desc, make_config(mode, nthreads, v));
    pipe.initialize_bands();
    pipe.run();
    const auto index = desc->world_g_index(world.rank());
    std::lock_guard lock(mu);
    for (int n = 0; n < npsi; ++n) {
      const auto mine = pipe.band(n);
      for (std::size_t k = 0; k < index.size(); ++k) {
        bands[static_cast<std::size_t>(n)][index[k]] = mine[k];
      }
    }
  });
  return bands;
}

TEST(Streaming, DepthSweepBitIdenticalToOracleAcrossExchangeVariants) {
  const Variant kVariants[] = {
      {.fused = false},                // staged blocking stages
      {.fused = true},                 // split post/wait tasks
      {.fused = true, .guard = true},  // fused blocking stage tasks
  };
  const auto oracle =
      run_variant(PipelineMode::Original, 1, Variant{.fused = false});
  for (const int depth : {1, 2, 3, 8}) {
    for (const auto& base : kVariants) {
      Variant v = base;
      v.stream_bands = depth;
      const auto got = run_variant(PipelineMode::Streaming, 3, v);
      EXPECT_EQ(got, oracle)
          << "depth=" << depth << " fused=" << v.fused
          << " guard=" << v.guard;
    }
  }
}

TEST(Streaming, R2cWireAbftCompositionsMatchSameConfigOracle) {
  const Variant kVariants[] = {
      {.fused = true, .real_bands = true},
      {.fused = true, .wire = WireFormat::Fp32},
      {.fused = true, .wire = WireFormat::Bf16},
      {.fused = true, .abft = AbftMode::Detect},
      {.fused = true, .abft = AbftMode::Repair},
      {.fused = true, .real_bands = true, .wire = WireFormat::Fp32,
       .abft = AbftMode::Detect},
  };
  for (const auto& base : kVariants) {
    const auto oracle = run_variant(PipelineMode::Original, 1, base);
    for (const int depth : {1, 4}) {
      Variant v = base;
      v.stream_bands = depth;
      const auto got = run_variant(PipelineMode::Streaming, 3, v);
      EXPECT_EQ(got, oracle)
          << "depth=" << depth << " r2c=" << v.real_bands
          << " wire=" << static_cast<int>(v.wire)
          << " abft=" << static_cast<int>(v.abft);
    }
  }
}

TEST(Streaming, SplitPathPostsNonblockingAndHidesWait) {
  auto& reg = fx::core::MetricsRegistry::global();
  const auto posted0 = reg.counter("simmpi.ialltoallv.posted").value();
  const auto split0 = reg.counter("fftx.stream.posts").value();
  const auto hidden0 = reg.histogram("fftx.stream.hidden_ms").count();
  const auto bands0 = reg.counter("fftx.stream.bands").value();

  const auto oracle =
      run_variant(PipelineMode::Original, 1, Variant{.fused = false});
  const auto got = run_variant(PipelineMode::Streaming, 3,
                               Variant{.stream_bands = 4, .fused = true});
  EXPECT_EQ(got, oracle);

  // 4 iterations x 4 exchanges (pack, scatter fw, scatter bw, unpack),
  // all through the nonblocking engine, on every rank.
  EXPECT_GE(reg.counter("fftx.stream.posts").value() - split0,
            static_cast<std::uint64_t>(4 * 4 * kProc));
  EXPECT_GT(reg.counter("simmpi.ialltoallv.posted").value(), posted0);
  // Every split exchange records its post-to-wait-entry hidden window.
  EXPECT_GE(reg.histogram("fftx.stream.hidden_ms").count() - hidden0,
            static_cast<std::uint64_t>(4 * 4 * kProc));
  EXPECT_EQ(reg.counter("fftx.stream.bands").value() - bands0,
            static_cast<std::uint64_t>(kBands * kProc));
}

TEST(Streaming, DepthClampsToIterationCountAndWorkerFloor) {
  // Absurd depth: must clamp (4 iterations here) and still be bit-exact.
  const auto oracle =
      run_variant(PipelineMode::Original, 1, Variant{.fused = false});
  const auto deep = run_variant(
      PipelineMode::Streaming, 2,
      Variant{.stream_bands = 4096, .fused = true});
  EXPECT_EQ(deep, oracle);
  // Blocking fallback on a single worker: depth folds to 1 (the staged
  // order) rather than deadlocking across ranks.
  const auto serial = run_variant(
      PipelineMode::Streaming, 1,
      Variant{.stream_bands = 8, .fused = false});
  EXPECT_EQ(serial, oracle);
}

/// A rank kill inside the band loop, under one schedule and exchange path.
struct KillCase {
  PipelineMode mode;
  int kill_op;
  bool fused = false;  ///< staged exchanges unless set
};

std::string kill_case_name(const ::testing::TestParamInfo<KillCase>& info) {
  const KillCase& c = info.param;
  return std::string(fx::fftx::to_string(c.mode)) +
         (c.fused ? "_fused" : "_staged") + "_op" + std::to_string(c.kill_op);
}

class RecoveryKill : public ::testing::TestWithParam<KillCase> {};

// Every schedule must hand the RecoveryDriver the killed rank's original
// FaultError (the rank dies) and its peers' repairable errors (they shrink
// and replay), whichever task the kill lands in.
TEST_P(RecoveryKill, RecoveryDriverSurvivesKillMidStream) {
  const KillCase c = GetParam();
  auto desc =
      std::make_shared<const Descriptor>(Cell{kAlat}, kEcut, kProc, kTg);
  RecoveryConfig rcfg;
  rcfg.enabled = true;
  rcfg.checkpoint_bands = 2;
  rcfg.retry.max_attempts = 6;
  rcfg.retry.base_delay_ms = 0.1;

  auto run_recovered = [&](const RunOptions& opts) {
    struct Out {
      std::vector<std::vector<cplx>> bands;
      int completed = 0;
      int died = 0;
    } out;
    std::mutex mu;
    Runtime::run(kProc, opts, [&](Comm& world) {
      PipelineConfig cfg = make_config(
          c.mode, 2, Variant{.stream_bands = 2, .fused = c.fused});
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
      if (out.bands.empty()) {
        out.bands = std::move(mine);
      } else {
        EXPECT_EQ(out.bands, mine) << "survivor replicas disagree";
      }
    });
    return out;
  };

  const auto clean = run_recovered(quiet_options());
  EXPECT_EQ(clean.completed, kProc);
  EXPECT_EQ(clean.died, 0);

  RunOptions faulty = quiet_options();
  faulty.faults.kill_rank = 1;
  faulty.faults.kill_op = c.kill_op;
  const auto healed = run_recovered(faulty);
  EXPECT_EQ(healed.died, 1);
  EXPECT_EQ(healed.completed, kProc - 1);
  EXPECT_EQ(healed.bands, clean.bands) << "kill-and-replay diverged";

  const Descriptor oracle(Cell{kAlat}, kEcut, kProc, kTg);
  ASSERT_EQ(healed.bands.size(), static_cast<std::size_t>(kBands));
  for (int n = 0; n < kBands; ++n) {
    const auto want = fx::fftx::reference_band_output(oracle, n, true);
    const auto& got = healed.bands[static_cast<std::size_t>(n)];
    double err = 0.0;
    for (std::size_t k = 0; k < want.size(); ++k) {
      err = std::max(err, std::abs(got[k] - want[k]));
    }
    EXPECT_LT(err, 1e-12) << "band " << n;
  }
}

std::vector<KillCase> kill_cases() {
  std::vector<KillCase> cases;
  for (const PipelineMode mode :
       {PipelineMode::Original, PipelineMode::TaskPerStep,
        PipelineMode::TaskPerFft, PipelineMode::Combined,
        PipelineMode::Streaming}) {
    for (const int op : {3, 18, 25}) cases.push_back({mode, op});
  }
  // Mid-run, inside the streamed band loop on the split exchange path.
  cases.push_back({PipelineMode::Streaming, 18, /*fused=*/true});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllModes, RecoveryKill,
                         ::testing::ValuesIn(kill_cases()), kill_case_name);

}  // namespace
