// Algorithm-based fault tolerance acceptance: clean runs never flag
// (zero false positives across exchange variants and wire formats),
// injected compute bit flips are detected at every flip opportunity,
// detect mode throws in lockstep, and repair mode restores the output
// bit-exactly through a surgical band replay -- no communicator shrink.
#include "fftx/abft.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/metrics.hpp"
#include "fft/checksum.hpp"
#include "fft/gamma.hpp"
#include "fftx/pipeline.hpp"
#include "fftx/recovery.hpp"
#include "fftx/reference.hpp"
#include "simmpi/runtime.hpp"
#include "simmpi/wire.hpp"

namespace {

using fx::core::SdcError;
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

// ---------------------------------------------------------------------------
// Mode parsing and env validation
// ---------------------------------------------------------------------------

TEST(AbftMode, ParsesTheThreeModes) {
  EXPECT_EQ(fx::fftx::parse_abft_mode("off"), AbftMode::Off);
  EXPECT_EQ(fx::fftx::parse_abft_mode("detect"), AbftMode::Detect);
  EXPECT_EQ(fx::fftx::parse_abft_mode("repair"), AbftMode::Repair);
}

TEST(AbftMode, RejectsUnknownValuesNamingTheVariable) {
  try {
    (void)fx::fftx::parse_abft_mode("paranoid");
    FAIL() << "'paranoid' was accepted";
  } catch (const fx::core::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("FFTX_ABFT"), std::string::npos) << what;
    EXPECT_NE(what.find("'paranoid'"), std::string::npos) << what;
    EXPECT_NE(what.find("off"), std::string::npos) << what;
    EXPECT_NE(what.find("detect"), std::string::npos) << what;
    EXPECT_NE(what.find("repair"), std::string::npos) << what;
  }
}

TEST(AbftMode, DefaultReadsTheEnvironmentLive) {
  ::unsetenv("FFTX_ABFT");
  EXPECT_EQ(fx::fftx::default_abft_mode(), AbftMode::Off);
  ::setenv("FFTX_ABFT", "detect", 1);
  EXPECT_EQ(fx::fftx::default_abft_mode(), AbftMode::Detect);
  ::setenv("FFTX_ABFT", "bogus", 1);
  EXPECT_THROW((void)fx::fftx::default_abft_mode(), fx::core::Error);
  ::unsetenv("FFTX_ABFT");
  EXPECT_EQ(fx::fftx::default_abft_mode(), AbftMode::Off);
}

// ---------------------------------------------------------------------------
// Checksum / digest building blocks
// ---------------------------------------------------------------------------

TEST(Checksum, WeightsAreDeterministicAndAwayFromZero) {
  for (std::size_t i = 0; i < 64; ++i) {
    const double w = fx::fft::abft_weight(i);
    EXPECT_EQ(w, fx::fft::abft_weight(i));
    EXPECT_GE(w, 1.0);  // a zero-ish weight would blind the checksum band
    EXPECT_LT(w, 2.0);
  }
  EXPECT_NE(fx::fft::abft_weight(0), fx::fft::abft_weight(1));
}

TEST(Checksum, CompareIsExactOnIdenticalData) {
  std::vector<cplx> a(37);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = cplx{0.25 * static_cast<double>(i), -1.5};
  }
  const auto r = fx::fft::checksum_compare(a.data(), a.data(), a.size());
  EXPECT_EQ(r.residual, 0.0);
  EXPECT_GT(fx::fft::checksum_tolerance(a.size(), 4, r.scale), 0.0);
}

TEST(Checksum, DigestSeesEveryBit) {
  std::vector<cplx> a(300, cplx{1.0, -2.0});  // spans two digest blocks
  const std::uint64_t h = fx::fft::digest(a.data(), a.size());
  EXPECT_EQ(h, fx::fft::digest(a.data(), a.size()));
  auto* bytes = reinterpret_cast<unsigned char*>(a.data());
  for (const std::size_t byte : {std::size_t{0}, 37 * sizeof(cplx),
                                 299 * sizeof(cplx) + 7}) {
    bytes[byte] ^= 0x10;
    EXPECT_NE(fx::fft::digest(a.data(), a.size()), h) << "byte " << byte;
    bytes[byte] ^= 0x10;
  }
  EXPECT_EQ(fx::fft::digest(a.data(), a.size()), h);
}

// ---------------------------------------------------------------------------
// Pipeline-level detection
// ---------------------------------------------------------------------------

struct AbftVariant {
  const char* name;
  bool fused = false;
  bool real = false;
  WireFormat wire = WireFormat::Fp64;
  PipelineMode mode = PipelineMode::Original;
};

/// One full pipeline run; returns every band's packed slice per rank
/// gathered into global order (disjoint writes, no extra sync needed).
std::vector<std::vector<cplx>> run_pipeline(const AbftVariant& v,
                                            AbftMode abft,
                                            const RunOptions& opts) {
  auto desc =
      std::make_shared<const Descriptor>(Cell{kAlat}, kEcut, kProc, kTg);
  const int carried =
      v.real ? static_cast<int>(fx::fft::gamma_pair_count(kBands)) : kBands;
  std::vector<std::vector<cplx>> result(
      static_cast<std::size_t>(carried),
      std::vector<cplx>(desc->sphere().size()));
  Runtime::run(kProc, opts, [&](Comm& world) {
    PipelineConfig cfg;
    cfg.num_bands = kBands;
    cfg.mode = v.mode;
    cfg.fused_exchange = v.fused;
    cfg.real_bands = v.real;
    cfg.wire_format = v.wire;
    cfg.abft = abft;
    BandFftPipeline pipe(world, desc, cfg);
    pipe.initialize_bands();
    pipe.run();
    const auto index = desc->world_g_index(world.rank());
    for (int n = 0; n < carried; ++n) {
      const auto mine = pipe.band(n);
      for (std::size_t k = 0; k < index.size(); ++k) {
        result[static_cast<std::size_t>(n)][index[k]] = mine[k];
      }
    }
  });
  return result;
}

TEST(Abft, CleanRunsNeverFlagAcrossVariants) {
  const AbftVariant kVariants[] = {
      {.name = "staged"},
      {.name = "fused", .fused = true},
      {.name = "r2c_bf16",
       .fused = true,
       .real = true,
       .wire = WireFormat::Bf16},
      {.name = "task_per_step", .mode = PipelineMode::TaskPerStep},
  };
  auto& reg = fx::core::MetricsRegistry::global();
  const auto checks_before = reg.counter("fftx.abft.checks").value();
  const auto detections_before = reg.counter("fftx.abft.detections").value();
  for (const auto& v : kVariants) {
    EXPECT_NO_THROW(run_pipeline(v, AbftMode::Detect, quiet_options()))
        << v.name;
  }
  EXPECT_GT(reg.counter("fftx.abft.checks").value(), checks_before);
  EXPECT_EQ(reg.counter("fftx.abft.detections").value(), detections_before)
      << "false positive on a clean run";
}

TEST(Abft, OffModeLetsAFlipCorruptTheOutputSilently) {
  // The control experiment: without ABFT the flipped band sails through
  // and the run "succeeds" with wrong data -- the exact failure mode the
  // detectors exist for.
  const AbftVariant v{.name = "staged"};
  const auto clean = run_pipeline(v, AbftMode::Off, quiet_options());
  RunOptions faulty = quiet_options();
  faulty.faults.flip_rank = 0;
  faulty.faults.flip_op = 5;
  const auto corrupted = run_pipeline(v, AbftMode::Off, faulty);
  EXPECT_NE(corrupted, clean);
}

TEST(Abft, DetectModeCatchesEveryFlipOpportunity) {
  // Staged Original mode has 8 flip opportunities per iteration (psi_prep,
  // Z-fw, scatter-fw, XY-fw, VOFR, XY-bw, scatter-bw, Z-bw) and npsi/ntg =
  // 4 iterations per rank: sweep all 32.  The at-rest digests are
  // bit-exact, so every single flip -- sign, exponent or mantissa, first
  // or last stage -- must be detected, not just the energetic ones.
  const AbftVariant v{.name = "staged"};
  for (std::uint64_t op = 0; op < 32; ++op) {
    RunOptions faulty = quiet_options();
    faulty.faults.flip_rank = 1;
    faulty.faults.flip_op = op;
    EXPECT_THROW(run_pipeline(v, AbftMode::Detect, faulty), SdcError)
        << "flip at opportunity " << op << " escaped detection";
  }
}

TEST(Abft, DetectModeCatchesFlipsOnFusedNarrowWire) {
  const AbftVariant v{
      .name = "fused_bf16", .fused = true, .wire = WireFormat::Bf16};
  // The fused layouts keep all 8 flip opportunities per iteration; these
  // land in the first three iterations.
  for (std::uint64_t op : {0U, 3U, 5U, 11U, 23U}) {
    RunOptions faulty = quiet_options();
    faulty.faults.flip_rank = 2;
    faulty.faults.flip_op = op;
    EXPECT_THROW(run_pipeline(v, AbftMode::Detect, faulty), SdcError)
        << "flip at opportunity " << op << " escaped detection";
  }
}

// ---------------------------------------------------------------------------
// Surgical repair under the recovery driver
// ---------------------------------------------------------------------------

struct DriverRun {
  std::vector<std::vector<cplx>> bands;
  int completed = 0;
  int shrinks = 0;         // max over ranks
  int repaired = 0;        // summed over ranks
};

DriverRun run_driver(const RunOptions& opts, AbftMode abft, WireFormat wire) {
  auto desc =
      std::make_shared<const Descriptor>(Cell{kAlat}, kEcut, kProc, kTg);
  RecoveryConfig rcfg;
  rcfg.enabled = true;
  rcfg.checkpoint_bands = 2;
  rcfg.retry.max_attempts = 6;
  rcfg.retry.base_delay_ms = 0.1;
  DriverRun out;
  std::mutex mu;
  Runtime::run(kProc, opts, [&](Comm& world) {
    PipelineConfig cfg;
    cfg.num_bands = kBands;
    cfg.mode = PipelineMode::Original;
    cfg.wire_format = wire;
    cfg.abft = abft;
    RecoveryDriver driver(world, desc, cfg, rcfg);
    std::vector<std::vector<cplx>> mine;
    const auto rep = driver.run(mine);
    std::lock_guard lock(mu);
    ASSERT_TRUE(rep.completed);
    ++out.completed;
    out.shrinks = std::max(out.shrinks, rep.shrinks);
    out.repaired += rep.repaired_bands;
    if (out.bands.empty()) {
      out.bands = std::move(mine);
    } else {
      EXPECT_EQ(out.bands, mine) << "replicas disagree";
    }
  });
  return out;
}

TEST(AbftRepair, SurgicalReplayRestoresBitExactWithoutShrink) {
  auto& reg = fx::core::MetricsRegistry::global();
  for (const WireFormat wire : {WireFormat::Fp64, WireFormat::Bf16}) {
    const DriverRun clean =
        run_driver(quiet_options(), AbftMode::Off, wire);
    ASSERT_EQ(clean.completed, kProc);

    const auto repairs_before = reg.counter("fftx.abft.repairs").value();
    const auto repaired_before =
        reg.counter("fftx.abft.repaired_bands").value();
    RunOptions faulty = quiet_options();
    faulty.faults.flip_rank = 0;
    faulty.faults.flip_op = 5;
    const DriverRun healed = run_driver(faulty, AbftMode::Repair, wire);

    EXPECT_EQ(healed.completed, kProc);
    EXPECT_EQ(healed.shrinks, 0) << "surgical repair must not shrink";
    EXPECT_GE(healed.repaired, kProc);  // the replay is collective
    // Bit-exact at every wire format: per-band arithmetic (wire
    // quantization included) is decomposition-independent, so the ntg==1
    // replay reproduces the corrupted band exactly.
    EXPECT_EQ(healed.bands, clean.bands)
        << "wire " << static_cast<int>(wire);
    EXPECT_GT(reg.counter("fftx.abft.repairs").value(), repairs_before);
    EXPECT_GT(reg.counter("fftx.abft.repaired_bands").value(),
              repaired_before);
  }
}

TEST(AbftRepair, DetectModeEscalatesToFullReplayBitExact) {
  // Under Detect the driver has no band verdict (the pipeline throws), so
  // the SdcError rides the generic repair path: shrink (no rank died, so
  // the world keeps its size), roll back to the last checkpoint, replay.
  // The injector's opportunity counter has moved past the one-shot flip,
  // so the replay is clean and the result bit-exact.
  const DriverRun clean =
      run_driver(quiet_options(), AbftMode::Off, WireFormat::Fp64);
  RunOptions faulty = quiet_options();
  faulty.faults.flip_rank = 1;
  faulty.faults.flip_op = 9;
  const DriverRun healed =
      run_driver(faulty, AbftMode::Detect, WireFormat::Fp64);
  EXPECT_EQ(healed.completed, kProc);
  EXPECT_GE(healed.shrinks, 1);
  EXPECT_EQ(healed.repaired, 0);  // no surgical path in detect mode
  EXPECT_EQ(healed.bands, clean.bands);
}

TEST(AbftRepair, PersistentCorruptionExhaustsTheBudget) {
  // flip_prob = 1 corrupts every buffer after every stage, so the surgical
  // replay re-fails (escalations), the shrink-and-replay re-fails too, and
  // the driver must eventually surface the error instead of spinning.
  auto& reg = fx::core::MetricsRegistry::global();
  const auto escalations_before =
      reg.counter("fftx.abft.escalations").value();
  RunOptions faulty = quiet_options();
  faulty.faults.flip_prob = 1.0;
  auto run = [&] {
    auto desc =
        std::make_shared<const Descriptor>(Cell{kAlat}, kEcut, kProc, kTg);
    RecoveryConfig rcfg;
    rcfg.enabled = true;
    rcfg.checkpoint_bands = 2;
    rcfg.retry.max_attempts = 2;
    rcfg.retry.base_delay_ms = 0.1;
    Runtime::run(kProc, faulty, [&](Comm& world) {
      PipelineConfig cfg;
      cfg.num_bands = kBands;
      cfg.mode = PipelineMode::Original;
      cfg.abft = AbftMode::Repair;
      RecoveryDriver driver(world, desc, cfg, rcfg);
      std::vector<std::vector<cplx>> mine;
      (void)driver.run(mine);
    });
  };
  EXPECT_THROW(run(), fx::core::Error);
  EXPECT_GT(reg.counter("fftx.abft.escalations").value(), escalations_before);
}

}  // namespace
