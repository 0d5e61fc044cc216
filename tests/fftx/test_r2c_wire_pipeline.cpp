// Gamma-point real-band mode and reduced-precision wire formats on the
// pipeline: packed pairs bit-match the serial packed oracle across every
// exchange variant at the fp64 wire; narrow wires stay within the
// documented quantizer bounds (and all narrow-wire variants agree
// bit-exactly with each other, since quantization is elementwise); the
// byte savings are measurable; guard and recovery keep working.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <memory>
#include <mutex>
#include <vector>

#include "core/metrics.hpp"
#include "core/rng.hpp"
#include "fft/gamma.hpp"
#include "fftx/grid_fft.hpp"
#include "fftx/pipeline.hpp"
#include "fftx/recovery.hpp"
#include "fftx/reference.hpp"
#include "simmpi/runtime.hpp"
#include "simmpi/wire.hpp"

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
constexpr int kBands = 8;  // 4 packed pairs under real_bands
constexpr int kProc = 4;
constexpr int kTg = 2;

RunOptions quiet_options() {
  RunOptions opts;
  opts.watchdog.window_ms = 60000.0;
  return opts;
}

struct Variant {
  bool fused = false;
  bool guard = false;
};

/// One pipeline run with everything pinned; returns every carried band
/// (num_psi of them) gathered into global G order.
std::vector<std::vector<cplx>> run_pipeline(const PipelineConfig& base,
                                            const Variant& v,
                                            const RunOptions& opts =
                                                RunOptions{}) {
  auto desc =
      std::make_shared<const Descriptor>(Cell{kAlat}, kEcut, kProc, kTg);
  std::vector<std::vector<cplx>> bands;
  std::mutex mu;
  Runtime::run(kProc, opts, [&](Comm& world) {
    PipelineConfig cfg = base;
    cfg.mode = PipelineMode::Original;
    cfg.guard_exchanges = v.guard;
    cfg.fused_exchange = v.fused;
    BandFftPipeline pipe(world, desc, cfg);
    pipe.initialize_bands();
    pipe.run();
    const auto index = desc->world_g_index(world.rank());
    std::lock_guard lock(mu);
    if (bands.empty()) {
      bands.assign(static_cast<std::size_t>(pipe.num_psi()),
                   std::vector<cplx>(desc->sphere().size()));
    }
    for (int n = 0; n < pipe.num_psi(); ++n) {
      const auto mine = pipe.band(n);
      for (std::size_t k = 0; k < index.size(); ++k) {
        bands[static_cast<std::size_t>(n)][index[k]] = mine[k];
      }
    }
  });
  return bands;
}

double worst_abs_error(const std::vector<std::vector<cplx>>& got,
                       const std::vector<std::vector<cplx>>& want) {
  double err = 0.0;
  for (std::size_t n = 0; n < got.size(); ++n) {
    for (std::size_t k = 0; k < got[n].size(); ++k) {
      err = std::max(err, std::abs(got[n][k] - want[n][k]));
    }
  }
  return err;
}

double peak_magnitude(const std::vector<std::vector<cplx>>& bands) {
  double peak = 0.0;
  for (const auto& band : bands) {
    for (const cplx& c : band) peak = std::max(peak, std::abs(c));
  }
  return peak;
}

std::vector<std::vector<cplx>> packed_oracle(int num_bands) {
  const Descriptor desc(Cell{kAlat}, kEcut, kProc, kTg);
  const auto pairs = fx::fft::gamma_pair_count(
      static_cast<std::size_t>(num_bands));
  std::vector<std::vector<cplx>> want(pairs);
  for (std::size_t p = 0; p < pairs; ++p) {
    want[p] = fx::fftx::reference_packed_band_output(
        desc, static_cast<int>(p), num_bands, true);
  }
  return want;
}

TEST(R2cPipeline, RealBandsMatchPackedOracleAcrossExchangeVariants) {
  PipelineConfig cfg;
  cfg.num_bands = kBands;
  cfg.real_bands = true;
  cfg.wire_format = WireFormat::Fp64;

  const auto want = packed_oracle(kBands);
  const Variant kVariants[] = {
      {},                              // staged blocking
      {.fused = true},                 // zero-copy
      {.fused = true, .guard = true},  // checksummed
  };
  const auto staged = run_pipeline(cfg, kVariants[0]);
  ASSERT_EQ(staged.size(), want.size());
  EXPECT_LT(worst_abs_error(staged, want), 1e-12);
  for (const auto& v : kVariants) {
    const auto got = run_pipeline(cfg, v);
    EXPECT_EQ(got, staged) << "fused=" << v.fused << " guard=" << v.guard;
  }
}

TEST(R2cPipeline, OddBandCountCarriesZeroImaginaryTail) {
  // 7 bands pack into 4 pairs (the old nbands/2 truncation would have
  // dropped band 6); the tail pair's imaginary part is a zero band.
  PipelineConfig cfg;
  cfg.num_bands = 7;
  cfg.real_bands = true;
  const auto got = run_pipeline(cfg, {.fused = true});
  const auto want = packed_oracle(7);
  ASSERT_EQ(got.size(), 4U);
  EXPECT_LT(worst_abs_error(got, want), 1e-12);
}

TEST(R2cPipeline, RealBandsHalveTheBytesOnTheWire) {
  auto& bytes = fx::core::MetricsRegistry::global().counter(
      "simmpi.ialltoallv.bytes");
  auto measure = [&](bool real) {
    PipelineConfig cfg;
    cfg.num_bands = kBands;
    cfg.real_bands = real;
    const auto before = bytes.value();
    run_pipeline(cfg, {.fused = true});
    return bytes.value() - before;
  };
  const auto complex_bytes = measure(false);
  ASSERT_GT(complex_bytes, 0U);
  // Half the band-loop iterations -> exactly half the exchanged bytes.
  EXPECT_EQ(measure(true), complex_bytes / 2);
}

TEST(WirePipeline, Fp32WireStaysWithinQuantizerBoundOfFp64) {
  auto& gauge = fx::core::MetricsRegistry::global().gauge(
      "fftx.exchange.wire_max_ulp_err");
  PipelineConfig cfg;
  cfg.num_bands = kBands;
  cfg.wire_format = WireFormat::Fp64;
  const auto exact = run_pipeline(cfg, {.fused = true});

  gauge.reset();
  cfg.wire_format = WireFormat::Fp32;
  const auto narrow = run_pipeline(cfg, {.fused = true});

  // Quantization is per element and per exchange; through the FFT chain
  // the end-to-end error stays a small multiple of the fp32 relative eps.
  const double rel = worst_abs_error(narrow, exact) / peak_magnitude(exact);
  EXPECT_GT(rel, 0.0);      // the narrow wire is genuinely lossy
  EXPECT_LT(rel, 1e-4);     // ...but bounded (fp32 eps is 1.2e-7)
  EXPECT_GT(gauge.value(), 0.0);
  EXPECT_LE(gauge.value(), 0.5);  // per-double RNE bound, in fp32 ulps
}

TEST(WirePipeline, Bf16WireStaysWithinQuantizerBoundOfFp64) {
  auto& gauge = fx::core::MetricsRegistry::global().gauge(
      "fftx.exchange.wire_max_ulp_err");
  PipelineConfig cfg;
  cfg.num_bands = kBands;
  const auto exact = run_pipeline(cfg, {.fused = true});

  gauge.reset();
  cfg.wire_format = WireFormat::Bf16;
  const auto narrow = run_pipeline(cfg, {.fused = true});

  const double rel = worst_abs_error(narrow, exact) / peak_magnitude(exact);
  EXPECT_GT(rel, 0.0);
  EXPECT_LT(rel, 0.05);  // bf16 eps is 7.8e-3
  EXPECT_GT(gauge.value(), 0.0);
  EXPECT_LE(gauge.value(), 0.51);  // per-double bound, in bf16 ulps
}

TEST(WirePipeline, NarrowWireVariantsAreBitIdentical) {
  // Quantization is elementwise, so guarding cannot change the arithmetic:
  // every fp32-wire variant produces the same bits.
  // (wire != fp64 forces the fused layouts even when the flag is off.)
  PipelineConfig cfg;
  cfg.num_bands = kBands;
  cfg.wire_format = WireFormat::Fp32;
  const Variant kVariants[] = {
      {},  // fused implied by the wire
      {.fused = true},
      {.fused = true, .guard = true},
  };
  const auto base = run_pipeline(cfg, kVariants[0]);
  for (const auto& v : kVariants) {
    EXPECT_EQ(run_pipeline(cfg, v), base)
        << "fused=" << v.fused << " guard=" << v.guard;
  }
}

TEST(WirePipeline, GuardHealsBitFlipAtNarrowWire) {
  // Wire-encoded digests: a flipped payload bit above the wire's own
  // precision floor is caught and retried away at fp32 just as at fp64.
  PipelineConfig cfg;
  cfg.num_bands = kBands;
  cfg.wire_format = WireFormat::Fp32;
  const auto clean = run_pipeline(cfg, {.fused = true, .guard = true});

  RunOptions opts = quiet_options();
  opts.faults.corrupt_rank = 0;
  opts.faults.corrupt_op = 0;
  opts.faults.only_kind = static_cast<int>(CommOpKind::Ialltoallv);
  const auto healed =
      run_pipeline(cfg, {.fused = true, .guard = true}, opts);
  EXPECT_EQ(healed, clean);
}

TEST(WirePipeline, RealBandsComposeWithNarrowWire) {
  // The full tentpole: half the transforms (r2c pairing) AND a quarter of
  // the bytes (bf16) in one configuration, still within quantizer error
  // of the packed oracle.
  PipelineConfig cfg;
  cfg.num_bands = kBands;
  cfg.real_bands = true;
  cfg.wire_format = WireFormat::Bf16;
  const auto got = run_pipeline(cfg, {.fused = true});
  const auto want = packed_oracle(kBands);
  const double rel = worst_abs_error(got, want) / peak_magnitude(want);
  EXPECT_LT(rel, 0.05);
}

TEST(WirePipeline, RecoveryDriverSurvivesKillWithNarrowWire) {
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
      cfg.wire_format = WireFormat::Fp32;
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

  RunOptions faulty = quiet_options();
  faulty.faults.kill_rank = 1;
  faulty.faults.kill_op = 15;
  faulty.faults.only_kind = static_cast<int>(CommOpKind::Ialltoallv);
  const auto [healed, healed_done, healed_died] = run_recovered(faulty);
  EXPECT_EQ(healed_died, 1);
  EXPECT_EQ(healed_done, kProc - 1);
  // Narrow-wire replay is bit-exact: the shrunken world re-decomposes
  // (here 3 ranks forces ntg = 1), but the ntg == 1 pack/unpack shortcuts
  // apply the same wire quantization as the general path, so per-band
  // arithmetic -- quantizer included -- is decomposition-independent and
  // the replayed bands match the checkpointed run bitwise, exactly like
  // the fp64 wire (FusedExchange.RecoveryDriverSurvivesKillOnFusedPath).
  EXPECT_EQ(healed, clean);
}

TEST(R2cPipeline, RecoveryDriverBatchesAndReplaysPackedPairs) {
  // The driver must count batches, checkpoints, and replay in *pairs* when
  // the pipeline carries real bands: 8 bands = 4 pairs, checkpointed 2
  // pairs at a time (a batch of 2 real bands would be a single pair, which
  // ntg 2 cannot split -- the exact configuration this guards against).
  auto desc =
      std::make_shared<const Descriptor>(Cell{kAlat}, kEcut, kProc, kTg);
  RecoveryConfig rcfg;
  rcfg.enabled = true;
  rcfg.checkpoint_bands = 2;
  rcfg.retry.max_attempts = 6;
  rcfg.retry.base_delay_ms = 0.1;

  auto run_recovered = [&](const RunOptions& opts) {
    std::vector<std::vector<cplx>> bands;
    int died = 0;
    std::mutex mu;
    Runtime::run(kProc, opts, [&](Comm& world) {
      PipelineConfig cfg;
      cfg.num_bands = kBands;
      cfg.mode = PipelineMode::Original;
      cfg.real_bands = true;
      cfg.fused_exchange = true;
      cfg.wire_format = WireFormat::Fp64;
      RecoveryDriver driver(world, desc, cfg, rcfg);
      std::vector<std::vector<cplx>> mine;
      const auto rep = driver.run(mine);
      std::lock_guard lock(mu);
      if (rep.died) {
        ++died;
        return;
      }
      ASSERT_TRUE(rep.completed);
      if (bands.empty()) {
        bands = std::move(mine);
      } else {
        EXPECT_EQ(bands, mine) << "survivor replicas disagree";
      }
    });
    return std::pair(std::move(bands), died);
  };

  const auto [clean, clean_died] = run_recovered(quiet_options());
  EXPECT_EQ(clean_died, 0);
  const auto want = packed_oracle(kBands);
  ASSERT_EQ(clean.size(), want.size());
  EXPECT_LT(worst_abs_error(clean, want), 1e-12);

  RunOptions faulty = quiet_options();
  faulty.faults.kill_rank = 1;
  // Half the bands means half the exchanges: op 5 lands mid-run here where
  // op 15 would outlive the whole (shorter) real-band schedule.
  faulty.faults.kill_op = 5;
  faulty.faults.only_kind = static_cast<int>(CommOpKind::Ialltoallv);
  const auto [healed, healed_died] = run_recovered(faulty);
  EXPECT_EQ(healed_died, 1);
  // fp64 wire: the shrink-and-replay result is bit-exact.
  EXPECT_EQ(healed, clean);
}

TEST(R2cPipeline, RecoveryDriverReplaysOddBandTailPair) {
  // 7 real bands pack into 4 pairs with a half-empty tail (band 6 rides as
  // the real part of pair 3, zero imaginary).  A kill must replay batches
  // whose final pipeline carries that odd tail -- the re-decomposed world
  // (3 ranks, ntg 1) regenerates the same pairing because pairs always
  // start at even band offsets.
  constexpr int kOddBands = 7;
  auto desc =
      std::make_shared<const Descriptor>(Cell{kAlat}, kEcut, kProc, kTg);
  RecoveryConfig rcfg;
  rcfg.enabled = true;
  rcfg.checkpoint_bands = 2;  // pairs per checkpoint: tail lands in batch 2
  rcfg.retry.max_attempts = 6;
  rcfg.retry.base_delay_ms = 0.1;

  auto run_recovered = [&](const RunOptions& opts) {
    std::vector<std::vector<cplx>> bands;
    int died = 0;
    std::mutex mu;
    Runtime::run(kProc, opts, [&](Comm& world) {
      PipelineConfig cfg;
      cfg.num_bands = kOddBands;
      cfg.mode = PipelineMode::Original;
      cfg.real_bands = true;
      cfg.fused_exchange = true;
      cfg.wire_format = WireFormat::Fp64;
      RecoveryDriver driver(world, desc, cfg, rcfg);
      std::vector<std::vector<cplx>> mine;
      const auto rep = driver.run(mine);
      std::lock_guard lock(mu);
      if (rep.died) {
        ++died;
        return;
      }
      ASSERT_TRUE(rep.completed);
      if (bands.empty()) {
        bands = std::move(mine);
      } else {
        EXPECT_EQ(bands, mine) << "survivor replicas disagree";
      }
    });
    return std::pair(std::move(bands), died);
  };

  const auto [clean, clean_died] = run_recovered(quiet_options());
  EXPECT_EQ(clean_died, 0);
  const auto want = packed_oracle(kOddBands);
  ASSERT_EQ(clean.size(), 4U);
  EXPECT_LT(worst_abs_error(clean, want), 1e-12);

  RunOptions faulty = quiet_options();
  faulty.faults.kill_rank = 2;
  faulty.faults.kill_op = 5;
  faulty.faults.only_kind = static_cast<int>(CommOpKind::Ialltoallv);
  const auto [healed, healed_died] = run_recovered(faulty);
  EXPECT_EQ(healed_died, 1);
  EXPECT_EQ(healed, clean);  // fp64 wire: replay is bit-exact, tail included
}

TEST(WireGridFft, DenseTransposeNarrowsWithinQuantizerBound) {
  const fx::pw::GridDims dims{12, 10, 8};
  fx::core::Rng rng(321);
  std::vector<cplx> input(dims.volume());
  for (auto& v : input) {
    v = cplx{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  }

  auto round_trip = [&](WireFormat wire) {
    std::vector<cplx> out(dims.volume(), cplx{0.0, 0.0});
    std::mutex mu;
    Runtime::run(2, [&](Comm& comm) {
      fx::fftx::GridFft grid(comm, dims, nullptr, wire);
      fx::fft::Workspace ws;
      const int me = comm.rank();
      std::vector<cplx> pencils(grid.pencil_elems());
      for (std::size_t c = 0; c < grid.ncols(me); ++c) {
        const std::size_t col = grid.col_first(me) + c;
        for (std::size_t iz = 0; iz < dims.nz; ++iz) {
          pencils[c * dims.nz + iz] = input[col + dims.plane() * iz];
        }
      }
      std::vector<cplx> planes(grid.plane_elems());
      grid.to_real(pencils, planes, ws);
      grid.to_recip(planes, pencils, ws);
      std::lock_guard lock(mu);
      for (std::size_t c = 0; c < grid.ncols(me); ++c) {
        const std::size_t col = grid.col_first(me) + c;
        for (std::size_t iz = 0; iz < dims.nz; ++iz) {
          out[col + dims.plane() * iz] = pencils[c * dims.nz + iz];
        }
      }
    });
    return out;
  };

  const auto fp64 = round_trip(WireFormat::Fp64);
  double exact_err = 0.0;
  for (std::size_t i = 0; i < input.size(); ++i) {
    exact_err = std::max(exact_err, std::abs(fp64[i] - input[i]));
  }
  EXPECT_LT(exact_err, 1e-12);  // fp64 wire: bit-level round trip

  const auto fp32 = round_trip(WireFormat::Fp32);
  double narrow_err = 0.0;
  for (std::size_t i = 0; i < input.size(); ++i) {
    narrow_err = std::max(narrow_err, std::abs(fp32[i] - input[i]));
  }
  EXPECT_GT(narrow_err, 0.0);
  EXPECT_LT(narrow_err, 1e-4);
}

}  // namespace
