// Pipeline hardening acceptance: an injected bit flip in a transpose
// exchange is detected by the checksum guard and recovered by retry,
// reproducing the fault-free result exactly; without the guard the same
// flip silently corrupts the output.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/error.hpp"
#include "core/metrics.hpp"
#include "fftx/guarded.hpp"
#include "fftx/pipeline.hpp"
#include "simmpi/runtime.hpp"

namespace {

using fx::core::CommError;
using fx::fft::cplx;
using fx::fftx::BandFftPipeline;
using fx::fftx::Descriptor;
using fx::fftx::PipelineConfig;
using fx::fftx::PipelineMode;
using fx::mpi::CommOpKind;
using fx::mpi::RunOptions;
using fx::pw::Cell;

constexpr double kAlat = 8.0;
constexpr double kEcut = 8.0;
constexpr int kBands = 4;
constexpr int kProc = 4;
constexpr int kTg = 2;

struct RunResult {
  std::vector<std::vector<cplx>> bands;
  std::uint64_t guard_retries = 0;
  std::uint64_t guard_exchanges = 0;
};

/// One pipeline run under `opts`, collecting every band and guard counters.
RunResult run_pipeline(const RunOptions& opts, bool guard) {
  auto desc =
      std::make_shared<const Descriptor>(Cell{kAlat}, kEcut, kProc, kTg);
  RunResult result;
  result.bands.assign(kBands, std::vector<cplx>(desc->sphere().size()));
  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> exchanges{0};

  fx::mpi::Runtime::run(kProc, opts, [&](fx::mpi::Comm& world) {
    PipelineConfig cfg;
    cfg.num_bands = kBands;
    cfg.mode = PipelineMode::Original;
    cfg.guard_exchanges = guard;
    // These tests target the staged blocking Alltoallv (the fault plan
    // selects that kind); pin the path regardless of FFTX_FUSED_EXCHANGE
    // in the environment.
    cfg.fused_exchange = false;
    BandFftPipeline pipe(world, desc, cfg);
    pipe.initialize_bands();
    pipe.run();
    const auto index = desc->world_g_index(world.rank());
    for (int n = 0; n < kBands; ++n) {
      const auto mine = pipe.band(n);
      for (std::size_t k = 0; k < index.size(); ++k) {
        result.bands[static_cast<std::size_t>(n)][index[k]] = mine[k];
      }
    }
    retries.fetch_add(pipe.guard_retries());
    exchanges.fetch_add(pipe.guard_exchanges_done());
  });
  result.guard_retries = retries.load();
  result.guard_exchanges = exchanges.load();
  return result;
}

/// One bit flip in the first Alltoallv payload rank 0 receives.
RunOptions one_bit_flip() {
  RunOptions opts;
  opts.faults.corrupt_rank = 0;
  opts.faults.corrupt_op = 0;
  opts.faults.only_kind = static_cast<int>(CommOpKind::Alltoallv);
  return opts;
}

TEST(Hardening, GuardedExchangeRecoversFromInjectedBitFlip) {
  auto& reg = fx::core::MetricsRegistry::global();
  const std::uint64_t retries_before =
      reg.counter("fftx.guard.retries").value();
  const std::uint64_t failures_before =
      reg.counter("fftx.guard.checksum_failures").value();

  const RunResult clean = run_pipeline(RunOptions{}, /*guard=*/false);
  const RunResult healed = run_pipeline(one_bit_flip(), /*guard=*/true);

  EXPECT_GE(healed.guard_retries, 1U);  // the flip was detected and retried
  EXPECT_GT(healed.guard_exchanges, 0U);
  // The process-wide metrics must reflect the same recovery: a fault
  // injection run dumps nonzero retry and checksum-failure counters.
  EXPECT_GE(reg.counter("fftx.guard.retries").value(), retries_before + 1);
  EXPECT_GE(reg.counter("fftx.guard.checksum_failures").value(),
            failures_before + 1);
  for (int n = 0; n < kBands; ++n) {
    const auto& a = clean.bands[static_cast<std::size_t>(n)];
    const auto& b = healed.bands[static_cast<std::size_t>(n)];
    ASSERT_EQ(a, b) << "band " << n
                    << " differs from the fault-free result";
  }
}

TEST(Hardening, UnguardedBitFlipCorruptsTheResult) {
  // Sanity check that the injection is real: without the guard the same
  // flip must change the output (otherwise the recovery test is vacuous).
  const RunResult clean = run_pipeline(RunOptions{}, /*guard=*/false);
  const RunResult corrupted = run_pipeline(one_bit_flip(), /*guard=*/false);
  EXPECT_NE(clean.bands, corrupted.bands);
}

TEST(Hardening, GuardGivesUpAfterBoundedRetries) {
  RunOptions opts;
  opts.faults.corrupt_prob = 1.0;  // every Alltoallv payload, every retry
  opts.faults.only_kind = static_cast<int>(CommOpKind::Alltoallv);
  try {
    run_pipeline(opts, /*guard=*/true);
    FAIL() << "expected CommError";
  } catch (const CommError& e) {
    EXPECT_NE(std::string(e.what()).find("guarded alltoallv"),
              std::string::npos)
        << e.what();
  }
}

TEST(Hardening, GuardIsTransparentOnCleanRuns) {
  const RunResult plain = run_pipeline(RunOptions{}, /*guard=*/false);
  const RunResult guarded = run_pipeline(RunOptions{}, /*guard=*/true);
  EXPECT_EQ(plain.bands, guarded.bands);
  EXPECT_EQ(guarded.guard_retries, 0U);
  EXPECT_GT(guarded.guard_exchanges, 0U);
}

}  // namespace
