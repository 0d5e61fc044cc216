// Additional pipeline coverage: orthorhombic cells, trace integration with
// the POP analyzer on real runs, cross-mode instruction-accounting
// equality, and degenerate layouts.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>

#include "fftx/pipeline.hpp"
#include "fftx/reference.hpp"
#include "simmpi/runtime.hpp"
#include "trace/analysis.hpp"

namespace {

using fx::fft::cplx;
using fx::fftx::BandFftPipeline;
using fx::fftx::Descriptor;
using fx::fftx::PipelineConfig;
using fx::fftx::PipelineMode;
using fx::pw::Cell;

double run_and_check(const std::shared_ptr<const Descriptor>& desc,
                     PipelineMode mode, int nthreads, int bands,
                     fx::trace::Tracer* tracer = nullptr,
                     bool force_staged = false) {
  double worst = 0.0;
  fx::mpi::Runtime::run(desc->nproc(), [&](fx::mpi::Comm& world) {
    PipelineConfig cfg;
    cfg.num_bands = bands;
    cfg.mode = mode;
    cfg.nthreads = nthreads;
    if (force_staged) {
      // For tests that assert staged-path artifacts (marshalling trace
      // phases), regardless of FFTX_FUSED_EXCHANGE.
      cfg.fused_exchange = false;
    }
    BandFftPipeline pipe(world, desc, cfg, tracer);
    pipe.initialize_bands();
    pipe.run();
    const auto index = desc->world_g_index(world.rank());
    double err = 0.0;
    for (int n = 0; n < bands; ++n) {
      const auto want = fx::fftx::reference_band_output(*desc, n, true);
      const auto mine = pipe.band(n);
      for (std::size_t k = 0; k < index.size(); ++k) {
        err = std::max(err, std::abs(mine[k] - want[index[k]]));
      }
    }
    double global = 0.0;
    world.allreduce(&err, &global, 1, fx::mpi::ReduceOp::Max);
    if (world.rank() == 0) worst = global;
  });
  return worst;
}

TEST(Orthorhombic, AnisotropicCellThroughEveryMode) {
  // ax != ay != az: the grid is 8x6x10-ish and the sphere an ellipsoid.
  auto desc = std::make_shared<const Descriptor>(Cell{9.0, 7.0, 11.0}, 6.0,
                                                 /*nproc=*/2, /*ntg=*/1);
  EXPECT_NE(desc->dims().nx, desc->dims().ny);
  EXPECT_NE(desc->dims().ny, desc->dims().nz);
  EXPECT_LT(run_and_check(desc, PipelineMode::Original, 1, 4), 1e-12);
  EXPECT_LT(run_and_check(desc, PipelineMode::TaskPerFft, 3, 4), 1e-12);
  EXPECT_LT(run_and_check(desc, PipelineMode::TaskPerStep, 2, 4), 1e-12);
}

TEST(Orthorhombic, TaskGroupsOnAnisotropicCell) {
  auto desc = std::make_shared<const Descriptor>(Cell{9.0, 7.0, 11.0}, 6.0,
                                                 /*nproc=*/4, /*ntg=*/2);
  EXPECT_LT(run_and_check(desc, PipelineMode::Original, 1, 4), 1e-12);
}

TEST(Degenerate, SingleBandSingleRank) {
  auto desc = std::make_shared<const Descriptor>(Cell{8.0}, 8.0, 1, 1);
  EXPECT_LT(run_and_check(desc, PipelineMode::Original, 1, 1), 1e-12);
  EXPECT_LT(run_and_check(desc, PipelineMode::TaskPerFft, 2, 1), 1e-12);
}

TEST(Degenerate, MoreRanksThanPlanes) {
  // Grid ~5^3 but 8 ranks: several ranks own zero planes and zero sticks.
  auto desc = std::make_shared<const Descriptor>(Cell{6.0}, 4.0, 8, 1);
  EXPECT_LT(desc->dims().nz, 8U);
  EXPECT_LT(run_and_check(desc, PipelineMode::Original, 1, 2), 1e-12);
  EXPECT_LT(run_and_check(desc, PipelineMode::TaskPerFft, 2, 2), 1e-12);
}

TEST(TraceIntegration, PopFactorsAreSaneOnRealRuns) {
  auto desc = std::make_shared<const Descriptor>(Cell{8.0}, 8.0, 4, 2);
  fx::trace::Tracer tracer(4);
  run_and_check(desc, PipelineMode::Original, 1, 8, &tracer);

  const auto s = fx::trace::analyze_efficiency(tracer, 1.0);
  EXPECT_EQ(s.rows, 4);
  EXPECT_GT(s.runtime, 0.0);
  EXPECT_GT(s.total_compute, 0.0);
  EXPECT_GT(s.total_instructions, 0.0);
  EXPECT_GT(s.load_balance, 0.0);
  EXPECT_LE(s.load_balance, 1.0);
  EXPECT_GT(s.comm_efficiency, 0.0);
  EXPECT_LE(s.comm_efficiency, 1.0);
  EXPECT_LE(s.parallel_efficiency,
            s.load_balance * s.comm_efficiency + 1e-12);
}

TEST(TraceIntegration, InstructionTotalsEqualAcrossModes) {
  // The optimizations reschedule work; they must not change its amount
  // (instruction scalability ~100 % in both paper tables).
  auto desc = std::make_shared<const Descriptor>(Cell{8.0}, 8.0, 2, 1);
  auto total = [&](PipelineMode mode, int threads) {
    fx::trace::Tracer tracer(2);
    run_and_check(desc, mode, threads, 4, &tracer);
    double instr = 0.0;
    for (const auto& e : tracer.compute_events()) instr += e.instructions;
    return instr;
  };
  const double orig = total(PipelineMode::Original, 1);
  EXPECT_GT(orig, 0.0);
  EXPECT_NEAR(total(PipelineMode::TaskPerFft, 3), orig, 1e-6 * orig);
  EXPECT_NEAR(total(PipelineMode::TaskPerStep, 3), orig, 1e-6 * orig);
  EXPECT_NEAR(total(PipelineMode::Combined, 3), orig, 1e-6 * orig);
}

TEST(TraceIntegration, EveryPipelinePhaseAppearsInTrace) {
  auto desc = std::make_shared<const Descriptor>(Cell{8.0}, 8.0, 2, 2);
  fx::trace::Tracer tracer(2);
  run_and_check(desc, PipelineMode::Original, 1, 4, &tracer,
                /*force_staged=*/true);
  std::map<fx::trace::PhaseKind, int> seen;
  for (const auto& e : tracer.compute_events()) ++seen[e.phase];
  using PK = fx::trace::PhaseKind;
  for (PK p : {PK::Pack, PK::PsiPrep, PK::FftZ, PK::Scatter, PK::FftXy,
               PK::Vofr, PK::Unpack}) {
    EXPECT_GT(seen[p], 0) << to_string(p);
  }
}

}  // namespace
