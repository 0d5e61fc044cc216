// Regression stress for the task executor's blocking-depth rule
// (DESIGN.md section 17): with blocking stage tasks, at most nthreads
// iterations are in flight.
//
// Without the cap, two ranks can block all their workers in collectives
// of disjoint iteration sets (every iteration's pack task is ready from
// the start, so FIFO dispatch lets a rank race ahead arbitrarily) -- an
// intermittent, load-sensitive deadlock.  The per-iteration schedules
// (TaskPerFft, Combined) have no cap and rely on FIFO dispatch of
// whole-band tasks instead.  These runs maximize the skew pressure: many
// iterations, few workers, several ranks, repeated.
#include <gtest/gtest.h>

#include <memory>

#include "fftx/pipeline.hpp"
#include "fftx/reference.hpp"
#include "simmpi/runtime.hpp"

namespace {

using fx::fftx::BandFftPipeline;
using fx::fftx::Descriptor;
using fx::fftx::PipelineConfig;
using fx::fftx::PipelineMode;
using fx::pw::Cell;

void run_stress(int nranks, int threads, int bands, PipelineMode mode) {
  auto desc = std::make_shared<const Descriptor>(Cell{6.0}, 6.0, nranks, 1);
  fx::mpi::Runtime::run(nranks, [&](fx::mpi::Comm& world) {
    PipelineConfig cfg;
    cfg.num_bands = bands;
    cfg.mode = mode;
    cfg.nthreads = threads;
    BandFftPipeline pipe(world, desc, cfg);
    pipe.initialize_bands();
    pipe.run();
    // Spot-check the last band stayed correct under the pressure.
    const auto want =
        fx::fftx::reference_band_output(*desc, bands - 1, true);
    const auto index = desc->world_g_index(world.rank());
    const auto mine = pipe.band(bands - 1);
    for (std::size_t k = 0; k < index.size(); ++k) {
      ASSERT_NEAR(std::abs(mine[k] - want[index[k]]), 0.0, 1e-12);
    }
  });
}

TEST(WindowStress, TaskPerStepManyIterationsFewWorkers) {
  for (int rep = 0; rep < 6; ++rep) {
    run_stress(/*nranks=*/4, /*threads=*/2, /*bands=*/24,
               PipelineMode::TaskPerStep);
  }
}

TEST(WindowStress, TaskPerStepSingleWorker) {
  // Depth 1: strictly serial iterations, must still complete.
  run_stress(3, 1, 12, PipelineMode::TaskPerStep);
}

TEST(WindowStress, TaskPerFftManyBands) {
  for (int rep = 0; rep < 4; ++rep) {
    run_stress(3, 2, 30, PipelineMode::TaskPerFft);
  }
}

TEST(WindowStress, CombinedUnderPressure) {
  for (int rep = 0; rep < 4; ++rep) {
    run_stress(2, 3, 24, PipelineMode::Combined);
  }
}

}  // namespace
