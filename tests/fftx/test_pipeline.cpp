// End-to-end pipeline correctness: every mode, rank count and task-group
// count must reproduce the serial 3D oracle exactly (the optimizations
// reorder work, never arithmetic).
#include "fftx/pipeline.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <tuple>
#include <vector>

#include "fftx/reference.hpp"
#include "simmpi/runtime.hpp"

namespace {

using fx::fft::cplx;
using fx::fftx::BandFftPipeline;
using fx::fftx::Descriptor;
using fx::fftx::PipelineConfig;
using fx::fftx::PipelineMode;
using fx::pw::Cell;

constexpr double kAlat = 8.0;
constexpr double kEcut = 8.0;
constexpr int kBands = 8;

struct Case {
  int nproc;
  int ntg;
  PipelineMode mode;
  int nthreads;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  const Case& c = info.param;
  return std::string(fx::fftx::to_string(c.mode)) + "_p" +
         std::to_string(c.nproc) + "_t" + std::to_string(c.ntg) + "_w" +
         std::to_string(c.nthreads);
}

/// Runs the pipeline for the case `runs` times on one pipeline instance,
/// re-initializing the bands before each run, and collects every band's
/// packed coefficients per rank after each run, indexed by
/// [run][band][global G position].
std::vector<std::vector<std::vector<cplx>>> run_case_repeatedly(
    const Case& c, bool apply_potential, int runs) {
  auto desc = std::make_shared<const Descriptor>(Cell{kAlat}, kEcut, c.nproc,
                                                 c.ntg);
  std::vector<std::vector<std::vector<cplx>>> result(
      static_cast<std::size_t>(runs),
      std::vector<std::vector<cplx>>(
          kBands, std::vector<cplx>(desc->sphere().size())));

  fx::mpi::Runtime::run(c.nproc, [&](fx::mpi::Comm& world) {
    PipelineConfig cfg;
    cfg.num_bands = kBands;
    cfg.mode = c.mode;
    cfg.nthreads = c.nthreads;
    cfg.apply_potential = apply_potential;
    BandFftPipeline pipe(world, desc, cfg);
    const auto index = desc->world_g_index(world.rank());
    for (auto& bands : result) {
      pipe.initialize_bands();
      pipe.run();
      // Gather: each rank writes its slice into the shared result
      // (disjoint positions, so no synchronization needed beyond the
      // runtime's join).
      for (int n = 0; n < kBands; ++n) {
        const auto mine = pipe.band(n);
        for (std::size_t k = 0; k < index.size(); ++k) {
          bands[static_cast<std::size_t>(n)][index[k]] = mine[k];
        }
      }
    }
  });
  return result;
}

/// One run of the case, indexed by [band][global G position].
std::vector<std::vector<cplx>> run_case(const Case& c, bool apply_potential) {
  return run_case_repeatedly(c, apply_potential, 1).front();
}

double max_band_error(const std::vector<cplx>& got,
                      const std::vector<cplx>& want) {
  double err = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    err = std::max(err, std::abs(got[i] - want[i]));
  }
  return err;
}

class PipelineMatrix : public ::testing::TestWithParam<Case> {};

TEST_P(PipelineMatrix, MatchesSerialOracleWithPotential) {
  const Case c = GetParam();
  const Descriptor oracle_desc(Cell{kAlat}, kEcut, c.nproc, c.ntg);
  const auto got = run_case(c, /*apply_potential=*/true);
  for (int n = 0; n < kBands; ++n) {
    const auto want = fx::fftx::reference_band_output(oracle_desc, n, true);
    EXPECT_LT(max_band_error(got[static_cast<std::size_t>(n)], want), 1e-12)
        << "band " << n;
  }
}

TEST_P(PipelineMatrix, IdentityWhenPotentialIsOff) {
  const Case c = GetParam();
  const Descriptor oracle_desc(Cell{kAlat}, kEcut, c.nproc, c.ntg);
  const auto got = run_case(c, /*apply_potential=*/false);
  for (int n = 0; n < kBands; ++n) {
    const auto want = fx::fftx::reference_band_input(oracle_desc, n);
    EXPECT_LT(max_band_error(got[static_cast<std::size_t>(n)], want), 1e-12)
        << "band " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Original, PipelineMatrix,
    ::testing::Values(Case{1, 1, PipelineMode::Original, 1},
                      Case{2, 1, PipelineMode::Original, 1},
                      Case{2, 2, PipelineMode::Original, 1},
                      Case{4, 1, PipelineMode::Original, 1},
                      Case{4, 2, PipelineMode::Original, 1},
                      Case{4, 4, PipelineMode::Original, 1},
                      Case{8, 4, PipelineMode::Original, 1},
                      Case{8, 8, PipelineMode::Original, 1},
                      Case{6, 2, PipelineMode::Original, 1}),
    case_name);

INSTANTIATE_TEST_SUITE_P(
    TaskPerFft, PipelineMatrix,
    ::testing::Values(Case{1, 1, PipelineMode::TaskPerFft, 4},
                      Case{2, 1, PipelineMode::TaskPerFft, 2},
                      Case{2, 1, PipelineMode::TaskPerFft, 4},
                      Case{4, 1, PipelineMode::TaskPerFft, 2},
                      Case{4, 2, PipelineMode::TaskPerFft, 2},
                      Case{8, 1, PipelineMode::TaskPerFft, 3}),
    case_name);

INSTANTIATE_TEST_SUITE_P(
    TaskPerStep, PipelineMatrix,
    ::testing::Values(Case{1, 1, PipelineMode::TaskPerStep, 4},
                      Case{2, 1, PipelineMode::TaskPerStep, 2},
                      Case{2, 2, PipelineMode::TaskPerStep, 3},
                      Case{4, 2, PipelineMode::TaskPerStep, 2},
                      Case{4, 1, PipelineMode::TaskPerStep, 4}),
    case_name);

INSTANTIATE_TEST_SUITE_P(
    Combined, PipelineMatrix,
    ::testing::Values(Case{1, 1, PipelineMode::Combined, 4},
                      Case{2, 1, PipelineMode::Combined, 3},
                      Case{4, 1, PipelineMode::Combined, 2}),
    case_name);

TEST(Pipeline, AllModesProduceIdenticalCoefficients) {
  // Bitwise agreement between modes on the same layout (P=2).
  const auto a = run_case({2, 1, PipelineMode::Original, 1}, true);
  const auto b = run_case({2, 1, PipelineMode::TaskPerFft, 3}, true);
  const auto c = run_case({2, 1, PipelineMode::TaskPerStep, 3}, true);
  const auto d = run_case({2, 1, PipelineMode::Combined, 3}, true);
  for (int n = 0; n < kBands; ++n) {
    const auto nu = static_cast<std::size_t>(n);
    EXPECT_EQ(a[nu], b[nu]) << "band " << n;
    EXPECT_EQ(a[nu], c[nu]) << "band " << n;
    EXPECT_EQ(a[nu], d[nu]) << "band " << n;
  }
}

TEST(Pipeline, RepeatedRunsAreDeterministic) {
  // Every schedule borrows its buffers from the pipeline's pool, so a
  // second run() on one pipeline reuses the first run's buffer sets; both
  // runs must match a fresh pipeline bit for bit.
  for (const PipelineMode mode :
       {PipelineMode::Original, PipelineMode::TaskPerStep,
        PipelineMode::TaskPerFft, PipelineMode::Combined,
        PipelineMode::Streaming}) {
    const Case c{4, 2, mode, mode == PipelineMode::Original ? 1 : 2};
    const auto fresh = run_case(c, true);
    const auto reused = run_case_repeatedly(c, true, 2);
    for (std::size_t r = 0; r < reused.size(); ++r) {
      for (int n = 0; n < kBands; ++n) {
        const auto nu = static_cast<std::size_t>(n);
        EXPECT_EQ(reused[r][nu], fresh[nu])
            << fx::fftx::to_string(mode) << " run " << r << " band " << n;
      }
    }
  }
}

TEST(Pipeline, RejectsBandCountNotMultipleOfNtg) {
  auto desc = std::make_shared<const Descriptor>(Cell{kAlat}, kEcut, 2, 2);
  EXPECT_THROW(fx::mpi::Runtime::run(2,
                                     [&](fx::mpi::Comm& world) {
                                       PipelineConfig cfg;
                                       cfg.num_bands = 7;  // not % 2
                                       BandFftPipeline pipe(world, desc, cfg);
                                     }),
               fx::core::Error);
}

TEST(Pipeline, TracerReceivesAllThreeStreams) {
  auto desc = std::make_shared<const Descriptor>(Cell{kAlat}, kEcut, 2, 1);
  fx::trace::Tracer tracer(2);
  fx::mpi::Runtime::run(2, [&](fx::mpi::Comm& world) {
    PipelineConfig cfg;
    cfg.num_bands = 4;
    cfg.mode = PipelineMode::TaskPerFft;
    cfg.nthreads = 2;
    BandFftPipeline pipe(world, desc, cfg, &tracer);
    pipe.initialize_bands();
    pipe.run();
  });
  EXPECT_FALSE(tracer.compute_events().empty());
  EXPECT_FALSE(tracer.comm_events().empty());
  EXPECT_FALSE(tracer.task_events().empty());
  // 4 band tasks per rank, 2 ranks.
  EXPECT_EQ(tracer.task_events().size(), 8U);
  // Every phase carries a positive instruction estimate and sane times.
  for (const auto& e : tracer.compute_events()) {
    EXPECT_GE(e.instructions, 0.0);
    EXPECT_LE(e.t_begin, e.t_end);
    EXPECT_GE(e.band, 0);
  }
}

}  // namespace
