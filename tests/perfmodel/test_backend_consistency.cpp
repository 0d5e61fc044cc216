// The two backends must execute the same logical program: the real
// pipeline's trace and the virtual program builder must agree on
// instruction totals per phase kind and on communication payloads.  This
// is what makes the model benches a faithful stand-in for the real kernel.
// One difference is intended and stated exactly: a one-rank scatter group
// (nproc == ntg) runs its self-exchange on the fused views, while the
// model keeps the paper's marshal and unmarshal passes.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "fftx/pipeline.hpp"
#include "perfmodel/program.hpp"
#include "simmpi/runtime.hpp"
#include "trace/phases.hpp"

namespace {

using fx::fftx::Descriptor;
using fx::fftx::PipelineMode;
using fx::pw::Cell;
using fx::trace::PhaseKind;

struct Totals {
  std::map<PhaseKind, double> instructions;
  double comm_bytes = 0.0;
  std::size_t collective_calls = 0;
};

Totals from_real_run(int nranks, int ntg, PipelineMode mode, int threads,
                     int bands) {
  auto desc =
      std::make_shared<const Descriptor>(Cell{8.0}, 8.0, nranks, ntg);
  fx::trace::Tracer tracer(nranks);
  fx::mpi::Runtime::run(nranks, [&](fx::mpi::Comm& world) {
    fx::fftx::PipelineConfig cfg;
    cfg.num_bands = bands;
    cfg.mode = mode;
    cfg.nthreads = threads;
    cfg.fused_exchange = false;  // the staged path the model describes
    fx::fftx::BandFftPipeline pipe(world, desc, cfg, &tracer);
    pipe.initialize_bands();
    pipe.run();
  });
  Totals t;
  for (const auto& e : tracer.compute_events()) {
    t.instructions[e.phase] += e.instructions;
  }
  // A one-rank scatter's self-exchange posts as a view exchange
  // (Ialltoallv); every other transpose is a blocking Alltoallv.
  for (const auto& e : tracer.comm_events()) {
    if (e.kind == fx::mpi::CommOpKind::Alltoallv ||
        e.kind == fx::mpi::CommOpKind::Ialltoallv) {
      t.comm_bytes += static_cast<double>(e.bytes);
      ++t.collective_calls;
    }
  }
  return t;
}

Totals from_program(int nranks, int ntg, PipelineMode mode, int bands) {
  const Descriptor desc(Cell{8.0}, 8.0, nranks, ntg);
  fx::model::ProgramConfig pcfg;
  pcfg.mode = mode;
  pcfg.num_bands = bands;
  const auto bundle = fx::model::build_program(desc, pcfg);
  Totals t;
  for (const auto& prog : bundle.programs) {
    for (const auto& chain : prog) {
      for (const auto& s : chain) {
        if (s.kind == fx::model::Step::Kind::Compute) {
          t.instructions[s.phase] += s.instructions;
        } else {
          t.comm_bytes += static_cast<double>(s.comm_bytes);
          ++t.collective_calls;
        }
      }
    }
  }
  return t;
}

class BackendConsistency
    : public ::testing::TestWithParam<std::tuple<int, int, PipelineMode>> {};

TEST_P(BackendConsistency, InstructionAndByteTotalsAgree) {
  const auto [nranks, ntg, mode] = GetParam();
  const int threads = mode == PipelineMode::Original ? 1 : 3;
  constexpr int kBands = 8;

  const Totals real = from_real_run(nranks, ntg, mode, threads, kBands);
  Totals model = from_program(nranks, ntg, mode, kBands);
  const Descriptor desc(Cell{8.0}, 8.0, nranks, ntg);
  if (desc.group_size() == 1) {
    // The two marshal and two unmarshal passes of every band iteration,
    // each over the group's nst sticks of nz points, that the one-rank
    // scatter skips.  Every rank runs kBands / ntg iterations.
    const std::size_t points = desc.nsticks_group(0) * desc.dims().nz;
    model.instructions[PhaseKind::Scatter] -=
        fx::trace::copy_cost(4 * points).instructions * nranks *
        (kBands / ntg);
  }

  for (const auto& [phase, instr] : model.instructions) {
    const auto it = real.instructions.find(phase);
    ASSERT_NE(it, real.instructions.end())
        << "phase missing in real trace: " << to_string(phase);
    EXPECT_NEAR(it->second, instr, 1e-6 * (instr + 1.0))
        << to_string(phase);
  }
  EXPECT_EQ(real.instructions.size(), model.instructions.size());
  EXPECT_NEAR(real.comm_bytes, model.comm_bytes,
              1e-9 * (model.comm_bytes + 1.0));
  EXPECT_EQ(real.collective_calls, model.collective_calls);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, BackendConsistency,
    ::testing::Values(std::tuple{2, 2, PipelineMode::Original},
                      std::tuple{4, 2, PipelineMode::Original},
                      std::tuple{4, 4, PipelineMode::Original},
                      std::tuple{2, 1, PipelineMode::TaskPerFft},
                      std::tuple{4, 1, PipelineMode::TaskPerFft},
                      std::tuple{2, 1, PipelineMode::TaskPerStep},
                      std::tuple{2, 1, PipelineMode::Combined}));

}  // namespace
