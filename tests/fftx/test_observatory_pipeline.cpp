// End-to-end observatory: the real pipeline feeding the online observatory
// through its existing spans and comm observer, with faults injected by
// the simmpi fault plan -- a stalled rank must produce a straggler flag
// naming (iteration, rank, phase), a compute bit flip must turn into an
// incident with a flight-recorder dump, and strict mode must turn flags
// into a lockstep failure.
#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/error.hpp"
#include "core/json.hpp"
#include "fftx/pipeline.hpp"
#include "simmpi/runtime.hpp"
#include "trace/observatory.hpp"
#include "trace/phases.hpp"

namespace {

using fx::core::SdcError;
using fx::fftx::AbftMode;
using fx::fftx::BandFftPipeline;
using fx::fftx::Descriptor;
using fx::fftx::PipelineConfig;
using fx::fftx::PipelineMode;
using fx::mpi::Comm;
using fx::mpi::CommOpKind;
using fx::mpi::RunOptions;
using fx::mpi::Runtime;
using fx::pw::Cell;
using fx::trace::Observatory;
using fx::trace::ObsMode;

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

void run_pipeline(const RunOptions& opts, AbftMode abft = AbftMode::Off) {
  auto desc =
      std::make_shared<const Descriptor>(Cell{kAlat}, kEcut, kProc, kTg);
  Runtime::run(kProc, opts, [&](Comm& world) {
    PipelineConfig cfg;
    cfg.num_bands = kBands;
    cfg.mode = PipelineMode::Original;
    cfg.abft = abft;
    // Pin the staged blocking exchanges: the stall/flip injections below
    // target op indices of this exact path, so environment overrides
    // (e.g. the CI fused-exchange sweep) must not leak in.
    cfg.fused_exchange = false;
    cfg.guard_exchanges = false;
    BandFftPipeline pipe(world, desc, cfg);
    pipe.initialize_bands();
    pipe.run();
  });
}

class ObservatoryPipelineTest : public ::testing::Test {
 protected:
  void TearDown() override {
    Observatory::global().configure(ObsMode::Off);
  }
};

TEST_F(ObservatoryPipelineTest, CleanRunRecordsIterationsWithoutFlags) {
  auto& obs = Observatory::global();
  obs.configure(ObsMode::Watch);
  run_pipeline(quiet_options());
  // ntg = 2 processes bands in pairs: 8 bands -> 4 iterations.
  EXPECT_EQ(obs.iterations_done(), 4u);
  EXPECT_GT(obs.phase_records(), 0u);
  EXPECT_EQ(obs.straggler_flags(), 0u);
  EXPECT_EQ(obs.incidents(), 0u);
  const auto flight = obs.flight();
  ASSERT_EQ(flight.size(), 4u);
  for (const auto& rec : flight) {
    EXPECT_TRUE(rec.complete);
    EXPECT_EQ(rec.ranks.size(), static_cast<std::size_t>(kProc));
    EXPECT_GT(rec.load_balance, 0.0);
  }
}

TEST_F(ObservatoryPipelineTest, StreamingRunAttributesTaskQueueWait) {
  auto& obs = Observatory::global();
  obs.configure(ObsMode::Watch);
  auto desc =
      std::make_shared<const Descriptor>(Cell{kAlat}, kEcut, kProc, kTg);
  Runtime::run(kProc, quiet_options(), [&](Comm& world) {
    PipelineConfig cfg;
    cfg.num_bands = kBands;
    cfg.mode = PipelineMode::Streaming;
    cfg.nthreads = 2;
    cfg.stream_bands = 4;       // 4 bands in flight on 2 workers: tasks queue
    cfg.fused_exchange = true;  // split post/wait path
    BandFftPipeline pipe(world, desc, cfg);
    pipe.initialize_bands();
    pipe.run();
  });
  // All 4 iterations complete even though they ran overlapped, and the
  // TaskWait pseudo-phase (ready-but-unscheduled queue time reported by the
  // runtime's on_queue_wait observer) lands in the per-rank sched bucket.
  EXPECT_EQ(obs.iterations_done(), 4u);
  const auto flight = obs.flight();
  ASSERT_EQ(flight.size(), 4u);
  double sched = 0.0;
  for (const auto& rec : flight) {
    EXPECT_TRUE(rec.complete);
    ASSERT_EQ(rec.ranks.size(), static_cast<std::size_t>(kProc));
    for (const auto& rr : rec.ranks) sched += rr.sched_s;
  }
  EXPECT_GT(sched, 0.0) << "no TaskWait time attributed to any iteration";
}

TEST_F(ObservatoryPipelineTest, StalledRankIsFlaggedAsExchangeStraggler) {
  auto& obs = Observatory::global();
  obs.configure(ObsMode::Watch);
  RunOptions opts = quiet_options();
  // Rank 2's 4th Alltoallv -- the unpack exchange of the first iteration,
  // on the pack communicator pairing world ranks {2, 3} -- sleeps 80 ms
  // inside the timed exchange window: orders of magnitude above this
  // workload's per-iteration time.
  opts.faults.stall_rank = 2;
  opts.faults.stall_op = 3;
  opts.faults.stall_ms = 80.0;
  opts.faults.only_kind = static_cast<int>(CommOpKind::Alltoallv);
  run_pipeline(opts);
  EXPECT_GE(obs.straggler_flags(), 1u);
  // The stalled collective is a rendezvous: the stalled rank's window and
  // its pair peer's wait are the same 80 ms, so the event stream resolves
  // the culprit to the stalled pair {2, 3}, not to one rank -- but the
  // verdict must land on iteration 0 (where the stall fired), name the
  // exchange pseudo-phase (no compute span grew), and carry the injected
  // magnitude.  Later iterations may additionally flag cascade victims
  // (ranks 0/1 waiting on the late pair), so we assert on the stalled
  // iteration's record, not on the most recent flag.
  const auto flight = obs.flight();
  const auto it = std::find_if(flight.begin(), flight.end(),
                               [](const auto& r) { return r.iter == 0; });
  ASSERT_NE(it, flight.end());
  EXPECT_TRUE(it->complete);
  EXPECT_TRUE(it->straggler_rank == 2 || it->straggler_rank == 3)
      << "flagged rank " << it->straggler_rank;
  EXPECT_EQ(it->straggler_phase, fx::trace::kNumPhaseKinds);  // "exchange"
  const auto& pair_ranks = it->ranks;
  ASSERT_EQ(pair_ranks.size(), 4u);
  EXPECT_GT(pair_ranks[2].comm_s + pair_ranks[3].comm_s, 0.100);
}

TEST_F(ObservatoryPipelineTest, SdcVerdictDumpsFlightRecorder) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "fx_obs_pipeline_flight";
  std::filesystem::remove_all(dir);
  setenv("FFTX_TRACE_DIR", dir.string().c_str(), 1);
  auto& obs = Observatory::global();
  obs.configure(ObsMode::Watch);

  RunOptions faulty = quiet_options();
  faulty.faults.flip_rank = 1;
  faulty.faults.flip_op = 5;
  EXPECT_THROW(run_pipeline(faulty, AbftMode::Detect), SdcError);
  unsetenv("FFTX_TRACE_DIR");

  // The SdcError verdict routed through core::emit_incident before the
  // throw: counted, remembered, and flushed as obs_flight_<n>.json.
  EXPECT_GE(obs.incidents(), 1u);
  bool dumped = false;
  ASSERT_TRUE(std::filesystem::is_directory(dir));
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.path().filename().string().starts_with("obs_flight_")) {
      continue;
    }
    dumped = true;
    const auto doc = fx::core::json::load_file(entry.path().string());
    const auto* incidents = doc.find("incidents");
    ASSERT_NE(incidents, nullptr);
    ASSERT_FALSE(incidents->as_array().empty());
    EXPECT_NE(incidents->as_array()[0].as_string().find("abft: sdc verdict"),
              std::string::npos);
    // The dump carries the iterations leading up to the verdict, with
    // per-rank, per-phase attribution -- the incident context.
    const auto* iters = doc.find("iterations");
    ASSERT_NE(iters, nullptr);
    EXPECT_FALSE(iters->as_array().empty());
  }
  EXPECT_TRUE(dumped);
  std::filesystem::remove_all(dir);
}

TEST_F(ObservatoryPipelineTest, StrictModeFailsTheRunOnInjectedStall) {
  auto& obs = Observatory::global();
  obs.configure(ObsMode::Strict);
  RunOptions opts = quiet_options();
  opts.faults.stall_rank = 1;
  opts.faults.stall_op = 3;
  opts.faults.stall_ms = 80.0;
  opts.faults.only_kind = static_cast<int>(CommOpKind::Alltoallv);
  // strict_check runs after the closing barrier on shared counters, so
  // every rank throws the same verdict -- no hang, a clean failure.
  EXPECT_THROW(run_pipeline(opts), fx::core::Error);

  // The same injection under watch only flags.
  obs.configure(ObsMode::Watch);
  EXPECT_NO_THROW(run_pipeline(opts));
  EXPECT_GE(obs.straggler_flags(), 1u);
}

}  // namespace
