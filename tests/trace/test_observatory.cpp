// Online observatory: span statistics, iteration verdicts, straggler
// detection, the flight-recorder ring, and strict mode -- all driven
// through the public API with hand-fed spans, so every expected number is
// closed-form.
//
// The observatory is a process singleton; each test (re)configures it,
// which resets all recorded state, and the suite leaves it Off.
#include "trace/observatory.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "core/error.hpp"
#include "core/hooks.hpp"
#include "core/json.hpp"
#include "trace/analysis.hpp"
#include "trace/phases.hpp"
#include "trace/tracer.hpp"

namespace {

using fx::trace::kNumPhaseKinds;
using fx::trace::Observatory;
using fx::trace::ObsMode;
using fx::trace::PhaseKind;

/// Runs one fully-reported iteration: every rank begins, records its
/// phase seconds, and reports done (rank order = vector index).
void feed_iteration(Observatory& obs, int iter,
                    const std::vector<std::vector<std::pair<PhaseKind,
                                                            double>>>& ranks,
                    const std::vector<double>& comm_s = {}) {
  const int n = static_cast<int>(ranks.size());
  for (int r = 0; r < n; ++r) obs.iteration_begin(r, iter);
  for (int r = 0; r < n; ++r) {
    for (const auto& [phase, seconds] : ranks[static_cast<std::size_t>(r)]) {
      obs.record_phase(r, phase, iter, seconds);
    }
    if (static_cast<std::size_t>(r) < comm_s.size()) {
      obs.record_comm(r, iter, comm_s[static_cast<std::size_t>(r)]);
    }
  }
  for (int r = 0; r < n; ++r) obs.iteration_done(r, iter);
}

class ObservatoryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs().configure(ObsMode::Watch);
  }
  void TearDown() override {
    obs().configure(ObsMode::Off);
  }
  static Observatory& obs() { return Observatory::global(); }
};

TEST(ObsMode, EnvParsing) {
  setenv("FFTX_OBS", "watch", 1);
  EXPECT_EQ(fx::trace::default_obs_mode(), ObsMode::Watch);
  setenv("FFTX_OBS", "strict", 1);
  EXPECT_EQ(fx::trace::default_obs_mode(), ObsMode::Strict);
  setenv("FFTX_OBS", "off", 1);
  EXPECT_EQ(fx::trace::default_obs_mode(), ObsMode::Off);
  // Typos fail loudly instead of silently disabling observability.
  setenv("FFTX_OBS", "nonsense", 1);
  EXPECT_THROW(fx::trace::default_obs_mode(), fx::core::Error);
  unsetenv("FFTX_OBS");
  EXPECT_EQ(fx::trace::default_obs_mode(), ObsMode::Off);

  EXPECT_STREQ(fx::trace::to_string(ObsMode::Watch), "watch");
  EXPECT_STREQ(fx::trace::to_string(ObsMode::Strict), "strict");
  EXPECT_STREQ(fx::trace::to_string(ObsMode::Off), "off");
}

TEST_F(ObservatoryTest, OffModeRecordsNothing) {
  obs().configure(ObsMode::Off);
  EXPECT_EQ(fx::trace::obs_active(), nullptr);
  obs().begin_run(2, 1);
  obs().record_phase(0, PhaseKind::FftZ, 0, 0.001);
  obs().iteration_begin(0, 0);
  obs().iteration_done(0, 0);
  obs().end_run();
  EXPECT_EQ(obs().phase_records(), 0u);
  EXPECT_EQ(obs().iterations_done(), 0u);
}

TEST_F(ObservatoryTest, WatchModeIsActiveAndCounts) {
  EXPECT_EQ(fx::trace::obs_active(), &obs());
  obs().begin_run(1, 1);
  for (int i = 0; i < 20; ++i) {
    obs().record_phase(0, PhaseKind::FftZ, 0, 0.010);
  }
  obs().record_phase(0, PhaseKind::FftXy, 0, 0.600);
  obs().record_phase(0, PhaseKind::Abft, 0, 0.500);
  obs().end_run();
  EXPECT_EQ(obs().phase_records(), 22u);
  // The attribution table carries each phase row with its span count and
  // its share of summed compute span time; ABFT is not compute.
  const std::string report = obs().attribution_report();
  auto row = [&](PhaseKind phase) {
    const auto at =
        report.find("\n" + std::string(fx::trace::to_string(phase)) + " ");
    if (at == std::string::npos) return std::string();
    return report.substr(at + 1, report.find('\n', at + 1) - at - 1);
  };
  EXPECT_NE(row(PhaseKind::FftZ).find("20"), std::string::npos);
  EXPECT_NE(row(PhaseKind::FftZ).find("25.00 %"), std::string::npos);
  EXPECT_NE(row(PhaseKind::FftXy).find("75.00 %"), std::string::npos);
  const std::string abft = row(PhaseKind::Abft);
  ASSERT_FALSE(abft.empty());
  EXPECT_EQ(abft.find('%'), std::string::npos) << abft;
}

TEST_F(ObservatoryTest, IterationVerdictComputesPopFactors) {
  // Widen the straggler factor: a 2x gap would legitimately flag under the
  // 1.75x default, and this test isolates the POP factor arithmetic.
  fx::trace::Observatory::Detection wide;
  wide.straggler_factor = 3.0;
  obs().configure_detection(wide);
  obs().begin_run(2, 1);
  // Rank 0 computes 4 ms, rank 1 computes 2 ms: LB = avg/max = 3/4.
  feed_iteration(obs(), 0,
                 {{{PhaseKind::FftZ, 0.004}}, {{PhaseKind::FftZ, 0.002}}});
  obs().end_run();
  ASSERT_EQ(obs().iterations_done(), 1u);
  const auto flight = obs().flight();
  ASSERT_EQ(flight.size(), 1u);
  EXPECT_TRUE(flight[0].complete);
  EXPECT_EQ(flight[0].iter, 0);
  EXPECT_DOUBLE_EQ(flight[0].load_balance, 0.75);
  EXPECT_LE(flight[0].comm_efficiency, 1.0);
  EXPECT_EQ(flight[0].straggler_rank, -1);  // 2x < widened 3x factor
}

TEST_F(ObservatoryTest, PopFactorsMatchTraceAnalysis) {
  // One formula: the same per-rank compute spans of one iteration, fed to
  // the observatory and to a Tracer, give the same POP factors.  Rank 1's
  // ABFT span is overhead on both sides.
  const std::vector<std::vector<std::pair<PhaseKind, double>>> spans = {
      {{PhaseKind::FftZ, 0.0007}, {PhaseKind::FftXy, 0.0004}},
      {{PhaseKind::FftZ, 0.0005}, {PhaseKind::Abft, 0.0009}},
      {{PhaseKind::Pack, 0.0002}, {PhaseKind::FftXy, 0.0006}}};
  const int n = static_cast<int>(spans.size());
  obs().begin_run(n, 1);
  for (int r = 0; r < n; ++r) obs().iteration_begin(r, 0);
  // The iteration's wall time must exceed every rank's compute, so that
  // comm efficiency is a real ratio and not the cap at 1.
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  for (int r = 0; r < n; ++r) {
    for (const auto& [phase, seconds] : spans[static_cast<std::size_t>(r)]) {
      obs().record_phase(r, phase, 0, seconds);
    }
  }
  for (int r = 0; r < n; ++r) obs().iteration_done(r, 0);
  obs().end_run();
  const auto flight = obs().flight();
  ASSERT_EQ(flight.size(), 1u);
  const auto& rec = flight[0];

  // Every span starts at t = 0, so each duration is exactly the seconds
  // the observatory summed; a task-wait span (not compute) stretches the
  // trace to the iteration's wall time.
  fx::trace::Tracer tr(n);
  for (int r = 0; r < n; ++r) {
    for (const auto& [phase, seconds] : spans[static_cast<std::size_t>(r)]) {
      tr.record_compute(
          fx::trace::ComputeEvent{r, 0, phase, 0, 0.0, seconds, 0.0});
    }
  }
  tr.record_compute(fx::trace::ComputeEvent{
      0, 0, PhaseKind::TaskWait, 0, 0.0, rec.t_end - rec.t_begin, 0.0});
  const auto s = fx::trace::analyze_efficiency(tr, 1.0);

  EXPECT_LT(rec.load_balance, 1.0);
  EXPECT_LT(rec.comm_efficiency, 1.0);
  EXPECT_DOUBLE_EQ(s.load_balance, rec.load_balance);
  EXPECT_DOUBLE_EQ(s.comm_efficiency, rec.comm_efficiency);
}

TEST_F(ObservatoryTest, AbftSecondsAreOverheadNotCompute) {
  obs().begin_run(2, 1);
  // Identical useful compute; rank 1 additionally runs ABFT checks.  Were
  // ABFT counted as compute, LB would drop to 0.75; it must stay 1.0.
  feed_iteration(obs(), 0,
                 {{{PhaseKind::FftZ, 0.004}},
                  {{PhaseKind::FftZ, 0.004}, {PhaseKind::Abft, 0.004}}});
  obs().end_run();
  const auto flight = obs().flight();
  ASSERT_EQ(flight.size(), 1u);
  EXPECT_DOUBLE_EQ(flight[0].load_balance, 1.0);
  EXPECT_DOUBLE_EQ(flight[0].ranks[1].abft_s, 0.004);
  EXPECT_DOUBLE_EQ(flight[0].ranks[1].compute_s, 0.004);
}

TEST_F(ObservatoryTest, StragglerFlagNamesRankAndPhase) {
  obs().begin_run(3, 1);
  // Rank 2 spends 50 ms in FFT-XY against a 1 ms peer median: 50x > 1.75x
  // and 49 ms > the 0.2 ms absolute floor.
  feed_iteration(obs(), 0,
                 {{{PhaseKind::FftXy, 0.001}},
                  {{PhaseKind::FftXy, 0.001}},
                  {{PhaseKind::FftXy, 0.050}}});
  obs().end_run();
  EXPECT_EQ(obs().straggler_flags(), 1u);
  const auto flag = obs().last_straggler();
  ASSERT_TRUE(flag.has_value());
  EXPECT_EQ(flag->iter, 0);
  EXPECT_EQ(flag->rank, 2);
  EXPECT_EQ(flag->phase, static_cast<int>(PhaseKind::FftXy));
  EXPECT_NEAR(flag->excess_s, 0.049, 1e-12);
}

TEST_F(ObservatoryTest, CollectiveStallAttributedToExchange) {
  obs().begin_run(3, 1);
  // Equal compute everywhere; rank 1 blocks 50 ms inside the exchange.
  feed_iteration(obs(), 0,
                 {{{PhaseKind::FftZ, 0.001}},
                  {{PhaseKind::FftZ, 0.001}},
                  {{PhaseKind::FftZ, 0.001}}},
                 {0.001, 0.050, 0.001});
  obs().end_run();
  const auto flag = obs().last_straggler();
  ASSERT_TRUE(flag.has_value());
  EXPECT_EQ(flag->rank, 1);
  EXPECT_EQ(flag->phase, kNumPhaseKinds);  // the "exchange" pseudo-phase
}

TEST_F(ObservatoryTest, BelowThresholdNeverFlags) {
  obs().begin_run(2, 1);
  // 1.5x the peer: below the 1.75x default factor.
  feed_iteration(obs(), 0,
                 {{{PhaseKind::FftZ, 0.010}}, {{PhaseKind::FftZ, 0.015}}});
  // Huge ratio but sub-floor absolute excess (50 us < 200 us).
  feed_iteration(obs(), 1,
                 {{{PhaseKind::FftZ, 0.00001}}, {{PhaseKind::FftZ, 0.00006}}});
  obs().end_run();
  EXPECT_EQ(obs().straggler_flags(), 0u);
  EXPECT_FALSE(obs().last_straggler().has_value());
}

TEST_F(ObservatoryTest, RingEvictsOldestIterations) {
  obs().configure(ObsMode::Watch, /*ring_capacity=*/4);
  obs().begin_run(1, 1);
  for (int i = 0; i < 6; ++i) {
    feed_iteration(obs(), i, {{{PhaseKind::FftZ, 0.001}}});
  }
  obs().end_run();
  EXPECT_EQ(obs().iterations_done(), 6u);
  const auto flight = obs().flight();
  ASSERT_EQ(flight.size(), 4u);  // iterations 2..5; 0 and 1 aged out
  EXPECT_EQ(flight.front().iter, 2);
  EXPECT_EQ(flight.back().iter, 5);
}

TEST_F(ObservatoryTest, TaskGroupIterationsShareASlot) {
  // With ntg = 2, iterations advance by 2 bands; slot_for divides by ntg
  // so consecutive iterations do not collide in the ring.
  obs().configure(ObsMode::Watch, /*ring_capacity=*/4);
  obs().begin_run(1, 2);
  for (int i = 0; i < 8; i += 2) {
    feed_iteration(obs(), i, {{{PhaseKind::FftZ, 0.001}}});
  }
  obs().end_run();
  const auto flight = obs().flight();
  ASSERT_EQ(flight.size(), 4u);
  EXPECT_EQ(flight.front().iter, 0);
  EXPECT_EQ(flight.back().iter, 6);
}

TEST_F(ObservatoryTest, FlightJsonRoundTripsThroughParser) {
  obs().begin_run(2, 1);
  feed_iteration(obs(), 0,
                 {{{PhaseKind::FftZ, 0.004}}, {{PhaseKind::FftZ, 0.002}}},
                 {0.001, 0.001});
  obs().end_run();
  const auto doc = fx::core::json::parse(obs().flight_json().dump());
  EXPECT_EQ(doc.number_at("nranks"), 2.0);
  const auto* iters = doc.find("iterations");
  ASSERT_NE(iters, nullptr);
  ASSERT_EQ(iters->as_array().size(), 1u);
  const auto& it = iters->as_array()[0];
  EXPECT_EQ(it.number_at("iter"), 0.0);
  EXPECT_EQ(it.number_at("load_balance"), 0.75);
  const auto* ranks = it.find("ranks");
  ASSERT_NE(ranks, nullptr);
  ASSERT_EQ(ranks->as_array().size(), 2u);
  EXPECT_EQ(ranks->as_array()[0].number_at("exchange_ms"), 1.0);
}

TEST_F(ObservatoryTest, IncidentHookDumpsFlightToTraceDir) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "fx_obs_incident_test";
  std::filesystem::remove_all(dir);
  setenv("FFTX_TRACE_DIR", dir.string().c_str(), 1);

  obs().begin_run(1, 1);
  feed_iteration(obs(), 0, {{{PhaseKind::FftZ, 0.001}}});
  // Incidents route through the core hook -- the same path SdcError,
  // recovery shrink, guard retries and watchdog near-misses use.
  fx::core::emit_incident("test: injected incident");
  obs().end_run();
  unsetenv("FFTX_TRACE_DIR");

  EXPECT_EQ(obs().incidents(), 1u);
  bool found = false;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().starts_with("obs_flight_")) {
      found = true;
      const auto doc = fx::core::json::load_file(entry.path().string());
      const auto* incidents = doc.find("incidents");
      ASSERT_NE(incidents, nullptr);
      ASSERT_EQ(incidents->as_array().size(), 1u);
      EXPECT_EQ(incidents->as_array()[0].as_string(),
                "test: injected incident");
    }
  }
  EXPECT_TRUE(found);
  std::filesystem::remove_all(dir);
}

TEST_F(ObservatoryTest, StrictModeThrowsOnAccumulatedFlags) {
  obs().configure(ObsMode::Strict);
  obs().begin_run(3, 1);
  EXPECT_NO_THROW(obs().strict_check());  // clean so far
  feed_iteration(obs(), 0,
                 {{{PhaseKind::FftXy, 0.001}},
                  {{PhaseKind::FftXy, 0.001}},
                  {{PhaseKind::FftXy, 0.050}}});
  EXPECT_THROW(obs().strict_check(), fx::core::Error);
  obs().end_run();

  // A new run rebases the strict counter: old flags do not re-throw.
  obs().begin_run(3, 1);
  EXPECT_NO_THROW(obs().strict_check());
  obs().end_run();
}

TEST_F(ObservatoryTest, WatchModeNeverThrows) {
  obs().begin_run(3, 1);
  feed_iteration(obs(), 0,
                 {{{PhaseKind::FftXy, 0.001}},
                  {{PhaseKind::FftXy, 0.001}},
                  {{PhaseKind::FftXy, 0.050}}});
  obs().end_run();
  EXPECT_GE(obs().straggler_flags(), 1u);
  EXPECT_NO_THROW(obs().strict_check());
}

TEST_F(ObservatoryTest, DetectionThresholdsAreConfigurable) {
  obs().begin_run(2, 1);
  Observatory::Detection det;
  det.straggler_factor = 1.2;  // tighter than the 1.5x gap below
  det.straggler_floor_s = 1e-6;
  obs().configure_detection(det);
  feed_iteration(obs(), 0,
                 {{{PhaseKind::FftZ, 0.010}}, {{PhaseKind::FftZ, 0.015}}});
  obs().end_run();
  EXPECT_EQ(obs().straggler_flags(), 1u);
}

}  // namespace
