// Shrink-and-continue recovery, end to end: a multi-band run survives an
// injected rank kill plus a burst of persistent payload corruption, shrinks
// to the surviving ranks, replays the in-flight work, and still produces
// the exact fault-free coefficients.
//
// Scenario: P ranks process NB bands in checkpointed batches.  Mid-run the
// fault injector kills one rank and corrupts several consecutive transpose
// payloads on another (outlasting the checksum guard's retry budget, so the
// guard gives up collectively and the world repairs in place).  The demo
// prints each rank's recovery report and verifies every band against the
// serial oracle.
//
// Usage: recovery_demo [nranks] [bands] [mode]
//   (defaults: 4 ranks, 8 bands, mode original; modes take the miniapp's
//   names original|step|fft|combined|stream.  The task schedules run on 2
//   workers; "stream" keeps FFTX_STREAM_BANDS bands in flight, so the kill
//   lands while several bands are mid-pipeline and replay must drain them.)
// Exits nonzero unless the recovered output matches the oracle and exactly
// as many ranks report "killed" as the fault injector fired kills.
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/format.hpp"
#include "core/metrics.hpp"
#include "core/table.hpp"
#include "fftx/pipeline.hpp"
#include "fftx/recovery.hpp"
#include "fftx/reference.hpp"
#include "simmpi/runtime.hpp"
#include "trace/artifacts.hpp"

int main(int argc, char** argv) {
  using fx::fft::cplx;

  const int nranks = argc > 1 ? std::atoi(argv[1]) : 4;
  const int bands = argc > 2 ? std::atoi(argv[2]) : 8;
  const std::string mode_arg = argc > 3 ? argv[3] : "original";
  fx::fftx::PipelineMode mode = fx::fftx::PipelineMode::Original;
  if (mode_arg == "step") {
    mode = fx::fftx::PipelineMode::TaskPerStep;
  } else if (mode_arg == "fft") {
    mode = fx::fftx::PipelineMode::TaskPerFft;
  } else if (mode_arg == "combined") {
    mode = fx::fftx::PipelineMode::Combined;
  } else if (mode_arg == "stream") {
    mode = fx::fftx::PipelineMode::Streaming;
  } else if (mode_arg != "original") {
    std::cerr << "unknown mode " << mode_arg
              << " (original|step|fft|combined|stream)\n";
    return 2;
  }
  const int ntg = nranks % 2 == 0 ? 2 : 1;

  // FFTX_FAULT_* in the environment overrides the built-in scenario (the CI
  // recovery matrix drives kill placement and rank counts this way).
  fx::mpi::RunOptions opts = fx::mpi::RunOptions::from_env();
  opts.watchdog.window_ms = 60000.0;
  if (opts.faults.any()) {
    std::cout << "recovery demo: " << nranks << " ranks (ntg " << ntg << "), "
              << bands << " bands, " << mode_arg
              << " pipeline, faults from FFTX_FAULT_* environment\n\n";
  } else {
    std::cout << "recovery demo: " << nranks << " ranks (ntg " << ntg << "), "
              << bands << " bands, " << mode_arg
              << " pipeline, checkpoint every 2 bands\n";
    std::cout << "injected: kill rank 1 mid-run + 6 corrupted transpose "
                 "payloads on rank 0\n\n";
    opts.faults.corrupt_rank = 0;
    opts.faults.corrupt_op = 2;
    opts.faults.corrupt_count = 6;
    opts.faults.only_kind = static_cast<int>(fx::mpi::CommOpKind::Alltoallv);
    opts.faults.kill_rank = 1;
    opts.faults.kill_op = 15;
  }

  const auto desc = std::make_shared<const fx::fftx::Descriptor>(
      fx::pw::Cell{8.0}, 8.0, nranks, ntg);

  fx::fftx::RecoveryConfig rcfg = fx::fftx::RecoveryConfig::from_env();
  rcfg.enabled = true;
  if (rcfg.checkpoint_bands == 0) rcfg.checkpoint_bands = 2;
  if (rcfg.retry.max_attempts < 6) rcfg.retry.max_attempts = 6;
  rcfg.retry.base_delay_ms = 0.1;

  fx::core::TablePrinter t("per-rank recovery reports");
  t.header({"rank", "outcome", "shrinks", "replayed bands",
            "repaired bands", "final world"});

  // Dumps metrics (and any flight-recorder state) even when recovery gives
  // up and the run below unwinds on CommError/FaultError.
  fx::trace::ArtifactScope artifacts(nullptr, "recovery_demo");

  fx::core::Counter& kills =
      fx::core::MetricsRegistry::global().counter("simmpi.faults.kills");
  const auto kills_before = kills.value();
  std::vector<std::vector<cplx>> result;
  int killed = 0;
  std::mutex mu;
  fx::mpi::Runtime::run(nranks, opts, [&](fx::mpi::Comm& world) {
    fx::fftx::PipelineConfig cfg;
    cfg.num_bands = bands;
    cfg.mode = mode;
    cfg.guard_exchanges = true;
    if (mode == fx::fftx::PipelineMode::Streaming) {
      // The guarded (blocking) exchanges cap the in-flight depth at the
      // worker count, so give the ring enough workers to keep several
      // bands mid-pipeline when the kill fires.
      cfg.nthreads = std::max(2, cfg.stream_bands);
    } else if (mode != fx::fftx::PipelineMode::Original) {
      cfg.nthreads = 2;
    }
    fx::fftx::RecoveryDriver driver(world, desc, cfg, rcfg);
    std::vector<std::vector<cplx>> mine;
    const auto rep = driver.run(mine);
    std::lock_guard lock(mu);
    if (rep.died) ++killed;
    t.row({fx::core::cat(world.rank()), rep.died ? "killed" : "completed",
           fx::core::cat(rep.shrinks), fx::core::cat(rep.replayed_bands),
           fx::core::cat(rep.repaired_bands),
           rep.died ? "-"
                    : fx::core::cat(rep.final_nproc, " ranks, ntg ",
                                    rep.final_ntg)});
    if (!rep.died && result.empty()) result = std::move(mine);
  });
  t.print(std::cout);

  if (result.empty()) {
    std::cout << "no surviving rank completed -- recovery failed\n";
    return 1;
  }
  // A killed rank must die, not finish as a survivor: the schedule has to
  // hand the recovery driver the original fault, whichever task it hit.
  const auto fired = kills.value() - kills_before;
  std::cout << "\n" << killed << " rank(s) reported killed, " << fired
            << " kill(s) injected\n";
  if (static_cast<std::uint64_t>(killed) != fired) {
    std::cout << "MISMATCH: killed ranks do not match injected kills\n";
    return 1;
  }
  // The oracle follows the configured pipeline mode: packed-pair reference
  // when FFTX_R2C carries real bands.  Recovered output is bit-exact at
  // every wire format (per-band arithmetic, including wire quantization,
  // is decomposition-independent); the relative tolerance below only
  // covers the quantizer-level gap between the narrow-wire pipeline and
  // the fp64 serial oracle.
  const bool real = fx::fftx::default_real_bands();
  const auto wire = fx::mpi::default_wire_format();
  const int carried = static_cast<int>(result.size());
  double err = 0.0;
  double peak = 0.0;
  for (int n = 0; n < carried; ++n) {
    const auto want =
        real ? fx::fftx::reference_packed_band_output(*desc, n, bands, true)
             : fx::fftx::reference_band_output(*desc, n, true);
    const auto& got = result[static_cast<std::size_t>(n)];
    for (std::size_t k = 0; k < want.size(); ++k) {
      err = std::max(err, std::abs(got[k] - want[k]));
      peak = std::max(peak, std::abs(want[k]));
    }
  }
  const bool relative = wire != fx::mpi::WireFormat::Fp64;
  if (relative) err /= std::max(peak, 1e-300);
  const double tol = wire == fx::mpi::WireFormat::Fp64   ? 1e-12
                     : wire == fx::mpi::WireFormat::Fp32 ? 1e-4
                                                         : 5e-2;
  std::cout << "\n" << (relative ? "relative" : "max") << " error vs serial "
            << (real ? "packed-pair" : "band") << " oracle over all "
            << carried << " carried bands: " << err << '\n';
  std::cout << (err < tol ? "recovered output matches the fault-free "
                            "result\n"
                          : "MISMATCH (bug!)\n");
  return err < tol ? 0 : 1;
}
