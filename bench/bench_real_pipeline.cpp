// Real-backend cross-check: runs the actual distributed pipeline (threads
// as ranks, real FFT arithmetic) on a reduced workload in every mode and
// reports wall-clock.  On a many-core host the mode ordering mirrors the
// model; on small hosts this mainly demonstrates that the full real stack
// (simmpi + tasking + fftx) executes the paper's configurations end to end.
// Results are host-dependent by nature; the KNL figures come from the
// model benches.
#include <algorithm>
#include <memory>

#include "common.hpp"
#include "core/stats.hpp"
#include "core/timer.hpp"
#include "fftx/recovery.hpp"
#include "simmpi/runtime.hpp"
#include "trace/artifacts.hpp"
#include "trace/observatory.hpp"
#include "trace/tracer.hpp"

namespace {

double run_real(int nranks, int ntg, fx::fftx::PipelineMode mode, int threads,
                const fx::mpi::RunOptions& opts = fx::mpi::RunOptions{},
                fx::trace::Tracer* tracer = nullptr, double ecut = 16.0,
                int num_bands = 16, bool fused = false) {
  auto desc = std::make_shared<const fx::fftx::Descriptor>(fx::pw::Cell{10.0},
                                                           ecut, nranks, ntg);
  double runtime = 0.0;
  fx::mpi::Runtime::run(nranks, opts, [&](fx::mpi::Comm& world) {
    fx::fftx::PipelineConfig cfg;
    cfg.num_bands = num_bands;
    cfg.mode = mode;
    cfg.nthreads = threads;
    cfg.fused_exchange = fused;
    cfg.guard_exchanges = false;  // the A/B below measures validator+watchdog
    fx::fftx::BandFftPipeline pipe(world, desc, cfg, tracer);
    pipe.initialize_bands();
    const double t = pipe.run();
    if (world.rank() == 0) runtime = t;
  });
  return runtime;
}

/// End-to-end wall seconds of one hardened run (construction + init + band
/// loop + gathering the replicated band outputs), or of the recovery driver
/// over the same workload when `recover` is set.  Both paths produce the
/// same artifact -- every band's coefficients replicated on every rank (the
/// driver's end-of-run checkpoint IS that gather; the baseline performs the
/// identical exchange by hand, as the tests and examples do) -- so the
/// ratio isolates the driver's repair/batching machinery.
double run_e2e(int nranks, int ntg, fx::fftx::PipelineMode mode, int threads,
               const fx::mpi::RunOptions& opts, bool recover) {
  constexpr int kBands = 16;
  auto desc = std::make_shared<const fx::fftx::Descriptor>(fx::pw::Cell{10.0},
                                                           16.0, nranks, ntg);
  double runtime = 0.0;
  fx::mpi::Runtime::run(nranks, opts, [&](fx::mpi::Comm& world) {
    fx::fftx::PipelineConfig cfg;
    cfg.num_bands = kBands;
    cfg.mode = mode;
    cfg.nthreads = threads;
    cfg.guard_exchanges = false;
    fx::core::WallTimer timer;
    if (recover) {
      fx::fftx::RecoveryConfig rcfg;
      rcfg.enabled = true;
      rcfg.checkpoint_bands = 0;  // one batch; checkpoint at the end
      fx::fftx::RecoveryDriver driver(world, desc, cfg, rcfg);
      std::vector<std::vector<fx::fft::cplx>> out;
      (void)driver.run(out);
    } else {
      fx::fftx::BandFftPipeline pipe(world, desc, cfg);
      pipe.initialize_bands();
      pipe.run();
      // Replicate every band to every rank, exactly like the driver's
      // checkpoint: alltoallv of the packed slices + index-map scatter.
      const auto n = static_cast<std::size_t>(nranks);
      const std::size_t ng_mine = desc->ng_world(world.rank());
      std::vector<std::size_t> scounts(n, ng_mine);
      std::vector<std::size_t> sdispls(n, 0);
      std::vector<std::size_t> rcounts(n);
      std::vector<std::size_t> rdispls(n);
      std::size_t off = 0;
      for (int p = 0; p < nranks; ++p) {
        rcounts[static_cast<std::size_t>(p)] = desc->ng_world(p);
        rdispls[static_cast<std::size_t>(p)] = off;
        off += rcounts[static_cast<std::size_t>(p)];
      }
      std::vector<fx::fft::cplx> gathered(off);
      std::vector<std::vector<fx::fft::cplx>> out(kBands);
      for (int b = 0; b < kBands; ++b) {
        world.alltoallv(pipe.band(b).data(), scounts.data(), sdispls.data(),
                        gathered.data(), rcounts.data(), rdispls.data(),
                        /*tag=*/9001);
        out[static_cast<std::size_t>(b)].resize(desc->sphere().size());
        for (int p = 0; p < nranks; ++p) {
          const auto index = desc->world_g_index(p);
          const fx::fft::cplx* src =
              gathered.data() + rdispls[static_cast<std::size_t>(p)];
          for (std::size_t k = 0; k < index.size(); ++k) {
            out[static_cast<std::size_t>(b)][index[k]] = src[k];
          }
        }
      }
    }
    if (world.rank() == 0) runtime = timer.seconds();
  });
  return runtime;
}

/// 20 %-trimmed mean: the scheduler on an oversubscribed host produces a
/// few wild outliers per batch that a plain mean would chase and that even
/// the median wobbles on; trimming both tails keeps the estimate stable
/// run to run.
double trimmed_mean(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t k = v.size() / 5;
  double sum = 0.0;
  for (std::size_t i = k; i < v.size() - k; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * k);
}

/// A two-variant A/B by the method every overhead table here uses: `reps`
/// pairs whose order alternates rep by rep (a fixed order lets a
/// positional bias -- the first run of a pair landing on a cold scheduler
/// quantum -- pass for overhead), reduced to trimmed means of each side
/// and of the per-pair ratios (the two runs of a pair are adjacent in
/// time, so slow host drift divides out of the ratio).
struct PairedAb {
  double base_s = 0.0;
  double variant_s = 0.0;
  double overhead_pct = 0.0;
};

template <typename Base, typename Variant>
PairedAb paired_ab(int reps, Base&& base, Variant&& variant) {
  std::vector<double> t_base;
  std::vector<double> t_variant;
  std::vector<double> ratio;
  for (int rep = 0; rep < reps; ++rep) {
    double t_b = 0.0;
    double t_v = 0.0;
    for (int k = 0; k < 2; ++k) {
      if ((rep + k) % 2 == 0) {
        t_b = base();
      } else {
        t_v = variant();
      }
    }
    t_base.push_back(t_b);
    t_variant.push_back(t_v);
    ratio.push_back(t_v / t_b);
  }
  return {trimmed_mean(t_base), trimmed_mean(t_variant),
          (trimmed_mean(ratio) - 1.0) * 100.0};
}

/// Hardening A/B: the runtime safety net (collective validator + watchdog +
/// progress board) on vs off, on the same workload.
void bench_hardening_overhead(fxbench::JsonReport& report) {
  using fx::fftx::PipelineMode;

  fx::mpi::RunOptions off;
  off.watchdog.enabled = false;
  off.validate_collectives = false;
  fx::mpi::RunOptions on;  // defaults: validator on, watchdog on (60 s)

  fx::core::TablePrinter t(
      "Hardening overhead (validator + watchdog on vs off, trimmed mean of "
      "33 order-rotated paired reps)");
  t.header({"version", "off [s]", "on [s]", "overhead"});
  fx::core::CsvWriter csv("bench/out/hardening_overhead.csv");
  csv.row({"mode", "variant", "seconds", "overhead_pct"});

  struct Row {
    const char* name;
    int nranks;
    int ntg;
    PipelineMode mode;
    int threads;
  };
  const Row rows[] = {
      {"original 4 x 2", 8, 2, PipelineMode::Original, 1},
      {"task-per-FFT 4 ranks x 2 thr", 4, 1, PipelineMode::TaskPerFft, 2},
  };
  constexpr int kReps = 33;
  for (const Row& row : rows) {
    const PairedAb ab = paired_ab(
        kReps,
        [&] { return run_real(row.nranks, row.ntg, row.mode, row.threads, off); },
        [&] { return run_real(row.nranks, row.ntg, row.mode, row.threads, on); });
    t.row({row.name, fx::core::fixed(ab.base_s, 4),
           fx::core::fixed(ab.variant_s, 4),
           fx::core::cat(fx::core::fixed(ab.overhead_pct, 2), " %")});
    csv.row({to_string(row.mode), "off", fx::core::cat(ab.base_s), "0"});
    csv.row({to_string(row.mode), "on", fx::core::cat(ab.variant_s),
             fx::core::cat(fx::core::fixed(ab.overhead_pct, 2))});
    report.set(fx::core::cat("hardening_overhead.on_pct.", to_string(row.mode)),
               ab.overhead_pct);
  }
  t.print(std::cout);

  // Recovery A/B: the shrink-and-continue driver (single end-of-run
  // checkpoint batch) vs the bare hardened pipeline, fault-free, both timed
  // end to end.  The driver's budget is <= 3 % on this workload.
  fx::core::TablePrinter tr(
      "Recovery overhead (driver vs hardened pipeline, fault-free, trimmed "
      "mean of 33 order-rotated paired reps)");
  tr.header({"version", "hardened [s]", "recovery [s]", "overhead"});
  for (const Row& row : rows) {
    const PairedAb ab = paired_ab(
        kReps,
        [&] {
          return run_e2e(row.nranks, row.ntg, row.mode, row.threads, on,
                         /*recover=*/false);
        },
        [&] {
          return run_e2e(row.nranks, row.ntg, row.mode, row.threads, on,
                         /*recover=*/true);
        });
    tr.row({row.name, fx::core::fixed(ab.base_s, 4),
            fx::core::fixed(ab.variant_s, 4),
            fx::core::cat(fx::core::fixed(ab.overhead_pct, 2), " %")});
    csv.row({to_string(row.mode), "recovery", fx::core::cat(ab.variant_s),
             fx::core::cat(fx::core::fixed(ab.overhead_pct, 2))});
    report.set(
        fx::core::cat("recovery_overhead.driver_pct.", to_string(row.mode)),
        ab.overhead_pct);
  }
  tr.print(std::cout);
}

/// Tracing A/B: the observability layer off vs the mutex collection path vs
/// the sharded ring-buffer path, on the same workload.  The ring design
/// only earns its complexity if "sharded" is at or below "mutex" and within
/// a few percent of "off" (the paper's Extrae traces cost 0.6-2.2 %).
void bench_trace_overhead(fxbench::JsonReport& report) {
  using fx::fftx::PipelineMode;
  using fx::trace::TracerMode;

  fx::mpi::RunOptions quiet;
  quiet.watchdog.enabled = false;
  quiet.validate_collectives = false;

  // Much heavier workload than the mode table: on an oversubscribed (or
  // single-core CI) host, runs under ~50 ms swing several percent from
  // scheduler luck alone; at ~150 ms+ the paired ratios settle well under
  // a percent run to run.
  constexpr double kEcut = 64.0;
  constexpr int kBands = 128;

  fx::core::TablePrinter t(
      "Tracing overhead (off vs mutex vs sharded rings, trimmed mean of 33 "
      "order-rotated paired reps)");
  t.header({"version", "off [s]", "mutex [s]", "sharded [s]", "mutex ovh",
            "sharded ovh"});
  fx::core::CsvWriter csv("bench/out/trace_overhead.csv");
  csv.row({"mode", "variant", "seconds", "overhead_pct"});

  struct Row {
    const char* name;
    int nranks;
    int ntg;
    PipelineMode mode;
    int threads;
  };
  const Row rows[] = {
      {"original 4 x 2", 8, 2, PipelineMode::Original, 1},
      {"task-per-FFT 4 ranks x 2 thr", 4, 1, PipelineMode::TaskPerFft, 2},
  };
  constexpr int kReps = 33;
  for (const Row& row : rows) {
    std::vector<double> t_off;
    std::vector<double> t_mutex;
    std::vector<double> t_ring;
    std::vector<double> ratio_mutex;
    std::vector<double> ratio_ring;
    // Overhead comes from paired per-rep ratios: the three runs of one rep
    // are adjacent in time, so slow drift divides out of the ratio even
    // when it swamps the absolute numbers.  The variant order rotates each
    // rep -- with a fixed order a positional bias (first run of a rep
    // landing on a cold scheduler quantum) masquerades as overhead.  One
    // fresh tracer per rep: events must not accumulate.
    for (int rep = 0; rep < kReps; ++rep) {
      double t_o = 0.0;
      double t_m = 0.0;
      double t_r = 0.0;
      for (int k = 0; k < 3; ++k) {
        const int variant = (rep + k) % 3;
        if (variant == 0) {
          t_o = run_real(row.nranks, row.ntg, row.mode, row.threads, quiet,
                         nullptr, kEcut, kBands);
        } else if (variant == 1) {
          fx::trace::Tracer tracer(row.nranks, TracerMode::Mutex);
          t_m = run_real(row.nranks, row.ntg, row.mode, row.threads, quiet,
                         &tracer, kEcut, kBands);
        } else {
          fx::trace::Tracer tracer(row.nranks, TracerMode::Sharded);
          t_r = run_real(row.nranks, row.ntg, row.mode, row.threads, quiet,
                         &tracer, kEcut, kBands);
        }
      }
      t_off.push_back(t_o);
      t_mutex.push_back(t_m);
      t_ring.push_back(t_r);
      ratio_mutex.push_back(t_m / t_o);
      ratio_ring.push_back(t_r / t_o);
    }
    const double med_off = trimmed_mean(t_off);
    const double med_mutex = trimmed_mean(t_mutex);
    const double med_ring = trimmed_mean(t_ring);
    const double ovh_mutex = (trimmed_mean(ratio_mutex) - 1.0) * 100.0;
    const double ovh_ring = (trimmed_mean(ratio_ring) - 1.0) * 100.0;
    t.row({row.name, fx::core::fixed(med_off, 4), fx::core::fixed(med_mutex, 4),
           fx::core::fixed(med_ring, 4),
           fx::core::cat(fx::core::fixed(ovh_mutex, 2), " %"),
           fx::core::cat(fx::core::fixed(ovh_ring, 2), " %")});
    csv.row({to_string(row.mode), "off", fx::core::cat(med_off), "0"});
    csv.row({to_string(row.mode), "mutex", fx::core::cat(med_mutex),
             fx::core::cat(fx::core::fixed(ovh_mutex, 2))});
    csv.row({to_string(row.mode), "sharded", fx::core::cat(med_ring),
             fx::core::cat(fx::core::fixed(ovh_ring, 2))});
    report.set(
        fx::core::cat("trace_overhead.mutex_pct.", to_string(row.mode)),
        ovh_mutex);
    report.set(
        fx::core::cat("trace_overhead.sharded_pct.", to_string(row.mode)),
        ovh_ring);
  }
  t.print(std::cout);
}

/// Observatory A/B: FFTX_OBS=off vs watch on the same heavy workload, no
/// tracer attached -- spans and the pipeline's comm observer feed the
/// observatory directly, so this prices exactly what an always-on
/// production deployment pays: record_phase per span, record_comm per
/// collective, and the last-rank-out iteration verdicts.  Budget: <= 1 %.
void bench_obs_overhead(fxbench::JsonReport& report) {
  using fx::fftx::PipelineMode;
  using fx::trace::ObsMode;

  fx::mpi::RunOptions quiet;
  quiet.watchdog.enabled = false;
  quiet.validate_collectives = false;

  // Same heavy workload as the trace A/B, for the same reason: the paired
  // ratios only settle under a percent once runs are ~150 ms or longer.
  constexpr double kEcut = 64.0;
  constexpr int kBands = 128;

  fx::core::TablePrinter t(
      "Observatory overhead (FFTX_OBS off vs watch, trimmed mean of 33 "
      "order-rotated paired reps)");
  t.header({"version", "off [s]", "watch [s]", "watch ovh"});
  fx::core::CsvWriter csv("bench/out/obs_overhead.csv");
  csv.row({"mode", "variant", "seconds", "overhead_pct"});

  struct Row {
    const char* name;
    int nranks;
    int ntg;
    PipelineMode mode;
    int threads;
  };
  const Row rows[] = {
      {"original 4 x 2", 8, 2, PipelineMode::Original, 1},
      {"task-per-FFT 4 ranks x 2 thr", 4, 1, PipelineMode::TaskPerFft, 2},
  };
  constexpr int kReps = 33;
  auto& obs = fx::trace::Observatory::global();
  for (const Row& row : rows) {
    // configure() resets the observatory's recorded state, so every watch
    // rep starts with an empty ring and cold statistics -- the steady-state
    // cost is the same (the ring is fixed-size), but the reset keeps rep K
    // from carrying rep K-1's flight recorder.
    auto run_with = [&](ObsMode mode) {
      obs.configure(mode);
      return run_real(row.nranks, row.ntg, row.mode, row.threads, quiet,
                      nullptr, kEcut, kBands);
    };
    const PairedAb ab =
        paired_ab(kReps, [&] { return run_with(ObsMode::Off); },
                  [&] { return run_with(ObsMode::Watch); });
    t.row({row.name, fx::core::fixed(ab.base_s, 4),
           fx::core::fixed(ab.variant_s, 4),
           fx::core::cat(fx::core::fixed(ab.overhead_pct, 2), " %")});
    csv.row({to_string(row.mode), "off", fx::core::cat(ab.base_s), "0"});
    csv.row({to_string(row.mode), "watch", fx::core::cat(ab.variant_s),
             fx::core::cat(fx::core::fixed(ab.overhead_pct, 2))});
    report.set(fx::core::cat("obs_overhead.watch_pct.", to_string(row.mode)),
               ab.overhead_pct);
  }
  // Hand the process back to whatever FFTX_OBS selected.
  obs.configure(fx::trace::default_obs_mode());
  t.print(std::cout);
}

/// ABFT A/B: silent-data-corruption detection off vs detect vs repair on a
/// fault-free run.  Detect adds the checksum-band transforms, energy
/// reductions and at-rest digests inline with the band loop; its budget on
/// the 8-rank ecut-32 workload is <= 3 %.  Repair (fault-free) adds only
/// the deferred-verdict bookkeeping on top of detect, so the pair should
/// be indistinguishable.
void bench_abft_overhead(fxbench::JsonReport& report) {
  using fx::fftx::AbftMode;
  using fx::fftx::PipelineMode;

  // ecut 32: large enough that the per-run time dominates scheduler noise
  // on an oversubscribed host (same reasoning as the trace bench).
  constexpr double kEcut = 32.0;
  constexpr int kBands = 64;
  constexpr int kRanks = 8;
  constexpr int kNtg = 2;
  constexpr int kReps = 15;
  // Simulated link latency for the communication-bound configuration: every
  // communication operation pays this delay on every rank, which is the
  // regime distributed FFTs actually run in (the paper's KNL study is
  // dominated by the transpose exchanges).  The compute-only configuration
  // (zero delay) serializes all ranks' checks onto the bench host's cores
  // and so reports the worst possible ratio.
  constexpr double kLinkDelayUs = 4000.0;

  auto run_abft = [&](AbftMode abft, double delay_us) {
    fx::mpi::RunOptions opts;
    opts.watchdog.enabled = false;
    opts.validate_collectives = false;
    opts.faults.delay_prob = delay_us > 0.0 ? 1.0 : 0.0;
    opts.faults.delay_us = delay_us;
    auto desc = std::make_shared<const fx::fftx::Descriptor>(
        fx::pw::Cell{10.0}, kEcut, kRanks, kNtg);
    double runtime = 0.0;
    fx::mpi::Runtime::run(kRanks, opts, [&](fx::mpi::Comm& world) {
      fx::fftx::PipelineConfig cfg;
      cfg.num_bands = kBands;
      cfg.mode = PipelineMode::Original;
      cfg.guard_exchanges = false;
      cfg.abft = abft;
      fx::fftx::BandFftPipeline pipe(world, desc, cfg);
      pipe.initialize_bands();
      const double t = pipe.run();
      if (world.rank() == 0) runtime = t;
    });
    return runtime;
  };

  fx::core::TablePrinter t(
      "ABFT overhead (off vs detect vs repair, fault-free, trimmed mean of "
      "15 order-rotated paired reps)");
  t.header({"version", "off [s]", "detect [s]", "repair [s]", "detect ovh",
            "repair ovh"});
  fx::core::CsvWriter csv("bench/out/abft_overhead.csv");
  csv.row({"mode", "variant", "seconds", "overhead_pct"});

  struct Case {
    const char* label;
    double delay_us;
    bool to_csv;  ///< the deployment-regime row is the recorded artifact
  };
  const Case cases[] = {
      {"compute-only (serialized)", 0.0, false},
      {"4 ms link latency", kLinkDelayUs, true},
  };
  for (const Case& c : cases) {
    std::vector<double> t_off;
    std::vector<double> t_detect;
    std::vector<double> t_repair;
    std::vector<double> ratio_detect;
    std::vector<double> ratio_repair;
    for (int rep = 0; rep < kReps; ++rep) {
      double t_o = 0.0;
      double t_d = 0.0;
      double t_r = 0.0;
      for (int k = 0; k < 3; ++k) {
        const int variant = (rep + k) % 3;
        if (variant == 0) {
          t_o = run_abft(AbftMode::Off, c.delay_us);
        } else if (variant == 1) {
          t_d = run_abft(AbftMode::Detect, c.delay_us);
        } else {
          t_r = run_abft(AbftMode::Repair, c.delay_us);
        }
      }
      t_off.push_back(t_o);
      t_detect.push_back(t_d);
      t_repair.push_back(t_r);
      ratio_detect.push_back(t_d / t_o);
      ratio_repair.push_back(t_r / t_o);
    }
    const double med_off = trimmed_mean(t_off);
    const double med_detect = trimmed_mean(t_detect);
    const double med_repair = trimmed_mean(t_repair);
    const double ovh_detect = (trimmed_mean(ratio_detect) - 1.0) * 100.0;
    const double ovh_repair = (trimmed_mean(ratio_repair) - 1.0) * 100.0;
    t.row({fx::core::cat("original ", kRanks / kNtg, " x ", kNtg, ", ecut ",
                         fx::core::fixed(kEcut, 0), ", ", c.label),
           fx::core::fixed(med_off, 4), fx::core::fixed(med_detect, 4),
           fx::core::fixed(med_repair, 4),
           fx::core::cat(fx::core::fixed(ovh_detect, 2), " %"),
           fx::core::cat(fx::core::fixed(ovh_repair, 2), " %")});
    if (c.to_csv) {
      csv.row({"original", "off", fx::core::cat(med_off), "0"});
      csv.row({"original", "detect", fx::core::cat(med_detect),
               fx::core::cat(fx::core::fixed(ovh_detect, 2))});
      csv.row({"original", "repair", fx::core::cat(med_repair),
               fx::core::cat(fx::core::fixed(ovh_repair, 2))});
      report.set("abft_overhead.detect_pct.link4ms", ovh_detect);
      report.set("abft_overhead.repair_pct.link4ms", ovh_repair);
    }
  }
  t.print(std::cout);
}

}  // namespace

int main() {
  using fx::fftx::PipelineMode;

  fxbench::JsonReport report("bench_real_pipeline");
  fx::core::TablePrinter t(
      "Real backend (host wall-clock, reduced workload: ecut 16 Ry, alat "
      "10, 16 bands)");
  t.header({"version", "layout", "wall [s]"});
  fx::core::CsvWriter csv("bench/out/real_pipeline.csv");
  csv.row({"mode", "layout", "seconds"});

  struct Row {
    const char* name;
    int nranks;
    int ntg;
    PipelineMode mode;
    int threads;
    bool fused = false;
  };
  const Row rows[] = {
      {"original 4 x 2", 8, 2, PipelineMode::Original, 1},
      {"original 4 x 2, fused", 8, 2, PipelineMode::Original, 1, true},
      {"original 4 x 1", 4, 1, PipelineMode::Original, 1},
      {"task-per-step 4 ranks x 2 thr", 4, 1, PipelineMode::TaskPerStep, 2},
      {"task-per-FFT 4 ranks x 2 thr", 4, 1, PipelineMode::TaskPerFft, 2},
      {"combined 4 ranks x 2 thr", 4, 1, PipelineMode::Combined, 2},
  };
  for (const Row& row : rows) {
    // Median of three runs.
    std::vector<double> times;
    for (int rep = 0; rep < 3; ++rep) {
      times.push_back(run_real(row.nranks, row.ntg, row.mode, row.threads,
                               fx::mpi::RunOptions{}, nullptr, 16.0, 16,
                               row.fused));
    }
    const double med = fx::core::median(times);
    t.row({row.name,
           fx::core::cat(row.nranks, " ranks, ntg ", row.ntg, ", ",
                         row.threads, " thr"),
           fx::core::fixed(med, 4)});
    csv.row({fx::core::cat(to_string(row.mode), row.fused ? "+fused" : ""),
             fx::core::cat(row.nranks), fx::core::cat(med)});
  }
  t.print(std::cout);

  bench_hardening_overhead(report);
  bench_abft_overhead(report);
  bench_trace_overhead(report);
  bench_obs_overhead(report);
  report.write();
  fx::trace::dump_metrics("bench_real_pipeline");
  return 0;
}
