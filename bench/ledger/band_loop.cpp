// Band-loop workloads: cold set-up, the timed end-to-end pass, and the
// traced per-layer pass over the pipeline's own event streams.
#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "core/timer.hpp"
#include "fftx/descriptor.hpp"
#include "fftx/reference.hpp"
#include "ledger.hpp"
#include "simmpi/runtime.hpp"
#include "trace/analysis.hpp"
#include "trace/chrome_export.hpp"
#include "trace/tracer.hpp"

namespace ledger {
namespace {

using fx::core::WallTimer;
using fx::fft::cplx;
using fx::fftx::BandFftPipeline;
using fx::fftx::Descriptor;
using fx::mpi::Comm;
using fx::mpi::Runtime;
using fx::trace::PhaseKind;

constexpr int kCheckedBands = 4;
/// World-comm tag of the ledger's run-control broadcast (the pipeline's
/// own world collectives use 9001-9201).
constexpr int kControlTag = 7101;
constexpr int kProbeTag = 7102;
/// Traced (and as many untraced) runs of the per-layer pass.
constexpr int kTracedRuns = 8;

/// What the seed decides: the generator offset of band 0 and which carried
/// bands (packed pairs under real_bands) are checked.
struct CheckPlan {
  int first_band = 0;
  std::vector<int> carried;
};

int carried_count(const Preset& p) {
  return p.real_bands ? (p.num_bands + 1) / 2 : p.num_bands;
}

CheckPlan make_plan(const Preset& p, std::uint64_t seed) {
  fx::core::Rng rng(seed ^ 0x1ed6e7ULL);
  CheckPlan c;
  // Even, so the pipeline's (first_band + 2p, first_band + 2p + 1) pairs
  // coincide with the oracle's (2 * pair, 2 * pair + 1).
  c.first_band = 2 * static_cast<int>(rng.next_below(512));
  const int n = carried_count(p);
  while (static_cast<int>(c.carried.size()) < std::min(kCheckedBands, n)) {
    const int b = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    if (std::find(c.carried.begin(), c.carried.end(), b) == c.carried.end()) {
      c.carried.push_back(b);
    }
  }
  std::sort(c.carried.begin(), c.carried.end());
  return c;
}

std::shared_ptr<const Descriptor> make_descriptor(const Preset& p) {
  return std::make_shared<const Descriptor>(fx::pw::Cell{p.alat_bohr},
                                            p.ecut_ry, p.nranks, p.ntg);
}

using Bands = std::vector<std::vector<cplx>>;

Bands empty_bands(const Descriptor& d, const CheckPlan& c) {
  return Bands(c.carried.size(), std::vector<cplx>(d.sphere().size()));
}

/// Serial-oracle outputs of the checked bands, and the oracle's median
/// wall seconds per band (a packed pair carries two bands).
std::pair<Bands, double> oracle(const Descriptor& d, const Preset& p,
                                const CheckPlan& c) {
  Bands want;
  std::vector<double> t;
  for (int n : c.carried) {
    const WallTimer timer;
    want.push_back(p.real_bands
                       ? fx::fftx::reference_packed_band_output(
                             d, c.first_band / 2 + n,
                             c.first_band + p.num_bands, true)
                       : fx::fftx::reference_band_output(
                             d, c.first_band + n, true));
    t.push_back(timer.seconds());
  }
  return {std::move(want), quantile(t, 0.5) / (p.real_bands ? 2.0 : 1.0)};
}

/// Copies this rank's slice of every checked band into global stick order
/// (ranks write disjoint positions).
void gather(const BandFftPipeline& pipe, const CheckPlan& c, Bands& out) {
  const auto index = pipe.descriptor().world_g_index(pipe.rank());
  for (std::size_t j = 0; j < c.carried.size(); ++j) {
    const auto mine = pipe.band(c.carried[j]);
    for (std::size_t k = 0; k < index.size(); ++k) out[j][index[k]] = mine[k];
  }
}

/// Checks gathered bands against the oracle; returns the max relative
/// error.  --self-test corrupts one coefficient of the ledger's copy first.
double check(Bands& got, const Bands& want, bool corrupt) {
  if (corrupt && !got.empty() && !got[0].empty()) {
    got[0][got[0].size() / 2] += cplx{1e-6, 0.0};
  }
  double err = 0.0;
  for (std::size_t j = 0; j < got.size(); ++j) {
    err = std::max(err, rel_error(got[j], want[j]));
  }
  return err;
}

Value checks_json(const CheckPlan& c, double err) {
  fx::core::json::Array carried;
  for (int n : c.carried) carried.push_back(n);
  return fx::core::json::Object{{"first_band", c.first_band},
                                {"carried_bands", std::move(carried)},
                                {"max_rel_err", err},
                                {"tolerance", wire_tolerance(fx::mpi::WireFormat::Fp64)}};
}

double union_length(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  double lo = 0.0;
  double hi = -INFINITY;
  for (const auto& [b, e] : iv) {
    if (b > hi) {
      if (hi > lo) total += hi - lo;
      lo = b;
      hi = e;
    } else {
      hi = std::max(hi, e);
    }
  }
  if (hi > lo) total += hi - lo;
  return total;
}

/// Per-run numbers read back from one traced run's event streams.
struct TracedRun {
  std::array<double, fx::trace::kNumPhaseKinds> stage_s{};
  double exchange_s = 0.0;
  double exchange_bytes = 0.0;
  double unattributed_frac = 0.0;
  double task_idle_frac = 0.0;
  fx::trace::EfficiencySummary pop;
};

/// Events of `all` inside [lo, hi], copied into `one` and summarized.
TracedRun analyze_run(const fx::trace::Tracer& all, double lo, double hi,
                      const Preset& p, fx::trace::Tracer& one) {
  auto inside = [&](double b, double e) { return b >= lo && e <= hi; };
  TracedRun r;
  std::vector<std::vector<std::pair<double, double>>> busy(
      static_cast<std::size_t>(p.nranks));
  for (const auto& e : all.compute_events()) {
    if (!inside(e.t_begin, e.t_end)) continue;
    one.record_compute(e);
    r.stage_s[static_cast<std::size_t>(e.phase)] += e.t_end - e.t_begin;
    busy[static_cast<std::size_t>(e.rank)].emplace_back(e.t_begin, e.t_end);
  }
  for (const auto& e : all.comm_events()) {
    if (!inside(e.t_begin, e.t_end)) continue;
    one.record_comm(e);
    r.exchange_s += e.t_end - e.t_begin;
    r.exchange_bytes += static_cast<double>(e.bytes);
    busy[static_cast<std::size_t>(e.rank)].emplace_back(e.t_begin, e.t_end);
  }
  std::vector<std::vector<std::pair<double, double>>> tasks(
      static_cast<std::size_t>(p.nranks * p.nthreads));
  for (const auto& e : all.task_events()) {
    if (!inside(e.t_begin, e.t_end)) continue;
    one.record_task(e);
    if (e.worker >= 0 && e.worker < p.nthreads) {
      tasks[static_cast<std::size_t>(e.rank * p.nthreads + e.worker)]
          .emplace_back(e.t_begin, e.t_end);
    }
  }
  const double wall = hi - lo;
  double attributed = 0.0;
  for (auto& iv : busy) attributed += union_length(std::move(iv)) / wall;
  r.unattributed_frac = 1.0 - attributed / p.nranks;
  if (p.mode != fx::fftx::PipelineMode::Original) {
    double idle = 0.0;
    for (auto& iv : tasks) idle += 1.0 - union_length(std::move(iv)) / wall;
    r.task_idle_frac = idle / static_cast<double>(tasks.size());
  }
  r.pop = fx::trace::analyze_efficiency(one, 1.4);
  return r;
}

}  // namespace

double band_loop_setup(const Preset& p, const Options& o) {
  const CheckPlan c = make_plan(p, o.seed);
  const double t0 = WallTimer::now();
  const auto desc = make_descriptor(p);
  double t1 = 0.0;
  Runtime::run(p.nranks, [&](Comm& world) {
    BandFftPipeline pipe(world, desc, pipeline_config(p));
    pipe.initialize_bands(c.first_band);
    world.barrier();
    if (world.rank() == 0) t1 = WallTimer::now();
  });
  return t1 - t0;
}

void band_loop_measure(const Preset& p, const Options& o, Report& r,
                       Spans& spans, int parent) {
  const CheckPlan c = make_plan(p, o.seed);
  const auto desc = make_descriptor(p);
  const int warmup = o.smoke ? 1 : 2;
  const int min_runs = 2;
  const double seconds = o.smoke ? 0.0 : o.seconds;  // smoke: 2 timed runs
  Bands first = empty_bands(*desc, c);
  Bands last = empty_bands(*desc, c);
  std::vector<double> run_s;  // raw wall seconds
  std::vector<double> speed;  // probe before run 0, then after each run
  Probe host(busy_threads(p));

  Runtime::run(p.nranks, [&](Comm& world) {
    const bool lead = world.rank() == 0;
    // Every rank probes on its own thread (plus helpers standing in for
    // its task workers), so the probe sees the vCPUs the ranks run on.
    auto probe = [&] {
      const double t = run_slots(host, world.rank() * p.nthreads, p.nthreads);
      double sum = 0.0;
      world.allreduce(&t, &sum, 1, fx::mpi::ReduceOp::Sum, kProbeTag);
      if (lead) speed.push_back(speed_of(sum / host.threads()));
    };
    BandFftPipeline pipe(world, desc, pipeline_config(p));
    pipe.initialize_bands(c.first_band);
    for (int i = 0; i < warmup; ++i) (void)pipe.run();
    probe();
    const double t_start = WallTimer::now();
    for (int i = 0;; ++i) {
      int stop = 0;
      if (lead) {
        stop = i + 1 >= min_runs && WallTimer::now() - t_start >= seconds;
      }
      world.bcast_bytes(&stop, sizeof stop, 0, kControlTag);
      // The checked runs start from the generator's bands; the others run
      // on the previous output.  That costs the same -- the potential lies
      // in [0.5, 1.5], so even 100 runs keep every value far from overflow
      // and denormals -- and skips a re-initialization that takes about as
      // long as a Gamma-point run.
      if (i == 0 || stop != 0) pipe.initialize_bands(c.first_band);
      const int sid = lead ? spans.begin("ledger.run", parent, i) : -1;
      const double t = pipe.run();
      if (lead) {
        spans.end(sid);
        run_s.push_back(t);
      }
      if (i == 0) gather(pipe, c, first);
      if (stop != 0) gather(pipe, c, last);
      probe();
      if (stop != 0) break;
    }
  });

  double err = 0.0;
  {
    const Span s(spans, "ledger.check", parent);
    const Bands want = oracle(*desc, p, c).first;
    const double tol = wire_tolerance(fx::mpi::WireFormat::Fp64);
    const double e_first = check(first, want, false);
    const double e_last = check(last, want, o.self_test);
    err = std::max(e_first, e_last);
    for (std::size_t i = 0; i < run_s.size(); ++i) {
      const bool checked_first = i == 0;
      const bool checked_last = i + 1 == run_s.size();
      r.attempt(!(checked_first && e_first > tol) &&
                !(checked_last && e_last > tol));
    }
  }
  r.config("checks", checks_json(c, err));
  fx::core::json::Array raw_json;
  fx::core::json::Array speed_json;
  for (double t : run_s) raw_json.push_back(t);
  for (double s : speed) speed_json.push_back(s);
  r.config("samples", fx::core::json::Object{{"run_s", std::move(raw_json)},
                                             {"speed", std::move(speed_json)}});

  std::vector<double> run_ms;
  std::vector<double> raw_ms;
  for (std::size_t i = 0; i < run_s.size(); ++i) {
    const Interval run{run_s[i], speed[i], speed[i + 1]};
    run_ms.push_back(1e3 * run.normalized_s());
    raw_ms.push_back(1e3 * run.raw_s);
  }
  report_end_to_end(r, 1e3 * p.num_bands / quantile(run_ms, 0.5),
                    1e3 * p.num_bands / quantile(raw_ms, 0.5), run_ms, raw_ms,
                    speed);
}

void pipeline_layers(const Preset& p, const Options& o, Report& r,
                     Spans& spans, int parent) {
  const Span layer(spans, "ledger.layer.fftx", parent);
  const CheckPlan c = make_plan(p, o.seed);
  const auto desc = make_descriptor(p);
  const int runs = o.smoke ? 2 : kTracedRuns;
  const int warmup = o.smoke ? 1 : 2;
  const auto nr = static_cast<std::size_t>(p.nranks);

  fx::trace::Tracer tracer(p.nranks);
  std::vector<double> plain_s;
  std::vector<double> traced_s;
  // [run][rank] wall stamps around each traced run().
  std::vector<std::vector<std::pair<double, double>>> stamps(
      static_cast<std::size_t>(runs), std::vector<std::pair<double, double>>(nr));
  double ctor_s = 0.0;
  double init_s = 0.0;
  Bands got = empty_bands(*desc, c);

  Runtime::run(p.nranks, [&](Comm& world) {
    const bool lead = world.rank() == 0;
    world.barrier();
    const double t0 = WallTimer::now();
    BandFftPipeline plain(world, desc, pipeline_config(p));
    const double t1 = WallTimer::now();
    plain.initialize_bands(c.first_band);
    if (lead) {
      ctor_s = t1 - t0;
      init_s = WallTimer::now() - t1;
    }
    // The traced pipeline gets a communicator of its own: the observer it
    // installs must not see the untraced pipeline's collectives.
    const Comm tw = world.split(0, world.rank());
    BandFftPipeline traced(tw, desc, pipeline_config(p), &tracer);
    traced.initialize_bands(c.first_band);
    for (int i = 0; i < warmup; ++i) {
      (void)plain.run();
      (void)traced.run();
    }
    for (int k = 0; k < runs; ++k) {
      const double tp = plain.run();
      if (k + 1 == runs) traced.initialize_bands(c.first_band);  // checked
      const double b = WallTimer::now();
      const double tt = traced.run();
      stamps[static_cast<std::size_t>(k)][static_cast<std::size_t>(
          world.rank())] = {b, WallTimer::now()};
      if (lead) {
        plain_s.push_back(tp);
        traced_s.push_back(tt);
      }
      if (k + 1 == runs) gather(traced, c, got);
    }
  });

  {
    const Span s(spans, "ledger.check", layer.id());
    const auto [want, serial_s] = oracle(*desc, p, c);
    const double err = check(got, want, o.self_test);
    for (int k = 0; k < runs; ++k) {
      r.attempt(k + 1 < runs || err <= wire_tolerance(fx::mpi::WireFormat::Fp64));
    }
    r.config("checks", checks_json(c, err));
    const double bands_per_s = p.num_bands / quantile(plain_s, 0.5);
    r.set("fft.serial_band_ms", 1e3 * serial_s, "ms");
    r.set("fftx.speedup_vs_serial", bands_per_s * serial_s, "x");
  }

  const Span s(spans, "ledger.layer.trace_analysis", layer.id());
  std::vector<TracedRun> per_run;
  std::unique_ptr<fx::trace::Tracer> last_run;
  for (const auto& st : stamps) {
    double lo = INFINITY;
    double hi = -INFINITY;
    for (const auto& [b, e] : st) {
      lo = std::min(lo, b);
      hi = std::max(hi, e);
    }
    last_run = std::make_unique<fx::trace::Tracer>(p.nranks);
    per_run.push_back(analyze_run(tracer, lo, hi, p, *last_run));
  }
  if (!o.out_dir.empty()) {
    fx::trace::save_chrome_trace(
        *last_run, o.out_dir + "/chrome_" + p.name + "_s" +
                       std::to_string(o.seed) + ".json");
  }

  auto med = [&](auto get) {
    std::vector<double> v;
    for (const TracedRun& t : per_run) v.push_back(get(t));
    return quantile(v, 0.5);
  };
  const double per_band = 1e3 / p.num_bands;
  const std::pair<const char*, PhaseKind> stages[] = {
      {"psi_prep", PhaseKind::PsiPrep}, {"pack", PhaseKind::Pack},
      {"fft_z", PhaseKind::FftZ},       {"scatter", PhaseKind::Scatter},
      {"fft_xy", PhaseKind::FftXy},     {"vofr", PhaseKind::Vofr},
      {"unpack", PhaseKind::Unpack}};
  for (const auto& [name, kind] : stages) {
    r.set(std::string("fftx.stage_ms.") + name,
          per_band * med([k = kind](const TracedRun& t) {
            return t.stage_s[static_cast<std::size_t>(k)];
          }),
          "ms");
  }
  r.set("fftx.exchange_wait_ms",
        per_band * med([](const TracedRun& t) { return t.exchange_s; }), "ms");
  r.set("fftx.exchange_mb_per_band",
        med([](const TracedRun& t) { return t.exchange_bytes; }) / 1e6 /
            p.num_bands,
        "MB");
  r.set("fftx.task_idle_frac",
        med([](const TracedRun& t) { return t.task_idle_frac; }), "fraction");
  r.set("fftx.unattributed_frac",
        med([](const TracedRun& t) { return t.unattributed_frac; }),
        "fraction");
  r.set("fftx.pop.load_balance",
        med([](const TracedRun& t) { return t.pop.load_balance; }),
        "fraction");
  r.set("fftx.pop.comm_eff",
        med([](const TracedRun& t) { return t.pop.comm_efficiency; }),
        "fraction");
  r.set("fftx.pop.parallel_eff",
        med([](const TracedRun& t) { return t.pop.parallel_efficiency; }),
        "fraction");
  r.set("fftx.setup.pipeline_s", ctor_s, "s");
  r.set("fftx.setup.init_s", init_s, "s");
  r.set("loop.run_s.p50", quantile(plain_s, 0.5), "s");
  r.set("loop.run_s.p75", quantile(plain_s, 0.75), "s");
  r.set("loop.runs", static_cast<double>(plain_s.size()), "count");
  r.set("trace.overhead_frac",
        1.0 - quantile(plain_s, 0.5) / quantile(traced_s, 0.5), "fraction");
}

}  // namespace ledger
