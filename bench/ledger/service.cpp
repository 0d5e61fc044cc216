// Service workload: a closed-loop capacity phase and open-loop Poisson
// arrivals against serve::Frontend, plus the serve-layer probe the
// per-layer pass runs for every workload.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <exception>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/rng.hpp"
#include "core/timer.hpp"
#include "fftx/descriptor.hpp"
#include "fftx/reference.hpp"
#include "ledger.hpp"
#include "serve/frontend.hpp"
#include "simmpi/runtime.hpp"

namespace ledger {
namespace {

using fx::core::WallTimer;
using fx::serve::Frontend;
using fx::serve::Overloaded;
using fx::serve::Request;
using fx::serve::Response;
using fx::serve::ServeConfig;
using fx::serve::Status;
using fx::serve::Ticket;

/// Requests per second of the serve-layer probe on band-loop workloads.
constexpr double kProbeRate = 5.0;
/// One request in this many has its response checked against the oracle.
constexpr int kCheckEvery = 20;
/// Probe-bracketed segments of each phase: the host's speed is tracked at
/// this granularity.
constexpr int kSegments = 6;
/// Share of --seconds spent in the capacity phase; the rest is open loop.
constexpr double kClosedShare = 0.3;

/// One request the generator sent.
struct Sent {
  Request req;
  bool checked = false;  ///< response bands kept for the oracle check
  double t_due = 0.0;    ///< when it was scheduled to be sent
  double t_sub = 0.0;    ///< when submit() ran
  bool shed = false;
  Ticket ticket;
  Response resp;
};

[[nodiscard]] bool completed(const Sent& s) {
  return !s.shed && (s.resp.status == Status::Completed ||
                     s.resp.status == Status::CompletedDegraded);
}

/// Latency from the due time, so generator lateness counts too.
[[nodiscard]] double latency_s(const Sent& s) {
  return (s.t_sub - s.t_due) + s.resp.queue_s + s.resp.exec_s;
}

/// The seeded request stream of one traffic mix.
class Generator {
 public:
  Generator(const Preset& traffic, std::uint64_t seed)
      : t_(traffic), rng_(seed), pick_(static_cast<int>(seed % kCheckEvery)) {}

  Sent next(bool deadline) {
    Sent s;
    Request& r = s.req;
    r.tenant = "tenant" + std::to_string(rng_.next_below(
                              static_cast<std::uint64_t>(t_.tenants)));
    r.alat_bohr = t_.alat_bohr;
    r.ecut_ry = t_.ecut_ry;
    r.num_bands = t_.min_req_bands +
                  static_cast<int>(rng_.next_below(static_cast<std::uint64_t>(
                      t_.max_req_bands - t_.min_req_bands + 1)));
    r.real_bands = rng_.next_double() < t_.r2c_frac;
    if (r.real_bands) r.num_bands += r.num_bands % 2;  // whole gamma pairs
    r.wire = rng_.next_double() < t_.fp32_frac ? fx::mpi::WireFormat::Fp32
                                               : fx::mpi::WireFormat::Fp64;
    r.deadline_s = deadline ? t_.limit_s : 0.0;
    s.checked = count_++ % kCheckEvery == pick_;
    return s;
  }

  /// Exponential inter-arrival gap at `rate` requests per second.
  double gap(double rate) { return -std::log(1.0 - rng_.next_double()) / rate; }

  [[nodiscard]] const Preset& traffic() const { return t_; }

 private:
  Preset t_;
  fx::core::Rng rng_;
  int pick_;
  int count_ = 0;
};

/// The probe's traffic on a band-loop workload: the workload's own problem
/// and schedule in requests of one band iteration each.
Preset probe_traffic(const Preset& p) {
  Preset t = p;
  t.tenants = 1;
  t.min_req_bands = t.max_req_bands = (p.real_bands ? 2 : 1) * p.ntg;
  t.r2c_frac = p.real_bands ? 1.0 : 0.0;
  t.fp32_frac = 0.0;
  t.limit_s = 0.0;
  t.rate_rps = kProbeRate;
  return t;
}

ServeConfig serve_config(const Preset& p) {
  ServeConfig cfg;
  if (!p.service) {
    cfg.ntg = p.ntg;
    cfg.pipeline = pipeline_config(p);
  }
  return cfg;
}

/// Serves on a p.nranks world while `client` runs on one generator thread;
/// returns once the client is done and every admitted request resolved.
void serve_with(const Preset& p, Frontend& fe,
                const std::function<void()>& client) {
  std::exception_ptr client_error;
  std::thread gen([&] {
    try {
      client();
    } catch (...) {
      client_error = std::current_exception();
    }
    fe.request_stop();
  });
  try {
    fx::mpi::Runtime::run(p.nranks,
                          [&](fx::mpi::Comm& world) { fe.serve(world); });
  } catch (...) {
    fe.request_stop();
    fe.fail_pending("ledger: serving world terminated");
    gen.join();
    throw;
  }
  gen.join();
  if (client_error) std::rethrow_exception(client_error);
}

void submit(Frontend& fe, Sent& s) {
  s.t_sub = WallTimer::now();
  try {
    s.ticket = fe.submit(s.req);
  } catch (const Overloaded&) {
    s.shed = true;
  }
}

void collect(Sent& s) {
  s.resp = s.ticket.wait();
  if (!s.checked) s.resp.bands = {};
}

/// One seeded request of each coalescing class the traffic sends, one
/// after another: descriptors and plans are built before anything is
/// timed.  Throws when one does not complete.
void warm_up(Frontend& fe, Generator& gen) {
  const Preset& t = gen.traffic();
  for (const bool real : {false, true}) {
    if (real ? t.r2c_frac <= 0.0 : t.r2c_frac >= 1.0) continue;
    for (const bool fp32 : {false, true}) {
      if (fp32 && t.fp32_frac <= 0.0) continue;
      Request r = gen.next(false).req;
      r.tenant = "warmup";
      r.real_bands = real;
      r.num_bands += real ? r.num_bands % 2 : 0;
      r.wire = fp32 ? fx::mpi::WireFormat::Fp32 : fx::mpi::WireFormat::Fp64;
      if (fe.submit(r).wait().status != Status::Completed) {
        throw std::runtime_error("ledger: a warm-up request did not complete");
      }
    }
  }
}

/// Open loop: Poisson arrivals drawn at the traffic's nominal rate over
/// `seconds` of host-normalized time, sent on a schedule stretched by
/// 1 / speed -- a fixed request count and a fixed load in normalized time
/// however fast the host runs.  Each request is timed from its due time;
/// appends to `sent` once every request resolved.
void open_loop(Frontend& fe, Generator& gen, double seconds, double speed,
               std::vector<Sent>& sent) {
  const std::size_t first = sent.size();
  const bool deadline = gen.traffic().limit_s > 0.0;
  const double rate = gen.traffic().rate_rps;
  for (double at = gen.gap(rate); at < seconds || sent.size() == first;
       at += gen.gap(rate)) {
    sent.push_back(gen.next(deadline));
    sent.back().t_due = at / speed;
  }
  const double t0 = WallTimer::now() + 1e-3;
  for (std::size_t i = first; i < sent.size(); ++i) {
    Sent& s = sent[i];
    s.t_due += t0;
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(s.t_due))));
    submit(fe, s);
  }
  for (std::size_t i = first; i < sent.size(); ++i) {
    if (!sent[i].shed) collect(sent[i]);
  }
}

/// Closed loop: keeps `window` requests outstanding for `seconds`, then
/// lets the last ones finish; appends every request to `sent` and returns
/// the bands completed.
double closed_loop(Frontend& fe, Generator& gen, int window, double seconds,
                   std::vector<Sent>& sent) {
  std::deque<Sent> live;
  double bands = 0.0;
  const WallTimer timer;
  while (timer.seconds() < seconds || !live.empty()) {
    while (timer.seconds() < seconds && static_cast<int>(live.size()) < window) {
      Sent s = gen.next(false);
      s.t_due = WallTimer::now();
      submit(fe, s);
      if (s.shed) {
        sent.push_back(std::move(s));
      } else {
        live.push_back(std::move(s));
      }
    }
    for (auto it = live.begin(); it != live.end();) {
      if (!it->ticket.done()) {
        ++it;
        continue;
      }
      collect(*it);
      if (completed(*it)) bands += it->req.num_bands;
      sent.push_back(std::move(*it));
      it = live.erase(it);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return bands;
}

/// Checks the marked responses against the oracle and records every
/// request as one attempted operation (failed: Status::Failed or a
/// mismatch; shed and cancelled requests are late, not wrong).
void check_responses(const Preset& p, const Options& o,
                     std::vector<Sent>& sent, Report& r) {
  const fx::fftx::Descriptor oracle(fx::pw::Cell{p.alat_bohr}, p.ecut_ry,
                                    p.nranks, 1);
  int checked = 0;
  double worst = 0.0;  // max error over tolerance
  bool corrupt = o.self_test;
  for (Sent& s : sent) {
    if (!completed(s) || !s.checked) {
      r.attempt(s.shed || s.resp.status != Status::Failed);
      continue;
    }
    ++checked;
    bool ok = static_cast<int>(s.resp.bands.size()) ==
              (s.req.real_bands ? s.req.num_bands / 2 : s.req.num_bands);
    for (std::size_t b = 0; ok && b < s.resp.bands.size(); ++b) {
      const int first = s.resp.assigned_first_band;
      const int pair = first / 2 + static_cast<int>(b);
      const auto want =
          s.req.real_bands
              ? fx::fftx::reference_packed_band_output(oracle, pair,
                                                       2 * pair + 2, true)
              : fx::fftx::reference_band_output(
                    oracle, first + static_cast<int>(b), true);
      auto& got = s.resp.bands[b];
      if (corrupt) {
        got[got.size() / 2] += fx::fft::cplx{1e-3, 0.0};
        corrupt = false;
      }
      const double ratio = rel_error(got, want) / wire_tolerance(s.resp.wire);
      worst = std::max(worst, ratio);
      ok = ratio <= 1.0;
    }
    r.attempt(ok);
  }
  if (corrupt) r.attempt(false);  // --self-test found nothing to corrupt
  r.config("checks", fx::core::json::Object{{"checked_responses", checked},
                                            {"every", kCheckEvery},
                                            {"max_err_over_tol", worst}});
}

/// Open-loop latency of one request, raw seconds; a request that was shed,
/// cancelled or failed counts at `miss_s`.
double open_latency_s(const Sent& s, double miss_s) {
  return completed(s) ? latency_s(s) : miss_s;
}

/// Share of `sent` that was shed, cancelled, failed or over `limit_s`.
double late_frac(const std::vector<Sent>& sent, double limit_s) {
  int late = 0;
  for (const Sent& s : sent) {
    if (!completed(s) || (limit_s > 0.0 && latency_s(s) > limit_s)) ++late;
  }
  return sent.empty() ? 0.0
                      : static_cast<double>(late) /
                            static_cast<double>(sent.size());
}

}  // namespace

double service_setup(const Preset& p, const Options& o) {
  Generator gen(p, o.seed);
  const WallTimer timer;
  Frontend fe(serve_config(p));
  double t = 0.0;
  serve_with(p, fe, [&] {
    warm_up(fe, gen);
    t = timer.seconds();
  });
  return t;
}

void service_measure(const Preset& p, const Options& o, Report& r,
                     Spans& spans, int parent) {
  Generator gen(p, o.seed);
  Frontend fe(serve_config(p));
  Probe probe(busy_threads(p));
  const int segments = o.smoke ? 1 : kSegments;
  const double closed_s = kClosedShare * o.seconds / segments;
  const double open_s = (1.0 - kClosedShare) * o.seconds / segments;
  std::vector<Sent> closed;
  std::vector<Interval> closed_t;
  std::vector<double> closed_bands;
  std::vector<std::vector<Sent>> open(static_cast<std::size_t>(segments));
  std::vector<Interval> open_t;
  std::vector<double> speeds;
  serve_with(p, fe, [&] {
    {
      const Span s(spans, "ledger.warmup", parent);
      warm_up(fe, gen);
    }
    // Every segment is bracketed by probes; the probe after one segment
    // is the probe before the next.
    speeds.push_back(host_speed(probe));
    auto bracket = [&](std::vector<Interval>& out, const auto& body) {
      Interval t;
      t.speed_before = speeds.back();
      const WallTimer timer;
      body(t.speed_before);
      t.raw_s = timer.seconds();
      speeds.push_back(host_speed(probe));
      t.speed_after = speeds.back();
      out.push_back(t);
    };
    {
      const Span s(spans, "ledger.run.closed_loop", parent);
      for (int k = 0; k < segments; ++k) {
        bracket(closed_t, [&](double) {
          closed_bands.push_back(
              closed_loop(fe, gen, p.window, closed_s, closed));
        });
      }
    }
    const Span s(spans, "ledger.run.open_loop", parent);
    for (auto& seg : open) {
      bracket(open_t, [&](double speed) {
        open_loop(fe, gen, open_s, speed, seg);
      });
    }
  });

  std::vector<double> bands_per_s;
  std::vector<double> raw_bands_per_s;
  for (std::size_t k = 0; k < closed_t.size(); ++k) {
    bands_per_s.push_back(closed_bands[k] / closed_t[k].normalized_s());
    raw_bands_per_s.push_back(closed_bands[k] / closed_t[k].raw_s);
  }
  std::vector<double> latency_ms;
  std::vector<double> raw_ms;
  std::vector<Sent> all_open;
  for (std::size_t k = 0; k < open.size(); ++k) {
    const double scale = open_t[k].normalized_s() / open_t[k].raw_s;
    for (Sent& x : open[k]) {
      const double l = open_latency_s(x, open_t[k].raw_s);
      latency_ms.push_back(1e3 * l * scale);
      raw_ms.push_back(1e3 * l);
      all_open.push_back(std::move(x));
    }
  }
  r.config("service",
           fx::core::json::Object{
               {"closed_loop_requests", static_cast<int>(closed.size())},
               {"open_loop_requests", static_cast<int>(all_open.size())},
               {"open_loop_late_frac", late_frac(all_open, p.limit_s)}});
  fx::core::json::Array cap_json;
  for (double b : raw_bands_per_s) cap_json.push_back(b);
  fx::core::json::Array speed_json;
  for (double v : speeds) speed_json.push_back(v);
  r.config("samples",
           fx::core::json::Object{{"closed_bands_per_s", std::move(cap_json)},
                                  {"speed", std::move(speed_json)}});
  {
    const Span s(spans, "ledger.check", parent);
    for (Sent& x : all_open) closed.push_back(std::move(x));
    check_responses(p, o, closed, r);
  }
  report_end_to_end(r, quantile(bands_per_s, 0.5),
                    quantile(raw_bands_per_s, 0.5), latency_ms, raw_ms,
                    speeds);
}

void serve_layers(const Preset& p, const Options& o, Report& r, Spans& spans,
                  int parent) {
  const Span layer(spans, "ledger.layer.serve", parent);
  Generator gen(p.service ? p : probe_traffic(p), o.seed ^ 0x5e7eULL);
  Frontend fe(serve_config(p));
  std::vector<Sent> sent;
  Probe probe(busy_threads(p));
  std::size_t groups_before = 0;
  const double seconds = std::max(1.0, o.seconds / (p.service ? 2.0 : 5.0));
  serve_with(p, fe, [&] {
    warm_up(fe, gen);
    groups_before = fe.execution_log().size();
    open_loop(fe, gen, seconds, host_speed(probe), sent);
  });

  std::vector<double> queue_ms;
  std::vector<double> exec_ms;
  std::vector<double> lag_ms;
  int shed = 0;
  int degraded = 0;
  int cancelled = 0;
  for (const Sent& s : sent) {
    lag_ms.push_back(1e3 * (s.t_sub - s.t_due));
    shed += s.shed ? 1 : 0;
    if (s.shed) continue;
    degraded += s.resp.status == Status::CompletedDegraded ? 1 : 0;
    cancelled += s.resp.status == Status::DeadlineCancelled ? 1 : 0;
    if (completed(s)) {
      queue_ms.push_back(1e3 * s.resp.queue_s);
      exec_ms.push_back(1e3 * s.resp.exec_s);
    }
  }
  const auto log = fe.execution_log();
  double members = 0.0;
  for (std::size_t i = groups_before; i < log.size(); ++i) {
    members += static_cast<double>(log[i].tenants.size());
  }
  const double n = static_cast<double>(sent.size());
  r.set("serve.queue_ms.p50", quantile(queue_ms, 0.5), "ms");
  r.set("serve.queue_ms.p99", quantile(queue_ms, 0.99), "ms");
  r.set("serve.exec_ms.p50", quantile(exec_ms, 0.5), "ms");
  r.set("serve.exec_ms.p99", quantile(exec_ms, 0.99), "ms");
  r.set("serve.group_size.mean",
        members / static_cast<double>(
                      std::max<std::size_t>(1, log.size() - groups_before)),
        "count");
  r.set("serve.shed_frac", shed / n, "fraction");
  r.set("serve.degraded_frac", degraded / n, "fraction");
  r.set("serve.cancelled_frac", cancelled / n, "fraction");
  r.set("serve.late_frac", late_frac(sent, gen.traffic().limit_s), "fraction");
  r.set("gen.lag_ms.p99", quantile(lag_ms, 0.99), "ms");
  r.config("serve_traffic", describe(gen.traffic()));
}

}  // namespace ledger
