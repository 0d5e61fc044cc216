// fftx_ledger: one workload, one pass, one JSON line.
//
//   fftx_ledger --workload NAME [--seed N] [--seconds S]
//               [--setup-only | --layers] [--smoke] [--self-test]
//               [--out DIR]
//
// Default pass: end-to-end metrics (bands_per_s, latency_ms.*,
// peak_rss_mb) with output checks.  --setup-only: one cold set-up,
// reported as setup_s.  --layers: the per-layer pass.  The last line of
// stdout is the result JSON; a human-readable table goes to stderr.  The
// exit code is nonzero when any check fails.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>

#include "core/json.hpp"
#include "core/timer.hpp"
#include "ledger.hpp"

extern char** environ;  // NOLINT(readability-redundant-declaration)

namespace ledger {

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    throw std::runtime_error("ledger: metric " + name + " is not finite");
  }
  metrics_[name] = {value, unit};
}

Value Report::to_json() const {
  fx::core::json::Object metrics;
  for (const auto& [name, vu] : metrics_) {
    metrics[name] = fx::core::json::Object{{"value", vu.first},
                                           {"unit", vu.second}};
  }
  fx::core::json::Object o;
  o["config"] = config_;
  o["metrics"] = std::move(metrics);
  o["attempted"] = attempted_;
  o["failed"] = failed_;
  o["correct"] = failed_ == 0 && attempted_ > 0;
  return Value(std::move(o));
}

void Report::print(std::FILE* out) const {
  for (const auto& [name, vu] : metrics_) {
    std::fprintf(out, "  %-32s %16.6g %s\n", name.c_str(), vu.first,
                 vu.second.c_str());
  }
  std::fprintf(out, "  attempted %d, failed %d\n", attempted_, failed_);
}

int Spans::begin(const std::string& name, int parent, int run) {
  std::lock_guard lock(mu_);
  recs_.push_back({name, parent, run, fx::core::WallTimer::now(), 0.0});
  return static_cast<int>(recs_.size()) - 1;
}

void Spans::end(int id) {
  std::lock_guard lock(mu_);
  recs_.at(static_cast<std::size_t>(id)).t_end = fx::core::WallTimer::now();
}

Value Spans::to_json() const {
  std::lock_guard lock(mu_);
  const double t0 = recs_.empty() ? 0.0 : recs_.front().t_begin;
  fx::core::json::Array a;
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    const Rec& r = recs_[i];
    a.push_back(fx::core::json::Object{
        {"id", static_cast<int>(i)},
        {"name", r.name},
        {"parent", r.parent},
        {"run", r.run},
        {"t_begin_s", r.t_begin - t0},
        {"t_end_s", r.t_end - t0}});
  }
  return Value(std::move(a));
}

void report_end_to_end(Report& r, double bands_per_s, double raw_bands_per_s,
                       const std::vector<double>& latency_ms,
                       const std::vector<double>& raw_latency_ms,
                       const std::vector<double>& speeds) {
  r.set("bands_per_s", bands_per_s, "bands/s");
  r.set("raw.bands_per_s", raw_bands_per_s, "bands/s");
  for (const auto& [name, q] : {std::pair{"p50", 0.5}, std::pair{"p90", 0.9},
                                std::pair{"p99", 0.99}}) {
    r.set(std::string("latency_ms.") + name, quantile(latency_ms, q), "ms");
    r.set(std::string("raw.latency_ms.") + name, quantile(raw_latency_ms, q),
          "ms");
  }
  r.set("latency_ms.samples", static_cast<double>(latency_ms.size()), "count");
  r.set("host.speed", quantile(speeds, 0.5), "x");
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("ledger: no VmHWM in /proc/self/status");
}

double rel_error(std::span<const fx::fft::cplx> got,
                 std::span<const fx::fft::cplx> want) {
  if (got.size() != want.size()) return INFINITY;
  double err = 0.0;
  double scale = 0.0;
  for (std::size_t k = 0; k < want.size(); ++k) {
    err = std::max(err, std::abs(got[k] - want[k]));
    scale = std::max(scale, std::abs(want[k]));
  }
  return scale > 0.0 ? err / scale : err;
}

double wire_tolerance(fx::mpi::WireFormat wire) {
  switch (wire) {
    case fx::mpi::WireFormat::Fp64:
      return 1e-12;
    case fx::mpi::WireFormat::Fp32:
      return 1e-4;
    case fx::mpi::WireFormat::Bf16:
      return 5e-2;
  }
  return 0.0;
}

namespace {

/// /proc/stat aggregate CPU ticks: steal and total.
struct CpuTicks {
  double steal = 0.0;
  double total = 0.0;

  static CpuTicks now() {
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    CpuTicks t;
    // user nice system idle iowait irq softirq steal (guest columns are
    // already inside user/nice).
    for (int i = 0; i < 8 && in; ++i) {
      double v = 0.0;
      in >> v;
      t.total += v;
      if (i == 7) t.steal = v;
    }
    return t;
  }
};

/// Unsets every FFTX_* variable so the run measures library defaults;
/// returns the names it cleared.
fx::core::json::Array clear_fftx_env() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv(*e);
    if (kv.rfind("FFTX_", 0) == 0) names.push_back(kv.substr(0, kv.find('=')));
  }
  fx::core::json::Array cleared;
  for (const std::string& n : names) {
    unsetenv(n.c_str());
    cleared.push_back(n);
  }
  return cleared;
}

Options parse(int argc, char** argv) {
  Options o;
  auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      throw std::invalid_argument(std::string(argv[i]) + " needs a value");
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--workload") {
      o.workload = value(i);
    } else if (a == "--seed") {
      o.seed = std::stoull(value(i));
    } else if (a == "--seconds") {
      o.seconds = std::stod(value(i));
      if (!(o.seconds >= 0.0 && o.seconds <= 600.0)) {
        throw std::invalid_argument("--seconds must be in [0, 600]");
      }
    } else if (a == "--out") {
      o.out_dir = value(i);
    } else if (a == "--setup-only") {
      o.setup_only = true;
    } else if (a == "--layers") {
      o.layers = true;
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--self-test") {
      o.self_test = true;
    } else {
      throw std::invalid_argument("unknown argument '" + a + "'");
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  if (o.setup_only && o.layers) {
    throw std::invalid_argument("--setup-only and --layers are exclusive");
  }
  if (o.smoke) o.seconds = std::min(o.seconds, 2.0);
  return o;
}

void save(const Value& v, const std::string& dir, const std::string& file) {
  if (!dir.empty()) fx::core::json::save_file(v, dir + "/" + file);
}

}  // namespace
}  // namespace ledger

int main(int argc, char** argv) {
  using namespace ledger;
  const fx::core::json::Array cleared = clear_fftx_env();
  Options o;
  try {
    o = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "fftx_ledger: " << e.what() << "\n";
    return 2;
  }

  Report report;
  Spans spans;
  const CpuTicks cpu0 = CpuTicks::now();
  try {
    const Preset& base = find_preset(o.workload);
    const Preset p = o.smoke ? smoke_preset(base) : base;
    report.config("workload", p.name);
    report.config("why", p.why);
    report.config("seed", static_cast<double>(o.seed));
    report.config("seconds", o.seconds);
    report.config("pass", o.setup_only ? "setup" : o.layers ? "layers"
                                                            : "measure");
    report.config("smoke", o.smoke);
    report.config("cleared_env", cleared);
    report.config("preset", describe(p));

    if (o.setup_only) {
      Probe probe(busy_threads(p));
      Interval setup;
      setup.speed_before = host_speed(probe);
      {
        const Span s(spans, "ledger.setup");
        setup.raw_s = p.service ? service_setup(p, o) : band_loop_setup(p, o);
      }
      setup.speed_after = host_speed(probe);
      report.set("setup_s", setup.normalized_s(), "s");
      report.set("raw.setup_s", setup.raw_s, "s");
      report.set("host.speed", 0.5 * (setup.speed_before + setup.speed_after),
                 "x");
      report.attempt(true);
    } else if (!o.layers) {
      const Span s(spans, "ledger.measure");
      if (p.service) {
        service_measure(p, o, report, spans, s.id());
      } else {
        band_loop_measure(p, o, report, spans, s.id());
      }
      report.set("peak_rss_mb", peak_rss_mb(), "MB");
    } else {
      const Span s(spans, "ledger.layers");
      Probe probe(busy_threads(p));
      const double speed0 = host_speed(probe);
      pipeline_layers(p, o, report, spans, s.id());
      serve_layers(p, o, report, spans, s.id());
      kernel_layers(p, o, report, spans, s.id());
      report.set("host.speed", 0.5 * (speed0 + host_speed(probe)), "x");
      const CpuTicks cpu1 = CpuTicks::now();
      const double ticks = cpu1.total - cpu0.total;
      report.set("host.steal_frac",
                 ticks > 0.0 ? (cpu1.steal - cpu0.steal) / ticks : 0.0,
                 "fraction");
      report.set("host.nproc", std::thread::hardware_concurrency(), "count");
      // The exchange and memcpy probes move cache-resident buffers, as the
      // loop does; the last-level cache size puts their bytes in scale.
      report.config("host", fx::core::json::Object{
                                {"llc_bytes", static_cast<double>(sysconf(
                                                  _SC_LEVEL3_CACHE_SIZE))}});
    }
  } catch (const std::exception& e) {
    std::cerr << "fftx_ledger: " << o.workload << ": " << e.what() << "\n";
    report.attempt(false);
  }

  const Value result = report.to_json();
  const std::string stem = o.workload + "_s" + std::to_string(o.seed) +
                           (o.setup_only ? "_setup" : o.layers ? "_layers" : "");
  try {
    save(result, o.out_dir, "result_" + stem + ".json");
    save(spans.to_json(), o.out_dir, "spans_" + stem + ".json");
  } catch (const std::exception& e) {
    std::cerr << "fftx_ledger: cannot write outputs: " << e.what() << "\n";
    return 1;
  }
  std::fprintf(stderr, "%s (%s, seed %llu):\n", o.workload.c_str(),
               o.setup_only ? "setup" : o.layers ? "layers" : "measure",
               static_cast<unsigned long long>(o.seed));
  report.print(stderr);
  std::cout << result.dump() << std::endl;
  return report.failed() == 0 && report.attempted() > 0 ? 0 : 1;
}
