#include "trace/observatory.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <sstream>

#include "core/env.hpp"
#include "core/error.hpp"
#include "core/format.hpp"
#include "core/hooks.hpp"
#include "core/table.hpp"
#include "core/timer.hpp"
#include "trace/analysis.hpp"
#include "trace/artifacts.hpp"

namespace fx::trace {

namespace {

/// fftx.obs.* registry mirrors (the in-object counters serve tests/reset;
/// these serve metrics dumps and the CI assertions).
struct ObsMetrics {
  core::Counter& phase_records;
  core::Counter& iterations;
  core::Counter& straggler_flags;
  core::Counter& incidents;
  core::Gauge& load_balance;
  core::Gauge& comm_efficiency;
};

ObsMetrics& obs_metrics() {
  auto& reg = core::MetricsRegistry::global();
  static ObsMetrics m{reg.counter("fftx.obs.phase_records"),
                      reg.counter("fftx.obs.iterations"),
                      reg.counter("fftx.obs.straggler_flags"),
                      reg.counter("fftx.obs.incidents"),
                      reg.gauge("fftx.obs.load_balance"),
                      reg.gauge("fftx.obs.comm_efficiency")};
  return m;
}

/// Attribution-column name: a PhaseKind, or the pseudo-phase "exchange"
/// for time spent inside collectives (index kNumPhaseKinds).
const char* obs_phase_name(int phase) {
  if (phase < 0) return "-";
  if (phase >= kNumPhaseKinds) return "exchange";
  return to_string(static_cast<PhaseKind>(phase));
}

constexpr int kMaxFlightDumps = 8;    ///< per process, incidents throttle
constexpr int kMaxIncidentReasons = 32;

}  // namespace

ObsMode default_obs_mode() {
  const char* v = std::getenv("FFTX_OBS");
  if (v == nullptr || *v == '\0') return ObsMode::Off;
  if (std::strcmp(v, "off") == 0 || std::strcmp(v, "0") == 0) {
    return ObsMode::Off;
  }
  if (std::strcmp(v, "watch") == 0 || std::strcmp(v, "1") == 0) {
    return ObsMode::Watch;
  }
  if (std::strcmp(v, "strict") == 0 || std::strcmp(v, "2") == 0) {
    return ObsMode::Strict;
  }
  core::invalid_env("FFTX_OBS", v, "off|watch|strict", "observatory");
}

const char* to_string(ObsMode mode) {
  switch (mode) {
    case ObsMode::Off:
      return "off";
    case ObsMode::Watch:
      return "watch";
    case ObsMode::Strict:
      return "strict";
  }
  return "?";
}

Observatory& Observatory::global() {
  // Leaked singleton: the incident sink installed below may fire from
  // watchdog threads during late shutdown, so the instance must outlive
  // every static destructor.
  static Observatory* g = [] {
    auto* obs = new Observatory();
    core::install_incident_sink(
        [obs](const std::string& reason) { obs->incident(reason); });
    return obs;
  }();
  return *g;
}

Observatory* obs_active() {
  Observatory& g = Observatory::global();
  return g.enabled() ? &g : nullptr;
}

Observatory::Observatory() {
  mode_.store(static_cast<int>(default_obs_mode()), std::memory_order_relaxed);
}

void Observatory::configure(ObsMode mode, int ring_capacity) {
  reset();
  std::lock_guard lock(mu_);
  if (ring_capacity > 0) ring_cap_ = std::max(4, ring_capacity);
  mode_.store(static_cast<int>(mode), std::memory_order_relaxed);
}

void Observatory::configure_detection(const Detection& d) {
  std::lock_guard lock(mu_);
  det_ = d;
}

void Observatory::reset() {
  std::lock_guard lock(mu_);
  nranks_ = 0;
  ntg_ = 1;
  run_depth_ = 0;
  cells_.clear();
  ring_.clear();
  done_count_.clear();
  last_straggler_.reset();
  incident_reasons_.clear();
  n_records_ = 0;
  n_iters_ = 0;
  n_straggler_ = 0;
  n_incidents_ = 0;
  strict_base_ = 0;
  records_mirrored_ = 0;
  ewma_lb_ = 1.0;
  ewma_ce_ = 1.0;
}

Observatory::Cell& Observatory::cell(int rank, PhaseKind phase) {
  const auto need =
      static_cast<std::size_t>(rank + 1) * kNumPhaseKinds;
  while (cells_.size() < need) cells_.push_back(std::make_unique<Cell>());
  return *cells_[static_cast<std::size_t>(rank) * kNumPhaseKinds +
                 static_cast<std::size_t>(phase)];
}

Observatory::IterationRecord* Observatory::slot_for(int iter) {
  if (ring_.empty() || iter < 0) return nullptr;
  const auto idx = static_cast<std::size_t>(
      (iter / ntg_) % static_cast<int>(ring_.size()));
  return &ring_[idx];
}

void Observatory::begin_run(int nranks, int ntg) {
  if (!enabled()) return;
  std::lock_guard lock(mu_);
  if (run_depth_++ > 0) return;  // joining ranks of the same run
  nranks_ = std::max(1, nranks);
  ntg_ = std::max(1, ntg);
  // Fresh flight ring per run: iteration ordinals restart at 0, so stale
  // slots from a previous run would alias them.
  ring_.assign(static_cast<std::size_t>(ring_cap_), IterationRecord{});
  done_count_.assign(static_cast<std::size_t>(ring_cap_), 0);
  strict_base_ = n_straggler_ + n_incidents_;
}

void Observatory::end_run() {
  if (!enabled()) return;
  std::lock_guard lock(mu_);
  if (run_depth_ > 0) --run_depth_;
  obs_metrics().load_balance.set(ewma_lb_);
  obs_metrics().comm_efficiency.set(ewma_ce_);
  const std::uint64_t rec = n_records_.load(std::memory_order_relaxed);
  obs_metrics().phase_records.add(rec - records_mirrored_);
  records_mirrored_ = rec;
}

void Observatory::record_phase(int rank, PhaseKind phase, int iter,
                               double seconds) {
  if (!enabled() || rank < 0 || seconds < 0.0) return;
  std::lock_guard lock(mu_);
  // The registry mirror (fftx.obs.phase_records) is batched into end_run:
  // at task-per-FFT granularity this path runs per FFT call, and even one
  // extra relaxed atomic on a second cache line is measurable against the
  // <= 1 % overhead budget.
  n_records_.fetch_add(1, std::memory_order_relaxed);

  Cell& c = cell(rank, phase);
  ++c.count;
  c.total_s += seconds;
  c.hist.record(seconds * 1e3);

  IterationRecord* rec = slot_for(iter);
  if (rec == nullptr || rec->iter != iter) return;
  const auto r = static_cast<std::size_t>(rank);
  if (r >= rec->ranks.size()) return;
  auto& rr = rec->ranks[r];
  rr.phase_s[static_cast<std::size_t>(phase)] += seconds;
  if (phase == PhaseKind::Abft) {
    rr.abft_s += seconds;
  } else if (phase == PhaseKind::TaskWait) {
    // Scheduling delay is neither work nor overhead: it competes with the
    // exchange column for straggler blame but never skews POP compute.
    rr.sched_s += seconds;
  } else {
    rr.compute_s += seconds;
  }
}

void Observatory::record_comm(int rank, int tag, double seconds) {
  if (!enabled() || rank < 0 || seconds < 0.0) return;
  std::lock_guard lock(mu_);
  IterationRecord* rec = slot_for(tag);
  if (rec == nullptr || rec->iter != tag) return;
  const auto r = static_cast<std::size_t>(rank);
  if (r >= rec->ranks.size()) return;
  rec->ranks[r].comm_s += seconds;
}

void Observatory::iteration_begin(int rank, int iter) {
  if (!enabled() || rank < 0) return;
  const double now = core::WallTimer::now();
  std::lock_guard lock(mu_);
  IterationRecord* rec = slot_for(iter);
  if (rec == nullptr) return;
  const auto idx = static_cast<std::size_t>(rec - ring_.data());
  if (rec->iter != iter) {
    // First rank in claims the slot (evicting whatever iteration aged out
    // of the ring -- that is the flight recorder's bounded-memory deal).
    *rec = IterationRecord{};
    rec->iter = iter;
    rec->t_begin = now;
    rec->t_end = now;
    rec->ranks.assign(static_cast<std::size_t>(nranks_), RankRecord{});
    done_count_[idx] = 0;
  } else {
    rec->t_begin = std::min(rec->t_begin, now);
  }
}

void Observatory::iteration_done(int rank, int iter) {
  if (!enabled() || rank < 0) return;
  const double now = core::WallTimer::now();
  std::lock_guard lock(mu_);
  IterationRecord* rec = slot_for(iter);
  if (rec == nullptr || rec->iter != iter) return;
  const auto idx = static_cast<std::size_t>(rec - ring_.data());
  rec->t_end = std::max(rec->t_end, now);
  if (++done_count_[idx] < nranks_) return;
  // Last rank out evaluates the whole iteration -- the deferred-verdict
  // pattern: no collective, just shared memory and the run's own ordering.
  rec->complete = true;
  n_iters_.fetch_add(1, std::memory_order_relaxed);
  obs_metrics().iterations.add();
  finalize_iteration(*rec);
}

void Observatory::finalize_iteration(IterationRecord& rec) {
  const auto n = rec.ranks.size();
  if (n == 0) return;

  // POP factors of this one iteration (the trace/analysis formula, ABFT
  // spans excluded from compute -- they are overhead, not work).
  double total_c = 0.0;
  double max_c = 0.0;
  std::vector<double> busy(n);  // compute + overhead + exchange per rank
  for (std::size_t r = 0; r < n; ++r) {
    const auto& rr = rec.ranks[r];
    total_c += rr.compute_s;
    max_c = std::max(max_c, rr.compute_s);
    busy[r] = rr.compute_s + rr.abft_s + rr.comm_s + rr.sched_s;
  }
  const PopFactors pop = pop_factors(total_c, max_c, static_cast<int>(n),
                                     std::max(0.0, rec.t_end - rec.t_begin));
  rec.load_balance = pop.load_balance;
  rec.comm_efficiency = pop.comm_efficiency;
  const double a = det_.ewma_alpha;
  ewma_lb_ += a * (rec.load_balance - ewma_lb_);
  ewma_ce_ += a * (rec.comm_efficiency - ewma_ce_);

  // Straggler: the busiest rank against the median of its peers, with an
  // absolute floor so jitter on tiny grids never flags.
  if (n >= 2) {
    std::size_t worst = 0;
    for (std::size_t r = 1; r < n; ++r) {
      if (busy[r] > busy[worst]) worst = r;
    }
    std::vector<double> peers;
    peers.reserve(n - 1);
    for (std::size_t r = 0; r < n; ++r) {
      if (r != worst) peers.push_back(busy[r]);
    }
    std::sort(peers.begin(), peers.end());
    const double med = peers[peers.size() / 2];
    const double excess = busy[worst] - med;
    if (busy[worst] > det_.straggler_factor * med &&
        excess > det_.straggler_floor_s) {
      // Offending column: the largest per-phase excess of the straggler
      // over its peers' average, exchange time included (an injected
      // collective stall shows up there, not in any compute span).
      int worst_phase = kNumPhaseKinds;  // "exchange"
      double worst_excess = 0.0;
      for (int p = 0; p <= kNumPhaseKinds; ++p) {
        double mine = 0.0;
        double others = 0.0;
        for (std::size_t r = 0; r < n; ++r) {
          const double v = p == kNumPhaseKinds
                               ? rec.ranks[r].comm_s
                               : rec.ranks[r].phase_s[static_cast<
                                     std::size_t>(p)];
          if (r == worst) {
            mine = v;
          } else {
            others += v;
          }
        }
        const double gap = mine - others / static_cast<double>(n - 1);
        if (gap > worst_excess) {
          worst_excess = gap;
          worst_phase = p;
        }
      }
      rec.straggler_rank = static_cast<int>(worst);
      rec.straggler_phase = worst_phase;
      last_straggler_ = StragglerFlag{rec.iter, static_cast<int>(worst),
                                      worst_phase, excess};
      n_straggler_.fetch_add(1, std::memory_order_relaxed);
      obs_metrics().straggler_flags.add();
      core::emit_instant(core::cat(
          "obs: straggler rank ", worst, " at iteration ", rec.iter, " (",
          obs_phase_name(worst_phase), " +",
          core::fixed(worst_excess * 1e3, 2), " ms, ",
          core::fixed(busy[worst] / std::max(med, 1e-12), 2), "x median)"));
    }
  }
}

void Observatory::incident(const std::string& reason) {
  if (!enabled()) return;
  std::lock_guard lock(mu_);
  // Collectively-agreed faults (the ABFT verdict) are emitted by every
  // rank that completes the agreement, because a poisoned world can strand
  // any single designated emitter inside the collective before it speaks.
  // Identical consecutive reasons within one run coalesce to one incident.
  if (run_depth_ > 0 && !incident_reasons_.empty() &&
      incident_reasons_.back() == reason) {
    return;
  }
  n_incidents_.fetch_add(1, std::memory_order_relaxed);
  obs_metrics().incidents.add();
  if (incident_reasons_.size() <
      static_cast<std::size_t>(kMaxIncidentReasons)) {
    incident_reasons_.push_back(reason);
  }
  dump_flight_locked(reason);
}

void Observatory::dump_flight_locked(const std::string& reason) {
  const std::string dir = trace_dir();
  if (dir.empty() || flight_dumps_ >= kMaxFlightDumps) return;
  ++flight_dumps_;
  const auto path =
      std::filesystem::path(dir) /
      core::cat("obs_flight_", flight_dumps_, ".json");
  try {
    std::filesystem::create_directories(path.parent_path());
    core::json::save_file(flight_json_locked(), path.string());
    std::cout << "[obs] incident (" << reason << "): flight recorder -> "
              << path.string() << "\n";
  } catch (const std::exception& e) {
    // An unwritable trace dir must never escalate an incident into a crash.
    std::cerr << "[obs] flight dump failed: " << e.what() << "\n";
  }
}

std::optional<Observatory::StragglerFlag> Observatory::last_straggler()
    const {
  std::lock_guard lock(mu_);
  return last_straggler_;
}

double Observatory::load_balance() const {
  std::lock_guard lock(mu_);
  return ewma_lb_;
}

double Observatory::comm_efficiency() const {
  std::lock_guard lock(mu_);
  return ewma_ce_;
}

std::vector<Observatory::IterationRecord> Observatory::flight() const {
  std::lock_guard lock(mu_);
  std::vector<IterationRecord> out;
  for (const auto& rec : ring_) {
    if (rec.iter >= 0) out.push_back(rec);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& x, const auto& y) { return x.iter < y.iter; });
  return out;
}

core::json::Value Observatory::flight_json() const {
  std::lock_guard lock(mu_);
  return flight_json_locked();
}

core::json::Value Observatory::flight_json_locked() const {
  namespace json = core::json;
  json::Object root;
  root["mode"] = to_string(mode());
  root["nranks"] = nranks_;
  root["ntg"] = ntg_;
  root["straggler_flags"] = n_straggler_.load(std::memory_order_relaxed);
  root["incidents"] = [&] {
    json::Array a;
    for (const auto& r : incident_reasons_) a.emplace_back(r);
    return a;
  }();

  std::vector<const IterationRecord*> ordered;
  for (const auto& rec : ring_) {
    if (rec.iter >= 0) ordered.push_back(&rec);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const auto* x, const auto* y) { return x->iter < y->iter; });

  json::Array iters;
  for (const IterationRecord* rec : ordered) {
    json::Object it;
    it["iter"] = rec->iter;
    it["complete"] = rec->complete;
    it["wall_ms"] = (rec->t_end - rec->t_begin) * 1e3;
    it["load_balance"] = rec->load_balance;
    it["comm_efficiency"] = rec->comm_efficiency;
    it["straggler_rank"] = rec->straggler_rank;
    it["straggler_phase"] = obs_phase_name(rec->straggler_phase);
    json::Array ranks;
    for (std::size_t r = 0; r < rec->ranks.size(); ++r) {
      const auto& rr = rec->ranks[r];
      json::Object jr;
      jr["rank"] = static_cast<int>(r);
      jr["compute_ms"] = rr.compute_s * 1e3;
      jr["abft_ms"] = rr.abft_s * 1e3;
      jr["exchange_ms"] = rr.comm_s * 1e3;
      jr["sched_ms"] = rr.sched_s * 1e3;
      json::Object phases;
      for (int p = 0; p < kNumPhaseKinds; ++p) {
        const double s = rr.phase_s[static_cast<std::size_t>(p)];
        if (s > 0.0) phases[obs_phase_name(p)] = s * 1e3;
      }
      jr["phases_ms"] = std::move(phases);
      ranks.push_back(std::move(jr));
    }
    it["ranks"] = std::move(ranks);
    iters.push_back(std::move(it));
  }
  root["iterations"] = std::move(iters);
  return json::Value{std::move(root)};
}

std::string Observatory::attribution_report() const {
  std::lock_guard lock(mu_);
  // Share of summed compute span time; ABFT checks and task-queue wait are
  // not compute (the POP definition), so they get no share.
  auto is_compute = [](std::size_t p) {
    return static_cast<PhaseKind>(p) != PhaseKind::Abft &&
           static_cast<PhaseKind>(p) != PhaseKind::TaskWait;
  };
  double compute_total = 0.0;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (is_compute(i % kNumPhaseKinds)) compute_total += cells_[i]->total_s;
  }
  core::TablePrinter t("observatory: live phase attribution");
  t.header({"phase", "spans", "mean ms", "p95 ms", "share"});
  for (int p = 0; p < kNumPhaseKinds; ++p) {
    std::uint64_t count = 0;
    double total = 0.0;
    double p95 = 0.0;
    for (int r = 0; r * kNumPhaseKinds < static_cast<int>(cells_.size());
         ++r) {
      const auto& c =
          *cells_[static_cast<std::size_t>(r) * kNumPhaseKinds +
                  static_cast<std::size_t>(p)];
      count += c.count;
      total += c.total_s;
      p95 = std::max(p95, c.hist.quantile(0.95));
    }
    if (count == 0) continue;
    t.row({obs_phase_name(p), core::cat(count),
           core::fixed(total / static_cast<double>(count) * 1e3, 3),
           core::fixed(p95, 3),
           is_compute(static_cast<std::size_t>(p)) && compute_total > 0.0
               ? core::pct(total / compute_total)
               : std::string("-")});
  }
  t.row({});
  t.row({"load balance (ewma)", core::pct(ewma_lb_)});
  t.row({"comm efficiency (ewma)", core::pct(ewma_ce_)});
  t.row({"iterations", core::cat(n_iters_.load(std::memory_order_relaxed))});
  t.row({"straggler flags",
         core::cat(n_straggler_.load(std::memory_order_relaxed))});
  t.row({"incidents",
         core::cat(n_incidents_.load(std::memory_order_relaxed))});
  return t.str();
}

void Observatory::strict_check() const {
  if (mode() != ObsMode::Strict) return;
  std::lock_guard lock(mu_);
  const std::uint64_t now = n_straggler_.load(std::memory_order_relaxed) +
                            n_incidents_.load(std::memory_order_relaxed);
  if (now <= strict_base_) return;
  throw core::Error(core::cat(
      "observatory strict mode: ", now - strict_base_,
      " anomaly flag(s) this run (stragglers ",
      n_straggler_.load(std::memory_order_relaxed), ", incidents ",
      n_incidents_.load(std::memory_order_relaxed), "); see fftx.obs.* and ",
      "the flight recorder"));
}

}  // namespace fx::trace
