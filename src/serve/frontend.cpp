#include "serve/frontend.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <limits>
#include <utility>

#include "core/env.hpp"
#include "core/format.hpp"
#include "core/metrics.hpp"
#include "core/timer.hpp"
#include "fft/gamma.hpp"

namespace fx::serve {

namespace detail {

struct TicketState {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Response resp;
};

}  // namespace detail

namespace {

// Order headers ride the serve world with their own tag (9001/9101/9201/
// 9301 are the checkpoint, ABFT-verdict, and deadline-verdict tags).
constexpr int kOrderTag = 9401;

constexpr std::uint64_t kNoIndex = std::numeric_limits<std::uint64_t>::max();

enum class OrderKind : std::uint64_t { Idle = 0, Stop = 1, Execute = 2 };

// Process-wide service health; the soak and the bench read these back
// instead of threading counters through every layer.
struct ServeMetrics {
  core::Counter& submitted;
  core::Counter& shed_queue_full;
  core::Counter& shed_rate_limited;
  core::Counter& shed_quarantined;
  core::Counter& shed_shutting_down;
  core::Counter& completed;
  core::Counter& completed_degraded;
  core::Counter& deadline_cancelled;
  core::Counter& failed;
  core::Counter& requeued;
  core::Counter& groups;
  core::Counter& breaker_opens;
  core::Gauge& queue_depth;
  core::Gauge& queue_peak;
  core::Histogram& latency_ms;
  core::Histogram& queue_ms;
  core::Histogram& exec_ms;
};

ServeMetrics& serve_metrics() {
  auto& reg = core::MetricsRegistry::global();
  static ServeMetrics m{reg.counter("fftx.serve.submitted"),
                        reg.counter("fftx.serve.shed.queue_full"),
                        reg.counter("fftx.serve.shed.rate_limited"),
                        reg.counter("fftx.serve.shed.quarantined"),
                        reg.counter("fftx.serve.shed.shutting_down"),
                        reg.counter("fftx.serve.completed"),
                        reg.counter("fftx.serve.completed_degraded"),
                        reg.counter("fftx.serve.deadline_cancelled"),
                        reg.counter("fftx.serve.failed"),
                        reg.counter("fftx.serve.requeued"),
                        reg.counter("fftx.serve.groups"),
                        reg.counter("fftx.serve.breaker_opens"),
                        reg.gauge("fftx.serve.queue_depth"),
                        reg.gauge("fftx.serve.queue_depth_peak"),
                        reg.histogram("fftx.serve.latency_ms"),
                        reg.histogram("fftx.serve.queue_ms"),
                        reg.histogram("fftx.serve.exec_ms")};
  return m;
}

core::Counter& shed_counter(ShedReason r) {
  switch (r) {
    case ShedReason::QueueFull:
      return serve_metrics().shed_queue_full;
    case ShedReason::RateLimited:
      return serve_metrics().shed_rate_limited;
    case ShedReason::Quarantined:
      return serve_metrics().shed_quarantined;
    case ShedReason::ShuttingDown:
      return serve_metrics().shed_shutting_down;
  }
  return serve_metrics().shed_queue_full;
}

void fulfill(detail::TicketState& st, Response&& resp) {
  std::lock_guard lock(st.mu);
  FX_CHECK(!st.done, "serve: ticket fulfilled twice");
  st.resp = std::move(resp);
  st.done = true;
  st.cv.notify_all();
}

/// Carried (complex) bands a request occupies in a coalesced group: r2c
/// requests round up to whole gamma pairs so pairs never straddle a
/// request boundary.
int carried_bands(const Request& req) {
  return req.real_bands ? static_cast<int>(fft::gamma_pair_count(
                              static_cast<std::size_t>(req.num_bands)))
                        : req.num_bands;
}

}  // namespace

const char* to_string(ShedReason r) {
  switch (r) {
    case ShedReason::QueueFull:
      return "queue_full";
    case ShedReason::RateLimited:
      return "rate_limited";
    case ShedReason::Quarantined:
      return "quarantined";
    case ShedReason::ShuttingDown:
      return "shutting_down";
  }
  return "?";
}

const char* to_string(Status s) {
  switch (s) {
    case Status::Completed:
      return "completed";
    case Status::CompletedDegraded:
      return "completed_degraded";
    case Status::DeadlineCancelled:
      return "deadline_cancelled";
    case Status::Failed:
      return "failed";
  }
  return "?";
}

Response Ticket::wait() {
  FX_CHECK(state_ != nullptr, "serve: waiting on an empty ticket");
  std::unique_lock lock(state_->mu);
  state_->cv.wait(lock, [&] { return state_->done; });
  return std::move(state_->resp);
}

bool Ticket::done() const {
  if (state_ == nullptr) return false;
  std::lock_guard lock(state_->mu);
  return state_->done;
}

ServeConfig ServeConfig::from_env() {
  constexpr const char* kCtx = "serve";
  ServeConfig cfg;
  core::env_int_in("FFTX_SERVE_QUEUE", cfg.queue_depth, 1, 1 << 20, kCtx);
  core::env_double_in("FFTX_SERVE_RATE", cfg.rate, 0.0, 1e9, kCtx);
  core::env_double_in("FFTX_SERVE_BURST", cfg.burst, 1.0, 1e9, kCtx);
  core::env_int_in("FFTX_SERVE_COALESCE", cfg.coalesce_bands, 1, 1 << 20,
                   kCtx);
  core::env_double_in("FFTX_SERVE_STARVATION_MS", cfg.starvation_ms, 0.0, 1e9,
                      kCtx);
  core::env_int_in("FFTX_SERVE_BREAKER_STRIKES", cfg.breaker_strikes, 0,
                   1 << 20, kCtx);
  core::env_double_in("FFTX_SERVE_BREAKER_COOLDOWN_S", cfg.breaker_cooldown_s,
                      0.0, 1e9, kCtx);
  core::env_double_in("FFTX_SERVE_DEGRADE_WATERMARK", cfg.degrade_watermark,
                      0.0, 1.0, kCtx);
  core::env_int_in("FFTX_SERVE_NTG", cfg.ntg, 1, 1 << 10, kCtx);
  core::env_double_in("FFTX_SERVE_IDLE_POLL_MS", cfg.idle_poll_ms, 0.1, 1e6,
                      kCtx);
  return cfg;
}

DegradeEffect apply_degrade_level(int level, mpi::WireFormat requested,
                                  int stream_depth, int checkpoint_bands) {
  DegradeEffect e{requested, -1, 0, {}};
  auto name = [&e](const char* step) {
    if (!e.note.empty()) e.note += ", ";
    e.note += step;
  };
  if (level >= 1 && requested == mpi::WireFormat::Fp64) {
    e.wire = mpi::WireFormat::Fp32;
    name("wire fp64->fp32");
  }
  if (level >= 2 && stream_depth > 1) {
    e.stream_bands = 1;  // fold the streaming ring: one band in flight
    name("stream depth->1");
  }
  if (level >= 3 && checkpoint_bands != 0) {
    e.checkpoint_bands = 0;
    name("checkpoint cadence->end-of-run");
  }
  if (level > 0 && e.note.empty()) e.note = "no applicable step";
  return e;
}

int choose_degrade_level(double queue_fill, bool post_shrink,
                         double watermark) {
  int level = 0;
  if (queue_fill >= watermark) {
    // One step at the watermark, another per half of the remaining range:
    // fill in [w, w + (1-w)/2) is L1, [w + (1-w)/2, 1] is L2.
    level = queue_fill >= watermark + (1.0 - watermark) * 0.5 ? 2 : 1;
  }
  if (post_shrink) ++level;  // lost capacity: shed fidelity, not requests
  return std::min(level, 3);
}

// ---------------------------------------------------------------------------

struct Frontend::Pending {
  std::shared_ptr<detail::TicketState> state;
  Request req;
  double admit_ts = 0.0;
  core::Deadline deadline;  ///< this request's own budget
  bool requeued = false;    ///< already got its one re-execution chance
};

struct Frontend::Tenant {
  std::deque<Pending> q;
  int weight = 1;
  int rr_used = 0;  ///< dispatches consumed of this rotation turn
  // Token bucket (admission rate).
  double tokens = 0.0;
  double last_refill = 0.0;
  bool bucket_primed = false;
  // Circuit breaker.
  enum class Breaker { Closed, Open, HalfOpen } breaker = Breaker::Closed;
  int strikes = 0;
  double open_until = 0.0;
  int half_open_budget = 0;
  core::Histogram* latency_ms = nullptr;
};

struct Frontend::Order {
  OrderKind kind = OrderKind::Idle;
  std::uint64_t index = kNoIndex;

  struct Member {
    std::shared_ptr<detail::TicketState> state;
    Request req;
    double admit_ts = 0.0;
    core::Deadline deadline;
    bool requeued = false;
    int first_carried = 0;
    int carried = 0;
  };

  // Execution parameters (identical on every rank by construction: the
  // leader fills them under the lock before broadcasting the index).
  double alat = 0.0;
  double ecut = 0.0;
  bool real = false;
  mpi::WireFormat wire_requested = mpi::WireFormat::Fp64;
  mpi::WireFormat wire = mpi::WireFormat::Fp64;
  int carried_total = 0;
  int checkpoint_bands = -1; ///< -1 = keep configured default
  int stream_bands = 0;      ///< 0 = keep configured default
  int degrade_level = 0;
  std::string degrade_note;
  double deadline_expiry = 0.0;  ///< min over members; 0 = none
  double dispatch_ts = 0.0;
  std::vector<Member> members;

  /// Exactly-one-terminal-state guard: outputs are replicated, so the
  /// first rank through fulfills and the rest drop theirs.
  std::atomic<bool> claimed{false};
  bool claim() { return !claimed.exchange(true); }
};

Frontend::Frontend(ServeConfig cfg) : cfg_(std::move(cfg)) {}

Frontend::~Frontend() {
  // A frontend destroyed with admitted-but-unresolved requests would leave
  // waiters blocked forever; fail them loudly instead.
  fail_pending("serve: frontend destroyed with the request still pending");
}

Frontend::Tenant& Frontend::tenant_locked(const std::string& name) {
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    it = tenants_.emplace(name, Tenant{}).first;
    it->second.latency_ms = &core::MetricsRegistry::global().histogram(
        core::cat("fftx.serve.latency_ms.", name));
    rr_order_.push_back(name);
  }
  return it->second;
}

bool Frontend::any_queued_locked() const {
  for (const auto& [name, t] : tenants_) {
    if (!t.q.empty()) return true;
  }
  return false;
}

int Frontend::total_queued_locked() const {
  int n = 0;
  for (const auto& [name, t] : tenants_) n += static_cast<int>(t.q.size());
  return n;
}

double Frontend::queue_fill_locked() const {
  if (tenants_.empty()) return 0.0;
  const double cap =
      static_cast<double>(tenants_.size()) * cfg_.queue_depth;
  return static_cast<double>(total_queued_locked()) / cap;
}

Ticket Frontend::submit(const Request& req) {
  FX_CHECK(req.num_bands >= 1 && req.alat_bohr > 0.0 && req.ecut_ry > 0.0,
           "serve: malformed request");
  auto& m = serve_metrics();
  std::lock_guard lock(mu_);
  m.submitted.add();
  if (stopping_) {
    shed_counter(ShedReason::ShuttingDown).add();
    throw Overloaded(ShedReason::ShuttingDown,
                     "serve: shutting down, submission rejected");
  }
  Tenant& t = tenant_locked(req.tenant);
  const double now = core::WallTimer::now();

  // Circuit breaker: an open tenant is quarantined until cooldown, then one
  // probe request may pass (half-open); its outcome closes or re-opens.
  if (cfg_.breaker_strikes > 0) {
    if (t.breaker == Tenant::Breaker::Open) {
      if (now < t.open_until) {
        shed_counter(ShedReason::Quarantined).add();
        throw Overloaded(
            ShedReason::Quarantined,
            core::cat("serve: tenant '", req.tenant,
                      "' quarantined by circuit breaker for another ",
                      core::fixed((t.open_until - now) * 1e3, 1), " ms"));
      }
      t.breaker = Tenant::Breaker::HalfOpen;
      t.half_open_budget = 1;
    }
    if (t.breaker == Tenant::Breaker::HalfOpen) {
      if (t.half_open_budget <= 0) {
        shed_counter(ShedReason::Quarantined).add();
        throw Overloaded(ShedReason::Quarantined,
                         core::cat("serve: tenant '", req.tenant,
                                   "' half-open, probe already in flight"));
      }
      --t.half_open_budget;
    }
  }

  // Token bucket: refill by elapsed time, spend one token per admission.
  if (cfg_.rate > 0.0) {
    if (!t.bucket_primed) {
      t.tokens = cfg_.burst;
      t.bucket_primed = true;
    } else {
      t.tokens = std::min(cfg_.burst,
                          t.tokens + (now - t.last_refill) * cfg_.rate);
    }
    t.last_refill = now;
    if (t.tokens < 1.0) {
      shed_counter(ShedReason::RateLimited).add();
      throw Overloaded(ShedReason::RateLimited,
                       core::cat("serve: tenant '", req.tenant,
                                 "' over its admission rate (",
                                 cfg_.rate, "/s, burst ", cfg_.burst, ")"));
    }
    t.tokens -= 1.0;
  }

  if (static_cast<int>(t.q.size()) >= cfg_.queue_depth) {
    shed_counter(ShedReason::QueueFull).add();
    throw Overloaded(ShedReason::QueueFull,
                     core::cat("serve: tenant '", req.tenant,
                               "' queue full (", cfg_.queue_depth, ")"));
  }

  auto state = std::make_shared<detail::TicketState>();
  t.q.push_back(Pending{state, req, now, core::Deadline::after(req.deadline_s),
                        /*requeued=*/false});
  const auto depth = static_cast<double>(total_queued_locked());
  m.queue_depth.set(depth);
  m.queue_peak.max_of(depth);
  work_cv_.notify_all();
  return Ticket(state);
}

void Frontend::request_stop() {
  std::lock_guard lock(mu_);
  stopping_ = true;
  work_cv_.notify_all();
}

void Frontend::set_tenant_weight(const std::string& tenant, int weight) {
  FX_CHECK(weight >= 1, "serve: tenant weight must be >= 1");
  std::lock_guard lock(mu_);
  tenant_locked(tenant).weight = weight;
}

std::vector<ExecutionRecord> Frontend::execution_log() const {
  std::lock_guard lock(mu_);
  return exec_log_;
}

std::shared_ptr<Frontend::Order> Frontend::schedule_locked(int world_size) {
  const double now = core::WallTimer::now();
  // Pressure is what the queues look like at dispatch time -- before this
  // group drains them -- otherwise a big coalesced group would mask the
  // very overload it is absorbing.
  const double fill_at_dispatch = queue_fill_locked();

  // Starvation bound first: if any head-of-queue request has aged past the
  // bound, its tenant jumps the rotation outright.
  std::string pick;
  double oldest = std::numeric_limits<double>::infinity();
  std::string oldest_tenant;
  for (const auto& name : rr_order_) {
    const Tenant& t = tenants_.at(name);
    if (!t.q.empty() && t.q.front().admit_ts < oldest) {
      oldest = t.q.front().admit_ts;
      oldest_tenant = name;
    }
  }
  if (oldest_tenant.empty()) return nullptr;
  if ((now - oldest) * 1e3 > cfg_.starvation_ms) {
    pick = oldest_tenant;
  } else {
    // Weighted round-robin: the cursor tenant keeps its turn for `weight`
    // consecutive dispatches, then the rotation advances.
    const std::size_t n = rr_order_.size();
    for (std::size_t scan = 0; scan < n; ++scan) {
      const std::size_t at = (rr_next_ + scan) % n;
      Tenant& t = tenants_.at(rr_order_[at]);
      if (t.q.empty()) {
        t.rr_used = 0;
        continue;
      }
      pick = rr_order_[at];
      if (++t.rr_used >= t.weight) {
        t.rr_used = 0;
        rr_next_ = (at + 1) % n;
      } else {
        rr_next_ = at;
      }
      break;
    }
  }
  FX_ASSERT(!pick.empty(), "non-empty queue must yield a pick");

  auto o = std::make_shared<Order>();
  o->kind = OrderKind::Execute;
  o->dispatch_ts = now;

  Tenant& lead = tenants_.at(pick);
  const Pending head = lead.q.front();
  lead.q.pop_front();
  o->alat = head.req.alat_bohr;
  o->ecut = head.req.ecut_ry;
  o->real = head.req.real_bands;
  o->wire_requested = head.req.wire;
  const bool head_has_deadline = head.deadline.active();

  auto push_member = [&](const Pending& p) {
    Order::Member mm;
    mm.state = p.state;
    mm.req = p.req;
    mm.admit_ts = p.admit_ts;
    mm.deadline = p.deadline;
    mm.requeued = p.requeued;
    mm.first_carried = o->carried_total;
    mm.carried = carried_bands(p.req);
    o->carried_total += mm.carried;
    if (p.deadline.active()) {
      o->deadline_expiry = o->deadline_expiry <= 0.0
                               ? p.deadline.expiry_s()
                               : std::min(o->deadline_expiry,
                                          p.deadline.expiry_s());
    }
    o->members.push_back(std::move(mm));
  };
  push_member(head);

  // Coalesce: sweep every tenant queue (rotation order, so no tenant is
  // systematically preferred) for requests the group can absorb.  Only
  // like-for-like batches: same problem, same wire, same r2c mode, and the
  // same deadline *presence* -- a budgetless request must never be
  // cancelled because a deadline-carrying peer ran out of time.
  auto compatible = [&](const Pending& p) {
    return p.req.alat_bohr == o->alat && p.req.ecut_ry == o->ecut &&
           p.req.real_bands == o->real && p.req.wire == o->wire_requested &&
           p.deadline.active() == head_has_deadline &&
           o->carried_total + carried_bands(p.req) <= cfg_.coalesce_bands;
  };
  if (o->carried_total < cfg_.coalesce_bands) {
    const std::size_t n = rr_order_.size();
    for (std::size_t scan = 0; scan < n; ++scan) {
      Tenant& t = tenants_.at(rr_order_[(rr_next_ + scan) % n]);
      for (auto it = t.q.begin(); it != t.q.end();) {
        if (compatible(*it)) {
          push_member(*it);
          it = t.q.erase(it);
        } else {
          ++it;
        }
      }
    }
  }

  // Degradation ladder: pressure- and capacity-driven, declared per group.
  o->degrade_level = choose_degrade_level(fill_at_dispatch, post_shrink_,
                                          cfg_.degrade_watermark);
  const fftx::PipelineConfig& pcfg = cfg_.pipeline;
  DegradeEffect eff = apply_degrade_level(
      o->degrade_level, o->wire_requested,
      pcfg.mode == fftx::PipelineMode::Streaming ? pcfg.stream_bands : 1,
      cfg_.recovery.checkpoint_bands);
  o->wire = eff.wire;
  o->checkpoint_bands = eff.checkpoint_bands;
  o->stream_bands = eff.stream_bands;
  o->degrade_note = std::move(eff.note);

  auto& m = serve_metrics();
  m.groups.add();
  m.queue_depth.set(static_cast<double>(total_queued_locked()));
  for (const auto& mm : o->members) {
    m.queue_ms.record((now - mm.admit_ts) * 1e3);
  }

  ExecutionRecord rec;
  rec.seq = exec_seq_++;
  rec.carried_bands = o->carried_total;
  rec.degrade_level = o->degrade_level;
  for (const auto& mm : o->members) rec.tenants.push_back(mm.req.tenant);
  exec_log_.push_back(std::move(rec));

  (void)world_size;
  return o;
}

std::shared_ptr<Frontend::Order> Frontend::next_order(mpi::Comm& world) {
  std::unique_lock lock(mu_);
  // Re-dispatch before new work: an order whose broadcast died with a rank
  // leaves popped requests in limbo -- the survivors must run it (on the
  // shrunk world) or its tickets never resolve.
  while (first_unclaimed_ < orders_.size() &&
         orders_[first_unclaimed_]->claimed.load()) {
    ++first_unclaimed_;
  }
  if (first_unclaimed_ < orders_.size()) return orders_[first_unclaimed_];

  work_cv_.wait_for(
      lock, std::chrono::duration<double, std::milli>(cfg_.idle_poll_ms),
      [&] { return stopping_ || any_queued_locked(); });

  if (any_queued_locked()) {
    if (auto o = schedule_locked(world.size())) {
      o->index = orders_.size();
      orders_.push_back(o);
      return o;
    }
  }
  auto o = std::make_shared<Order>();
  o->kind = (stopping_ && !any_queued_locked()) ? OrderKind::Stop
                                                : OrderKind::Idle;
  return o;
}

void Frontend::serve(mpi::Comm& world) {
  {
    std::lock_guard lock(mu_);
    if (initial_world_size_ == 0) initial_world_size_ = world.size();
  }
  for (;;) {
    try {
      std::uint64_t hdr[2] = {0, kNoIndex};
      std::shared_ptr<Order> o;
      if (world.rank() == 0) {
        o = next_order(world);
        hdr[0] = static_cast<std::uint64_t>(o->kind);
        hdr[1] = o->index;
        world.bcast_bytes(hdr, sizeof(hdr), 0, kOrderTag);
      } else {
        world.bcast_bytes(hdr, sizeof(hdr), 0, kOrderTag);
        const auto kind = static_cast<OrderKind>(hdr[0]);
        if (kind == OrderKind::Execute) {
          std::lock_guard lock(mu_);
          FX_CHECK(hdr[1] < orders_.size(), "serve: order index out of range");
          o = orders_[hdr[1]];
        } else {
          o = std::make_shared<Order>();
          o->kind = kind;
        }
      }
      if (o->kind == OrderKind::Stop) return;
      if (o->kind == OrderKind::Idle) continue;
      if (!execute_group(world, *o)) return;  // this rank was killed
    } catch (const core::FaultError& e) {
      // Killed outside the recovery driver (e.g. at the order broadcast):
      // revoke so peers unwind promptly, declare death so their shrink
      // completes without us, and bow out.
      world.revoke(e.what());
      world.mark_dead();
      return;
    } catch (const core::Error& e) {
      // Survivable world failure (a peer died or a group failed beyond
      // repair): every surviving rank lands here -- the throw was either
      // induced on all ranks by the revoke, or forced below by revoking
      // ourselves -- shrinks, and keeps serving at degraded capacity.
      if (!world.is_revoked()) world.revoke(e.what());
      mpi::Comm shrunk = world.shrink();
      world = shrunk;
      {
        std::lock_guard lock(mu_);
        post_shrink_ = world.size() < initial_world_size_;
      }
      if (world.size() < 1) return;
    }
  }
}

bool Frontend::execute_group(mpi::Comm& world, Order& o) {
  std::shared_ptr<const fftx::Descriptor> desc;
  {
    std::lock_guard lock(mu_);
    int ntg = 1;
    for (int d = 1; d <= cfg_.ntg; ++d) {
      if (world.size() % d == 0) ntg = d;
    }
    const auto key = std::make_tuple(std::bit_cast<std::uint64_t>(o.alat),
                                     std::bit_cast<std::uint64_t>(o.ecut),
                                     world.size(), ntg);
    auto it = desc_cache_.find(key);
    if (it == desc_cache_.end()) {
      it = desc_cache_
               .emplace(key, std::make_shared<const fftx::Descriptor>(
                                 pw::Cell{o.alat}, o.ecut, world.size(), ntg))
               .first;
    }
    desc = it->second;
  }

  fftx::PipelineConfig cfg = cfg_.pipeline;
  cfg.num_bands = o.real ? 2 * o.carried_total : o.carried_total;
  cfg.real_bands = o.real;
  cfg.wire_format = o.wire;
  cfg.deadline = core::Deadline::at(o.deadline_expiry);
  if (o.stream_bands > 0) cfg.stream_bands = o.stream_bands;
  fftx::RecoveryConfig rcfg = cfg_.recovery;
  if (o.checkpoint_bands >= 0) rcfg.checkpoint_bands = o.checkpoint_bands;

  core::WallTimer timer;
  std::vector<std::vector<fft::cplx>> out;
  try {
    fftx::RecoveryDriver driver(world, std::move(desc), cfg, rcfg);
    const fftx::RecoveryReport rep = driver.run(out);
    if (rep.died) return false;  // driver already revoked + marked us dead
    FX_ASSERT(rep.completed, "driver returned neither died nor completed");
  } catch (const core::DeadlineExceeded& e) {
    // Clean collective cancel: the communicator is healthy, partial work is
    // discarded, and members with budget left get their one re-queue.
    if (o.claim()) handle_deadline_cancel(o, e.what(), timer.seconds());
    return true;
  } catch (const core::Error& e) {
    // Terminal failure for the group (repair budget exhausted, recovery
    // disabled, or sticky corruption).  Mark the tickets -- exactly one
    // rank does -- then rethrow so the serve loop repairs the world.
    if (o.claim()) fulfill_terminal(o, Status::Failed, e.what(),
                                    timer.seconds());
    throw;
  }
  if (o.claim()) fulfill_completed(o, out, timer.seconds());
  return true;
}

void Frontend::fulfill_completed(Order& o,
                                 std::vector<std::vector<fft::cplx>>& out,
                                 double exec_s) {
  auto& m = serve_metrics();
  const double now = core::WallTimer::now();
  const bool degraded = o.degrade_level > 0;
  for (auto& mm : o.members) {
    Response resp;
    resp.status = degraded ? Status::CompletedDegraded : Status::Completed;
    if (degraded) {
      resp.detail = core::cat("degraded L", o.degrade_level, ": ",
                              o.degrade_note);
    }
    resp.degrade_level = o.degrade_level;
    resp.wire = o.wire;
    resp.queue_s = o.dispatch_ts - mm.admit_ts;
    resp.exec_s = exec_s;
    resp.assigned_first_band =
        o.real ? 2 * mm.first_carried : mm.first_carried;
    resp.bands.assign(
        std::make_move_iterator(out.begin() + mm.first_carried),
        std::make_move_iterator(out.begin() + mm.first_carried + mm.carried));
    (degraded ? m.completed_degraded : m.completed).add();
    const double lat_ms = (now - mm.admit_ts) * 1e3;
    m.latency_ms.record(lat_ms);
    m.exec_ms.record(exec_s * 1e3);
    {
      std::lock_guard lock(mu_);
      Tenant& t = tenant_locked(mm.req.tenant);
      t.latency_ms->record(lat_ms);
    }
    // Outcome before publication: a caller woken by this response must
    // see the breaker already closed (a successful half-open probe).
    breaker_success(mm.req.tenant);
    fulfill(*mm.state, std::move(resp));
  }
}

void Frontend::fulfill_terminal(Order& o, Status st, const std::string& why,
                                double exec_s) {
  auto& m = serve_metrics();
  const double now = core::WallTimer::now();
  for (auto& mm : o.members) {
    Response resp;
    resp.status = st;
    resp.detail = why;
    resp.degrade_level = o.degrade_level;
    resp.wire = o.wire;
    resp.queue_s = o.dispatch_ts - mm.admit_ts;
    resp.exec_s = exec_s;
    (st == Status::Failed ? m.failed : m.deadline_cancelled).add();
    m.latency_ms.record((now - mm.admit_ts) * 1e3);
    // Strike before publication: a client woken by the Failed response
    // must not be admitted ahead of the strike that quarantines it.
    if (st == Status::Failed) breaker_strike(mm.req.tenant);
    fulfill(*mm.state, std::move(resp));
  }
}

void Frontend::handle_deadline_cancel(Order& o, const std::string& why,
                                      double exec_s) {
  auto& m = serve_metrics();
  std::lock_guard lock(mu_);
  for (auto& mm : o.members) {
    // The group cancelled at its *tightest* member's expiry; a member whose
    // own budget survives gets one re-queue (front of its tenant's queue,
    // original admission time) so a slow neighbor can't cancel it outright.
    if (!mm.requeued && !mm.deadline.expired()) {
      Tenant& t = tenant_locked(mm.req.tenant);
      t.q.push_front(Pending{mm.state, mm.req, mm.admit_ts, mm.deadline,
                             /*requeued=*/true});
      m.requeued.add();
      continue;
    }
    Response resp;
    resp.status = Status::DeadlineCancelled;
    resp.detail = why;
    resp.degrade_level = o.degrade_level;
    resp.wire = o.wire;
    resp.queue_s = o.dispatch_ts - mm.admit_ts;
    resp.exec_s = exec_s;
    m.deadline_cancelled.add();
    m.latency_ms.record((core::WallTimer::now() - mm.admit_ts) * 1e3);
    fulfill(*mm.state, std::move(resp));
  }
  const auto depth = static_cast<double>(total_queued_locked());
  m.queue_depth.set(depth);
  m.queue_peak.max_of(depth);
  work_cv_.notify_all();
}

void Frontend::breaker_strike(const std::string& tenant) {
  if (cfg_.breaker_strikes <= 0) return;
  std::lock_guard lock(mu_);
  Tenant& t = tenant_locked(tenant);
  ++t.strikes;
  if (t.breaker == Tenant::Breaker::HalfOpen ||
      t.strikes >= cfg_.breaker_strikes) {
    t.breaker = Tenant::Breaker::Open;
    t.open_until = core::WallTimer::now() + cfg_.breaker_cooldown_s;
    t.strikes = 0;
    serve_metrics().breaker_opens.add();
  }
}

void Frontend::breaker_success(const std::string& tenant) {
  if (cfg_.breaker_strikes <= 0) return;
  std::lock_guard lock(mu_);
  Tenant& t = tenant_locked(tenant);
  t.breaker = Tenant::Breaker::Closed;
  t.strikes = 0;
  t.half_open_budget = 0;
}

int Frontend::fail_pending(const std::string& why) {
  std::vector<std::shared_ptr<detail::TicketState>> pending;
  {
    std::lock_guard lock(mu_);
    for (auto& [name, t] : tenants_) {
      for (auto& p : t.q) pending.push_back(p.state);
      t.q.clear();
    }
    for (auto& o : orders_) {
      for (auto& mm : o->members) pending.push_back(mm.state);
    }
    serve_metrics().queue_depth.set(0.0);
  }
  int failed = 0;
  for (auto& st : pending) {
    std::unique_lock lock(st->mu);
    if (st->done) continue;
    lock.unlock();
    Response resp;
    resp.status = Status::Failed;
    resp.detail = why;
    fulfill(*st, std::move(resp));
    serve_metrics().failed.add();
    ++failed;
  }
  return failed;
}

}  // namespace fx::serve
