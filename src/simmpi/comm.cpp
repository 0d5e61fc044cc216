#include "simmpi/comm.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/format.hpp"
#include "core/metrics.hpp"
#include "core/timer.hpp"
#include "simmpi/context.hpp"

namespace fx::mpi {

const char* to_string(CommOpKind kind) {
  switch (kind) {
    case CommOpKind::Barrier:
      return "Barrier";
    case CommOpKind::Bcast:
      return "Bcast";
    case CommOpKind::Allreduce:
      return "Allreduce";
    case CommOpKind::Allgather:
      return "Allgather";
    case CommOpKind::Alltoall:
      return "Alltoall";
    case CommOpKind::Alltoallv:
      return "Alltoallv";
    case CommOpKind::Split:
      return "Split";
    case CommOpKind::Send:
      return "Send";
    case CommOpKind::Recv:
      return "Recv";
    case CommOpKind::Gather:
      return "Gather";
    case CommOpKind::Scatter:
      return "Scatter";
    case CommOpKind::Reduce:
      return "Reduce";
    case CommOpKind::Ialltoall:
      return "Ialltoall";
    case CommOpKind::Ialltoallv:
      return "Ialltoallv";
  }
  return "?";
}

namespace detail {

/// Per-rank, per-communicator matching state, shared by Comm copies.
struct RankState {
  std::mutex mu;
  std::map<std::pair<int, int>, std::uint64_t> seq;
  CommObserver observer;
  std::atomic<std::size_t> bytes_sent{0};

  std::uint64_t next_seq(int kind, int tag) {
    std::lock_guard lock(mu);
    return seq[{kind, tag}]++;
  }
  CommObserver get_observer() {
    std::lock_guard lock(mu);
    return observer;
  }
};

namespace {

/// World rank of `rank` in `ctx` (local rank when unknown, i.e. the
/// context was built outside Runtime::run).
int wrank(const CommContext& ctx, int rank) {
  return ctx.world_ranks.empty()
             ? rank
             : ctx.world_ranks[static_cast<std::size_t>(rank)];
}

/// Must hold ctx.mu.  Unwinds with the poisoning rank's error; a revoked
/// (repairable) communicator raises the RevokedError subclass so recovery
/// drivers can rendezvous in agree/shrink instead of tearing down.
void check_alive_locked(const CommContext& ctx) {
  if (ctx.aborted) {
    if (ctx.revoked) throw core::RevokedError(ctx.poison_reason);
    throw core::CommError(ctx.poison_reason);
  }
}

/// Fault-injection entry hook: may sleep (delay/stall) or throw
/// core::FaultError (kill).  Call before taking ctx.mu.
void inject(CommContext& ctx, int rank, CommOpKind kind) {
  if (ctx.faults) ctx.faults->on_op(wrank(ctx, rank), kind);
}

/// Fault-injection payload hook for received data.
void inject_corrupt(CommContext& ctx, int rank, CommOpKind kind, void* data,
                    std::size_t bytes) {
  if (ctx.faults) {
    ctx.faults->maybe_corrupt(wrank(ctx, rank), kind, data, bytes);
  }
}

void note_progress(CommContext& ctx) {
  if (ctx.board) ctx.board->op_completed();
}

ProgressBoard::Blocked blocked_info(const CommContext& ctx, int rank,
                                    CommOpKind kind, int tag,
                                    std::uint64_t seq) {
  return ProgressBoard::Blocked{wrank(ctx, rank), ctx.id,   ctx.size,
                                rank,             kind,     tag,
                                seq,              fx::core::WallTimer::now()};
}

/// Collective-matching validator.  Must hold ctx.mu; called before this
/// rank registers in its own op.  Two simultaneously-incomplete ops with
/// the same tag on one communicator can only arise when the ranks disagree
/// on the kind or the per-tag order of collectives (an incomplete op pins
/// every earlier same-tag op incomplete on all its participants), so raise
/// a structured error naming both sides instead of letting both sides hang.
/// Nonblocking collective kinds: posts return immediately, so an entry of
/// theirs staying incomplete while other collectives run is the *intended*
/// overlap, not a matching bug -- the validator exempts them both as the
/// entering op and as the pinned-incomplete witness.
bool is_nonblocking_kind(int kind) {
  return kind == static_cast<int>(CommOpKind::Ialltoall) ||
         kind == static_cast<int>(CommOpKind::Ialltoallv);
}

void validate_entry_locked(const CommContext& ctx, const OpKey& key,
                           int rank) {
  if (!ctx.validate || is_nonblocking_kind(key.kind)) return;
  for (const auto& [other_key, other] : ctx.ops) {
    if (other_key.tag != key.tag || other_key == key) continue;
    if (is_nonblocking_kind(other_key.kind)) continue;
    if (other->ready || other->arrived == 0) continue;
    std::ostringstream os;
    os << "collective mismatch on comm " << ctx.id << " (size " << ctx.size
       << "): rank " << rank << " (world " << wrank(ctx, rank) << ") entered "
       << to_string(static_cast<CommOpKind>(key.kind)) << "(tag " << key.tag
       << ", seq " << key.seq << ") while "
       << to_string(static_cast<CommOpKind>(other_key.kind)) << "(tag "
       << other_key.tag << ", seq " << other_key.seq
       << ") is still incomplete with arrived local ranks {";
    for (std::size_t i = 0; i < other->arrived_ranks.size(); ++i) {
      os << (i > 0 ? ", " : "") << other->arrived_ranks[i];
    }
    os << "} -- the ranks disagree on the kind or per-tag order of "
          "collectives";
    throw core::CommError(os.str());
  }
}

/// One rank's copy phase of a collective that every rank entered.  Peers
/// read this rank's send buffers and counts until all ranks finished
/// copying, so the phase ends -- through leave() or, when a copy-phase
/// check throws, the destructor -- only once every rank is done.  An abort
/// (revoke, poison) must not let a rank unwind early: its caller could
/// free the buffers a peer is still reading.  The copy phase never blocks,
/// so the wait is short.
class CopyPhase {
 public:
  CopyPhase(CommContext& ctx, const OpKey& key, int rank,
            std::shared_ptr<OpState> op)
      : ctx_(ctx), key_(key), rank_(rank), op_(std::move(op)) {}
  ~CopyPhase() {
    if (!left_) {
      std::unique_lock lock(ctx_.mu);
      finish_locked(lock);
    }
  }
  CopyPhase(const CopyPhase&) = delete;
  CopyPhase& operator=(const CopyPhase&) = delete;

  OpState* operator->() const { return op_.get(); }

  /// Ends the phase, then unwinds if the communicator was aborted while
  /// the ranks were copying.
  void leave() {
    left_ = true;
    {
      std::unique_lock lock(ctx_.mu);
      finish_locked(lock);
      check_alive_locked(ctx_);
    }
    note_progress(ctx_);
  }

 private:
  /// Counts this rank done and waits for every rank; the last finisher
  /// retires the op.
  void finish_locked(std::unique_lock<std::mutex>& lock) {
    if (++op_->done == ctx_.size) {
      ctx_.ops.erase(key_);
      ctx_.cv.notify_all();
      return;
    }
    ProgressBoard::Scope blocked(
        ctx_.board.get(),
        blocked_info(ctx_, rank_, static_cast<CommOpKind>(key_.kind),
                     key_.tag, key_.seq));
    ctx_.cv.wait(lock, [&] { return op_->done == ctx_.size; });
  }

  CommContext& ctx_;
  OpKey key_;
  int rank_;
  std::shared_ptr<OpState> op_;
  bool left_ = false;
};

/// Enters a collective: registers this rank's contribution via `setup`,
/// blocks until all ranks arrived (the last arriver runs `finalize` under
/// the lock before releasing everyone).  Returns the rank's copy phase.
/// Once every rank arrived the op proceeds even if the communicator is
/// aborted meanwhile: every peer's buffers are published and stay valid
/// until all ranks leave, and leave() reports the abort.
template <typename Setup, typename Finalize>
CopyPhase enter_collective(CommContext& ctx, const OpKey& key, int rank,
                           Setup&& setup, Finalize&& finalize) {
  std::unique_lock lock(ctx.mu);
  check_alive_locked(ctx);
  validate_entry_locked(ctx, key, rank);
  auto& slot = ctx.ops[key];
  if (!slot) slot = std::make_shared<OpState>(ctx.size);
  std::shared_ptr<OpState> op = slot;

  setup(*op);
  ++op->arrived;
  op->arrived_ranks.push_back(rank);
  FX_ASSERT(op->arrived <= ctx.size, "collective over-subscribed");
  if (op->arrived == ctx.size) {
    finalize(*op);
    op->ready = true;
    ctx.cv.notify_all();
  } else {
    ProgressBoard::Scope blocked(
        ctx.board.get(),
        blocked_info(ctx, rank, static_cast<CommOpKind>(key.kind), key.tag,
                     key.seq));
    ctx.cv.wait(lock, [&] { return op->ready || ctx.aborted; });
    if (!op->ready) check_alive_locked(ctx);
  }
  return CopyPhase(ctx, key, rank, std::move(op));
}

}  // namespace

RequestState::~RequestState() {
  if (op == nullptr || done) return;
  // An exchange abandoned before completion: its poster is unwinding and
  // may free the posted buffers next, so no peer may touch them again.
  // Withdraw the transfers nobody claimed yet, wait out the ones a peer is
  // copying right now (claimed copies never block), and -- unless an
  // abort already unwinds them with its own reason -- fail the exchange
  // for every peer that would otherwise wait on a withdrawn transfer.
  const auto n = static_cast<std::size_t>(ctx->size);
  const auto r = static_cast<std::size_t>(comm_rank);
  std::unique_lock lock(ctx->mu);
  bool withdrew = false;
  for (std::size_t k = 0; k < n; ++k) {
    for (std::uint8_t* s : {&op->xfer[r * n + k], &op->xfer[k * n + r]}) {
      if (*s == 0) {
        *s = 3;
        withdrew = true;
      }
    }
  }
  ctx->cv.wait(lock, [&] {
    for (std::size_t k = 0; k < n; ++k) {
      if (op->xfer[r * n + k] == 1 || op->xfer[k * n + r] == 1) return false;
    }
    return true;
  });
  if (withdrew && op->failed.empty() && !ctx->aborted) {
    op->failed = core::cat("nonblocking exchange on comm ", ctx->id, " (tag ",
                           tag, ") abandoned by rank ", comm_rank, " (world ",
                           wrank(*ctx, comm_rank), ") before completion");
  }
  ctx->cv.notify_all();
}

}  // namespace detail

using detail::CommContext;
using detail::OpKey;
using detail::OpState;

Comm::Comm(std::shared_ptr<detail::CommContext> ctx, int rank)
    : ctx_(std::move(ctx)),
      rank_state_(std::make_shared<detail::RankState>()),
      rank_(rank) {}

int Comm::size() const { return ctx_->size; }
int Comm::id() const { return ctx_->id; }

void Comm::set_observer(CommObserver observer) {
  std::lock_guard lock(rank_state_->mu);
  rank_state_->observer = std::move(observer);
}

std::size_t Comm::bytes_sent() const { return rank_state_->bytes_sent.load(); }

FaultInjector* Comm::fault_injector() const { return ctx_->faults.get(); }

int Comm::world_rank() const { return detail::wrank(*ctx_, rank_); }

namespace {

struct EventScope {
  // Emits the CommEvent on destruction (after the operation completed).
  EventScope(detail::RankState& rs, CommOpKind kind, int comm_id,
             int comm_size, int tag, std::size_t bytes)
      : rs_(rs),
        event_{kind, comm_id, comm_size, tag, bytes, fx::core::WallTimer::now(),
               0.0} {
    rs_.bytes_sent.fetch_add(bytes, std::memory_order_relaxed);
  }
  ~EventScope() {
    event_.t_end = fx::core::WallTimer::now();
    if (auto obs = rs_.get_observer()) {
      obs(event_);
    }
  }
  EventScope(const EventScope&) = delete;
  EventScope& operator=(const EventScope&) = delete;
  EventScope(EventScope&&) = delete;
  EventScope& operator=(EventScope&&) = delete;

  detail::RankState& rs_;
  CommEvent event_;
};

/// Lazy-message cross-rank size check: `mine` is this rank's expectation,
/// `theirs` what rank `peer` contributed.  Cold path builds the string.
void check_peer_bytes(const char* what, const detail::CommContext& ctx,
                      int rank, int peer, int tag, std::size_t mine,
                      std::size_t theirs) {
  if (mine == theirs) return;
  throw fx::core::CommError(fx::core::cat(
      what, " size mismatch on comm ", ctx.id, " (tag ", tag, "): rank ",
      rank, " (world ", detail::wrank(ctx, rank), ") expects ", mine,
      " B but rank ", peer, " (world ", detail::wrank(ctx, peer),
      ") contributed ", theirs, " B"));
}
}  // namespace

void Comm::barrier() {
  EventScope ev(*rank_state_, CommOpKind::Barrier, id(), size(), 0, 0);
  detail::inject(*ctx_, rank_, CommOpKind::Barrier);
  {
    std::unique_lock lock(ctx_->mu);
    detail::check_alive_locked(*ctx_);
    const std::uint64_t gen = ctx_->bar_gen;
    if (++ctx_->bar_count == ctx_->size) {
      ctx_->bar_count = 0;
      ++ctx_->bar_gen;
      ctx_->cv.notify_all();
    } else {
      ProgressBoard::Scope blocked(
          ctx_->board.get(),
          detail::blocked_info(*ctx_, rank_, CommOpKind::Barrier, 0, gen));
      ctx_->cv.wait(lock,
                    [&] { return ctx_->bar_gen != gen || ctx_->aborted; });
      detail::check_alive_locked(*ctx_);
    }
  }
  detail::note_progress(*ctx_);
}

void Comm::bcast_bytes(void* data, std::size_t bytes, int root, int tag) {
  FX_CHECK(root >= 0 && root < size());
  EventScope ev(*rank_state_, CommOpKind::Bcast, id(), size(), tag,
                rank_ == root ? bytes * static_cast<std::size_t>(size() - 1)
                              : 0);
  detail::inject(*ctx_, rank_, CommOpKind::Bcast);
  const OpKey key{static_cast<int>(CommOpKind::Bcast), tag,
                  rank_state_->next_seq(static_cast<int>(CommOpKind::Bcast),
                                        tag)};
  const std::size_t r = static_cast<std::size_t>(rank_);
  auto op = detail::enter_collective(
      *ctx_, key, rank_,
      [&](OpState& o) {
        o.send[r] = data;
        o.scalar[r] = bytes;
      },
      [&](OpState&) {});
  // Copy phase: everyone but the root pulls the root's buffer.
  check_peer_bytes("bcast", *ctx_, rank_, root, tag, bytes,
                   op->scalar[static_cast<std::size_t>(root)]);
  if (rank_ != root) {
    std::memcpy(data, op->send[static_cast<std::size_t>(root)], bytes);
    detail::inject_corrupt(*ctx_, rank_, CommOpKind::Bcast, data, bytes);
  }
  op.leave();
}

void Comm::allreduce_bytes(const void* send, void* recv, std::size_t count,
                           std::size_t elem_size,
                           void (*combine)(void*, const void*, std::size_t),
                           int tag) {
  const std::size_t bytes = count * elem_size;
  EventScope ev(*rank_state_, CommOpKind::Allreduce, id(), size(), tag, bytes);
  detail::inject(*ctx_, rank_, CommOpKind::Allreduce);
  const OpKey key{static_cast<int>(CommOpKind::Allreduce), tag,
                  rank_state_->next_seq(
                      static_cast<int>(CommOpKind::Allreduce), tag)};
  const std::size_t r = static_cast<std::size_t>(rank_);
  auto op = detail::enter_collective(
      *ctx_, key, rank_,
      [&](OpState& o) {
        o.send[r] = send;
        o.scalar[r] = bytes;
        o.combine = combine;
        o.count = count;
      },
      [&](OpState& o) {
        // Last arriver reduces while every peer is still blocked, so all
        // send buffers are stable.  Every rank's size is checked before
        // the first copy: the accumulator is filled from rank 0's buffer
        // and each rank copies its own size back out of it.
        for (int p = 0; p < ctx_->size; ++p) {
          check_peer_bytes("allreduce", *ctx_, rank_, p, tag, bytes,
                           o.scalar[static_cast<std::size_t>(p)]);
        }
        o.acc.resize(bytes);
        std::memcpy(o.acc.data(), o.send[0], bytes);
        for (int p = 1; p < ctx_->size; ++p) {
          o.combine(o.acc.data(), o.send[static_cast<std::size_t>(p)],
                    o.count);
        }
      });
  std::memcpy(recv, op->acc.data(), bytes);
  detail::inject_corrupt(*ctx_, rank_, CommOpKind::Allreduce, recv, bytes);
  op.leave();
}

Comm Comm::split(int color, int key, int tag) const {
  EventScope ev(*rank_state_, CommOpKind::Split, id(), size(), tag, 0);
  detail::inject(*ctx_, rank_, CommOpKind::Split);
  const OpKey opkey{static_cast<int>(CommOpKind::Split), tag,
                    rank_state_->next_seq(static_cast<int>(CommOpKind::Split),
                                          tag)};
  const std::size_t r = static_cast<std::size_t>(rank_);
  auto op = detail::enter_collective(
      *ctx_, opkey, rank_,
      [&](OpState& o) {
        o.scalar[r] = static_cast<std::size_t>(color);
        o.scalar2[r] = static_cast<std::size_t>(key);
      },
      [&](OpState& o) {
        // Group ranks by color; order members by (key, world rank).
        std::map<std::size_t, std::vector<int>> groups;
        for (int p = 0; p < ctx_->size; ++p) {
          groups[o.scalar[static_cast<std::size_t>(p)]].push_back(p);
        }
        // Forget dead children before adding new ones: an expired entry
        // would pin its make_shared block for the parent's lifetime.
        std::erase_if(ctx_->children,
                      [](const auto& w) { return w.expired(); });
        for (auto& [c, members] : groups) {
          // Keys were stored via size_t; recover the signed value so
          // negative keys order correctly.
          auto key_of = [&](int p) {
            return static_cast<long long>(
                static_cast<std::int64_t>(o.scalar2[static_cast<std::size_t>(p)]));
          };
          std::ranges::sort(members, [&](int a, int b) {
            return std::tuple(key_of(a), a) < std::tuple(key_of(b), b);
          });
          auto child =
              std::make_shared<CommContext>(static_cast<int>(members.size()));
          // Children inherit the world's hardening state so faults,
          // watchdog registration and poisoning span every communicator.
          child->faults = ctx_->faults;
          child->board = ctx_->board;
          child->validate = ctx_->validate;
          if (!ctx_->world_ranks.empty()) {
            child->world_ranks.reserve(members.size());
            for (int m : members) {
              child->world_ranks.push_back(
                  ctx_->world_ranks[static_cast<std::size_t>(m)]);
            }
          }
          ctx_->children.push_back(child);
          for (std::size_t i = 0; i < members.size(); ++i) {
            const auto m = static_cast<std::size_t>(members[i]);
            o.child_ctx[m] = child;
            o.child_rank[m] = static_cast<int>(i);
          }
        }
      });
  Comm child(op->child_ctx[r], op->child_rank[r]);
  child.set_observer(rank_state_->get_observer());
  op.leave();
  return child;
}

// --- Fault recovery (revoke / mark_dead / agree / shrink) ---

namespace {

/// Core of the repair rendezvous shared by agree() and shrink(): completes
/// once every rank has either joined or been declared dead, so it works on
/// a revoked (poisoned) context.  Repair operations are exempt from the
/// alive check and from fault injection.  `join` folds this rank's
/// contribution in (under the lock; `first` is true for the round's first
/// arriver), `finish` runs exactly once when the round completes, and
/// `extract` reads this rank's result before the round is retired.
template <typename Join, typename Finish, typename Extract>
auto repair_rendezvous(detail::CommContext& ctx, detail::RepairState& st,
                       int rank, CommOpKind kind, Join&& join, Finish&& finish,
                       Extract&& extract) {
  std::unique_lock lock(ctx.mu);
  FX_CHECK(!ctx.dead[static_cast<std::size_t>(rank)],
           "a rank declared dead cannot join a repair collective");
  // A previous round may still be draining (ready but not yet retired by
  // its last participant); wait for its reset before joining the next one.
  ctx.cv.wait(lock, [&] { return !st.ready; });
  if (st.arrived == 0) {
    st.joined.assign(static_cast<std::size_t>(ctx.size), 0);
  }
  FX_CHECK(!st.joined[static_cast<std::size_t>(rank)],
           "rank entered a repair collective twice in one round");
  join(st, st.arrived == 0);
  st.joined[static_cast<std::size_t>(rank)] = 1;
  ++st.arrived;
  auto try_finish = [&] {
    if (!st.ready && st.arrived + ctx.ndead >= ctx.size) {
      finish(st);
      st.ready = true;
      ctx.cv.notify_all();
    }
  };
  try_finish();
  if (!st.ready) {
    // mark_dead() notifies the condvar, so a late death re-runs try_finish
    // from whichever waiter wakes first.
    ProgressBoard::Scope blocked(
        ctx.board.get(),
        detail::blocked_info(ctx, rank, kind, /*tag=*/-1, st.gen));
    ctx.cv.wait(lock, [&] {
      try_finish();
      return st.ready;
    });
  }
  auto result = extract(st);
  ++st.done;
  if (st.done == st.arrived) {
    detail::RepairState fresh;
    fresh.gen = st.gen + 1;
    st = std::move(fresh);
    ctx.cv.notify_all();
  }
  return result;
}

}  // namespace

void Comm::revoke(const std::string& reason) {
  ctx_->revoke(core::cat("comm ", id(), " revoked by rank ", rank_, " (world ",
                         detail::wrank(*ctx_, rank_), "): ", reason));
}

void Comm::mark_dead() {
  std::lock_guard lock(ctx_->mu);
  auto& flag = ctx_->dead[static_cast<std::size_t>(rank_)];
  if (!flag) {
    flag = 1;
    ++ctx_->ndead;
  }
  ctx_->cv.notify_all();
}

long long Comm::agree(long long value) {
  const long long result = repair_rendezvous(
      *ctx_, ctx_->agree_st, rank_, CommOpKind::Allreduce,
      [&](detail::RepairState& st, bool first) {
        st.value = first ? value : std::min(st.value, value);
      },
      [](detail::RepairState&) {},
      [](const detail::RepairState& st) { return st.value; });
  detail::note_progress(*ctx_);
  return result;
}

Comm Comm::shrink() {
  auto [child_ctx, child_rank] = repair_rendezvous(
      *ctx_, ctx_->shrink_st, rank_, CommOpKind::Split,
      [](detail::RepairState&, bool) {},
      [&](detail::RepairState& st) {
        std::vector<int> members;
        for (int p = 0; p < ctx_->size; ++p) {
          if (st.joined[static_cast<std::size_t>(p)]) members.push_back(p);
        }
        auto child =
            std::make_shared<CommContext>(static_cast<int>(members.size()));
        // The survivor communicator inherits the hardening state like a
        // split child would, but is NOT registered in `children`: a late
        // revoke of the broken parent must not poison the repaired comm.
        child->faults = ctx_->faults;
        child->board = ctx_->board;
        child->validate = ctx_->validate;
        if (!ctx_->world_ranks.empty()) {
          child->world_ranks.reserve(members.size());
          for (int m : members) {
            child->world_ranks.push_back(
                ctx_->world_ranks[static_cast<std::size_t>(m)]);
          }
        }
        st.child_rank.assign(static_cast<std::size_t>(ctx_->size), -1);
        for (std::size_t i = 0; i < members.size(); ++i) {
          st.child_rank[static_cast<std::size_t>(members[i])] =
              static_cast<int>(i);
        }
        st.child = std::move(child);
      },
      [&](const detail::RepairState& st) {
        return std::pair(st.child,
                         st.child_rank[static_cast<std::size_t>(rank_)]);
      });
  Comm out(std::move(child_ctx), child_rank);
  out.set_observer(rank_state_->get_observer());
  detail::note_progress(*ctx_);
  return out;
}

bool Comm::is_revoked() const {
  std::lock_guard lock(ctx_->mu);
  return ctx_->revoked;
}

int Comm::num_dead() const {
  std::lock_guard lock(ctx_->mu);
  return ctx_->ndead;
}

// --- All-to-all exchanges (one engine: post, then waiter-driven progress) ---

namespace {

// The transpose collectives are the paper's scaling limiter, so the
// blocking contiguous kinds' volume and whole-op time distributions are
// always-on metrics (lock-free records; resolved once per process).
struct AlltoallMetrics {
  fx::core::Counter& bytes;
  fx::core::Histogram& wait_us;
};

AlltoallMetrics& alltoall_metrics(CommOpKind kind) {
  auto& reg = fx::core::MetricsRegistry::global();
  static AlltoallMetrics a2a{reg.counter("simmpi.alltoall.bytes"),
                             reg.histogram("simmpi.alltoall.wait_us")};
  static AlltoallMetrics a2av{reg.counter("simmpi.alltoallv.bytes"),
                              reg.histogram("simmpi.alltoallv.wait_us")};
  return kind == CommOpKind::Alltoall ? a2a : a2av;
}

// The nonblocking kinds' health counters: posted/completed pair up in a
// quiescence check, wait_us is the *blocked* time only (post-to-completion
// latency hidden behind compute never shows up here -- that is the whole
// point of posting early).
struct NbMetrics {
  fx::core::Counter& posted;
  fx::core::Counter& completed;
  fx::core::Counter& bytes;
  fx::core::Histogram& wait_us;
};

NbMetrics& nb_metrics() {
  auto& reg = fx::core::MetricsRegistry::global();
  static NbMetrics m{reg.counter("simmpi.ialltoallv.posted"),
                     reg.counter("simmpi.ialltoallv.completed"),
                     reg.counter("simmpi.ialltoallv.bytes"),
                     reg.histogram("simmpi.ialltoallv.wait_us")};
  return m;
}

/// Running peak of the wire quantization error, in ulps of the wire
/// mantissa -- the runtime half of the reduced-precision error oracle (the
/// other half is the ULP-bound tests).  Named for the exchange layer that
/// opts into narrow wire formats.
fx::core::Gauge& wire_ulp_gauge() {
  static fx::core::Gauge& g =
      fx::core::MetricsRegistry::global().gauge("fftx.exchange.wire_max_ulp_err");
  return g;
}

/// The two-cursor run walk of every pairwise transfer: pairs a logical
/// element stream between two run lists whose total lengths agree
/// (checked by the caller) and hands each stretch to `move(dp, sp, k)`,
/// which moves k elements that are contiguous on both sides.  Stretches
/// contiguous on both sides go in one call, so the fully-contiguous case
/// is a single move per peer; strided ones go one element (k == 1) at a
/// time.  Elem is a compile-time constant where it matters: the strided
/// addressing then scales by a constant, and a memcpy move's size folds
/// to plain moves (a runtime-size memcpy call per element is what made
/// early fused exchanges lose to the staged path's typed marshal loops);
/// Elem == 0 is the generic runtime-size fallback.
template <std::size_t Elem, typename Move>
void walk_runs(const unsigned char* sbase, const SegRun* srun,
               std::size_t nsrun, unsigned char* dbase, const SegRun* drun,
               std::size_t ndrun, std::size_t elem_rt, Move&& move) {
  const std::size_t elem = Elem != 0 ? Elem : elem_rt;
  std::size_t si = 0;
  std::size_t so = 0;
  std::size_t di = 0;
  std::size_t dof = 0;
  while (si < nsrun && di < ndrun) {
    const SegRun& s = srun[si];
    const SegRun& d = drun[di];
    if (s.len == 0) {
      ++si;
      continue;
    }
    if (d.len == 0) {
      ++di;
      continue;
    }
    const std::size_t k = std::min(s.len - so, d.len - dof);
    const unsigned char* sp = sbase + (s.offset + so * s.stride) * elem;
    unsigned char* dp = dbase + (d.offset + dof * d.stride) * elem;
    if (s.stride == 1 && d.stride == 1) {
      move(dp, sp, k);
    } else {
      for (std::size_t i = 0; i < k; ++i) {
        move(dp + i * d.stride * elem, sp + i * s.stride * elem, 1);
      }
    }
    so += k;
    dof += k;
    if (so == s.len) {
      ++si;
      so = 0;
    }
    if (dof == d.len) {
      ++di;
      dof = 0;
    }
  }
}

template <std::size_t Elem>
void copy_runs_impl(const unsigned char* sbase, const SegRun* srun,
                    std::size_t nsrun, unsigned char* dbase,
                    const SegRun* drun, std::size_t ndrun,
                    std::size_t elem_rt) {
  walk_runs<Elem>(sbase, srun, nsrun, dbase, drun, ndrun, elem_rt,
                  [elem_rt](unsigned char* dp, const unsigned char* sp,
                            std::size_t k) {
                    std::memcpy(dp, sp, k * (Elem != 0 ? Elem : elem_rt));
                  });
}

/// The run walk for a reduced-precision wire: every double of the payload
/// passes through the wire format's quantize->dequantize round trip in
/// flight.  This IS the narrow wire -- shipping encoded bytes and widening
/// on arrival would land bit-identical values -- fused into the typed copy
/// so no staging buffer reappears.  Returns the largest quantization error
/// seen, in wire-mantissa ulps.
template <WireFormat W>
double convert_runs_impl(const unsigned char* sbase, const SegRun* srun,
                         std::size_t nsrun, unsigned char* dbase,
                         const SegRun* drun, std::size_t ndrun,
                         std::size_t elem) {
  const std::size_t nd = elem / sizeof(double);
  double max_err = 0.0;
  walk_runs<0>(sbase, srun, nsrun, dbase, drun, ndrun, elem,
               [nd, &max_err](unsigned char* dp, const unsigned char* sp,
                              std::size_t k) {
                 for (std::size_t w = 0; w < k * nd; ++w) {
                   double x;
                   std::memcpy(&x, sp + w * sizeof(double), sizeof(double));
                   const double q = wire_roundtrip(W, x);
                   const double e = wire_ulp_err(W, x, q);
                   if (e > max_err) max_err = e;
                   std::memcpy(dp + w * sizeof(double), &q, sizeof(double));
                 }
               });
  return max_err;
}

/// Dispatches a pairwise transfer to the plain copy (Fp64, sized at
/// compile time for the common element sizes) or the fused converting
/// copy; returns the transfer's peak wire quantization error.
double move_runs(const unsigned char* sbase, const SegRun* srun,
                 std::size_t nsrun, unsigned char* dbase, const SegRun* drun,
                 std::size_t ndrun, std::size_t elem, WireFormat wire) {
  switch (wire) {
    case WireFormat::Fp64:
      switch (elem) {
        case 16:  // complex<double>, the FFT pipeline's element
          copy_runs_impl<16>(sbase, srun, nsrun, dbase, drun, ndrun, elem);
          break;
        case 8:
          copy_runs_impl<8>(sbase, srun, nsrun, dbase, drun, ndrun, elem);
          break;
        case 4:
          copy_runs_impl<4>(sbase, srun, nsrun, dbase, drun, ndrun, elem);
          break;
        default:
          copy_runs_impl<0>(sbase, srun, nsrun, dbase, drun, ndrun, elem);
      }
      return 0.0;
    case WireFormat::Fp32:
      return convert_runs_impl<WireFormat::Fp32>(sbase, srun, nsrun, dbase,
                                                 drun, ndrun, elem);
    case WireFormat::Bf16:
      return convert_runs_impl<WireFormat::Bf16>(sbase, srun, nsrun, dbase,
                                                 drun, ndrun, elem);
  }
  return 0.0;
}

std::size_t run_span_elems(const std::vector<SegRun>& runs, std::size_t lo,
                           std::size_t hi) {
  std::size_t n = 0;
  for (std::size_t i = lo; i < hi; ++i) n += runs[i].len;
  return n;
}

/// One pairwise transfer of a nonblocking exchange: (sender, receiver).
using Transfer = std::pair<std::size_t, std::size_t>;

/// Diagnostic name of an exchange kind: the blocking contiguous kinds keep
/// their collective's name; every view or nonblocking post is a
/// "nonblocking exchange".
const char* exchange_name(int kind) {
  switch (static_cast<CommOpKind>(kind)) {
    case CommOpKind::Alltoall:
      return "alltoall";
    case CommOpKind::Alltoallv:
      return "alltoallv";
    default:
      return "nonblocking exchange";
  }
}

/// Metadata agreement for transfer p -> q: element sizes, wire formats and
/// the pairwise stream lengths.  Returns the diagnosis, named after the
/// op's kind; empty when the two endpoints agree.
std::string pair_error(const CommContext& ctx, const OpState& op,
                       const OpKey& key, std::size_t p, std::size_t q) {
  const auto pi = static_cast<int>(p);
  const auto qi = static_cast<int>(q);
  const char* what = exchange_name(key.kind);
  const int tag = key.tag;
  if (op.scalar[p] != op.scalar[q]) {
    return core::cat(what, " element size mismatch on comm ", ctx.id,
                     " (tag ", tag, "): rank ", p, " (world ",
                     detail::wrank(ctx, pi), ") uses ", op.scalar[p],
                     " B, but rank ", q, " (world ", detail::wrank(ctx, qi),
                     ") uses ", op.scalar[q], " B");
  }
  if (op.scalar2[p] != op.scalar2[q]) {
    return core::cat(
        what, " wire format mismatch on comm ", ctx.id, " (tag ", tag,
        "): rank ", p, " (world ", detail::wrank(ctx, pi), ") uses ",
        to_string(static_cast<WireFormat>(op.scalar2[p])), ", but rank ", q,
        " (world ", detail::wrank(ctx, qi), ") uses ",
        to_string(static_cast<WireFormat>(op.scalar2[q])));
  }
  const auto& ss = op.nb_send[p];
  const auto& rs = op.nb_recv[q];
  const std::size_t theirs =
      run_span_elems(ss.runs, ss.first[q], ss.first[q + 1]);
  const std::size_t mine =
      run_span_elems(rs.runs, rs.first[p], rs.first[p + 1]);
  if (theirs != mine) {
    return core::cat(what, " count mismatch on comm ", ctx.id,
                     " (tag ", tag, "): rank ", p, " (world ",
                     detail::wrank(ctx, pi), ") sends ", theirs,
                     " element(s) of ", op.scalar[p], " B to rank ", q,
                     " (world ", detail::wrank(ctx, qi), "), which expects ",
                     mine, " element(s)");
  }
  return {};
}

/// The claim routine of the receiver-copies rule; must hold ctx.mu.  Claims
/// for the request's rank r every pending transfer p -> r whose sender has
/// posted: r copies its own column.  With `row` set and that column
/// complete, it also claims every pending transfer r -> q whose receiver
/// has posted, so a blocked waiter never depends on a peer that is not
/// polling.  Claimed transfers are marked 1 and returned for
/// run_transfers.  Each pair's metadata is checked as it is claimed: a
/// mismatch releases this call's claims and poisons the op, so every
/// participant unwinds with the same diagnosis instead of hanging.
std::vector<Transfer> claim_locked(detail::RequestState& st, bool row) {
  CommContext& ctx = *st.ctx;
  OpState& op = *st.op;
  if (!op.failed.empty()) throw core::CommError(op.failed);
  const auto n = static_cast<std::size_t>(ctx.size);
  const auto r = static_cast<std::size_t>(st.comm_rank);
  std::vector<Transfer> jobs;
  auto claim = [&](std::size_t p, std::size_t q) {
    std::uint8_t& s = op.xfer[p * n + q];
    if (s != 0 || !op.nb_posted[p] || !op.nb_posted[q]) return;
    std::string err = pair_error(ctx, op, st.key, p, q);
    if (!err.empty()) {
      // This call never runs its jobs: release them, so nobody waits on a
      // claimed transfer that will not happen.
      for (const auto& [jp, jq] : jobs) op.xfer[jp * n + jq] = 0;
      op.failed = std::move(err);
      ctx.cv.notify_all();
      throw core::CommError(op.failed);
    }
    s = 1;
    jobs.emplace_back(p, q);
  };
  for (std::size_t p = 0; p < n; ++p) claim(p, r);
  if (row && op.done_in[r] == ctx.size) {
    for (std::size_t q = 0; q < n; ++q) claim(r, q);
  }
  return jobs;
}

/// The job runner: executes claimed transfers peer-direct, then marks them
/// done and wakes every waiter.  Call without ctx.mu held.  The posted
/// views and buffers are immutable, both endpoints' buffers stay valid
/// until their waits return (a wait needs its whole row and column done),
/// and distinct transfers never overlap (each receiver's per-peer views are
/// disjoint by contract).  Copies never block, so a withdrawing request can
/// wait them out.
void run_transfers(CommContext& ctx, OpState& op,
                   const std::vector<Transfer>& jobs) {
  const auto n = static_cast<std::size_t>(ctx.size);
  double max_ulp = 0.0;
  bool narrow = false;
  for (const auto& [p, q] : jobs) {
    const auto& ss = op.nb_send[p];
    const auto& rs = op.nb_recv[q];
    const auto wire = static_cast<WireFormat>(op.scalar2[q]);
    narrow = narrow || wire != WireFormat::Fp64;
    max_ulp = std::max(
        max_ulp,
        move_runs(static_cast<const unsigned char*>(op.send[p]),
                  ss.runs.data() + ss.first[q], ss.first[q + 1] - ss.first[q],
                  static_cast<unsigned char*>(op.nb_recv_base[q]),
                  rs.runs.data() + rs.first[p], rs.first[p + 1] - rs.first[p],
                  op.scalar[q], wire));
  }
  // One gauge update per batch, not per double: the copy loops accumulate
  // locally and the peak lands here.
  if (narrow) wire_ulp_gauge().max_of(max_ulp);
  {
    std::lock_guard lock(ctx.mu);
    for (const auto& [p, q] : jobs) {
      op.xfer[p * n + q] = 2;
      ++op.done_out[p];
      ++op.done_in[q];
    }
  }
  // Notified after unlocking, so a woken waiter can take the lock at once:
  // with more rank threads than cores, waking into a held lock costs a
  // second context switch per waiter.
  ctx.cv.notify_all();
}

/// Drives a posted exchange toward completion from the caller's thread.  It
///   1. copies this rank's column: every pending transfer into it whose
///      sender has posted (claim_locked, run_transfers).  A blocking wait
///      whose column is complete also copies its own pending row, so
///      completion needs nothing from a peer beyond its post.  The request
///      is complete once every transfer touching this rank is done -- its
///      sends consumed (the send buffer becomes reusable) and its receives
///      landed.  Crucially this never waits on transfers between two OTHER
///      ranks: there is no global all-ranks barrier, which is what lets a
///      chunked exchange's waits collapse to near zero when the posts were
///      spread across compute;
///   2. finalizes once per request: fault injection over the completed
///      receive stream, then completion accounting, with the last
///      finalizer retiring the matching-table entry.  The blocking
///      contiguous kinds record simmpi.alltoall{,v}.* over the whole op,
///      post to completion; the nonblocking kinds record
///      simmpi.ialltoallv.* with the blocked time only.
/// Blocking mode waits watchdog-registered; test mode copies its column
/// and returns false instead of blocking.  Unwinds with the poison error
/// when the communicator dies or is revoked mid-flight, and with the
/// recorded pair mismatch when any two endpoints disagreed on exchange
/// metadata.
bool complete_nb(detail::RequestState& st, bool blocking) {
  auto& ctx = *st.ctx;
  auto& op = *st.op;
  const auto r = static_cast<std::size_t>(st.comm_rank);
  const double t_wait = fx::core::WallTimer::now();

  std::unique_lock lock(ctx.mu);
  if (st.done) return true;
  auto mine_done = [&] {
    return op.done_out[r] == ctx.size && op.done_in[r] == ctx.size;
  };
  std::optional<ProgressBoard::Scope> blocked;
  for (;;) {
    if (!op.failed.empty()) throw core::CommError(op.failed);
    if (mine_done()) break;
    detail::check_alive_locked(ctx);
    const std::vector<Transfer> jobs = claim_locked(st, /*row=*/blocking);
    if (!jobs.empty()) {
      lock.unlock();
      run_transfers(ctx, op, jobs);
      lock.lock();
      continue;
    }
    if (!blocking) return false;
    if (!blocked) {
      blocked.emplace(ctx.board.get(),
                      detail::blocked_info(ctx, st.comm_rank, st.kind, st.tag,
                                           st.key.seq));
    }
    ctx.cv.wait(lock);
  }
  blocked.reset();

  if (!st.pulled) {
    st.pulled = true;
    if (ctx.faults) {
      // Corruption injection over the logical receive stream, after all of
      // it landed: the flip maps the chosen byte through the run layout,
      // so the decision and the per-rank counting match the contiguous
      // overload exactly.
      std::size_t total_elems = 0;
      for (const SegRun& run : st.rruns) total_elems += run.len;
      auto flip = [&st](std::size_t byte, unsigned char mask) {
        const std::size_t e = byte / st.elem_size;
        const std::size_t off = byte % st.elem_size;
        std::size_t seen = 0;
        for (const SegRun& run : st.rruns) {
          if (e < seen + run.len) {
            auto* base = static_cast<unsigned char*>(st.recv_base);
            base[(run.offset + (e - seen) * run.stride) * st.elem_size +
                 off] ^= mask;
            return;
          }
          seen += run.len;
        }
      };
      ctx.faults->maybe_corrupt(detail::wrank(ctx, st.comm_rank), st.kind,
                                total_elems * st.elem_size, flip);
    }
    ++op.observed;
  }

  // The last finalizer retires the matching-table entry; idempotent (only
  // while the slot still maps to this very op -- a same-key successor may
  // already occupy it).
  if (op.observed == ctx.size) {
    auto it = ctx.ops.find(st.key);
    if (it != ctx.ops.end() && it->second.get() == &op) ctx.ops.erase(it);
  }
  st.done = true;
  lock.unlock();

  const double t_end = fx::core::WallTimer::now();
  if (detail::is_nonblocking_kind(st.key.kind)) {
    NbMetrics& m = nb_metrics();
    m.completed.add();
    m.bytes.add(st.bytes);
    m.wait_us.record((t_end - t_wait) * 1e6);
  } else {
    AlltoallMetrics& m = alltoall_metrics(st.kind);
    m.bytes.add(st.bytes);
    m.wait_us.record((t_end - st.t_post) * 1e6);
  }
  if (st.rank_state) {
    if (auto obs = st.rank_state->get_observer()) {
      obs(CommEvent{st.kind, ctx.id, ctx.size, st.tag, st.bytes, st.t_post,
                    t_end});
    }
  }
  detail::note_progress(ctx);
  return true;
}

}  // namespace

Request Comm::post_nb_exchange(CommOpKind kind, const void* send_base,
                               std::span<const SegView> sviews,
                               void* recv_base,
                               std::span<const SegView> rviews,
                               std::size_t elem_size, int tag,
                               WireFormat wire) {
  const auto n = static_cast<std::size_t>(size());
  FX_CHECK(send_base != recv_base, "exchange buffers must not alias");
  FX_CHECK(sviews.size() == n && rviews.size() == n,
           "exchange views need one entry per peer");
  FX_CHECK(elem_size > 0, "exchange element size must be positive");
  FX_CHECK(wire == WireFormat::Fp64 || elem_size % sizeof(double) == 0,
           "reduced wire precision needs double-typed elements");
  // The CommEvent window opens before the fault hook, as every blocking
  // collective's does: an injected stall is exchange time on every path.
  const double t_post = fx::core::WallTimer::now();
  detail::inject(*ctx_, rank_, kind);
  const OpKey key{static_cast<int>(kind), tag,
                  rank_state_->next_seq(static_cast<int>(kind), tag)};
  const std::size_t r = static_cast<std::size_t>(rank_);

  auto state = std::make_shared<detail::RequestState>();
  state->ctx = ctx_;
  state->comm_rank = rank_;
  state->tag = tag;
  state->key = key;
  state->kind = kind;
  state->recv_base = recv_base;
  state->elem_size = elem_size;
  state->rank_state = rank_state_;
  state->t_post = t_post;
  state->rfirst.resize(n + 1, 0);
  std::size_t sent_elems = 0;
  for (std::size_t p = 0; p < n; ++p) {
    state->rruns.insert(state->rruns.end(), rviews[p].begin(),
                        rviews[p].end());
    state->rfirst[p + 1] = state->rruns.size();
    sent_elems += seg_elems(sviews[p]);
  }
  // Byte accounting is at *wire* size: a narrowed double costs 4 or 2
  // bytes, which is the whole point of the reduced formats.
  state->bytes = wire == WireFormat::Fp64
                     ? sent_elems * elem_size
                     : sent_elems * (elem_size / sizeof(double)) *
                           wire_scalar_bytes(wire);

  std::unique_lock lock(ctx_->mu);
  detail::check_alive_locked(*ctx_);
  detail::validate_entry_locked(*ctx_, key, rank_);
  auto& slot = ctx_->ops[key];
  if (!slot) slot = std::make_shared<OpState>(ctx_->size);
  OpState& op = *slot;
  if (op.nb_send.empty()) {
    op.nb_send.resize(n);
    op.nb_recv.resize(n);
    op.nb_recv_base.assign(n, nullptr);
    op.nb_posted.assign(n, 0);
    op.xfer.assign(n * n, 0);
    op.done_out.assign(n, 0);
    op.done_in.assign(n, 0);
  }
  auto& side = op.nb_send[r];
  side.first.assign(n + 1, 0);
  for (std::size_t p = 0; p < n; ++p) {
    side.runs.insert(side.runs.end(), sviews[p].begin(), sviews[p].end());
    side.first[p + 1] = side.runs.size();
  }
  auto& rside = op.nb_recv[r];
  rside.first.assign(n + 1, 0);
  for (std::size_t p = 0; p < n; ++p) {
    rside.runs.insert(rside.runs.end(), rviews[p].begin(), rviews[p].end());
    rside.first[p + 1] = rside.runs.size();
  }
  op.nb_recv_base[r] = recv_base;
  op.send[r] = send_base;
  op.scalar[r] = elem_size;
  op.scalar2[r] = static_cast<std::size_t>(wire);
  op.nb_posted[r] = 1;
  ++op.arrived;
  op.arrived_ranks.push_back(rank_);
  FX_ASSERT(op.arrived <= ctx_->size, "collective over-subscribed");
  if (op.arrived == ctx_->size) op.ready = true;
  state->op = slot;
  const std::vector<Transfer> jobs = claim_locked(*state, /*row=*/false);
  lock.unlock();
  // Wake blocked waiters before copying: a receiver already in wait() then
  // pulls its column from this rank while this post pulls its own.
  ctx_->cv.notify_all();
  run_transfers(*ctx_, op, jobs);
  rank_state_->bytes_sent.fetch_add(state->bytes, std::memory_order_relaxed);
  if (detail::is_nonblocking_kind(key.kind)) nb_metrics().posted.add();
  return Request{std::move(state)};
}

namespace {

/// Single-run views of one side of a contiguous all-to-all, one view per
/// peer: the four contiguous entry points post these through the view
/// engine.  Zero-count blocks are legal (the run walk never touches an
/// empty run's address).  The views point into runs_, so the object is
/// neither copied nor moved.
class BlockViews {
 public:
  /// Peer p's block: counts[p] elements at element offset displs[p].
  BlockViews(std::size_t n, const std::size_t* counts,
             const std::size_t* displs)
      : runs_(n), views_(n) {
    for (std::size_t p = 0; p < n; ++p) {
      runs_[p] = SegRun{displs[p], counts[p], 1};
      views_[p] = SegView(&runs_[p], 1);
    }
  }
  /// Uniform blocks: `len` elements per peer, peer p's at offset p * len.
  BlockViews(std::size_t n, std::size_t len) : runs_(n), views_(n) {
    for (std::size_t p = 0; p < n; ++p) {
      runs_[p] = SegRun{p * len, len, 1};
      views_[p] = SegView(&runs_[p], 1);
    }
  }
  BlockViews(const BlockViews&) = delete;
  BlockViews& operator=(const BlockViews&) = delete;

  operator std::span<const SegView>() const { return views_; }

 private:
  std::vector<SegRun> runs_;
  std::vector<SegView> views_;
};

}  // namespace

void Comm::alltoall_bytes(const void* send, void* recv,
                          std::size_t bytes_per_rank, int tag) {
  const BlockViews blocks(static_cast<std::size_t>(size()), bytes_per_rank);
  post_nb_exchange(CommOpKind::Alltoall, send, blocks, recv, blocks,
                   /*elem_size=*/1, tag, WireFormat::Fp64)
      .wait();
}

void Comm::alltoallv_bytes(const void* send, const std::size_t* scounts,
                           const std::size_t* sdispls, void* recv,
                           const std::size_t* rcounts,
                           const std::size_t* rdispls, std::size_t elem_size,
                           int tag) {
  const auto n = static_cast<std::size_t>(size());
  const BlockViews sblocks(n, scounts, sdispls);
  const BlockViews rblocks(n, rcounts, rdispls);
  post_nb_exchange(CommOpKind::Alltoallv, send, sblocks, recv, rblocks,
                   elem_size, tag, WireFormat::Fp64)
      .wait();
}

Request Comm::ialltoall_bytes(const void* send, void* recv,
                              std::size_t bytes_per_rank, int tag) {
  const BlockViews blocks(static_cast<std::size_t>(size()), bytes_per_rank);
  return post_nb_exchange(CommOpKind::Ialltoall, send, blocks, recv, blocks,
                          /*elem_size=*/1, tag, WireFormat::Fp64);
}

Request Comm::ialltoallv_bytes(const void* send, const std::size_t* scounts,
                               const std::size_t* sdispls, void* recv,
                               const std::size_t* rcounts,
                               const std::size_t* rdispls,
                               std::size_t elem_size, int tag) {
  const auto n = static_cast<std::size_t>(size());
  const BlockViews sblocks(n, scounts, sdispls);
  const BlockViews rblocks(n, rcounts, rdispls);
  return post_nb_exchange(CommOpKind::Ialltoallv, send, sblocks, recv,
                          rblocks, elem_size, tag, WireFormat::Fp64);
}

Request Comm::ialltoallv_view(const void* send_base,
                              std::span<const SegView> sviews,
                              void* recv_base,
                              std::span<const SegView> rviews,
                              std::size_t elem_size, int tag,
                              WireFormat wire) {
  return post_nb_exchange(CommOpKind::Ialltoallv, send_base, sviews,
                          recv_base, rviews, elem_size, tag, wire);
}

void Comm::alltoallv_view(const void* send_base,
                          std::span<const SegView> sviews, void* recv_base,
                          std::span<const SegView> rviews,
                          std::size_t elem_size, int tag, WireFormat wire) {
  post_nb_exchange(CommOpKind::Ialltoallv, send_base, sviews, recv_base,
                   rviews, elem_size, tag, wire)
      .wait();
}

void Request::wait() {
  if (state_) complete_nb(*state_, /*blocking=*/true);
}

bool Request::test() const {
  return !state_ || complete_nb(*state_, /*blocking=*/false);
}

}  // namespace fx::mpi
