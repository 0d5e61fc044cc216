#include "simmpi/comm.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <sstream>
#include <tuple>
#include <utility>

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

/// Enters a collective: registers this rank's contribution via `setup`,
/// blocks until all ranks arrived (the last arriver runs `finalize` under
/// the lock before releasing everyone).  Returns the op for the copy phase.
template <typename Setup, typename Finalize>
std::shared_ptr<OpState> enter_collective(CommContext& ctx, const OpKey& key,
                                          int rank, Setup&& setup,
                                          Finalize&& finalize) {
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
    check_alive_locked(ctx);
  }
  return op;
}

/// Leaves a collective after the copy phase: waits until every rank is done
/// so send buffers stay valid throughout; the last finisher retires the op.
void leave_collective(CommContext& ctx, const OpKey& key, int rank,
                      OpState& op) {
  {
    std::unique_lock lock(ctx.mu);
    ++op.done;
    if (op.done == ctx.size) {
      ctx.ops.erase(key);
      ctx.cv.notify_all();
    } else {
      ProgressBoard::Scope blocked(
          ctx.board.get(),
          blocked_info(ctx, rank, static_cast<CommOpKind>(key.kind), key.tag,
                       key.seq));
      ctx.cv.wait(lock, [&] { return op.done == ctx.size || ctx.aborted; });
      check_alive_locked(ctx);
    }
  }
  note_progress(ctx);
}

}  // namespace
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

// The transpose collectives are the paper's scaling limiter, so their
// volume and wait-time distributions are always-on metrics (lock-free
// records; resolved once per process).
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
    if (event_.kind == CommOpKind::Alltoall ||
        event_.kind == CommOpKind::Alltoallv) {
      AlltoallMetrics& m = alltoall_metrics(event_.kind);
      m.bytes.add(event_.bytes);
      m.wait_us.record((event_.t_end - event_.t_begin) * 1e6);
    }
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
  detail::leave_collective(*ctx_, key, rank_, *op);
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
        o.elem_size = elem_size;
      },
      [&](OpState& o) {
        // Last arriver reduces while every peer is still blocked, so all
        // send buffers are stable.
        o.acc.resize(bytes);
        std::memcpy(o.acc.data(), o.send[0], bytes);
        for (int p = 1; p < ctx_->size; ++p) {
          check_peer_bytes("allreduce", *ctx_, rank_, p, tag, bytes,
                           o.scalar[static_cast<std::size_t>(p)]);
          o.combine(o.acc.data(), o.send[static_cast<std::size_t>(p)],
                    o.count);
        }
      });
  std::memcpy(recv, op->acc.data(), bytes);
  detail::inject_corrupt(*ctx_, rank_, CommOpKind::Allreduce, recv, bytes);
  detail::leave_collective(*ctx_, key, rank_, *op);
}

void Comm::allgather_bytes(const void* send, std::size_t bytes, void* recv,
                           int tag) {
  EventScope ev(*rank_state_, CommOpKind::Allgather, id(), size(), tag,
                bytes * static_cast<std::size_t>(size() - 1));
  detail::inject(*ctx_, rank_, CommOpKind::Allgather);
  const OpKey key{static_cast<int>(CommOpKind::Allgather), tag,
                  rank_state_->next_seq(
                      static_cast<int>(CommOpKind::Allgather), tag)};
  const std::size_t r = static_cast<std::size_t>(rank_);
  auto op = detail::enter_collective(
      *ctx_, key, rank_,
      [&](OpState& o) {
        o.send[r] = send;
        o.scalar[r] = bytes;
      },
      [&](OpState&) {});
  auto* out = static_cast<char*>(recv);
  for (int p = 0; p < size(); ++p) {
    const auto pu = static_cast<std::size_t>(p);
    check_peer_bytes("allgather", *ctx_, rank_, p, tag, bytes,
                     op->scalar[pu]);
    std::memcpy(out + pu * bytes, op->send[pu], bytes);
  }
  detail::inject_corrupt(*ctx_, rank_, CommOpKind::Allgather, recv,
                         bytes * static_cast<std::size_t>(size()));
  detail::leave_collective(*ctx_, key, rank_, *op);
}

void Comm::gather_bytes(const void* send, std::size_t bytes, void* recv,
                        int root, int tag) {
  FX_CHECK(root >= 0 && root < size());
  EventScope ev(*rank_state_, CommOpKind::Gather, id(), size(), tag,
                rank_ == root ? 0 : bytes);
  detail::inject(*ctx_, rank_, CommOpKind::Gather);
  const OpKey key{static_cast<int>(CommOpKind::Gather), tag,
                  rank_state_->next_seq(static_cast<int>(CommOpKind::Gather),
                                        tag)};
  const std::size_t r = static_cast<std::size_t>(rank_);
  auto op = detail::enter_collective(
      *ctx_, key, rank_,
      [&](OpState& o) {
        o.send[r] = send;
        o.scalar[r] = bytes;
      },
      [&](OpState&) {});
  if (rank_ == root) {
    auto* out = static_cast<char*>(recv);
    for (int p = 0; p < size(); ++p) {
      const auto pu = static_cast<std::size_t>(p);
      check_peer_bytes("gather", *ctx_, rank_, p, tag, bytes, op->scalar[pu]);
      std::memcpy(out + pu * bytes, op->send[pu], bytes);
    }
    detail::inject_corrupt(*ctx_, rank_, CommOpKind::Gather, recv,
                           bytes * static_cast<std::size_t>(size()));
  }
  detail::leave_collective(*ctx_, key, rank_, *op);
}

void Comm::scatter_bytes(const void* send, std::size_t bytes, void* recv,
                         int root, int tag) {
  FX_CHECK(root >= 0 && root < size());
  EventScope ev(*rank_state_, CommOpKind::Scatter, id(), size(), tag,
                rank_ == root ? bytes * static_cast<std::size_t>(size() - 1)
                              : 0);
  detail::inject(*ctx_, rank_, CommOpKind::Scatter);
  const OpKey key{static_cast<int>(CommOpKind::Scatter), tag,
                  rank_state_->next_seq(static_cast<int>(CommOpKind::Scatter),
                                        tag)};
  const std::size_t r = static_cast<std::size_t>(rank_);
  auto op = detail::enter_collective(
      *ctx_, key, rank_,
      [&](OpState& o) {
        o.send[r] = send;  // only the root's pointer is read
        o.scalar[r] = bytes;
      },
      [&](OpState&) {});
  check_peer_bytes("scatter", *ctx_, rank_, root, tag, bytes,
                   op->scalar[static_cast<std::size_t>(root)]);
  const auto* in =
      static_cast<const char*>(op->send[static_cast<std::size_t>(root)]);
  std::memcpy(recv, in + r * bytes, bytes);
  detail::inject_corrupt(*ctx_, rank_, CommOpKind::Scatter, recv, bytes);
  detail::leave_collective(*ctx_, key, rank_, *op);
}

void Comm::reduce_bytes(const void* send, void* recv, std::size_t count,
                        std::size_t elem_size,
                        void (*combine)(void*, const void*, std::size_t),
                        int root, int tag) {
  FX_CHECK(root >= 0 && root < size());
  const std::size_t bytes = count * elem_size;
  EventScope ev(*rank_state_, CommOpKind::Reduce, id(), size(), tag,
                rank_ == root ? 0 : bytes);
  detail::inject(*ctx_, rank_, CommOpKind::Reduce);
  const OpKey key{static_cast<int>(CommOpKind::Reduce), tag,
                  rank_state_->next_seq(static_cast<int>(CommOpKind::Reduce),
                                        tag)};
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
        o.acc.resize(bytes);
        std::memcpy(o.acc.data(), o.send[0], bytes);
        for (int p = 1; p < ctx_->size; ++p) {
          check_peer_bytes("reduce", *ctx_, rank_, p, tag, bytes,
                           o.scalar[static_cast<std::size_t>(p)]);
          o.combine(o.acc.data(), o.send[static_cast<std::size_t>(p)],
                    o.count);
        }
      });
  if (rank_ == root) {
    std::memcpy(recv, op->acc.data(), bytes);
    detail::inject_corrupt(*ctx_, rank_, CommOpKind::Reduce, recv, bytes);
  }
  detail::leave_collective(*ctx_, key, rank_, *op);
}

void Comm::alltoall_bytes(const void* send, void* recv,
                          std::size_t bytes_per_rank, int tag) {
  FX_CHECK(send != recv, "alltoall buffers must not alias");
  EventScope ev(*rank_state_, CommOpKind::Alltoall, id(), size(), tag,
                bytes_per_rank * static_cast<std::size_t>(size()));
  detail::inject(*ctx_, rank_, CommOpKind::Alltoall);
  const OpKey key{static_cast<int>(CommOpKind::Alltoall), tag,
                  rank_state_->next_seq(static_cast<int>(CommOpKind::Alltoall),
                                        tag)};
  const std::size_t r = static_cast<std::size_t>(rank_);
  auto op = detail::enter_collective(
      *ctx_, key, rank_,
      [&](OpState& o) {
        o.send[r] = send;
        o.scalar[r] = bytes_per_rank;
      },
      [&](OpState&) {});
  auto* out = static_cast<char*>(recv);
  for (int p = 0; p < size(); ++p) {
    const auto pu = static_cast<std::size_t>(p);
    check_peer_bytes("alltoall", *ctx_, rank_, p, tag, bytes_per_rank,
                     op->scalar[pu]);
    const auto* in = static_cast<const char*>(op->send[pu]);
    std::memcpy(out + pu * bytes_per_rank, in + r * bytes_per_rank,
                bytes_per_rank);
  }
  detail::inject_corrupt(*ctx_, rank_, CommOpKind::Alltoall, recv,
                         bytes_per_rank * static_cast<std::size_t>(size()));
  detail::leave_collective(*ctx_, key, rank_, *op);
}

void Comm::alltoallv_bytes(const void* send, const std::size_t* scounts,
                           const std::size_t* sdispls, void* recv,
                           const std::size_t* rcounts,
                           const std::size_t* rdispls, std::size_t elem_size,
                           int tag) {
  FX_CHECK(send != recv, "alltoallv buffers must not alias");
  std::size_t sent_elems = 0;
  for (int p = 0; p < size(); ++p) {
    sent_elems += scounts[static_cast<std::size_t>(p)];
  }
  EventScope ev(*rank_state_, CommOpKind::Alltoallv, id(), size(), tag,
                sent_elems * elem_size);
  detail::inject(*ctx_, rank_, CommOpKind::Alltoallv);
  const OpKey key{static_cast<int>(CommOpKind::Alltoallv), tag,
                  rank_state_->next_seq(
                      static_cast<int>(CommOpKind::Alltoallv), tag)};
  const std::size_t r = static_cast<std::size_t>(rank_);
  auto op = detail::enter_collective(
      *ctx_, key, rank_,
      [&](OpState& o) {
        o.send[r] = send;
        o.pcounts[r] = scounts;
        o.pdispls[r] = sdispls;
        o.scalar[r] = elem_size;
      },
      [&](OpState&) {});
  auto* out = static_cast<char*>(recv);
  std::size_t recv_end = 0;
  for (int p = 0; p < size(); ++p) {
    const auto pu = static_cast<std::size_t>(p);
    check_peer_bytes("alltoallv element", *ctx_, rank_, p, tag, elem_size,
                     op->scalar[pu]);
    if (op->pcounts[pu][r] != rcounts[pu]) {
      throw core::CommError(core::cat(
          "alltoallv count mismatch on comm ", id(), " (tag ", tag,
          "): rank ", p, " (world ", detail::wrank(*ctx_, p), ") sends ",
          op->pcounts[pu][r], " element(s) of ", elem_size, " B to rank ",
          rank_, " (world ", detail::wrank(*ctx_, rank_), "), which expects ",
          rcounts[pu], " element(s)"));
    }
    // A zero-element block may come with a null buffer on either side, and
    // memcpy's pointers must be valid even for zero bytes.
    if (rcounts[pu] != 0) {
      const auto* in = static_cast<const char*>(op->send[pu]);
      std::memcpy(out + rdispls[pu] * elem_size,
                  in + op->pdispls[pu][r] * elem_size,
                  rcounts[pu] * elem_size);
    }
    recv_end = std::max(recv_end, (rdispls[pu] + rcounts[pu]) * elem_size);
  }
  detail::inject_corrupt(*ctx_, rank_, CommOpKind::Alltoallv, recv, recv_end);
  detail::leave_collective(*ctx_, key, rank_, *op);
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
  detail::leave_collective(*ctx_, opkey, rank_, *op);
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

void Comm::send_bytes(int dst, const void* data, std::size_t bytes, int tag) {
  FX_CHECK(dst >= 0 && dst < size());
  EventScope ev(*rank_state_, CommOpKind::Send, id(), size(), tag, bytes);
  detail::inject(*ctx_, rank_, CommOpKind::Send);
  const detail::P2pKey key{rank_, dst, tag};
  {
    std::lock_guard lock(ctx_->mu);
    detail::check_alive_locked(*ctx_);
    // Posted receives match first (there is never both a posted receive and
    // a queued message for one key); otherwise buffer the payload.
    auto posted_it = ctx_->posted.find(key);
    if (posted_it != ctx_->posted.end() && !posted_it->second.empty()) {
      detail::PendingRecv pending = std::move(posted_it->second.front());
      posted_it->second.pop_front();
      if (pending.bytes != bytes) {
        throw core::CommError(core::cat(
            "recv size does not match matching send on comm ", id(), " (tag ",
            tag, "): rank ", dst, " posted a ", pending.bytes,
            " B receive but rank ", rank_, " sent ", bytes, " B"));
      }
      std::memcpy(pending.data, data, bytes);
      detail::inject_corrupt(*ctx_, dst, CommOpKind::Recv, pending.data,
                             bytes);
      pending.state->done = true;
      detail::note_progress(*ctx_);  // the receiver's operation completed
    } else {
      const auto* bytes_ptr = static_cast<const char*>(data);
      ctx_->mail[key].emplace_back(bytes_ptr, bytes_ptr + bytes);
    }
    ctx_->cv.notify_all();
  }
  detail::note_progress(*ctx_);
}

Request Comm::isend_bytes(int dst, const void* data, std::size_t bytes,
                          int tag) {
  // Buffered semantics: the payload is captured here, so the operation is
  // already complete from the sender's point of view.
  send_bytes(dst, data, bytes, tag);
  return Request{};
}

Request Comm::post_recv(int src, void* data, std::size_t bytes, int tag) {
  FX_CHECK(src >= 0 && src < size());
  const detail::P2pKey key{src, rank_, tag};
  auto state = std::make_shared<detail::RequestState>();
  state->ctx = ctx_;
  state->src = src;
  state->comm_rank = rank_;
  state->tag = tag;
  bool matched = false;
  {
    std::lock_guard lock(ctx_->mu);
    detail::check_alive_locked(*ctx_);
    auto& queue = ctx_->mail[key];
    if (!queue.empty()) {
      if (queue.front().size() != bytes) {
        throw core::CommError(core::cat(
            "recv size does not match matching send on comm ", id(), " (tag ",
            tag, "): rank ", rank_, " expects ", bytes, " B but rank ", src,
            " sent ", queue.front().size(), " B"));
      }
      std::memcpy(data, queue.front().data(), bytes);
      detail::inject_corrupt(*ctx_, rank_, CommOpKind::Recv, data, bytes);
      queue.pop_front();
      state->done = true;
      matched = true;
    } else {
      ctx_->posted[key].push_back(detail::PendingRecv{data, bytes, state});
    }
  }
  if (matched) detail::note_progress(*ctx_);
  return Request{state};
}

Request Comm::irecv_bytes(int src, void* data, std::size_t bytes, int tag) {
  EventScope ev(*rank_state_, CommOpKind::Recv, id(), size(), tag, bytes);
  detail::inject(*ctx_, rank_, CommOpKind::Recv);
  return post_recv(src, data, bytes, tag);
}

void Comm::recv_bytes(int src, void* data, std::size_t bytes, int tag) {
  EventScope ev(*rank_state_, CommOpKind::Recv, id(), size(), tag, bytes);
  detail::inject(*ctx_, rank_, CommOpKind::Recv);
  // A blocking receive is a posted receive awaited immediately; routing it
  // through the same path keeps one matching order for both flavors.
  post_recv(src, data, bytes, tag).wait();
}

// --- Nonblocking collectives (waiter-driven progress) ---

namespace {

// The nonblocking exchange engine's health counters: posted/completed pair
// up in a quiescence check, wait_us is the *blocked* time only (post-to-
// completion latency hidden behind compute never shows up here -- that is
// the whole point of the engine).
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

/// Copies a logical element stream between two run lists whose total
/// lengths agree (checked by the caller).  Contiguous stretches on both
/// sides coalesce into single memcpys, so the fully-contiguous case
/// degenerates to the blocking collectives' copy.  Elem is a compile-time
/// constant where it matters: the strided inner loop's memcpy then inlines
/// to plain moves (a runtime-size memcpy call per element is what made
/// early fused exchanges lose to the staged path's typed marshal loops);
/// Elem == 0 is the generic runtime-size fallback.
template <std::size_t Elem>
void copy_runs_impl(const unsigned char* sbase, const SegRun* srun,
                    std::size_t nsrun, unsigned char* dbase,
                    const SegRun* drun, std::size_t ndrun,
                    std::size_t elem_rt) {
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
      std::memcpy(dp, sp, k * elem);
    } else {
      for (std::size_t i = 0; i < k; ++i) {
        std::memcpy(dp + i * d.stride * elem, sp + i * s.stride * elem,
                    Elem != 0 ? Elem : elem);
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

void copy_runs(const unsigned char* sbase, const SegRun* srun,
               std::size_t nsrun, unsigned char* dbase, const SegRun* drun,
               std::size_t ndrun, std::size_t elem) {
  switch (elem) {
    case 16:  // complex<double>, the FFT pipeline's element
      copy_runs_impl<16>(sbase, srun, nsrun, dbase, drun, ndrun, elem);
      return;
    case 8:
      copy_runs_impl<8>(sbase, srun, nsrun, dbase, drun, ndrun, elem);
      return;
    case 4:
      copy_runs_impl<4>(sbase, srun, nsrun, dbase, drun, ndrun, elem);
      return;
    default:
      copy_runs_impl<0>(sbase, srun, nsrun, dbase, drun, ndrun, elem);
  }
}

/// copy_runs for a reduced-precision wire: the same two-pointer run walk,
/// but every double of the payload passes through the wire format's
/// quantize->dequantize round trip in flight.  This IS the narrow wire --
/// shipping encoded bytes and widening on arrival would land bit-identical
/// values -- fused into the typed copy so no staging buffer reappears.
/// Returns the largest quantization error seen, in wire-mantissa ulps.
template <WireFormat W>
double convert_runs_impl(const unsigned char* sbase, const SegRun* srun,
                         std::size_t nsrun, unsigned char* dbase,
                         const SegRun* drun, std::size_t ndrun,
                         std::size_t elem) {
  const std::size_t nd = elem / sizeof(double);
  double max_err = 0.0;
  auto move = [&max_err](unsigned char* dp, const unsigned char* sp,
                         std::size_t doubles) {
    for (std::size_t w = 0; w < doubles; ++w) {
      double x;
      std::memcpy(&x, sp + w * sizeof(double), sizeof(double));
      const double q = wire_roundtrip(W, x);
      const double e = wire_ulp_err(W, x, q);
      if (e > max_err) max_err = e;
      std::memcpy(dp + w * sizeof(double), &q, sizeof(double));
    }
  };
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
      move(dp, sp, k * nd);
    } else {
      for (std::size_t i = 0; i < k; ++i) {
        move(dp + i * d.stride * elem, sp + i * s.stride * elem, nd);
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
  return max_err;
}

/// Dispatches a pairwise transfer to the plain copy (Fp64) or the fused
/// converting copy; returns the transfer's peak wire quantization error.
double move_runs(const unsigned char* sbase, const SegRun* srun,
                 std::size_t nsrun, unsigned char* dbase, const SegRun* drun,
                 std::size_t ndrun, std::size_t elem, WireFormat wire) {
  switch (wire) {
    case WireFormat::Fp64:
      copy_runs(sbase, srun, nsrun, dbase, drun, ndrun, elem);
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

/// Drives a nonblocking collective toward completion from the waiter's
/// thread.  The payload moves at post time (every pairwise transfer is
/// executed by whichever endpoint posted later), so this only
///   1. blocks until every transfer touching this rank is done -- its
///      sends consumed (the send buffer becomes reusable) and its
///      receives landed.  Crucially this never waits on transfers between
///      two OTHER ranks: there is no global all-ranks barrier, which is
///      what lets a chunked exchange's waits collapse to near zero when
///      the posts were spread across compute;
///   2. finalizes once per request: fault injection over the completed
///      receive stream, then completion accounting, with the last
///      finalizer retiring the matching-table entry.
/// Blocking mode waits watchdog-registered; test mode returns false
/// instead.  Unwinds with the poison error when the communicator dies or
/// is revoked mid-flight, and with the recorded pair mismatch when any
/// two endpoints disagreed on exchange metadata.
bool complete_nb(detail::RequestState& st, bool blocking) {
  auto& ctx = *st.ctx;
  auto& op = *st.op;
  const auto r = static_cast<std::size_t>(st.comm_rank);
  const double t_wait = fx::core::WallTimer::now();

  std::unique_lock lock(ctx.mu);
  if (st.done) return true;
  auto check_failed = [&] {
    if (!op.failed.empty()) throw core::CommError(op.failed);
  };
  check_failed();
  auto mine_done = [&] {
    return op.done_out[r] == ctx.size && op.done_in[r] == ctx.size;
  };
  if (!mine_done()) {
    if (!blocking) {
      detail::check_alive_locked(ctx);
      return false;
    }
    ProgressBoard::Scope blocked(
        ctx.board.get(), detail::blocked_info(ctx, st.comm_rank, st.kind,
                                              st.tag, st.key.seq));
    ctx.cv.wait(lock, [&] {
      return mine_done() || !op.failed.empty() || ctx.aborted;
    });
    check_failed();
    if (!mine_done()) detail::check_alive_locked(ctx);
  }

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
  NbMetrics& m = nb_metrics();
  m.completed.add();
  m.bytes.add(st.bytes);
  m.wait_us.record((t_end - t_wait) * 1e6);
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
  FX_CHECK(send_base != recv_base,
           "nonblocking exchange buffers must not alias");
  FX_CHECK(sviews.size() == n && rviews.size() == n,
           "exchange views need one entry per peer");
  FX_CHECK(elem_size > 0, "exchange element size must be positive");
  FX_CHECK(wire == WireFormat::Fp64 || elem_size % sizeof(double) == 0,
           "reduced wire precision needs double-typed elements");
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
  state->t_post = fx::core::WallTimer::now();
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

  std::shared_ptr<OpState> op;
  // Transfers this post enables, claimed under the lock and copied below
  // with it released: (sender, receiver) pairs where both endpoints have
  // now posted.  The later-posting endpoint always carries the pair's
  // traffic, so waits only synchronize -- they never copy.
  std::vector<std::pair<std::size_t, std::size_t>> jobs;
  {
    std::unique_lock lock(ctx_->mu);
    detail::check_alive_locked(*ctx_);
    detail::validate_entry_locked(*ctx_, key, rank_);
    auto& slot = ctx_->ops[key];
    if (!slot) slot = std::make_shared<OpState>(ctx_->size);
    op = slot;
    if (op->nb_send.empty()) {
      op->nb_send.resize(n);
      op->nb_recv.resize(n);
      op->nb_recv_base.assign(n, nullptr);
      op->nb_posted.assign(n, 0);
      op->xfer.assign(n * n, 0);
      op->done_out.assign(n, 0);
      op->done_in.assign(n, 0);
    }
    auto& side = op->nb_send[r];
    side.first.assign(n + 1, 0);
    for (std::size_t p = 0; p < n; ++p) {
      side.runs.insert(side.runs.end(), sviews[p].begin(), sviews[p].end());
      side.first[p + 1] = side.runs.size();
    }
    auto& rside = op->nb_recv[r];
    rside.first.assign(n + 1, 0);
    for (std::size_t p = 0; p < n; ++p) {
      rside.runs.insert(rside.runs.end(), rviews[p].begin(), rviews[p].end());
      rside.first[p + 1] = rside.runs.size();
    }
    op->nb_recv_base[r] = recv_base;
    op->send[r] = send_base;
    op->scalar[r] = elem_size;
    op->scalar2[r] = static_cast<std::size_t>(wire);
    op->nb_posted[r] = 1;
    ++op->arrived;
    op->arrived_ranks.push_back(rank_);
    FX_ASSERT(op->arrived <= ctx_->size, "collective over-subscribed");
    if (op->arrived == ctx_->size) op->ready = true;

    // Metadata agreement per enabled pair (cheap, under the lock): element
    // sizes and pairwise stream lengths.  A mismatch poisons the whole op
    // so every participant unwinds with the same diagnosis instead of
    // hanging into the watchdog.
    auto pair_error = [&](std::size_t p, std::size_t q) -> std::string {
      if (op->scalar[p] != op->scalar[q]) {
        return core::cat(
            "nonblocking exchange element size mismatch on comm ", ctx_->id,
            " (tag ", tag, "): rank ", p, " (world ",
            detail::wrank(*ctx_, static_cast<int>(p)), ") uses ",
            op->scalar[p], " B, but rank ", q, " (world ",
            detail::wrank(*ctx_, static_cast<int>(q)), ") uses ",
            op->scalar[q], " B");
      }
      if (op->scalar2[p] != op->scalar2[q]) {
        return core::cat(
            "nonblocking exchange wire format mismatch on comm ", ctx_->id,
            " (tag ", tag, "): rank ", p, " (world ",
            detail::wrank(*ctx_, static_cast<int>(p)), ") uses ",
            to_string(static_cast<WireFormat>(op->scalar2[p])), ", but rank ",
            q, " (world ", detail::wrank(*ctx_, static_cast<int>(q)),
            ") uses ", to_string(static_cast<WireFormat>(op->scalar2[q])));
      }
      const auto& ss = op->nb_send[p];
      const auto& rs = op->nb_recv[q];
      const std::size_t theirs =
          run_span_elems(ss.runs, ss.first[q], ss.first[q + 1]);
      const std::size_t mine =
          run_span_elems(rs.runs, rs.first[p], rs.first[p + 1]);
      if (theirs != mine) {
        return core::cat(
            "nonblocking exchange count mismatch on comm ", ctx_->id,
            " (tag ", tag, "): rank ", p, " (world ",
            detail::wrank(*ctx_, static_cast<int>(p)), ") sends ", theirs,
            " element(s) of ", op->scalar[p], " B to rank ", q, " (world ",
            detail::wrank(*ctx_, static_cast<int>(q)), "), which expects ",
            mine, " element(s)");
      }
      return {};
    };
    auto claim = [&](std::size_t p, std::size_t q) {
      std::uint8_t& s = op->xfer[p * n + q];
      if (s != 0) return;
      std::string err = pair_error(p, q);
      if (!err.empty()) {
        op->failed = err;
        ctx_->cv.notify_all();
        throw core::CommError(err);
      }
      s = 1;
      jobs.emplace_back(p, q);
    };
    for (std::size_t q = 0; q < n; ++q) {
      if (!op->nb_posted[q]) continue;
      claim(r, q);
      if (q != r) claim(q, r);
    }
    state->op = op;
  }
  // Execute the claimed transfers peer-direct with the lock released: the
  // posted views and buffers are immutable, both endpoints' buffers stay
  // valid until their waits return, and distinct transfers never overlap
  // (each receiver's per-peer views are disjoint by contract).
  double max_ulp = 0.0;
  for (const auto& [p, q] : jobs) {
    const auto& ss = op->nb_send[p];
    const auto& rs = op->nb_recv[q];
    const double e = move_runs(
        static_cast<const unsigned char*>(op->send[p]),
        ss.runs.data() + ss.first[q], ss.first[q + 1] - ss.first[q],
        static_cast<unsigned char*>(op->nb_recv_base[q]),
        rs.runs.data() + rs.first[p], rs.first[p + 1] - rs.first[p],
        elem_size, wire);
    if (e > max_ulp) max_ulp = e;
  }
  // One gauge update per post, not per double: the copy loops accumulate
  // locally and the peak lands here.
  if (wire != WireFormat::Fp64 && !jobs.empty()) {
    wire_ulp_gauge().max_of(max_ulp);
  }
  if (!jobs.empty()) {
    std::lock_guard lock(ctx_->mu);
    for (const auto& [p, q] : jobs) {
      op->xfer[p * n + q] = 2;
      ++op->done_out[p];
      ++op->done_in[q];
    }
    ctx_->cv.notify_all();
  }
  rank_state_->bytes_sent.fetch_add(state->bytes, std::memory_order_relaxed);
  nb_metrics().posted.add();
  return Request{std::move(state)};
}

Request Comm::ialltoall_bytes(const void* send, void* recv,
                              std::size_t bytes_per_rank, int tag) {
  const auto n = static_cast<std::size_t>(size());
  std::vector<SegRun> sruns(n);
  std::vector<SegRun> rruns(n);
  std::vector<SegView> sviews(n);
  std::vector<SegView> rviews(n);
  for (std::size_t p = 0; p < n; ++p) {
    sruns[p] = SegRun{p * bytes_per_rank, bytes_per_rank, 1};
    rruns[p] = SegRun{p * bytes_per_rank, bytes_per_rank, 1};
    sviews[p] = SegView(&sruns[p], 1);
    rviews[p] = SegView(&rruns[p], 1);
  }
  return post_nb_exchange(CommOpKind::Ialltoall, send, sviews, recv, rviews,
                          /*elem_size=*/1, tag, WireFormat::Fp64);
}

Request Comm::ialltoallv_bytes(const void* send, const std::size_t* scounts,
                               const std::size_t* sdispls, void* recv,
                               const std::size_t* rcounts,
                               const std::size_t* rdispls,
                               std::size_t elem_size, int tag) {
  const auto n = static_cast<std::size_t>(size());
  std::vector<SegRun> sruns(n);
  std::vector<SegRun> rruns(n);
  std::vector<SegView> sviews(n);
  std::vector<SegView> rviews(n);
  for (std::size_t p = 0; p < n; ++p) {
    sruns[p] = SegRun{sdispls[p], scounts[p], 1};
    rruns[p] = SegRun{rdispls[p], rcounts[p], 1};
    sviews[p] = SegView(&sruns[p], 1);
    rviews[p] = SegView(&rruns[p], 1);
  }
  return post_nb_exchange(CommOpKind::Ialltoallv, send, sviews, recv, rviews,
                          elem_size, tag, WireFormat::Fp64);
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
  if (!state_) return;
  if (state_->op) {
    complete_nb(*state_, /*blocking=*/true);
    return;
  }
  auto& ctx = *state_->ctx;
  std::unique_lock lock(ctx.mu);
  if (state_->done) return;
  detail::check_alive_locked(ctx);
  ProgressBoard::Scope blocked(
      ctx.board.get(),
      detail::blocked_info(ctx, state_->comm_rank, CommOpKind::Recv,
                           state_->tag, 0));
  ctx.cv.wait(lock, [&] { return state_->done || ctx.aborted; });
  if (!state_->done) detail::check_alive_locked(ctx);
}

bool Request::test() const {
  if (!state_) return true;
  if (state_->op) return complete_nb(*state_, /*blocking=*/false);
  std::lock_guard lock(state_->ctx->mu);
  if (!state_->done) detail::check_alive_locked(*state_->ctx);
  return state_->done;
}

}  // namespace fx::mpi
