// In-process message-passing runtime ("simulated MPI").
//
// The paper runs FFTXlib as N MPI ranks on one KNL node; intra-node MPI is
// shared-memory message passing, which this module reproduces directly:
// every rank is a std::thread, a communicator is a shared synchronization
// context, and collectives move bytes between the ranks' buffers.  What the
// analysis (and the KNL model) consume is the *communication pattern* --
// who talks to whom, how many bytes, on which sub-communicator -- and that
// is preserved exactly.
//
// One deliberate extension over MPI: collectives take a `tag`.  Two
// collectives with different tags on the same communicator match
// independently, so dynamically-scheduled tasks may issue them in any order
// (the OmpSs pipeline tags collectives by band index).  Within one tag,
// per-rank call order defines matching, exactly like MPI.  Concurrent
// same-tag collectives from several threads of one rank are a contract
// violation.
//
// All waiting is condition-variable based (never spinning): ranks routinely
// outnumber host cores.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/error.hpp"
#include "simmpi/wire.hpp"

namespace fx::mpi {

/// Reduction operators for allreduce.
enum class ReduceOp { Sum, Max, Min };

/// Communication kinds, reported to observers and recorded in traces (the
/// Fig 3 "MPI call" timeline colors by this).  "No producer" marks
/// operations the communicator no longer offers; they keep their slots so
/// the values after them stay put and saved traces still decode.
enum class CommOpKind {
  Barrier,
  Bcast,
  Allreduce,
  Allgather,  ///< no producer
  Alltoall,
  Alltoallv,
  Split,
  Send,     ///< no producer
  Recv,     ///< no producer
  Gather,   ///< no producer
  Scatter,  ///< no producer
  Reduce,   ///< no producer
  // Appended (not inserted), so the values above stay stable.
  Ialltoall,
  Ialltoallv,
};

// The integers are an external format: FFTX_FAULT_KIND selects a kind by
// value (CI stalls kind 5), the fault-plan parser accepts 0..13, and
// .fxtrace files store them.  Renumbering breaks all three.
static_assert(static_cast<int>(CommOpKind::Allreduce) == 2);
static_assert(static_cast<int>(CommOpKind::Alltoall) == 4);
static_assert(static_cast<int>(CommOpKind::Alltoallv) == 5);
static_assert(static_cast<int>(CommOpKind::Split) == 6);
static_assert(static_cast<int>(CommOpKind::Ialltoall) == 12);
static_assert(static_cast<int>(CommOpKind::Ialltoallv) == 13);

/// Human-readable name, e.g. "Alltoallv".
const char* to_string(CommOpKind kind);

/// One completed communication operation, as seen by one rank.
struct CommEvent {
  CommOpKind kind;
  int comm_id;       ///< unique id of the communicator (trace timeline)
  int comm_size;
  int tag;
  std::size_t bytes; ///< payload bytes this rank sent
  double t_begin;    ///< wall-clock seconds (core::WallTimer::now())
  double t_end;
};

/// Callback invoked synchronously by the rank that executed the operation.
using CommObserver = std::function<void(const CommEvent&)>;

class FaultInjector;  // faults.hpp (which includes this header)

/// One strided run of a scatter-gather exchange view: elements
/// offset + i*stride of the base pointer, for i in [0, len).  All fields
/// are in elements of the exchange's elem_size.
struct SegRun {
  std::size_t offset;
  std::size_t len;
  std::size_t stride;
};

/// Per-peer view: the runs describing what one peer sends (or where one
/// peer's data lands), traversed in order.  Views are copied at post time,
/// so callers may build them in temporaries.
using SegView = std::span<const SegRun>;

/// Total elements covered by a view.
[[nodiscard]] inline std::size_t seg_elems(SegView view) {
  std::size_t n = 0;
  for (const SegRun& r : view) n += r.len;
  return n;
}

namespace detail {
class CommContext;
struct RankState;
struct RequestState;
}  // namespace detail

/// Handle to a posted all-to-all exchange (see "Nonblocking collectives"
/// below).  Default-constructed requests are complete.  Copyable; all
/// copies refer to the same operation.
class Request {
 public:
  Request() = default;

  /// Blocks until the operation completed (no-op if already done).
  void wait();
  /// Non-blocking completion poll.
  [[nodiscard]] bool test() const;

 private:
  friend class Comm;
  explicit Request(std::shared_ptr<detail::RequestState> state)
      : state_(std::move(state)) {}
  std::shared_ptr<detail::RequestState> state_;
};

/// Handle to a communicator, specific to one rank.  Cheap to copy; copies
/// share the per-rank matching state.  Thread-safe for concurrent
/// collectives with distinct tags (see file comment).
class Comm {
 public:
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const;
  /// Globally unique communicator id (stable across ranks).
  [[nodiscard]] int id() const;

  // --- Collectives (every rank of the communicator must call) ---

  void barrier();

  /// Broadcasts `bytes` bytes from `root`'s buffer into every other rank's.
  void bcast_bytes(void* data, std::size_t bytes, int root, int tag = 0);

  /// Element-wise reduction of `count` elements of type T over all ranks;
  /// every rank receives the result.  send and recv may alias.  Every rank
  /// must pass the same count (checked).
  template <typename T>
  void allreduce(const T* send, T* recv, std::size_t count, ReduceOp op,
                 int tag = 0);

  // --- All-to-all exchanges ---
  //
  // Every all-to-all below, blocking or not, runs on one engine: a post
  // that registers this rank's buffers as per-peer run views, then
  // waiter-driven progress (see "Nonblocking collectives").  A blocking
  // call is that post plus wait(); it keeps its own CommOpKind, so fault
  // plans, op counting, traces and the matching validator tell the kinds
  // apart.  A pair whose element sizes, wire formats or counts disagree
  // fails the exchange on every participant with the same CommError,
  // named after the kind ("alltoallv count mismatch ...").

  /// Personalized exchange: rank r sends bytes_per_rank bytes starting at
  /// send + p*bytes_per_rank to each peer p, receiving likewise.  Kind
  /// Alltoall; records simmpi.alltoall.{bytes,wait_us} over the whole op.
  void alltoall_bytes(const void* send, void* recv, std::size_t bytes_per_rank,
                      int tag = 0);

  /// Variable-size personalized exchange (element-typed offsets/counts).
  /// scounts[p]/sdispls[p]: elements sent to p from send + sdispls[p]*elem.
  /// rcounts[p]/rdispls[p]: elements received from p.  Each pair's counts
  /// must agree (checked); zero-count blocks are legal.  Kind Alltoallv;
  /// records simmpi.alltoallv.{bytes,wait_us} over the whole op.
  void alltoallv_bytes(const void* send, const std::size_t* scounts,
                       const std::size_t* sdispls, void* recv,
                       const std::size_t* rcounts, const std::size_t* rdispls,
                       std::size_t elem_size, int tag = 0);

  /// Strided scatter-gather exchange: sends the elements of sviews[p]
  /// (relative to `send_base`) to peer p and receives peer q's payload into
  /// rviews[q] (relative to `recv_base`), both traversed in run order.
  /// Element streams must agree pairwise in length (checked).  Blocking;
  /// equivalent to ialltoallv_view(...).wait(), kind Ialltoallv.
  ///
  /// A non-Fp64 `wire` format narrows every double of the payload to the
  /// wire precision in flight (elem_size must then be a whole number of
  /// doubles); all ranks must pass the same format (checked pairwise).
  /// Byte accounting and CommEvents count the wire size, and the largest
  /// quantization error feeds the fftx.exchange.wire_max_ulp_err gauge.
  void alltoallv_view(const void* send_base, std::span<const SegView> sviews,
                      void* recv_base, std::span<const SegView> rviews,
                      std::size_t elem_size, int tag = 0,
                      WireFormat wire = WireFormat::Fp64);

  // --- Nonblocking collectives ---
  //
  // Posting registers this rank's buffers, pulls whatever receive payload
  // already-posted peers can supply, and returns; there is no global
  // rendezvous.  The CommEvent window opens at post entry, before the
  // fault hook, and closes at completion.  Progress runs in the caller:
  // each rank pulls its own receive payload directly from the peers' send
  // buffers (peer-direct copies, no barrier) at its post and at every
  // test() and wait().  A rank blocked in wait() whose receives have all
  // landed also pushes its own sends that a peer has not pulled yet, so a
  // wait never depends on a peer polling.  A request completes once its
  // own row and column are done: every peer has pulled this rank's sends
  // and every receive has landed.  Send buffers must therefore stay valid
  // until the local wait() returns -- the same guarantee the blocking
  // collectives give.  Matching follows the blocking rules: (kind, tag,
  // per-rank sequence); several nonblocking exchanges may be in flight on
  // one tag as long as all ranks post them in the same order.

  /// Nonblocking alltoall_bytes.  Buffers (send, recv) must stay valid and
  /// unmodified until the returned request completes.
  [[nodiscard]] Request ialltoall_bytes(const void* send, void* recv,
                                        std::size_t bytes_per_rank,
                                        int tag = 0);

  /// Nonblocking alltoallv_bytes.  The count/displacement arrays are copied
  /// at post time; the payload buffers must stay valid until completion.
  [[nodiscard]] Request ialltoallv_bytes(
      const void* send, const std::size_t* scounts,
      const std::size_t* sdispls, void* recv, const std::size_t* rcounts,
      const std::size_t* rdispls, std::size_t elem_size, int tag = 0);

  /// Nonblocking alltoallv_view.  The views are copied at post time; the
  /// payload regions they describe must stay valid until completion.
  /// `wire` behaves as in alltoallv_view.
  [[nodiscard]] Request ialltoallv_view(const void* send_base,
                                        std::span<const SegView> sviews,
                                        void* recv_base,
                                        std::span<const SegView> rviews,
                                        std::size_t elem_size, int tag = 0,
                                        WireFormat wire = WireFormat::Fp64);

  /// Partitions the communicator: ranks passing the same color form a new
  /// communicator, ordered by (key, old rank).  Collective over all ranks.
  [[nodiscard]] Comm split(int color, int key, int tag = 0) const;

  // --- Fault recovery (ULFM-style revoke / agree / shrink) ---
  //
  // Protocol: when a rank fails survivably, someone (typically the failing
  // rank, or the first survivor to notice) calls revoke(); every pending
  // and future ordinary operation on this communicator and its split
  // children then unwinds with core::RevokedError.  A rank that is truly
  // gone calls mark_dead() and stops using the communicator; every other
  // rank calls agree() and/or shrink(), which complete once each rank has
  // either arrived or been declared dead.  The repair calls are exempt
  // from poisoning and fault injection; they are single-flight (at most
  // one shrink and one agree in progress per communicator).

  /// Marks this communicator and its split children revoked-for-repair.
  /// Idempotent; the first recorded reason wins.
  void revoke(const std::string& reason = "communicator revoked for repair");

  /// Declares this rank dead: it will not participate in any further
  /// operation (including shrink/agree) on this communicator.
  void mark_dead();

  /// Fault-tolerant agreement: returns the minimum of the values
  /// contributed by all surviving ranks.  Works on a revoked communicator.
  [[nodiscard]] long long agree(long long value);

  /// Builds and returns the survivor communicator: the ranks that call
  /// shrink, renumbered densely in old-rank order.  The result is a fresh,
  /// healthy communicator inheriting the fault injector, progress board,
  /// validator switch, and world-rank mapping; it is NOT a child of this
  /// one (a later revoke here cannot poison it).  Works on a revoked
  /// communicator.
  [[nodiscard]] Comm shrink();

  /// True once revoke() (or a revoking peer) marked this communicator.
  [[nodiscard]] bool is_revoked() const;

  /// Ranks declared dead so far.
  [[nodiscard]] int num_dead() const;

  // --- Typed convenience wrappers ---

  template <typename T>
  void alltoall(std::span<const T> send, std::span<T> recv, int tag = 0) {
    FX_CHECK(send.size() == recv.size());
    FX_CHECK(send.size() % static_cast<std::size_t>(size()) == 0);
    alltoall_bytes(send.data(), recv.data(),
                   send.size() / static_cast<std::size_t>(size()) * sizeof(T),
                   tag);
  }

  template <typename T>
  void alltoallv(const T* send, const std::size_t* scounts,
                 const std::size_t* sdispls, T* recv,
                 const std::size_t* rcounts, const std::size_t* rdispls,
                 int tag = 0) {
    alltoallv_bytes(send, scounts, sdispls, recv, rcounts, rdispls, sizeof(T),
                    tag);
  }

  // --- Instrumentation ---

  /// Installs an observer receiving a CommEvent after every operation this
  /// rank executes on this communicator (and on communicators split from
  /// it).  Pass nullptr to remove.
  void set_observer(CommObserver observer);

  /// Total payload bytes this rank has sent through this communicator.
  [[nodiscard]] std::size_t bytes_sent() const;

  /// The world-shared fault injector, or nullptr when injection is off.
  /// Compute layers hook their own fault sites into the same deterministic
  /// schedule this way (the FFT pipeline's ABFT flip opportunities).  The
  /// pointer stays valid for the communicator's lifetime.
  [[nodiscard]] FaultInjector* fault_injector() const;

  /// This rank's original world rank: stable across splits and shrinks
  /// (identity for communicators built outside Runtime::run), so
  /// deterministic per-rank fault schedules survive recovery.
  [[nodiscard]] int world_rank() const;

 private:
  friend class Runtime;
  friend class CommTestPeer;
  Comm(std::shared_ptr<detail::CommContext> ctx, int rank);

  void allreduce_bytes(const void* send, void* recv, std::size_t count,
                       std::size_t elem_size,
                       void (*combine)(void*, const void*, std::size_t),
                       int tag);
  Request post_nb_exchange(CommOpKind kind, const void* send_base,
                           std::span<const SegView> sviews, void* recv_base,
                           std::span<const SegView> rviews,
                           std::size_t elem_size, int tag, WireFormat wire);

  std::shared_ptr<detail::CommContext> ctx_;
  std::shared_ptr<detail::RankState> rank_state_;
  int rank_ = 0;
};

// --- template implementation ---

namespace detail {
template <typename T, ReduceOp OP>
void combine_fn(void* acc, const void* in, std::size_t count) {
  auto* a = static_cast<T*>(acc);
  const auto* b = static_cast<const T*>(in);
  for (std::size_t i = 0; i < count; ++i) {
    if constexpr (OP == ReduceOp::Sum) {
      a[i] += b[i];
    } else if constexpr (OP == ReduceOp::Max) {
      if (b[i] > a[i]) a[i] = b[i];
    } else {
      if (b[i] < a[i]) a[i] = b[i];
    }
  }
}
}  // namespace detail

namespace detail {
template <typename T>
auto combine_for(ReduceOp op) {
  void (*fn)(void*, const void*, std::size_t) = nullptr;
  switch (op) {
    case ReduceOp::Sum:
      fn = combine_fn<T, ReduceOp::Sum>;
      break;
    case ReduceOp::Max:
      fn = combine_fn<T, ReduceOp::Max>;
      break;
    case ReduceOp::Min:
      fn = combine_fn<T, ReduceOp::Min>;
      break;
  }
  return fn;
}
}  // namespace detail

template <typename T>
void Comm::allreduce(const T* send, T* recv, std::size_t count, ReduceOp op,
                     int tag) {
  allreduce_bytes(send, recv, count, sizeof(T), detail::combine_for<T>(op),
                  tag);
}

}  // namespace fx::mpi
