// Internal shared state of the simulated-MPI runtime (not part of the
// public API; include only from src/simmpi/*.cpp).
//
// A CommContext is the rank-shared half of a communicator: the collective
// matching table and -- since the hardening subsystem -- the world-shared
// failure machinery: a poison flag + reason (set when any rank dies, so
// every blocked or future operation unwinds with the originating rank's
// error instead of hanging), the fault injector, the watchdog progress
// board, and the collective-matching validator switch.  Children created
// by split() inherit all of it.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "simmpi/comm.hpp"
#include "simmpi/faults.hpp"
#include "simmpi/watchdog.hpp"

namespace fx::mpi::detail {

/// Identity of one collective instance: kind + tag disambiguate concurrent
/// operations; seq orders repeated calls with the same (kind, tag).
struct OpKey {
  int kind;
  int tag;
  std::uint64_t seq;
  auto operator<=>(const OpKey&) const = default;
};

/// Shared state of one in-flight collective.  Lifetime: created by the
/// first arriver, erased from the map by the last finisher; participants
/// hold shared_ptr references across the copy phase.
struct OpState {
  explicit OpState(int size)
      : send(static_cast<std::size_t>(size), nullptr),
        scalar(static_cast<std::size_t>(size), 0),
        scalar2(static_cast<std::size_t>(size), 0),
        child_ctx(static_cast<std::size_t>(size)),
        child_rank(static_cast<std::size_t>(size), -1) {}

  int arrived = 0;
  int done = 0;
  bool ready = false;
  std::vector<int> arrived_ranks;  ///< local ranks, arrival order (diagnostics)

  std::vector<const void*> send;
  std::vector<std::size_t> scalar;   // per-rank scalar (bytes/color/elem)
  std::vector<std::size_t> scalar2;  // second scalar (key/wire format)

  // Reduction:
  std::vector<char> acc;
  void (*combine)(void*, const void*, std::size_t) = nullptr;
  std::size_t count = 0;

  // Split results:
  std::vector<std::shared_ptr<class CommContext>> child_ctx;
  std::vector<int> child_rank;

  // All-to-all exchange (every kind: Alltoall/Alltoallv post and wait at
  // once, Ialltoall/Ialltoallv return the request): per-rank send AND recv
  // views, copied at post time so the engine can move payload long after
  // the posting frame returned.  The receiver copies: rank q claims each
  // transfer p->q into its own column once p has posted, at q's post and
  // again at each of its test() and wait() calls; a rank blocked in wait()
  // whose column is complete also claims its own still-pending row.  A
  // rank's wait therefore blocks only until its own row (sends consumed)
  // and column (receives landed) are done -- never on a global all-ranks
  // barrier, and never on a peer that is not polling.  Send and recv
  // buffers stay valid until the local wait returns, which the row/column
  // condition guarantees.
  struct NbSide {
    std::vector<SegRun> runs;        ///< all peers' runs, concatenated
    std::vector<std::size_t> first;  ///< size n+1: peer p's runs span
                                     ///< [first[p], first[p+1])
  };
  std::vector<NbSide> nb_send;  ///< sized by the first nonblocking poster
  std::vector<NbSide> nb_recv;
  std::vector<void*> nb_recv_base;  ///< per-rank recv buffer base
  std::vector<char> nb_posted;      ///< per-rank: views registered
  std::vector<std::uint8_t> xfer;   ///< [p*n+q]: 0 pending / 1 claimed /
                                    ///< 2 done / 3 withdrawn, transfer p -> q
  std::vector<int> done_out;        ///< per sender p: done transfers p -> *
  std::vector<int> done_in;         ///< per receiver q: done transfers * -> q
  int observed = 0;    ///< ranks whose wait/test finalized the request
  std::string failed;  ///< metadata-mismatch poison (empty = healthy)
};

/// One rank's half of a posted all-to-all exchange, synchronized through
/// the owning communicator's mutex/condvar: the completion flag, the
/// operation's identity (tag/comm_rank/key also name it in watchdog
/// diagnostics), this rank's receive-side view (copied at post time, also
/// registered in the OpState, from which whichever endpoint claims a
/// transfer reads both sides) and the finalization flag `pulled`
/// (corruption injection + completion accounting run once per request).
/// The OpState is shared; this struct holds only per-rank state, so there
/// is no ownership cycle.
struct RequestState {
  RequestState() = default;
  /// Withdraws an abandoned all-to-all exchange (see comm.cpp).
  ~RequestState();
  RequestState(const RequestState&) = delete;
  RequestState& operator=(const RequestState&) = delete;

  std::shared_ptr<class CommContext> ctx;
  bool done = false;
  int comm_rank = -1;  ///< the posting rank
  int tag = 0;
  std::shared_ptr<OpState> op;  ///< null until the post registered
  OpKey key{};
  CommOpKind kind = CommOpKind::Ialltoallv;
  void* recv_base = nullptr;
  std::size_t elem_size = 0;
  std::vector<SegRun> rruns;        ///< recv runs, concatenated per peer
  std::vector<std::size_t> rfirst;  ///< size n+1
  bool pulled = false;  ///< finalization (injection + accounting) ran
  double t_post = 0.0;  ///< post entry, before the fault hook (event/metrics)
  std::size_t bytes = 0;            ///< payload bytes this rank sends
  std::shared_ptr<struct RankState> rank_state;  ///< event emission at wait
};

/// Rendezvous state of one repair collective (Comm::shrink / Comm::agree).
/// Unlike ordinary collectives these complete when every rank has either
/// arrived or been declared dead, so they run on a revoked context.  One
/// instance per context and kind; the repair protocol is single-flight
/// (the recovery driver serializes shrink/agree rounds).
struct RepairState {
  std::uint64_t gen = 0;  ///< bumped on reset; reused for repeated rounds
  int arrived = 0;
  int done = 0;
  bool ready = false;
  std::vector<char> joined;  ///< local rank -> arrived this round

  // agree: running Min of the contributed values.
  long long value = 0;

  // shrink: the survivor communicator under construction.
  std::shared_ptr<class CommContext> child;
  std::vector<int> child_rank;  ///< local rank -> rank in child (-1 = dead)
};

class CommContext {
 public:
  explicit CommContext(int sz)
      : size(sz),
        id(next_id().fetch_add(1)),
        dead(static_cast<std::size_t>(sz), 0) {}

  static std::atomic<int>& next_id() {
    static std::atomic<int> counter{0};
    return counter;
  }

  /// Marks the communicator (and, recursively, every communicator split
  /// from it) dead with `reason`: all pending and future operations throw
  /// core::CommError(reason).  The first reason wins; later poisons keep it.
  void poison(const std::string& reason) { poison_impl(reason, false); }

  /// Like poison, but flags the failure as survivable: unwinds raise
  /// core::RevokedError and survivors may rendezvous in shrink/agree on
  /// this context.  A revoke upgrades an existing plain poison (the
  /// unwind class changes; the first reason still wins).
  void revoke(const std::string& reason) { poison_impl(reason, true); }

  void abort() { poison("communicator aborted: a peer rank failed"); }

  const int size;
  const int id;

  std::mutex mu;
  std::condition_variable cv;
  bool aborted = false;
  bool revoked = false;  ///< aborted-for-repair: unwinds throw RevokedError
  std::string poison_reason;

  // --- Repair state (ULFM-style revoke/shrink/agree; see comm.hpp) ---
  std::vector<char> dead;  ///< local rank -> declared dead via mark_dead()
  int ndead = 0;
  RepairState shrink_st;
  RepairState agree_st;

  // Barrier (untagged fast path).
  int bar_count = 0;
  std::uint64_t bar_gen = 0;

  std::map<OpKey, std::shared_ptr<OpState>> ops;
  std::vector<std::weak_ptr<CommContext>> children;

  // --- Hardening state, shared by the whole world (null/default when the
  // feature is off) and inherited by split() children. ---
  std::shared_ptr<FaultInjector> faults;
  std::shared_ptr<ProgressBoard> board;
  bool validate = true;
  /// local rank -> world rank; empty when the context was built outside
  /// Runtime::run (diagnostics then report local ranks only).
  std::vector<int> world_ranks;

 private:
  void poison_impl(const std::string& reason, bool as_revoke) {
    std::vector<std::shared_ptr<CommContext>> kids;
    {
      std::lock_guard lock(mu);
      if (!aborted) {
        aborted = true;
        poison_reason = reason;
      }
      if (as_revoke) revoked = true;
      // A shrink child is deliberately NOT in `children` (it must outlive
      // its revoked parent), so this recursion can never poison a repaired
      // communicator -- only ordinary split() offspring.
      for (auto& w : children) {
        if (auto c = w.lock()) kids.push_back(std::move(c));
      }
      cv.notify_all();
    }
    for (auto& k : kids) k->poison_impl(reason, as_revoke);
  }
};

}  // namespace fx::mpi::detail
