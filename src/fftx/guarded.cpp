#include "fftx/guarded.hpp"

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "core/env.hpp"
#include "core/error.hpp"
#include "core/format.hpp"
#include "core/hooks.hpp"
#include "core/metrics.hpp"
#include "core/retry.hpp"

namespace fx::fftx {

namespace {

/// Retries per guarded exchange before the structured failure.
constexpr int kMaxRetries = 3;

// Process-wide guard health, in addition to the per-pipeline GuardStats:
// the metrics dump of a fault-injection run shows whether corruption was
// seen and recovered from without access to the pipeline object.
struct GuardMetrics {
  core::Counter& exchanges;
  core::Counter& retries;
  core::Counter& checksum_failures;
  core::Histogram& retry_backoff_ms;
};

GuardMetrics& guard_metrics() {
  auto& reg = core::MetricsRegistry::global();
  static GuardMetrics m{reg.counter("fftx.guard.exchanges"),
                        reg.counter("fftx.guard.retries"),
                        reg.counter("fftx.guard.checksum_failures"),
                        reg.histogram("fftx.guard.retry_backoff_ms")};
  return m;
}

}  // namespace

std::uint64_t fnv1a(std::uint64_t seed, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fnv1a(const void* data, std::size_t bytes) {
  return fnv1a(0xcbf29ce484222325ULL, data, bytes);
}

bool default_guard_exchanges() {
  bool on = false;
  core::env_flag("FFTX_GUARD_EXCHANGES", on, "guarded exchange");
  return on;
}

namespace {

/// Digest of the logical element stream of one scatter-gather segment.
std::uint64_t fnv1a_view(const fft::cplx* base, mpi::SegView view) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const mpi::SegRun& run : view) {
    if (run.stride == 1) {
      h = fnv1a(h, base + run.offset, run.len * sizeof(fft::cplx));
    } else {
      for (std::size_t i = 0; i < run.len; ++i) {
        h = fnv1a(h, base + run.offset + i * run.stride, sizeof(fft::cplx));
      }
    }
  }
  return h;
}

/// Digest of the *wire encoding* of one segment: every double hashes as
/// the exact bytes it occupies on a narrow wire.  Re-encoding is
/// idempotent on round-tripped values, so sender (pre-quantization) and
/// receiver (post-dequantization) digests agree for an intact payload.
std::uint64_t fnv1a_view_wire(const fft::cplx* base, mpi::SegView view,
                              mpi::WireFormat wire) {
  if (wire == mpi::WireFormat::Fp64) return fnv1a_view(base, view);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto digest = [&h, wire](const fft::cplx& c) {
    const double d[2] = {c.real(), c.imag()};
    for (const double x : d) {
      if (wire == mpi::WireFormat::Fp32) {
        const std::uint32_t bits = mpi::fp32_encode(x);
        h = fnv1a(h, &bits, sizeof(bits));
      } else {
        const std::uint16_t bits = mpi::bf16_encode(x);
        h = fnv1a(h, &bits, sizeof(bits));
      }
    }
  };
  for (const mpi::SegRun& run : view) {
    for (std::size_t i = 0; i < run.len; ++i) {
      digest(base[run.offset + i * run.stride]);
    }
  }
  return h;
}

/// The guard's one retry loop (see guarded.hpp): `send_digest(p)` and
/// `recv_digest(p)` digest the segment sent to / received from peer p, and
/// `payload()` runs the payload exchange.  `what` names the exchange in
/// the exhaustion error.
template <typename SendDigest, typename RecvDigest, typename Payload>
void guarded_exchange(mpi::Comm& comm, int tag, GuardStats* stats,
                      const core::Deadline& deadline, const char* what,
                      SendDigest&& send_digest, RecvDigest&& recv_digest,
                      Payload&& payload) {
  const auto n = static_cast<std::size_t>(comm.size());
  std::vector<std::uint64_t> sent_sums(n);
  std::vector<std::uint64_t> want_sums(n);

  // The retry schedule comes from the unified policy (FFTX_RETRY_* env
  // knobs); kMaxRetries still bounds the attempt count and a live
  // deadline tightens the wall-clock budget to what remains of it --
  // floored so an expired budget still permits the mandatory first attempt
  // (the collective must complete; the caller's next lockstep check
  // cancels).  The salt is identical on every rank, so the jittered
  // backoff is too -- ranks sleep and re-enter the exchange in lockstep.
  core::RetryPolicy policy = core::RetryPolicy::from_env();
  policy.max_attempts = kMaxRetries + 1;
  policy.deadline_s = core::RetryPolicy::merge_deadline_s(
      policy.deadline_s,
      deadline.active() ? std::max(deadline.remaining_s(), 1e-3) : 0.0);
  core::RetryController retry(
      policy, (static_cast<std::uint64_t>(comm.id()) << 32) ^
                  static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag)));

  for (;;) {
    for (std::size_t p = 0; p < n; ++p) sent_sums[p] = send_digest(p);
    // The digest exchange is an Alltoall: a distinct collective kind, so it
    // matches independently of the same-tag payload exchange below.
    comm.alltoall_bytes(sent_sums.data(), want_sums.data(),
                        sizeof(std::uint64_t), tag);
    payload();

    int bad_peer = -1;
    for (std::size_t p = 0; p < n; ++p) {
      if (recv_digest(p) != want_sums[p]) {
        bad_peer = static_cast<int>(p);
        break;
      }
    }
    if (bad_peer >= 0) guard_metrics().checksum_failures.add();
    // Agree globally so every rank retries (or accepts) in lockstep: send
    // buffers stay valid and the per-(kind, tag) sequence counters advance
    // identically on all ranks.
    int ok = bad_peer < 0 ? 1 : 0;
    int all_ok = 0;
    comm.allreduce(&ok, &all_ok, 1, mpi::ReduceOp::Min, tag);
    if (all_ok == 1) {
      guard_metrics().exchanges.add();
      if (stats != nullptr) {
        stats->exchanges.fetch_add(1, std::memory_order_relaxed);
      }
      return;
    }
    // The deadline check reads each rank's own clock, so agree on whether
    // to continue -- otherwise one rank could throw while its peers re-enter
    // the exchange and hang.
    int cont = retry.should_retry() ? 1 : 0;
    int all_cont = 0;
    comm.allreduce(&cont, &all_cont, 1, mpi::ReduceOp::Min, tag);
    if (all_cont == 0) {
      throw core::CommError(core::cat(
          what, ": payload corruption persists after ", retry.attempt(),
          " retries on comm ", comm.id(), " (tag ", tag, "): rank ",
          comm.rank(),
          bad_peer >= 0
              ? core::cat(" sees a checksum mismatch in the segment from "
                          "rank ",
                          bad_peer)
              : std::string(" is retrying for a corrupted peer")));
    }
    guard_metrics().retries.add();
    if (stats != nullptr) {
      stats->retries.fetch_add(1, std::memory_order_relaxed);
    }
    // One incident per agreed retry round (all ranks re-enter together, so
    // rank 0 speaks for the collective); the observatory's sink snapshots
    // the flight recorder around the corruption.
    if (comm.rank() == 0) {
      core::emit_incident(core::cat("guard: checksum retry on comm ",
                                    comm.id(), " (tag ", tag, ", attempt ",
                                    retry.attempt(), ")"));
    }
    guard_metrics().retry_backoff_ms.record(retry.backoff());
  }
}

}  // namespace

void guarded_alltoallv(mpi::Comm& comm, const fft::cplx* send,
                       const std::size_t* scounts, const std::size_t* sdispls,
                       fft::cplx* recv, const std::size_t* rcounts,
                       const std::size_t* rdispls, int tag, GuardStats* stats,
                       const core::Deadline& deadline) {
  guarded_exchange(
      comm, tag, stats, deadline, "guarded alltoallv",
      [&](std::size_t p) {
        return fnv1a(send + sdispls[p], scounts[p] * sizeof(fft::cplx));
      },
      [&](std::size_t p) {
        return fnv1a(recv + rdispls[p], rcounts[p] * sizeof(fft::cplx));
      },
      [&] {
        comm.alltoallv(send, scounts, sdispls, recv, rcounts, rdispls, tag);
      });
}

void guarded_alltoallv_view(mpi::Comm& comm, const fft::cplx* send_base,
                            std::span<const mpi::SegView> sviews,
                            fft::cplx* recv_base,
                            std::span<const mpi::SegView> rviews, int tag,
                            GuardStats* stats, mpi::WireFormat wire,
                            const core::Deadline& deadline) {
  guarded_exchange(
      comm, tag, stats, deadline, "guarded alltoallv (fused view)",
      [&](std::size_t p) {
        return fnv1a_view_wire(send_base, sviews[p], wire);
      },
      [&](std::size_t p) {
        return fnv1a_view_wire(recv_base, rviews[p], wire);
      },
      [&] {
        comm.alltoallv_view(send_base, sviews, recv_base, rviews,
                            sizeof(fft::cplx), tag, wire);
      });
}

}  // namespace fx::fftx
