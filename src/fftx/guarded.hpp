// Checksum-guarded Alltoallv for the pipeline's transpose exchanges.
//
// The band redistribution and pencil<->plane scatters move every
// coefficient of every band across ranks twice per direction; a single
// flipped bit in transit silently corrupts the final wave function.  The
// guarded exchange makes that failure mode detectable and recoverable:
// each rank checksums every segment it sends, peers exchange the expected
// checksums (an Alltoall -- a different collective kind, so it can never
// be confused with the payload exchange under the same tag), and after the
// payload exchange every rank verifies what it received.  A global
// agreement allreduce (Min) decides pass/fail, so either all ranks accept
// or all ranks retry together -- send buffers are still live and the
// per-(kind, tag) sequence counters stay aligned.  At most 3 retries; on
// exhaustion a structured core::CommError names the mismatching segment.
//
// Both entry points run one retry loop; they differ only in the digest
// and in the payload call, which keeps its own collective kind (Alltoallv
// for the contiguous form, the view exchange's Ialltoallv for the fused
// form), so fault plans select each one by kind.
//
// Enabled per pipeline via PipelineConfig::guard_exchanges, defaulting to
// the FFTX_GUARD_EXCHANGES environment variable (off when unset).
#pragma once

#include <atomic>
#include <cstdint>
#include <span>

#include "core/deadline.hpp"
#include "fft/types.hpp"
#include "simmpi/comm.hpp"

namespace fx::fftx {

/// Counters of one pipeline's guarded exchanges (shared by all its task
/// workers, hence atomic).
struct GuardStats {
  std::atomic<std::uint64_t> exchanges{0};  ///< guarded exchanges completed
  std::atomic<std::uint64_t> retries{0};    ///< corrupted rounds repeated
};

/// FNV-1a 64-bit checksum of a byte range (the guard's segment digest).
[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t bytes);

/// Seed-continuation form: extends `seed` (a prior fnv1a result or the FNV
/// offset basis) over another byte range, so a scatter-gather segment can
/// be digested run by run without staging it contiguously.
[[nodiscard]] std::uint64_t fnv1a(std::uint64_t seed, const void* data,
                                  std::size_t bytes);

/// Alltoallv with end-to-end payload verification and bounded retry (see
/// file comment).  Collective over `comm`; every rank must pass the same
/// `tag` and `deadline`.  Throws core::CommError when 3 retries still
/// leave a corrupted segment.  An active `deadline` tightens the retry
/// loop's wall-clock budget to what remains of it (merged with
/// FFTX_RETRY_DEADLINE_S, and floored at 1 ms so an expired budget still
/// runs the first attempt): retries stop -- in lockstep, via the existing
/// continue/throw agreement -- once the budget is spent, and backoff
/// sleeps never overshoot it.
void guarded_alltoallv(mpi::Comm& comm, const fft::cplx* send,
                       const std::size_t* scounts, const std::size_t* sdispls,
                       fft::cplx* recv, const std::size_t* rcounts,
                       const std::size_t* rdispls, int tag, GuardStats* stats,
                       const core::Deadline& deadline = {});

/// Scatter-gather form of guarded_alltoallv for the fused (zero-copy)
/// transpose layouts: per-peer segments are mpi::SegView run lists over the
/// send/recv bases instead of contiguous (count, displ) slices.  Checksums
/// walk the logical element stream of each view, so the digests agree with
/// whatever layout the peer uses for the same segment.  The payload moves
/// through the blocking view exchange; retry/agreement semantics are
/// identical to the contiguous form.
///
/// With a non-Fp64 `wire` the payload crosses at wire precision and the
/// digests hash the *wire encoding* of every double: the sender encodes
/// what it sends, the receiver re-encodes what landed, and because the
/// encoding is idempotent on round-tripped values the two agree exactly
/// when the payload arrived intact.  Corruption below the wire's own
/// precision (bits the narrowing discards anyway) is undetectable by
/// construction -- the guard's detection floor equals the chosen wire
/// error floor.
void guarded_alltoallv_view(mpi::Comm& comm, const fft::cplx* send_base,
                            std::span<const mpi::SegView> sviews,
                            fft::cplx* recv_base,
                            std::span<const mpi::SegView> rviews, int tag,
                            GuardStats* stats,
                            mpi::WireFormat wire = mpi::WireFormat::Fp64,
                            const core::Deadline& deadline = {});

/// Default of PipelineConfig::guard_exchanges: FFTX_GUARD_EXCHANGES != 0.
[[nodiscard]] bool default_guard_exchanges();

}  // namespace fx::fftx
