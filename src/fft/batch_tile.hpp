// Interface of the batched FFT's tile kernel (batch_tile.cpp).
//
// The kernel source is compiled once per instruction set, each copy into
// its own namespace: tile_baseline at the build's baseline ISA and, on
// x86-64 compilers that accept -mavx512f, tile_avx512 at one AVX-512
// register per 8-lane loop.  BatchPlan1d picks the widest copy the CPU
// supports and calls it through a TileKernel pointer.
//
// The AVX-512 object must not define anything a baseline caller could
// link to: an inline function or template instantiated there is emitted as
// a weak (COMDAT) symbol that the linker may keep in place of the baseline
// copy, which would then fault on a CPU without AVX-512 whichever kernel
// dispatch chose.  So this header includes nothing but <cstddef>, the
// kernel takes raw pointers and plain values only, and its helpers have
// internal linkage (tests/fft/check_tile_symbols.cmake enforces this).
#pragma once

#include <cstddef>

namespace fx::fft::detail {

/// Transforms per tile; BatchPlan1d::kSimdWidth.
inline constexpr std::size_t kTileLanes = 8;

/// The parts of an Fft1d plan a tile reads.
struct TilePlan {
  std::size_t n;              ///< transform length, >= 2, not Bluestein
  const std::size_t* factors; ///< radices in {2, 3, 4, 5, 7, 11, 13}, product n
  const double* twiddle;      ///< n (re, im) pairs: w_n^k = exp(sign*2*pi*i*k/n)
  double sign;                ///< sign_of(direction)
};

/// Transforms `lanes` (2..kTileLanes) strided transforms as one tile:
/// transform l reads complex element j at in[2*(l*idist + j*istride)] (re,
/// im) and writes element k at out[2*(l*odist + k*ostride)].  `work` holds
/// 3*n*2*kTileLanes doubles, 64-byte aligned.  Fully in-place tiles (in ==
/// out, same strides) are safe: the tile is gathered before any write.
using TileKernel = void (*)(const TilePlan& plan, std::size_t lanes,
                            const double* in, std::size_t istride,
                            std::size_t idist, double* out,
                            std::size_t ostride, std::size_t odist,
                            double* work);

}  // namespace fx::fft::detail

namespace fx::fft::tile_baseline {
void run_tile(const detail::TilePlan& plan, std::size_t lanes,
              const double* in, std::size_t istride, std::size_t idist,
              double* out, std::size_t ostride, std::size_t odist,
              double* work);
}  // namespace fx::fft::tile_baseline

namespace fx::fft::tile_avx512 {
void run_tile(const detail::TilePlan& plan, std::size_t lanes,
              const double* in, std::size_t istride, std::size_t idist,
              double* out, std::size_t ostride, std::size_t odist,
              double* work);
}  // namespace fx::fft::tile_avx512
