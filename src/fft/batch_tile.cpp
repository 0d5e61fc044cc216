// The batched FFT's tile kernel: gather up to kW strided transforms into
// split re/im lane packs, run the mixed-radix recursion once per tile with
// every inner loop an 8-lane `#pragma omp simd`, and scatter the result.
//
// src/fft/CMakeLists.txt compiles this file once per ISA and names each
// copy's namespace through FX_TILE_NS (see batch_tile.hpp for why nothing
// here may have external linkage outside that namespace).  Every copy
// performs the scalar engine's operations in the scalar engine's order, so
// each one agrees with Fft1d bit for bit.
#include "fft/batch_tile.hpp"

#ifndef FX_TILE_NS
#error "batch_tile.cpp is built through fx_fft_tile_copy() in src/fft/CMakeLists.txt"
#endif

namespace fx::fft::FX_TILE_NS {

namespace {

using detail::TilePlan;

constexpr std::size_t kW = detail::kTileLanes;

/// Doubles per lane pack: kW real parts followed by kW imaginary parts.
constexpr std::size_t kPack = 2 * kW;

/// Pack-granular mirror of odd_prime_dft (plan1d.cpp), the symmetric
/// butterfly for an odd prime radix R = 2H+1: the same operations in the
/// same order, each an 8-lane loop, so a tile and a scalar lone tail round
/// identically.  z packs are zp doubles apart, out packs op apart; twiddle
/// entry w_R^k is the (re, im) pair at twiddle + 2*k*step.
template <std::size_t R>
void odd_prime_pack(const double* z, std::size_t zp, double* out,
                    std::size_t op, const double* twiddle, std::size_t step) {
  constexpr std::size_t H = R / 2;
  // cw[t-1][q-1] + i*sw[t-1][q-1] = w_R^{tq}, hoisted out of the lane loops.
  double cw[H][H];
  double sw[H][H];
  for (std::size_t t = 1; t <= H; ++t) {
    for (std::size_t q = 1; q <= H; ++q) {
      const double* w = twiddle + 2 * (((t * q) % R) * step);
      cw[t - 1][q - 1] = w[0];
      sw[t - 1][q - 1] = w[1];
    }
  }
  // a_q = z_q + z_{R-q}, b_q = z_q - z_{R-q}: one pack each per q.
  alignas(64) double a[H * kPack];
  alignas(64) double b[H * kPack];
  for (std::size_t q = 1; q <= H; ++q) {
    const double* zq = z + q * zp;
    const double* zm = z + (R - q) * zp;
    double* aq = a + (q - 1) * kPack;
    double* bq = b + (q - 1) * kPack;
#pragma omp simd
    for (std::size_t d = 0; d < kPack; ++d) {
      aq[d] = zq[d] + zm[d];
      bq[d] = zq[d] - zm[d];
    }
  }
#pragma omp simd
  for (std::size_t d = 0; d < kPack; ++d) {
    double acc = z[d];
    for (std::size_t q = 0; q < H; ++q) acc += a[q * kPack + d];
    out[d] = acc;
  }
  for (std::size_t t = 1; t <= H; ++t) {
    const double* c = cw[t - 1];
    const double* s = sw[t - 1];
    double* ot = out + t * op;
    double* om = out + (R - t) * op;
#pragma omp simd
    for (std::size_t l = 0; l < kW; ++l) {
      double cr = z[l] + c[0] * a[l];
      double ci = z[kW + l] + c[0] * a[kW + l];
      double sr = s[0] * b[l];
      double si = s[0] * b[kW + l];
      for (std::size_t q = 1; q < H; ++q) {
        cr += c[q] * a[q * kPack + l];
        ci += c[q] * a[q * kPack + kW + l];
        sr += s[q] * b[q * kPack + l];
        si += s[q] * b[q * kPack + kW + l];
      }
      ot[l] = cr - si;
      ot[kW + l] = ci + sr;
      om[l] = cr + si;
      om[kW + l] = ci - sr;
    }
  }
}

/// Pack-granular mirror of Fft1d::small_dft: out[t*os] = sum_q z[q*zs] *
/// w_r^{t*q}, with every +-*/ an 8-lane loop.  z and out never alias
/// (z is either the gathered tile or a local combine buffer).  r is one of
/// factorize()'s radices; BatchPlan1d checks that at construction.
void bsmall_dft(const TilePlan& p, std::size_t r, const double* z,
                std::size_t zs, double* out, std::size_t os) {
  const double s = p.sign;
  const std::size_t zp = zs * kPack;
  const std::size_t op = os * kPack;
  switch (r) {
    case 2: {
      const double* are = z;
      const double* aim = z + kW;
      const double* bre = z + zp;
      const double* bim = z + zp + kW;
      double* o0 = out;
      double* o1 = out + op;
#pragma omp simd
      for (std::size_t l = 0; l < kW; ++l) {
        const double xr = are[l];
        const double xi = aim[l];
        const double yr = bre[l];
        const double yi = bim[l];
        o0[l] = xr + yr;
        o0[kW + l] = xi + yi;
        o1[l] = xr - yr;
        o1[kW + l] = xi - yi;
      }
      return;
    }
    case 3: {
      // w = -1/2 + i*s*sqrt(3)/2, as in the scalar kernel.
      constexpr double kHalfSqrt3 = 0.86602540378443864676;
      const double* z0 = z;
      const double* z1 = z + zp;
      const double* z2 = z + 2 * zp;
      double* o0 = out;
      double* o1 = out + op;
      double* o2 = out + 2 * op;
#pragma omp simd
      for (std::size_t l = 0; l < kW; ++l) {
        const double tr = z1[l] + z2[l];
        const double ti = z1[kW + l] + z2[kW + l];
        const double ur = z0[l] - 0.5 * tr;
        const double ui = z0[kW + l] - 0.5 * ti;
        const double dr = z1[l] - z2[l];
        const double di = z1[kW + l] - z2[kW + l];
        const double vr = -s * kHalfSqrt3 * di;
        const double vi = s * kHalfSqrt3 * dr;
        o0[l] = z0[l] + tr;
        o0[kW + l] = z0[kW + l] + ti;
        o1[l] = ur + vr;
        o1[kW + l] = ui + vi;
        o2[l] = ur - vr;
        o2[kW + l] = ui - vi;
      }
      return;
    }
    case 4: {
      const double* z0 = z;
      const double* z1 = z + zp;
      const double* z2 = z + 2 * zp;
      const double* z3 = z + 3 * zp;
      double* o0 = out;
      double* o1 = out + op;
      double* o2 = out + 2 * op;
      double* o3 = out + 3 * op;
#pragma omp simd
      for (std::size_t l = 0; l < kW; ++l) {
        const double t0r = z0[l] + z2[l];
        const double t0i = z0[kW + l] + z2[kW + l];
        const double t1r = z0[l] - z2[l];
        const double t1i = z0[kW + l] - z2[kW + l];
        const double t2r = z1[l] + z3[l];
        const double t2i = z1[kW + l] + z3[kW + l];
        const double t3r = z1[l] - z3[l];
        const double t3i = z1[kW + l] - z3[kW + l];
        const double it3r = -s * t3i;
        const double it3i = s * t3r;
        o0[l] = t0r + t2r;
        o0[kW + l] = t0i + t2i;
        o1[l] = t1r + it3r;
        o1[kW + l] = t1i + it3i;
        o2[l] = t0r - t2r;
        o2[kW + l] = t0i - t2i;
        o3[l] = t1r - it3r;
        o3[kW + l] = t1i - it3i;
      }
      return;
    }
    case 5:
      odd_prime_pack<5>(z, zp, out, op, p.twiddle, p.n / 5);
      return;
    case 7:
      odd_prime_pack<7>(z, zp, out, op, p.twiddle, p.n / 7);
      return;
    case 11:
      odd_prime_pack<11>(z, zp, out, op, p.twiddle, p.n / 11);
      return;
    case 13:
      odd_prime_pack<13>(z, zp, out, op, p.twiddle, p.n / 13);
      return;
    default:
      __builtin_unreachable();
  }
}

void brecurse(const TilePlan& p, std::size_t n, std::size_t factor_index,
              const double* in, std::size_t istride, double* out,
              double* scratch) {
  if (n == 1) {
#pragma omp simd
    for (std::size_t d = 0; d < kPack; ++d) out[d] = in[d];
    return;
  }
  const std::size_t r = p.factors[factor_index];
  const std::size_t m = n / r;

  if (m == 1) {
    // Leaf: one small DFT straight from the (pack-strided) input.
    bsmall_dft(p, r, in, istride, out, 1);
    return;
  }

  // Decimation in time, exactly as the scalar engine: r interleaved
  // sub-transforms into `scratch`, ping-ponging with `out`.
  for (std::size_t q = 0; q < r; ++q) {
    brecurse(p, m, factor_index + 1, in + q * istride * kPack, istride * r,
             scratch + q * m * kPack, out + q * m * kPack);
  }

  // Combine.  Every lane of a pack shares the twiddle w_n^{j*q} -- the
  // lanes are the same element index of different transforms -- so the
  // complex multiply broadcasts one (wr, wi) pair over 8 lanes.
  const std::size_t step = p.n / n;
  alignas(64) double z[13 * kPack];
  for (std::size_t j = 0; j < m; ++j) {
    const double* s0 = scratch + j * kPack;
#pragma omp simd
    for (std::size_t d = 0; d < kPack; ++d) z[d] = s0[d];
    for (std::size_t q = 1; q < r; ++q) {
      const double* w = p.twiddle + 2 * (j * q * step);
      const double wr = w[0];
      const double wi = w[1];
      const double* sre = scratch + (q * m + j) * kPack;
      const double* sim = sre + kW;
      double* zre = z + q * kPack;
      double* zim = zre + kW;
#pragma omp simd
      for (std::size_t l = 0; l < kW; ++l) {
        zre[l] = sre[l] * wr - sim[l] * wi;
        zim[l] = sre[l] * wi + sim[l] * wr;
      }
    }
    bsmall_dft(p, r, z, 1, out + j * kPack, m);
  }
}

}  // namespace

void run_tile(const TilePlan& plan, std::size_t lanes, const double* in,
              std::size_t istride, std::size_t idist, double* out,
              std::size_t ostride, std::size_t odist, double* work) {
  const std::size_t n = plan.n;
  double* gathered = work;
  double* result = work + n * kPack;
  double* scratch = work + 2 * n * kPack;

  // Gather: element j of lane l is the (re, im) pair at
  // in + 2*(l*idist + j*istride).  Lanes beyond the batch tail are
  // zero-filled so they stay finite (the scatter discards them).
  for (std::size_t j = 0; j < n; ++j) {
    double* re = gathered + j * kPack;
    double* im = re + kW;
    const double* src = in + 2 * j * istride;
    for (std::size_t l = 0; l < lanes; ++l) {
      re[l] = src[2 * l * idist];
      im[l] = src[2 * l * idist + 1];
    }
    for (std::size_t l = lanes; l < kW; ++l) {
      re[l] = 0.0;
      im[l] = 0.0;
    }
  }

  brecurse(plan, n, 0, gathered, 1, result, scratch);

  // Scatter: lane l's element k goes to out + 2*(l*odist + k*ostride).
  // Reading happened entirely in the gather, so in-place tiles are safe.
  for (std::size_t k = 0; k < n; ++k) {
    const double* re = result + k * kPack;
    const double* im = re + kW;
    double* dst = out + 2 * k * ostride;
    for (std::size_t l = 0; l < lanes; ++l) {
      dst[2 * l * odist] = re[l];
      dst[2 * l * odist + 1] = im[l];
    }
  }
}

}  // namespace fx::fft::FX_TILE_NS
