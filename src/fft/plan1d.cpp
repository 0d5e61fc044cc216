#include "fft/plan1d.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <numbers>

#include "core/error.hpp"
#include "fft/bluestein.hpp"

namespace fx::fft {

namespace {

/// Factorizes n into the supported radices (4 preferred over 2x2 for fewer
/// passes).  Returns an empty vector if a prime factor > 13 remains,
/// signalling the Bluestein fallback.
std::vector<std::size_t> factorize(std::size_t n) {
  std::vector<std::size_t> factors;
  while (n % 4 == 0) {
    factors.push_back(4);
    n /= 4;
  }
  for (std::size_t p : {2UL, 3UL, 5UL, 7UL, 11UL, 13UL}) {
    while (n % p == 0) {
      factors.push_back(p);
      n /= p;
    }
  }
  if (n != 1) return {};
  return factors;
}

/// Symmetric butterfly for an odd prime radix R = 2H+1.  With
/// w^{tq} = c + i*s, inputs q and R-q pair up: out[t] and out[R-t] share
/// C = z0 + sum_q c*(z_q + z_{R-q}) and S = sum_q s*(z_q - z_{R-q}), and
/// differ only in the sign of i*S -- real-by-complex products only, about
/// a third of the flops of the direct O(R^2) sum.  Twiddle entries
/// w_R^k = twiddle[k*step].  odd_prime_pack (batch1d.cpp) performs the
/// same operations in the same order, so the two engines agree bitwise.
template <std::size_t R>
void odd_prime_dft(const cplx* z, cplx* out, std::size_t ostride,
                   const cplx* twiddle, std::size_t step) {
  constexpr std::size_t H = R / 2;
  double ar[H], ai[H], br[H], bi[H];
  for (std::size_t q = 1; q <= H; ++q) {
    ar[q - 1] = z[q].real() + z[R - q].real();
    ai[q - 1] = z[q].imag() + z[R - q].imag();
    br[q - 1] = z[q].real() - z[R - q].real();
    bi[q - 1] = z[q].imag() - z[R - q].imag();
  }
  double r0 = z[0].real();
  double i0 = z[0].imag();
  for (std::size_t q = 0; q < H; ++q) {
    r0 += ar[q];
    i0 += ai[q];
  }
  out[0] = cplx{r0, i0};
  for (std::size_t t = 1; t <= H; ++t) {
    const cplx w1 = twiddle[t * step];
    double cr = z[0].real() + w1.real() * ar[0];
    double ci = z[0].imag() + w1.real() * ai[0];
    double sr = w1.imag() * br[0];
    double si = w1.imag() * bi[0];
    for (std::size_t q = 2; q <= H; ++q) {
      const cplx w = twiddle[((t * q) % R) * step];
      cr += w.real() * ar[q - 1];
      ci += w.real() * ai[q - 1];
      sr += w.imag() * br[q - 1];
      si += w.imag() * bi[q - 1];
    }
    // out[t] = C + i*S, out[R-t] = C - i*S.
    out[t * ostride] = cplx{cr - si, ci + sr};
    out[(R - t) * ostride] = cplx{cr + si, ci - sr};
  }
}

}  // namespace

namespace detail {

void check_batch_aliasing(std::size_t n, std::size_t howmany, const cplx* in,
                          std::size_t istride, std::size_t idist,
                          const cplx* out, std::size_t ostride,
                          std::size_t odist) {
  if (n == 0 || howmany == 0) return;
  if (in == out && istride == ostride && idist == odist) return;
  // Compare as integers: ordering pointers into distinct arrays is
  // unspecified, and these spans are allowed to be unrelated.
  const auto ibeg = reinterpret_cast<std::uintptr_t>(in);
  const auto obeg = reinterpret_cast<std::uintptr_t>(out);
  const auto iend = reinterpret_cast<std::uintptr_t>(
      in + (howmany - 1) * idist + (n - 1) * istride + 1);
  const auto oend = reinterpret_cast<std::uintptr_t>(
      out + (howmany - 1) * odist + (n - 1) * ostride + 1);
  FX_ASSERT(oend <= ibeg || iend <= obeg,
            "execute_many in/out batches overlap incompatibly: only fully "
            "in-place (same pointer and strides) or disjoint spans are "
            "supported");
}

}  // namespace detail

Workspace& thread_workspace() {
  thread_local Workspace ws;
  return ws;
}

Fft1d::Fft1d(std::size_t n, Direction dir) : n_(n), dir_(dir) {
  FX_CHECK(n >= 1, "FFT length must be positive");
  factors_ = factorize(n);
  if (factors_.empty() && n > 1) {
    bluestein_ = std::make_unique<Bluestein>(n, dir);
    return;
  }
  twiddle_.resize(n);
  const double w = sign_of(dir) * 2.0 * std::numbers::pi / static_cast<double>(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double ang = w * static_cast<double>(k);
    twiddle_[k] = cplx{std::cos(ang), std::sin(ang)};
  }
}

Fft1d::~Fft1d() = default;
Fft1d::Fft1d(Fft1d&&) noexcept = default;
Fft1d& Fft1d::operator=(Fft1d&&) noexcept = default;

void Fft1d::small_dft(std::size_t r, const cplx* z, cplx* out,
                      std::size_t ostride) const {
  // out[t*ostride] = sum_q z[q] * w_r^{t*q}, w_r = exp(sign*2*pi*i/r).
  const double s = sign_of(dir_);
  switch (r) {
    case 1:
      out[0] = z[0];
      return;
    case 2:
      out[0] = z[0] + z[1];
      out[ostride] = z[0] - z[1];
      return;
    case 3: {
      // w = -1/2 + i*s*sqrt(3)/2.
      constexpr double kHalfSqrt3 = 0.86602540378443864676;
      const cplx t = z[1] + z[2];
      const cplx u = z[0] - 0.5 * t;
      const cplx dz = z[1] - z[2];
      const cplx v{-s * kHalfSqrt3 * dz.imag(), s * kHalfSqrt3 * dz.real()};
      out[0] = z[0] + t;
      out[ostride] = u + v;
      out[2 * ostride] = u - v;
      return;
    }
    case 4: {
      const cplx t0 = z[0] + z[2];
      const cplx t1 = z[0] - z[2];
      const cplx t2 = z[1] + z[3];
      const cplx t3 = z[1] - z[3];
      // i*s*t3:
      const cplx it3{-s * t3.imag(), s * t3.real()};
      out[0] = t0 + t2;
      out[ostride] = t1 + it3;
      out[2 * ostride] = t0 - t2;
      out[3 * ostride] = t1 - it3;
      return;
    }
    case 5:
      odd_prime_dft<5>(z, out, ostride, twiddle_.data(), n_ / 5);
      return;
    case 7:
      odd_prime_dft<7>(z, out, ostride, twiddle_.data(), n_ / 7);
      return;
    case 11:
      odd_prime_dft<11>(z, out, ostride, twiddle_.data(), n_ / 11);
      return;
    case 13:
      odd_prime_dft<13>(z, out, ostride, twiddle_.data(), n_ / 13);
      return;
    default:
      FX_ASSERT(false, "radix outside factorize()'s set");
  }
}

void Fft1d::recurse(std::size_t n, std::size_t factor_index, const cplx* in,
                    std::size_t istride, cplx* out, cplx* scratch) const {
  if (n == 1) {
    out[0] = in[0];
    return;
  }
  const std::size_t r = factors_[factor_index];
  const std::size_t m = n / r;

  if (m == 1) {
    // Leaf: a single small DFT straight from the (strided) input.
    cplx z[13];
    for (std::size_t q = 0; q < r; ++q) z[q] = in[q * istride];
    small_dft(r, z, out, 1);
    return;
  }

  // Decimation in time: r interleaved sub-transforms of length m, computed
  // into `scratch`; the sub-calls use the matching region of `out` as their
  // own scratch (regions are disjoint per q, so this ping-pong is safe).
  for (std::size_t q = 0; q < r; ++q) {
    recurse(m, factor_index + 1, in + q * istride, istride * r,
            scratch + q * m, out + q * m);
  }

  // Combine: out[j + t*m] = sum_q w_n^{j*q} * w_r^{t*q} * scratch[q*m + j].
  // w_n^{e} = twiddle_[e * (n_/n)]; e = j*q < n so no modular reduction.
  // The twiddle multiply is spelled out in real arithmetic, in the order
  // BatchPlan1d::brecurse uses, so both engines round identically.
  const std::size_t step = n_ / n;
  cplx z[13];
  for (std::size_t j = 0; j < m; ++j) {
    z[0] = scratch[j];
    for (std::size_t q = 1; q < r; ++q) {
      const cplx x = scratch[q * m + j];
      const cplx w = twiddle_[j * q * step];
      z[q] = cplx{x.real() * w.real() - x.imag() * w.imag(),
                  x.real() * w.imag() + x.imag() * w.real()};
    }
    small_dft(r, z, out + j, m);
  }
}

void Fft1d::execute(const cplx* in, cplx* out, Workspace& ws) const {
  if (n_ == 1) {
    out[0] = in[0];
    return;
  }
  if (in == out) {
    Workspace::Buffer copy(ws, n_);
    std::memcpy(copy.data(), in, n_ * sizeof(cplx));
    execute(copy.data(), out, ws);
    return;
  }
  if (bluestein_) {
    bluestein_->execute(in, out, ws);
    return;
  }
  Workspace::Buffer scratch(ws, n_);
  recurse(n_, 0, in, 1, out, scratch.data());
}

void Fft1d::execute(const cplx* in, cplx* out) const {
  execute(in, out, thread_workspace());
}

void Fft1d::execute_contiguous_from_strided(const cplx* in, std::size_t istride,
                                            cplx* out, Workspace& ws) const {
  // `out` is contiguous and distinct from `in`.
  if (bluestein_) {
    Workspace::Buffer gathered(ws, n_);
    for (std::size_t j = 0; j < n_; ++j) gathered.data()[j] = in[j * istride];
    bluestein_->execute(gathered.data(), out, ws);
    return;
  }
  Workspace::Buffer scratch(ws, n_);
  recurse(n_, 0, in, istride, out, scratch.data());
}

void Fft1d::execute_strided(const cplx* in, std::size_t istride, cplx* out,
                            std::size_t ostride, Workspace& ws) const {
  FX_CHECK(istride >= 1 && ostride >= 1);
  if (istride == 1 && ostride == 1) {
    execute(in, out, ws);
    return;
  }
  if (n_ == 1) {
    out[0] = in[0];
    return;
  }
  // Compute into a contiguous lease, then scatter.  This also makes
  // in-place strided transforms (in == out) safe.
  Workspace::Buffer result(ws, n_);
  execute_contiguous_from_strided(in, istride, result.data(), ws);
  for (std::size_t k = 0; k < n_; ++k) out[k * ostride] = result.data()[k];
}

void Fft1d::execute_many(std::size_t howmany, const cplx* in,
                         std::size_t istride, std::size_t idist, cplx* out,
                         std::size_t ostride, std::size_t odist,
                         Workspace& ws) const {
  detail::check_batch_aliasing(n_, howmany, in, istride, idist, out, ostride,
                               odist);
  for (std::size_t b = 0; b < howmany; ++b) {
    execute_strided(in + b * idist, istride, out + b * odist, ostride, ws);
  }
}

}  // namespace fx::fft
