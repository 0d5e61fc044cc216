// Host-speed probe: a miniature band loop in the ledger's own code, with
// the band loop's mix of work.  Each round of each slot runs
//   - radix-2 butterfly sweeps over a cache-resident 128 KB array, the
//     FFT-like compute that makes up most of a band iteration;
//   - a contiguous and a strided butterfly pass over a 4 MB array, about
//     a rank's pencil-plus-planes working set on the paper problem;
//   - a barrier-synchronized pull of the next slot's 4 MB array, the
//     exchange, which also makes the slowest slot set the pace;
//   - laps of a token passed around the slots through one mutex and
//     condition variable, the wake-ups every collective and task hand-off
//     pays.
// So it slows down with the vCPU throttling, the shared cache and the
// wake-up latency that slow the library, but never with the library itself.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <thread>

#include "core/timer.hpp"
#include "ledger.hpp"

namespace ledger {
namespace {

constexpr std::size_t kCols = 512;
constexpr std::size_t kRows = 512;
constexpr std::size_t kElems = kRows * kCols;  ///< 4 MB of complex doubles
constexpr std::size_t kSmall = 1 << 13;        ///< 128 KB of complex doubles
constexpr int kSweeps = 16;                    ///< compute sweeps per round
constexpr int kLaps = 50;                      ///< token laps per round
constexpr int kRounds = 8;
/// The probe's time per slot on the reference host (a 4-vCPU Intel Xeon
/// guest, GCC 12 -O3), two slots at once, at its typical sustained speed.
constexpr double kNominalS = 0.065;

/// Unitary butterfly: norm-preserving, so the data never overflows or
/// goes denormal however often it runs.
inline void butterfly(Cplx& x, Cplx& y) {
  const Cplx w(0.6, 0.8);
  const double r = 1.0 / std::sqrt(2.0);
  const Cplx t = y * w;
  y = (x - t) * r;
  x = (x + t) * r;
}

}  // namespace

Probe::Probe(int threads)
    : n_(std::max(1, threads)),
      sync_(n_),
      a_(static_cast<std::size_t>(n_)),
      b_(static_cast<std::size_t>(n_)) {}

double Probe::run(int slot) {
  const auto s = static_cast<std::size_t>(slot);
  std::vector<Cplx>& a = a_[s];
  std::vector<Cplx>& b = b_[s];
  // Allocated by the thread that runs the slot, as a rank's own buffers are.
  a.resize(kElems);
  b.resize(kElems);
  for (std::size_t i = 0; i < kElems; ++i) {
    a[i] = Cplx(std::cos(0.001 * static_cast<double>(i)), 0.5);
  }
  std::vector<Cplx> small(a.begin(), a.begin() + kSmall);
  const auto& next = a_[(s + 1) % a_.size()];
  sync_.arrive_and_wait();
  const fx::core::WallTimer timer;
  for (int round = 0; round < kRounds; ++round) {
    for (int sweep = 0; sweep < kSweeps; ++sweep) {
      for (std::size_t h = 1; h < kSmall; h <<= 1) {
        for (std::size_t i = 0; i < kSmall; i += 2 * h) {
          for (std::size_t j = i; j < i + h; ++j) {
            butterfly(small[j], small[j + h]);
          }
        }
      }
    }
    for (std::size_t i = 0; i < kElems; i += 2) butterfly(a[i], a[i + 1]);
    for (std::size_t c = 0; c < kCols; ++c) {
      for (std::size_t r = 0; r < kRows; r += 2) {
        butterfly(a[r * kCols + c], a[(r + 1) * kCols + c]);
      }
    }
    sync_.arrive_and_wait();  // every slot's array is ready to be read
    std::memcpy(b.data(), next.data(), kElems * sizeof(Cplx));
    sync_.arrive_and_wait();  // every pull finished; arrays may change
    std::swap(a, b);
    for (int lap = 0; lap < kLaps; ++lap) {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [&] { return token_ == slot; });
      token_ = (slot + 1) % n_;
      cv_.notify_all();
    }
  }
  const double t = timer.seconds();
  if (!std::isfinite(std::abs(a[kElems / 3]) + std::abs(small[kSmall / 3]))) {
    throw std::runtime_error("ledger: host probe diverged");
  }
  return t;
}

double run_slots(Probe& probe, int first, int count) {
  std::vector<double> t(static_cast<std::size_t>(count));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(count));
  {
    std::vector<std::jthread> helpers;
    for (int k = 1; k < count; ++k) {
      helpers.emplace_back([&, k] {
        const auto ku = static_cast<std::size_t>(k);
        try {
          t[ku] = probe.run(first + k);
        } catch (...) {
          errors[ku] = std::current_exception();
        }
      });
    }
    try {
      t[0] = probe.run(first);
    } catch (...) {
      errors[0] = std::current_exception();
    }
  }
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  double sum = 0.0;
  for (double x : t) sum += x;
  return sum;
}

double speed_of(double seconds) { return kNominalS / seconds; }

double host_speed(Probe& probe) {
  return speed_of(run_slots(probe, 0, probe.threads()) / probe.threads());
}

int busy_threads(const Preset& p) { return p.nranks * p.nthreads; }

}  // namespace ledger
