// Service-frontend overload bench: three tenants flood the serve layer at
// well past sustainable throughput while every request carries a deadline
// budget.  Reports per-tenant latency quantiles of admitted requests, the
// shed rate, and the degrade rate -- the acceptance surface for the
// overload-resilience design:
//
//   - shedding and degradation must ENGAGE under overload ({min} gates),
//   - the p99 latency of admitted-and-completed requests must stay inside
//     the deadline budget ({max} gate): anything that cannot make the
//     budget is cancelled or shed, never queued into latency collapse.
//
// Writes bench/out/service_latency.csv (per-tenant rows, human-readable)
// and bench/out/service_latency.json (the perf_regress gate surface).
#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/csv.hpp"
#include "core/format.hpp"
#include "serve/frontend.hpp"
#include "simmpi/runtime.hpp"

namespace {

using fx::mpi::Comm;
using fx::mpi::RunOptions;
using fx::mpi::Runtime;
using fx::serve::Frontend;
using fx::serve::Overloaded;
using fx::serve::Request;
using fx::serve::Response;
using fx::serve::ServeConfig;
using fx::serve::Status;
using fx::serve::Ticket;

constexpr int kRanks = 4;
constexpr int kTenants = 3;
constexpr int kPerTenant = 60;
constexpr double kDeadlineS = 0.5;  // per-request wall budget

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

struct TenantStats {
  int submitted = 0;
  int shed = 0;
  int completed = 0;
  int degraded = 0;
  int cancelled = 0;
  int failed = 0;
  std::vector<double> admitted_latency_ms;  // completed + degraded only
};

}  // namespace

int main() {
  ServeConfig cfg;
  cfg.queue_depth = 8;  // small bound: the flood must shed
  cfg.coalesce_bands = 16;
  cfg.degrade_watermark = 0.5;
  cfg.starvation_ms = 250.0;
  cfg.breaker_strikes = 0;  // measure shedding, not quarantine
  cfg.idle_poll_ms = 1.0;
  cfg.pipeline.fused_exchange = false;
  cfg.recovery.checkpoint_bands = 2;
  cfg.recovery.retry.base_delay_ms = 0.1;

  RunOptions opts;
  opts.watchdog.window_ms = 60000.0;

  Frontend fe(cfg);
  std::vector<TenantStats> stats(kTenants);
  std::vector<std::vector<Ticket>> tickets(kTenants);

  std::thread client([&] {
    for (int i = 0; i < kPerTenant; ++i) {
      for (int c = 0; c < kTenants; ++c) {
        Request r;
        r.tenant = "tenant" + std::to_string(c);
        r.num_bands = 2 + (i + c) % 3;
        r.deadline_s = kDeadlineS;
        ++stats[static_cast<std::size_t>(c)].submitted;
        try {
          tickets[static_cast<std::size_t>(c)].push_back(fe.submit(r));
        } catch (const Overloaded&) {
          ++stats[static_cast<std::size_t>(c)].shed;
        }
      }
      // No pacing: the point is submitting far past sustainable rate.
    }
    for (const auto& per_tenant : tickets) {
      for (const auto& t : per_tenant) {
        while (!t.done()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
    }
    fe.request_stop();
  });
  Runtime::run(kRanks, opts, [&](Comm& world) { fe.serve(world); });
  client.join();
  fe.fail_pending("bench: world terminated");

  for (int c = 0; c < kTenants; ++c) {
    auto& s = stats[static_cast<std::size_t>(c)];
    for (auto& t : tickets[static_cast<std::size_t>(c)]) {
      const Response r = t.wait();
      switch (r.status) {
        case Status::Completed:
          ++s.completed;
          break;
        case Status::CompletedDegraded:
          ++s.degraded;
          break;
        case Status::DeadlineCancelled:
          ++s.cancelled;
          break;
        case Status::Failed:
          ++s.failed;
          break;
      }
      if (r.status == Status::Completed ||
          r.status == Status::CompletedDegraded) {
        s.admitted_latency_ms.push_back((r.queue_s + r.exec_s) * 1e3);
      }
    }
  }

  fxbench::JsonReport report("service_latency");
  fx::core::CsvWriter csv("bench/out/service_latency.csv");
  csv.row({"tenant", "submitted", "admitted", "shed", "completed",
           "degraded", "cancelled", "failed", "p50_ms", "p95_ms", "p99_ms"});

  int submitted = 0, shed = 0, admitted = 0, served = 0, degraded = 0;
  std::vector<double> all_latency_ms;
  for (int c = 0; c < kTenants; ++c) {
    const auto& s = stats[static_cast<std::size_t>(c)];
    const std::string name = "tenant" + std::to_string(c);
    const double p50 = quantile(s.admitted_latency_ms, 0.50);
    const double p95 = quantile(s.admitted_latency_ms, 0.95);
    const double p99 = quantile(s.admitted_latency_ms, 0.99);
    const int adm = s.submitted - s.shed;
    csv.row({name, std::to_string(s.submitted), std::to_string(adm),
             std::to_string(s.shed), std::to_string(s.completed),
             std::to_string(s.degraded), std::to_string(s.cancelled),
             std::to_string(s.failed), fx::core::fixed(p50, 3),
             fx::core::fixed(p95, 3), fx::core::fixed(p99, 3)});
    report.set("service.p99_ms." + name, p99);
    submitted += s.submitted;
    shed += s.shed;
    admitted += adm;
    served += s.completed + s.degraded;
    degraded += s.degraded;
    all_latency_ms.insert(all_latency_ms.end(), s.admitted_latency_ms.begin(),
                          s.admitted_latency_ms.end());
  }

  const double shed_rate =
      submitted > 0 ? static_cast<double>(shed) / submitted : 0.0;
  const double degrade_rate =
      served > 0 ? static_cast<double>(degraded) / served : 0.0;
  const double p99_all = quantile(all_latency_ms, 0.99);

  report.set("service.submitted", submitted);
  report.set("service.admitted", admitted);
  report.set("service.served", served);
  report.set("service.shed_rate", shed_rate);
  report.set("service.degrade_rate", degrade_rate);
  report.set("service.p99_admitted_ms", p99_all);
  report.set("service.deadline_budget_ms", kDeadlineS * 1e3);
  report.write();

  std::printf("service overload: %d submitted, %d admitted, %d served "
              "(%.1f%% shed, %.1f%% degraded), p99 admitted %.2f ms "
              "(budget %.0f ms)\n",
              submitted, admitted, served, 100.0 * shed_rate,
              100.0 * degrade_rate, p99_all, kDeadlineS * 1e3);
  return 0;
}
