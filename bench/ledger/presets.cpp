// The four workloads.  Each pins only its problem and its schedule; the
// library decides everything else from its defaults (the driver clears
// every FFTX_* variable before the first library call).
#include <stdexcept>

#include "ledger.hpp"

namespace ledger {
namespace {

using fx::fftx::PipelineMode;

std::vector<Preset> make_presets() {
  std::vector<Preset> v;

  // The paper's problem: ecut 80 Ry, alat 20 bohr -> 60^3 grid, 96,969
  // G-vectors, 2,561 sticks; 128 complex bands per run.
  Preset paper;
  paper.ecut_ry = 80.0;
  paper.alat_bohr = 20.0;
  paper.num_bands = 128;

  Preset p = paper;
  p.name = "paper_original";
  p.why =
      "the paper's Fig. 1 loop: 2 ranks in 2 task groups, blocking "
      "Alltoallv pack/scatter, no tasking";
  p.nranks = 2;
  p.ntg = 2;
  p.mode = PipelineMode::Original;
  v.push_back(p);

  p = paper;
  p.name = "stream_overlap";
  p.why =
      "streaming depth 4 with split fused exchanges: dependency edges, "
      "parked waitables and nonblocking scatter on the critical path";
  p.nranks = 2;
  p.ntg = 1;
  p.mode = PipelineMode::Streaming;
  p.nthreads = 1;
  p.fused_exchange = true;
  p.stream_bands = 4;
  v.push_back(p);

  p = paper;
  p.name = "gamma_taskfft";
  p.why =
      "paper Strategy 2 on Gamma-point real bands: 1 rank x 2 workers, "
      "pair-packed r2c, the highest FFT share";
  p.nranks = 1;
  p.ntg = 1;
  p.mode = PipelineMode::TaskPerFft;
  p.nthreads = 2;
  p.real_bands = true;
  p.num_bands = 256;
  v.push_back(p);

  // Service traffic on a 20^3 grid (ecut 32 Ry, alat 10 bohr).  The core
  // shape is one full coalesced group (the frontend's default 32 carried
  // bands) on the same 2-rank world.
  p = Preset{};
  p.name = "service_mixed";
  p.why =
      "open-loop Poisson requests into serve::Frontend from 3 tenants: "
      "per-request fixed costs and latency under load";
  p.service = true;
  p.ecut_ry = 32.0;
  p.alat_bohr = 10.0;
  p.nranks = 2;
  p.ntg = 1;
  p.num_bands = 32;
  p.tenants = 3;
  p.min_req_bands = 2;
  p.max_req_bands = 8;
  p.r2c_frac = 0.25;
  p.fp32_frac = 0.20;
  p.limit_s = 0.050;
  p.rate_rps = 200.0;
  p.window = 12;
  v.push_back(p);
  return v;
}

const std::vector<Preset>& presets() {
  static const std::vector<Preset> v = make_presets();
  return v;
}

}  // namespace

const Preset& find_preset(const std::string& name) {
  for (const Preset& p : presets()) {
    if (p.name == name) return p;
  }
  std::string known;
  for (const Preset& p : presets()) known += " " + p.name;
  throw std::invalid_argument("unknown workload '" + name + "'; known:" +
                              known);
}

Preset smoke_preset(const Preset& p) {
  Preset s = p;
  s.num_bands = 8;
  return s;
}

fx::fftx::PipelineConfig pipeline_config(const Preset& p) {
  fx::fftx::PipelineConfig cfg;
  cfg.num_bands = p.num_bands;
  cfg.mode = p.mode;
  cfg.nthreads = p.nthreads;
  cfg.fused_exchange = p.fused_exchange;
  cfg.real_bands = p.real_bands;
  if (p.stream_bands > 0) cfg.stream_bands = p.stream_bands;
  return cfg;
}

Value describe(const Preset& p) {
  const fx::fftx::PipelineConfig cfg = pipeline_config(p);
  fx::core::json::Object o;
  o["ecut_ry"] = p.ecut_ry;
  o["alat_bohr"] = p.alat_bohr;
  o["nranks"] = p.nranks;
  o["ntg"] = p.ntg;
  o["mode"] = fx::fftx::to_string(cfg.mode);
  o["nthreads"] = cfg.nthreads;
  o["num_bands"] = cfg.num_bands;
  o["real_bands"] = cfg.real_bands;
  o["fused_exchange"] = cfg.fused_exchange;
  o["overlap_exchange"] = cfg.overlap_exchange;
  o["stream_bands"] = cfg.stream_bands;
  o["stream_nonblocking"] = cfg.stream_nonblocking;
  o["wire"] = fx::mpi::to_string(cfg.wire_format);
  o["guard_exchanges"] = cfg.guard_exchanges;
  o["abft"] = fx::fftx::to_string(cfg.abft);
  if (p.service) {
    o["tenants"] = p.tenants;
    o["req_bands"] = fx::core::json::Array{p.min_req_bands, p.max_req_bands};
    o["r2c_frac"] = p.r2c_frac;
    o["fp32_frac"] = p.fp32_frac;
    o["limit_ms"] = p.limit_s * 1e3;
    o["rate_rps"] = p.rate_rps;
    o["window"] = p.window;
  }
  return Value(std::move(o));
}

}  // namespace ledger
