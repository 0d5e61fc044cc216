// Validated environment-variable parsing shared by every module.
//
// PR 7 introduced strict parsing for the FFTX_FAULT_* family (garbage or
// out-of-range values throw a named core::Error instead of silently running
// with a clamped default); this generalizes that pattern so every FFTX_*
// knob in the stack -- stream depth, observatory ring, watchdog window,
// checkpoint cadence, retry schedule, service frontend -- fails loudly and
// uniformly.  Each helper returns true and writes `out` only when the
// variable is set and valid; an unset/empty variable keeps the caller's
// default.  `context` (e.g. "fault injection") prefixes the error message so
// the subsystem stays identifiable.
#pragma once

#include <cstdint>

namespace fx::core {

/// Throws core::Error: "<context: >invalid <name>='<value>': expected
/// <expected>".
[[noreturn]] void invalid_env(const char* name, const char* value,
                              const char* expected,
                              const char* context = nullptr);

/// Unsigned integer (rejects signs, trailing junk, overflow).
bool env_u64(const char* name, std::uint64_t& out,
             const char* context = nullptr);

/// Integer in [INT_MIN, INT_MAX] (rejects trailing junk, overflow).
bool env_int(const char* name, int& out, const char* context = nullptr);

/// Finite double (rejects trailing junk, inf, nan).
bool env_double(const char* name, double& out, const char* context = nullptr);

/// Probability in [0, 1].
bool env_prob(const char* name, double& out, const char* context = nullptr);

/// Integer constrained to [lo, hi]; out-of-range values name the bound.
bool env_int_in(const char* name, int& out, int lo, int hi,
                const char* context = nullptr);

/// Finite double constrained to [lo, hi].
bool env_double_in(const char* name, double& out, double lo, double hi,
                   const char* context = nullptr);

/// Boolean flag: any valid integer, nonzero means true (rejects non-integer
/// text so "yes"/"on" fail loudly instead of silently reading as false).
bool env_flag(const char* name, bool& out, const char* context = nullptr);

}  // namespace fx::core
