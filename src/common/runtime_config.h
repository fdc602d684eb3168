// RuntimeConfig: one typed snapshot of every LOGCL_* environment knob.
//
// Before this header existed each subsystem parsed its own env var with its
// own lazily-initialised static (SIMD, quantization, ...), each with
// slightly different accepted spellings. RuntimeConfig::Get() reads the whole environment ONCE
// (on first access from any subsystem) into an immutable snapshot with one
// shared boolean grammar, and every subsystem initialises its own runtime
// flag from that snapshot. The per-subsystem Set*Enabled() functions remain
// the programmatic override layer on top — they mutate the subsystem's live
// flag, never this snapshot, exactly as before.
//
// Boolean grammar (shared by every on/off knob): "0", "false", "off" (any
// case) disable; "1", "true", "on" enable; anything else keeps the knob's
// documented default. Unset keeps the default.
//
// Integer grammar (shared by every numeric knob): the whole string is one
// base-10 integer inside the knob's range. Unparsable input ("abc"), trailing
// junk ("1e3", "12mb") or an out-of-range value keeps the default.
//
// DumpEffectiveConfig() renders the snapshot — every knob, its effective
// value and its default — and is wired into DumpMetrics (text: a trailing
// "config" section; JSON: a "config" object), so every metrics dump records
// the configuration that produced it.

#ifndef LOGCL_COMMON_RUNTIME_CONFIG_H_
#define LOGCL_COMMON_RUNTIME_CONFIG_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace logcl {

struct RuntimeConfig {
  // --- Parallel runtime (common/parallel.h) -------------------------------
  /// LOGCL_NUM_THREADS: worker count of the shared pool, at most
  /// kMaxNumThreads (common/parallel.h); larger values keep auto. 0 = auto
  /// (hardware concurrency). Default 0.
  int num_threads = 0;

  // --- Tensor memory (tensor/buffer_pool.h) -------------------------------
  /// LOGCL_POISON_UNINIT: fill pool-recycled uninitialised buffers with
  /// signalling NaNs so read-before-write bugs fail loudly. Default off.
  bool poison_uninit = false;
  /// LOGCL_POOL_MAX_MB: byte cap (in MiB) on the global free-list tier of
  /// the pooled allocator; exceeding it drops the pooled buffers and lets
  /// the working set re-pool. 0 = unbounded (pre-cap behaviour). Bounds
  /// long-running workloads whose allocation sizes drift (streaming ingest
  /// grows history-dependent tensor shapes every snapshot, so releases land
  /// in ever-new size buckets). Default 1024.
  int64_t pool_max_mb = 1024;

  // --- Kernels (tensor/simd.h) -------------------------------------------
  /// LOGCL_SIMD: runtime-dispatched AVX2/NEON kernel tables (bitwise-equal
  /// to scalar). Default on.
  bool simd = true;

  // --- Serving (serve/) ---------------------------------------------------
  /// LOGCL_QUANT: default snapshot scoring precision ("fp32" | "int8",
  /// case-insensitive; any other value keeps the default). Default "fp32".
  std::string quant = "fp32";

  // --- Observability (common/observability.h) -----------------------------
  /// LOGCL_METRICS_DUMP: "text" / "json" ("1" = text) arms an atexit metrics
  /// dump; "", "0", "off" disable. Default "".
  std::string metrics_dump;
  /// LOGCL_METRICS_DUMP_FILE: dump destination path ("" = stderr).
  std::string metrics_dump_file;

  /// The process-wide snapshot, parsed from the environment on first call
  /// and immutable afterwards. Cheap to call from subsystem initialisers.
  static const RuntimeConfig& Get();

  /// Parses the environment as it is now. Get() caches the first result.
  static RuntimeConfig FromEnvironment();
};

/// The shared boolean grammar (see file comment). Exposed for knobs parsed
/// outside the snapshot (e.g. bench-only flags).
bool ParseBoolFlag(const char* value, bool default_value);

/// The shared integer grammar (see file comment): `value` as an integer in
/// [min_value, max_value], else `default_value`. Null (unset) also keeps
/// the default.
int64_t ParseIntFlag(const char* value, int64_t min_value, int64_t max_value,
                     int64_t default_value);

/// One knob of the effective configuration, for exporters.
struct RuntimeConfigEntry {
  const char* env;      // environment variable name
  std::string value;    // effective value ("on"/"off" for booleans)
  const char* fallback; // documented default, same rendering
  const char* doc;      // one-line description
};

/// Every knob with its effective value (from RuntimeConfig::Get()).
std::vector<RuntimeConfigEntry> EffectiveConfig();

/// Writes one aligned "env = value (default ...)  doc" line per knob —
/// DumpMetrics' text config section, also usable standalone.
void DumpEffectiveConfig(std::ostream& os);

}  // namespace logcl

#endif  // LOGCL_COMMON_RUNTIME_CONFIG_H_
