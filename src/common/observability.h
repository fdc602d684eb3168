// Unified observability layer: a process-wide metrics registry (counters,
// gauges, log-bucketed histograms) plus a scoped hierarchical tracer, shared
// by every subsystem (tensor pool, parallel runtime, encoders, decoder,
// trainer, eval, serving engine) and by the exporters benches/tests use.
//
// Design notes:
//  - Counters and histograms follow the single-writer stat-block pattern of
//    tensor/buffer_pool.h: each thread owns a shard of plain-store atomic
//    cells (no RMW, no lock on the hot path); Snapshot()/DumpMetrics() merge
//    all shards on read. Totals are exact once writers are quiescent, which
//    is when tests and benchmarks read them. Gauges are process-global
//    atomics (set semantics do not shard).
//  - Histograms use fixed log-spaced buckets: 8 sub-buckets per power of
//    two (12.5% resolution), values 0..7 exact, covering up to 2^40. Count,
//    sum and max ride along, so Mean()/Percentile() need no raw samples.
//  - The tracer (LOGCL_TRACE_SCOPE("name")) records wall time in
//    nanoseconds into a histogram named `logcl.trace.<path>`, where <path>
//    is the '/'-joined chain of enclosing scopes on the calling thread —
//    nesting builds the hierarchy, so the same leaf name under different
//    parents yields distinct metrics. Path resolution is cached per thread
//    keyed by (parent, name-literal), so steady state is one hash lookup
//    and two clock reads per scope.
//  - Subsystems whose counters predate the registry (buffer pool, inference
//    engine) publish through registered *sources*: callbacks invoked at
//    snapshot time that append their exact counters under the registry
//    naming convention (logcl.pool.*, logcl.serve.*). See DESIGN.md §12 for
//    the full metric name schema.
//  - Exporters: DumpMetrics(ostream, kText|kJson). LOGCL_METRICS_DUMP=text
//    (or =json) plus EnableMetricsDumpAtExit() arranges an atexit dump to
//    stderr or to LOGCL_METRICS_DUMP_FILE.

#ifndef LOGCL_COMMON_OBSERVABILITY_H_
#define LOGCL_COMMON_OBSERVABILITY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace logcl {

enum class MetricKind { kCounter, kGauge, kHistogram };
enum class MetricsFormat { kText, kJson };

struct MetricsInternal;  // implementation access to handle internals

/// Fixed log-bucket layout shared by every histogram: values 0..7 land in
/// exact unit buckets; beyond that each power of two is split into 8
/// sub-buckets (12.5% resolution) up to 2^40, the last bucket absorbing
/// anything larger.
struct HistogramBuckets {
  static constexpr int kSubBits = 3;
  static constexpr int kSubBuckets = 1 << kSubBits;         // 8
  static constexpr int kFirstExact = kSubBuckets;           // values 0..7
  static constexpr int kMaxOctave = 40;
  static constexpr int kNumBuckets =
      kFirstExact + (kMaxOctave - kSubBits) * kSubBuckets;  // 304

  /// Bucket index for a recorded value (monotonic in `value`).
  static int Index(uint64_t value);
  /// Inclusive lower / exclusive upper bound of bucket `index`.
  static uint64_t Lower(int index);
  static uint64_t Upper(int index);
};

/// Merged view of one histogram (all shards summed).
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  std::vector<uint64_t> buckets;  // HistogramBuckets::kNumBuckets entries

  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Linear interpolation inside the target log bucket; `p` in [0, 1].
  /// Within 12.5% of the true sample percentile by construction.
  double Percentile(double p) const;

  void Merge(const HistogramSnapshot& other);
};

/// One metric in a snapshot. `value` carries counters, `gauge` gauges,
/// `histogram` histograms (per `kind`).
struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  uint64_t value = 0;
  int64_t gauge = 0;
  HistogramSnapshot histogram;
};

/// Point-in-time merge of every registered metric and source, sorted by
/// name with duplicates (e.g. two engine instances) combined.
struct MetricsSnapshot {
  std::vector<MetricValue> metrics;

  const MetricValue* Find(std::string_view name) const;
  /// 0 / empty when the metric is absent.
  uint64_t CounterValue(std::string_view name) const;
  int64_t GaugeValue(std::string_view name) const;
  HistogramSnapshot HistogramValue(std::string_view name) const;
};

/// Monotonic counter handle. Obtained once from the registry (pointers are
/// stable for the process lifetime) and bumped lock-free thereafter.
class Counter {
 public:
  void Add(uint64_t n);
  void Increment() { Add(1); }

 private:
  friend class MetricsRegistry;
  friend struct MetricsInternal;
  Counter() = default;
  uint32_t offset_ = 0;
};

/// Last-value gauge (process-global; concurrent Set is last-writer-wins).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  friend struct MetricsInternal;
  Gauge() = default;
  std::atomic<int64_t> value_{0};
};

/// Log-bucket histogram handle; Record is lock-free (single-writer shard).
class Histogram {
 public:
  void Record(uint64_t value);

 private:
  friend class MetricsRegistry;
  friend struct MetricsInternal;
  Histogram() = default;
  uint32_t offset_ = 0;
};

/// The process-wide registry. Handle getters intern by name (same name ->
/// same handle) and are cheap enough for function-local-static caching at
/// instrumentation sites; recording through a handle never locks.
class MetricsRegistry {
 public:
  static MetricsRegistry& Get();

  /// Interns `name` (creating the metric on first use) and returns a stable
  /// handle. Asking for an existing name with a different kind aborts.
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  /// Registers a callback appending externally-maintained metrics (exact
  /// subsystem counters like the buffer pool's) to every snapshot. Returns
  /// an id for UnregisterSource (instance-lifetime sources, e.g. engines).
  using SourceFn = std::function<void(std::vector<MetricValue>*)>;
  int64_t RegisterSource(SourceFn fn);
  void UnregisterSource(int64_t id);

  /// Merges every shard and source into a sorted snapshot. Exact for
  /// quiescent writers; concurrent writers may donate or withhold a tick.
  MetricsSnapshot Snapshot() const;

  /// Zeroes all counter/histogram cells (writers must be quiescent).
  /// Gauges and sources are live views and are left untouched.
  void ResetForTest();

 private:
  MetricsRegistry() = default;
};

/// The registry singleton, short form.
inline MetricsRegistry& Metrics() { return MetricsRegistry::Get(); }

/// Writes a snapshot of every metric to `os`. kText: one aligned line per
/// metric. kJson: {"counters": {...}, "gauges": {...}, "histograms": {...}}
/// with count/sum/mean/p50/p99/max plus non-empty [lower, count] buckets.
void DumpMetrics(std::ostream& os, MetricsFormat format);

/// When LOGCL_METRICS_DUMP=text|json|1 (1 = text), registers an atexit hook
/// dumping all metrics to LOGCL_METRICS_DUMP_FILE (or stderr). Idempotent;
/// returns true when a dump was armed. Binaries call this once near the top
/// of main() — benches do via bench::InitObservability().
bool EnableMetricsDumpAtExit();

/// RAII wall-time scope; see the file comment. `name` must be a string
/// literal (or otherwise outlive the process) — path caching keys on the
/// pointer.
class TraceScope {
 public:
  explicit TraceScope(const char* name);
  ~TraceScope();

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  Histogram* histogram_;
  uint64_t start_ns_;
};

#define LOGCL_TRACE_CONCAT_(a, b) a##b
#define LOGCL_TRACE_CONCAT(a, b) LOGCL_TRACE_CONCAT_(a, b)
/// Opens a trace scope for the rest of the enclosing block.
#define LOGCL_TRACE_SCOPE(name) \
  ::logcl::TraceScope LOGCL_TRACE_CONCAT(logcl_trace_scope_, __LINE__)(name)

/// RAII timer recording elapsed microseconds into `histogram` on scope exit
/// (serving latencies, bench phases). No-op when `histogram` is null.
class ScopedTimerUs {
 public:
  explicit ScopedTimerUs(Histogram* histogram);
  ~ScopedTimerUs();

  ScopedTimerUs(const ScopedTimerUs&) = delete;
  ScopedTimerUs& operator=(const ScopedTimerUs&) = delete;

 private:
  Histogram* histogram_ = nullptr;
  uint64_t start_ns_ = 0;
};

/// Test hook: trace-stack depth of the calling thread.
int64_t TraceDepthForTest();

/// Monotonic nanosecond clock shared by the tracer and timers.
uint64_t MonotonicNowNs();

}  // namespace logcl

#endif  // LOGCL_COMMON_OBSERVABILITY_H_
