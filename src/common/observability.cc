#include "common/observability.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <ostream>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "common/runtime_config.h"
#include "common/stringpiece.h"

namespace logcl {

// Descriptors live here (not the anonymous namespace) so their by-value
// handle members can reach the handles' private constructors and offsets.
struct MetricsInternal {
  struct Descriptor {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    uint32_t offset = 0;  // first cell (counters/histograms)
    uint32_t cells = 0;   // 1 for counters, kHistCells for histograms
    Counter counter;
    Gauge gauge;
    Histogram histogram;
  };
  static void BindOffsets(Descriptor* d) {
    d->counter.offset_ = d->offset;
    d->histogram.offset_ = d->offset;
  }
};

namespace {

using Descriptor = MetricsInternal::Descriptor;

// Cells per histogram: count, sum, max, then the buckets.
constexpr uint32_t kHistHeaderCells = 3;
constexpr uint32_t kHistCells =
    kHistHeaderCells + static_cast<uint32_t>(HistogramBuckets::kNumBuckets);

// Single-writer plain-store bump (see tensor/buffer_pool.cc StatBlock): the
// owning thread is the only writer of its shard cells, so no RMW is needed.
inline void Bump(std::atomic<uint64_t>& cell, uint64_t delta) {
  cell.store(cell.load(std::memory_order_relaxed) + delta,
             std::memory_order_relaxed);
}

inline void StoreMax(std::atomic<uint64_t>& cell, uint64_t value) {
  if (value > cell.load(std::memory_order_relaxed)) {
    cell.store(value, std::memory_order_relaxed);
  }
}

// Per-thread cell storage: fixed-capacity chunk table so readers can walk a
// shard while its owner lazily allocates new chunks (the pointer slots are
// atomics; cells inside a published chunk never move).
struct Shard {
  static constexpr uint32_t kChunkCells = 4096;
  static constexpr uint32_t kMaxChunks = 64;  // 256k cells ~ 850 histograms

  std::atomic<std::atomic<uint64_t>*> chunks[kMaxChunks] = {};

  ~Shard() {
    for (auto& slot : chunks) delete[] slot.load(std::memory_order_relaxed);
  }

  // Owner-side access: allocates the chunk on first touch.
  std::atomic<uint64_t>* Cell(uint32_t offset) {
    uint32_t chunk = offset / kChunkCells;
    LOGCL_CHECK_LT(chunk, kMaxChunks) << "metrics cell space exhausted";
    std::atomic<uint64_t>* base = chunks[chunk].load(std::memory_order_acquire);
    if (base == nullptr) {
      base = new std::atomic<uint64_t>[kChunkCells]();  // zeroed
      chunks[chunk].store(base, std::memory_order_release);
    }
    return base + offset % kChunkCells;
  }

  // Reader-side access: null when the owner never touched the chunk.
  const std::atomic<uint64_t>* CellIfPresent(uint32_t offset) const {
    uint32_t chunk = offset / kChunkCells;
    if (chunk >= kMaxChunks) return nullptr;
    const std::atomic<uint64_t>* base =
        chunks[chunk].load(std::memory_order_acquire);
    return base == nullptr ? nullptr : base + offset % kChunkCells;
  }
};

// All mutable registry state behind one mutex; handle writes never take it.
struct RegistryState {
  std::mutex mu;
  // Descriptors are pointer-stable (deque) — handles point into them.
  std::deque<Descriptor> descriptors;
  std::unordered_map<std::string, Descriptor*> by_name;
  uint32_t next_cell = 0;
  std::vector<std::shared_ptr<Shard>> shards;  // kept alive past thread exit
  int64_t next_source_id = 1;
  std::vector<std::pair<int64_t, MetricsRegistry::SourceFn>> sources;
};

RegistryState& State() {
  // Leaky: worker threads may record during process teardown.
  static RegistryState* state = new RegistryState;
  return *state;
}

Shard& LocalShard() {
  struct Registered {
    std::shared_ptr<Shard> shard = std::make_shared<Shard>();
    Registered() {
      RegistryState& state = State();
      std::lock_guard<std::mutex> lock(state.mu);
      state.shards.push_back(shard);
    }
  };
  thread_local Registered registered;
  return *registered.shard;
}

// Per-thread tracer state. `paths` remembers each trace histogram's path so
// children can extend it; `cache` short-circuits (parent, leaf-literal) to
// the resolved histogram after the first entry.
struct TraceTls {
  std::vector<Histogram*> stack;
  std::unordered_map<uint64_t, Histogram*> cache;
  std::unordered_map<Histogram*, std::string> paths;
};

TraceTls& Trace() {
  thread_local TraceTls tls;
  return tls;
}

uint64_t TraceCacheKey(const Histogram* parent, const char* name) {
  uint64_t a = reinterpret_cast<uint64_t>(parent);
  uint64_t b = reinterpret_cast<uint64_t>(name);
  return (a * 0x9E3779B97F4A7C15ull) ^ b;
}

Histogram* EnterTraceScope(const char* name) {
  TraceTls& tls = Trace();
  Histogram* parent = tls.stack.empty() ? nullptr : tls.stack.back();
  uint64_t key = TraceCacheKey(parent, name);
  Histogram* histogram;
  auto it = tls.cache.find(key);
  if (it != tls.cache.end()) {
    histogram = it->second;
  } else {
    std::string path;
    if (parent != nullptr) {
      path = tls.paths[parent];
      path += '/';
    }
    path += name;
    histogram = Metrics().GetHistogram("logcl.trace." + path);
    tls.paths.emplace(histogram, std::move(path));
    tls.cache.emplace(key, histogram);
  }
  tls.stack.push_back(histogram);
  return histogram;
}

void ExitTraceScope(Histogram* histogram, uint64_t start_ns) {
  histogram->Record(MonotonicNowNs() - start_ns);
  TraceTls& tls = Trace();
  if (!tls.stack.empty() && tls.stack.back() == histogram) {
    tls.stack.pop_back();
  }
}

void AppendJsonEscaped(std::string* out, std::string_view text) {
  for (char c : text) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          *out += StrFormat("\\u%04x", c);
        } else {
          *out += c;
        }
    }
  }
}

}  // namespace

uint64_t MonotonicNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// --- Buckets ---------------------------------------------------------------

int HistogramBuckets::Index(uint64_t value) {
  if (value < kFirstExact) return static_cast<int>(value);
  int octave = 63 - std::countl_zero(value);  // >= kSubBits
  if (octave >= kMaxOctave) return kNumBuckets - 1;
  int sub = static_cast<int>((value >> (octave - kSubBits)) &
                             (kSubBuckets - 1));
  return kFirstExact + (octave - kSubBits) * kSubBuckets + sub;
}

uint64_t HistogramBuckets::Lower(int index) {
  if (index < kFirstExact) return static_cast<uint64_t>(index);
  int octave = kSubBits + (index - kFirstExact) / kSubBuckets;
  int sub = (index - kFirstExact) % kSubBuckets;
  return (uint64_t{1} << octave) +
         (static_cast<uint64_t>(sub) << (octave - kSubBits));
}

uint64_t HistogramBuckets::Upper(int index) {
  if (index < kFirstExact) return static_cast<uint64_t>(index) + 1;
  int octave = kSubBits + (index - kFirstExact) / kSubBuckets;
  return Lower(index) + (uint64_t{1} << (octave - kSubBits));
}

double HistogramSnapshot::Percentile(double p) const {
  if (count == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  double target = p * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    uint64_t next = cumulative + buckets[i];
    if (static_cast<double>(next) >= target) {
      double lower =
          static_cast<double>(HistogramBuckets::Lower(static_cast<int>(i)));
      double upper = static_cast<double>(
          std::min<uint64_t>(HistogramBuckets::Upper(static_cast<int>(i)),
                             std::max<uint64_t>(max, 1)));
      upper = std::max(upper, lower);
      double fraction = (target - static_cast<double>(cumulative)) /
                        static_cast<double>(buckets[i]);
      return lower + fraction * (upper - lower);
    }
    cumulative = next;
  }
  return static_cast<double>(max);
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  count += other.count;
  sum += other.sum;
  max = std::max(max, other.max);
  if (buckets.size() < other.buckets.size()) {
    buckets.resize(other.buckets.size(), 0);
  }
  for (size_t i = 0; i < other.buckets.size(); ++i) {
    buckets[i] += other.buckets[i];
  }
}

// --- Snapshot --------------------------------------------------------------

const MetricValue* MetricsSnapshot::Find(std::string_view name) const {
  for (const MetricValue& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

uint64_t MetricsSnapshot::CounterValue(std::string_view name) const {
  const MetricValue* m = Find(name);
  return m == nullptr ? 0 : m->value;
}

int64_t MetricsSnapshot::GaugeValue(std::string_view name) const {
  const MetricValue* m = Find(name);
  return m == nullptr ? 0 : m->gauge;
}

HistogramSnapshot MetricsSnapshot::HistogramValue(std::string_view name) const {
  const MetricValue* m = Find(name);
  return m == nullptr ? HistogramSnapshot{} : m->histogram;
}

// --- Handles ---------------------------------------------------------------

void Counter::Add(uint64_t n) {
  Bump(*LocalShard().Cell(offset_), n);
}

void Histogram::Record(uint64_t value) {
  Shard& shard = LocalShard();
  // One histogram's cells sit inside one chunk (kHistCells < kChunkCells and
  // allocation is contiguous), so resolve the base cell once.
  std::atomic<uint64_t>* base = shard.Cell(offset_);
  Bump(base[0], 1);       // count
  Bump(base[1], value);   // sum
  StoreMax(base[2], value);
  Bump(base[kHistHeaderCells + HistogramBuckets::Index(value)], 1);
}

// --- Registry --------------------------------------------------------------

MetricsRegistry& MetricsRegistry::Get() {
  static MetricsRegistry* registry = new MetricsRegistry;
  return *registry;
}

namespace {

Descriptor* Intern(std::string_view name, MetricKind kind, uint32_t cells) {
  RegistryState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  auto it = state.by_name.find(std::string(name));
  if (it != state.by_name.end()) {
    LOGCL_CHECK(it->second->kind == kind)
        << "metric '" << std::string(name) << "' re-registered as a different kind";
    return it->second;
  }
  // Histogram cells must not straddle a chunk boundary (Histogram::Record
  // resolves the base cell once); pad to the next chunk when they would.
  if (cells > 1) {
    uint32_t room = Shard::kChunkCells - state.next_cell % Shard::kChunkCells;
    if (room < cells) state.next_cell += room;
  }
  state.descriptors.emplace_back();
  Descriptor* d = &state.descriptors.back();
  d->name = std::string(name);
  d->kind = kind;
  d->offset = state.next_cell;
  d->cells = cells;
  state.next_cell += cells;
  MetricsInternal::BindOffsets(d);
  state.by_name.emplace(d->name, d);
  return d;
}

}  // namespace

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  return &Intern(name, MetricKind::kCounter, 1)->counter;
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  return &Intern(name, MetricKind::kGauge, 0)->gauge;
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name) {
  return &Intern(name, MetricKind::kHistogram, kHistCells)->histogram;
}

int64_t MetricsRegistry::RegisterSource(SourceFn fn) {
  RegistryState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  int64_t id = state.next_source_id++;
  state.sources.emplace_back(id, std::move(fn));
  return id;
}

void MetricsRegistry::UnregisterSource(int64_t id) {
  RegistryState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  auto& sources = state.sources;
  sources.erase(std::remove_if(sources.begin(), sources.end(),
                               [id](const auto& s) { return s.first == id; }),
                sources.end());
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  std::vector<SourceFn> sources;
  {
    RegistryState& state = State();
    std::lock_guard<std::mutex> lock(state.mu);
    snapshot.metrics.reserve(state.descriptors.size());
    for (const Descriptor& d : state.descriptors) {
      MetricValue m;
      m.name = d.name;
      m.kind = d.kind;
      switch (d.kind) {
        case MetricKind::kCounter:
          for (const auto& shard : state.shards) {
            const auto* cell = shard->CellIfPresent(d.offset);
            if (cell != nullptr) {
              m.value += cell->load(std::memory_order_relaxed);
            }
          }
          break;
        case MetricKind::kGauge:
          m.gauge = d.gauge.Value();
          break;
        case MetricKind::kHistogram: {
          m.histogram.buckets.assign(HistogramBuckets::kNumBuckets, 0);
          for (const auto& shard : state.shards) {
            const auto* base = shard->CellIfPresent(d.offset);
            if (base == nullptr) continue;
            m.histogram.count += base[0].load(std::memory_order_relaxed);
            m.histogram.sum += base[1].load(std::memory_order_relaxed);
            m.histogram.max = std::max(
                m.histogram.max, base[2].load(std::memory_order_relaxed));
            for (int b = 0; b < HistogramBuckets::kNumBuckets; ++b) {
              m.histogram.buckets[static_cast<size_t>(b)] +=
                  base[kHistHeaderCells + b].load(std::memory_order_relaxed);
            }
          }
          break;
        }
      }
      snapshot.metrics.push_back(std::move(m));
    }
    sources.reserve(state.sources.size());
    for (const auto& [id, fn] : state.sources) sources.push_back(fn);
  }
  // Sources run outside the lock: they read their own subsystem state and
  // may not re-enter the registry mutex safely from within it.
  for (const SourceFn& fn : sources) fn(&snapshot.metrics);

  std::sort(snapshot.metrics.begin(), snapshot.metrics.end(),
            [](const MetricValue& a, const MetricValue& b) {
              return a.name < b.name;
            });
  // Merge duplicates (several sources may publish the same name, e.g. two
  // live engines): counters/gauges add, histograms merge bucket-wise.
  std::vector<MetricValue> merged;
  merged.reserve(snapshot.metrics.size());
  for (MetricValue& m : snapshot.metrics) {
    if (!merged.empty() && merged.back().name == m.name) {
      MetricValue& into = merged.back();
      into.value += m.value;
      into.gauge += m.gauge;
      into.histogram.Merge(m.histogram);
    } else {
      merged.push_back(std::move(m));
    }
  }
  snapshot.metrics = std::move(merged);
  return snapshot;
}

void MetricsRegistry::ResetForTest() {
  RegistryState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  for (const Descriptor& d : state.descriptors) {
    for (const auto& shard : state.shards) {
      for (uint32_t c = 0; c < d.cells; ++c) {
        const auto* cell = shard->CellIfPresent(d.offset + c);
        if (cell != nullptr) {
          const_cast<std::atomic<uint64_t>*>(cell)->store(
              0, std::memory_order_relaxed);
        }
      }
    }
  }
}

// --- Exporters -------------------------------------------------------------

namespace {

void AppendHistogramJson(std::string* out, const HistogramSnapshot& h) {
  *out += StrFormat(
      "{\"count\": %llu, \"sum\": %llu, \"mean\": %.3f, \"p50\": %.1f, "
      "\"p99\": %.1f, \"max\": %llu, \"buckets\": [",
      static_cast<unsigned long long>(h.count),
      static_cast<unsigned long long>(h.sum), h.Mean(), h.Percentile(0.50),
      h.Percentile(0.99), static_cast<unsigned long long>(h.max));
  bool first = true;
  for (size_t i = 0; i < h.buckets.size(); ++i) {
    if (h.buckets[i] == 0) continue;
    if (!first) *out += ", ";
    first = false;
    *out += StrFormat(
        "[%llu, %llu]",
        static_cast<unsigned long long>(
            HistogramBuckets::Lower(static_cast<int>(i))),
        static_cast<unsigned long long>(h.buckets[i]));
  }
  *out += "]}";
}

}  // namespace

void DumpMetrics(std::ostream& os, MetricsFormat format) {
  MetricsSnapshot snapshot = Metrics().Snapshot();
  if (format == MetricsFormat::kText) {
    for (const MetricValue& m : snapshot.metrics) {
      switch (m.kind) {
        case MetricKind::kCounter:
          os << StrFormat("counter %-48s %llu\n", m.name.c_str(),
                          static_cast<unsigned long long>(m.value));
          break;
        case MetricKind::kGauge:
          os << StrFormat("gauge   %-48s %lld\n", m.name.c_str(),
                          static_cast<long long>(m.gauge));
          break;
        case MetricKind::kHistogram:
          os << StrFormat(
              "hist    %-48s count=%llu mean=%.1f p50=%.1f p99=%.1f "
              "max=%llu\n",
              m.name.c_str(),
              static_cast<unsigned long long>(m.histogram.count),
              m.histogram.Mean(), m.histogram.Percentile(0.50),
              m.histogram.Percentile(0.99),
              static_cast<unsigned long long>(m.histogram.max));
          break;
      }
    }
    os << "config\n";
    DumpEffectiveConfig(os);
    return;
  }
  std::string out = "{\n  \"counters\": {";
  auto append_section = [&](MetricKind kind) {
    bool first = true;
    for (const MetricValue& m : snapshot.metrics) {
      if (m.kind != kind) continue;
      if (!first) out += ",";
      first = false;
      out += "\n    \"";
      AppendJsonEscaped(&out, m.name);
      out += "\": ";
      switch (kind) {
        case MetricKind::kCounter:
          out += StrFormat("%llu", static_cast<unsigned long long>(m.value));
          break;
        case MetricKind::kGauge:
          out += StrFormat("%lld", static_cast<long long>(m.gauge));
          break;
        case MetricKind::kHistogram:
          AppendHistogramJson(&out, m.histogram);
          break;
      }
    }
  };
  append_section(MetricKind::kCounter);
  out += "\n  },\n  \"gauges\": {";
  append_section(MetricKind::kGauge);
  out += "\n  },\n  \"histograms\": {";
  append_section(MetricKind::kHistogram);
  out += "\n  },\n  \"config\": {";
  {
    bool first = true;
    for (const RuntimeConfigEntry& entry : EffectiveConfig()) {
      if (!first) out += ",";
      first = false;
      out += "\n    \"";
      AppendJsonEscaped(&out, entry.env);
      out += "\": \"";
      AppendJsonEscaped(&out, entry.value);
      out += "\"";
    }
  }
  out += "\n  }\n}\n";
  os << out;
}

bool EnableMetricsDumpAtExit() {
  const std::string& mode = RuntimeConfig::Get().metrics_dump;
  if (mode.empty() || mode == "0" || mode == "off") return false;
  static bool registered = false;
  if (registered) return true;
  registered = true;
  std::atexit([] {
    const RuntimeConfig& config = RuntimeConfig::Get();
    MetricsFormat format = config.metrics_dump == "json"
                               ? MetricsFormat::kJson
                               : MetricsFormat::kText;
    if (!config.metrics_dump_file.empty()) {
      std::ofstream file(config.metrics_dump_file);
      if (file) {
        DumpMetrics(file, format);
        return;
      }
    }
    DumpMetrics(std::cerr, format);
  });
  return true;
}

// --- Tracer ----------------------------------------------------------------

TraceScope::TraceScope(const char* name)
    : histogram_(EnterTraceScope(name)), start_ns_(MonotonicNowNs()) {}

TraceScope::~TraceScope() { ExitTraceScope(histogram_, start_ns_); }

ScopedTimerUs::ScopedTimerUs(Histogram* histogram) {
  if (histogram == nullptr) return;
  histogram_ = histogram;
  start_ns_ = MonotonicNowNs();
}

ScopedTimerUs::~ScopedTimerUs() {
  if (histogram_ != nullptr) {
    histogram_->Record((MonotonicNowNs() - start_ns_) / 1000);
  }
}

int64_t TraceDepthForTest() {
  return static_cast<int64_t>(Trace().stack.size());
}

}  // namespace logcl
