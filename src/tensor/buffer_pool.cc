#include "tensor/buffer_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/observability.h"
#include "common/runtime_config.h"
#include "common/stringpiece.h"

// The ASAN_*POISON* macros are no-ops unless the build uses ASan.
#if __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace logcl {
namespace {

// Bytes a thread may keep in its local cache before releases spill to the
// global tier. Big enough for one training step's working set of small
// tensors; large activations (entity-score matrices) go global where any
// thread can reuse them.
constexpr size_t kThreadCacheMaxBytes = size_t{32} << 20;

// Size classes, four per octave above 8 elements (8, 10, 12, 14, 16, 20,
// ...): a pooled buffer's capacity is its class, so requests whose sizes
// drift by a few rows (the global encoder's compact subgraphs, streaming's
// growing history) reuse one bucket, at a cost of at most 25% slack.
// A request takes the smallest class that holds it; a released buffer
// files under the largest class its capacity covers.
size_t QuarterOctave(size_t n) {
  return size_t{1} << (63 - __builtin_clzll(n) - 2);
}

size_t ClassCeil(size_t n) {
  if (n <= 8) return n;
  const size_t step = QuarterOctave(n);
  return (n + step - 1) / step * step;
}

size_t ClassFloor(size_t n) {
  if (n <= 8) return n;
  const size_t step = QuarterOctave(n);
  return n / step * step;
}

size_t CapacityBytes(const std::vector<float>& buffer) {
  return buffer.capacity() * sizeof(float);
}

std::atomic<bool>& PoisonFlag() {
  static std::atomic<bool> flag(RuntimeConfig::Get().poison_uninit);
  return flag;
}

std::atomic<int64_t>& PoolCapFlag() {
  static std::atomic<int64_t> cap(RuntimeConfig::Get().pool_max_mb *
                                  (int64_t{1} << 20));
  return cap;
}

// Per-thread statistics block. Only the owning thread writes, so updates are
// single-writer relaxed load+store pairs — an ordinary increment, no lock
// prefix — which keeps stat upkeep near-free on the acquire/release hot
// path. PoolSnapshot() sums every registered block: exact once writers are
// quiescent (which is when tests and benchmarks read it). Blocks are held
// alive by the registry after their thread exits so no counts are lost.
// Gauges (outstanding, pooled_*) can go negative in one block when a buffer
// acquired on thread A is released on thread B; only the sum is meaningful.
struct StatBlock {
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> misses{0};
  std::atomic<uint64_t> releases{0};
  std::atomic<uint64_t> adoptions{0};
  std::atomic<uint64_t> bytes_requested{0};
  std::atomic<int64_t> outstanding{0};
  std::atomic<int64_t> pooled_buffers{0};
  std::atomic<int64_t> pooled_bytes{0};
};

template <typename T>
inline void Bump(std::atomic<T>& counter, T delta) {
  counter.store(counter.load(std::memory_order_relaxed) + delta,
                std::memory_order_relaxed);
}

struct ThreadCache;

// Leaky singletons throughout: worker threads flush their caches through
// these from thread-exit destructors, which may run during process teardown.
// `caches` lists every live thread cache so TrimBufferPool can drain them all.
struct StatRegistry {
  std::mutex mu;
  std::vector<std::shared_ptr<StatBlock>> blocks;
  std::vector<ThreadCache*> caches;
};

StatRegistry& Registry() {
  static StatRegistry* registry = new StatRegistry;
  return *registry;
}

// live/peak stay process-global: the high-water mark needs a serialised view
// of total live bytes, so these two are the only cross-thread RMWs on the
// acquire path.
std::atomic<int64_t>& LiveBytes() {
  static std::atomic<int64_t>* live = new std::atomic<int64_t>(0);
  return *live;
}

std::atomic<int64_t>& PeakLiveBytes() {
  static std::atomic<int64_t>* peak = new std::atomic<int64_t>(0);
  return *peak;
}

void NoteLiveDelta(int64_t delta_bytes) {
  int64_t live =
      LiveBytes().fetch_add(delta_bytes, std::memory_order_relaxed) +
      delta_bytes;
  if (delta_bytes > 0) {
    std::atomic<int64_t>& peak_counter = PeakLiveBytes();
    int64_t peak = peak_counter.load(std::memory_order_relaxed);
    while (live > peak && !peak_counter.compare_exchange_weak(
                              peak, live, std::memory_order_relaxed)) {
    }
  }
}

// Global tier: size-class buckets behind a mutex. The mutex acquire/release
// pair is the happens-before edge for buffers handed across threads.
class GlobalPool {
 public:
  bool Pop(size_t size_class, std::vector<float>* out) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = buckets_.find(size_class);
    if (it == buckets_.end() || it->second.empty()) return false;
    *out = std::move(it->second.back());
    it->second.pop_back();
    bytes_ -= static_cast<int64_t>(CapacityBytes(*out));
    return true;
  }

  // Pools `buffer`. When BufferPoolCapBytes() would be exceeded, every
  // pooled buffer is dropped first and the hot working set re-pools within
  // an iteration — bounded memory for workloads whose allocation sizes
  // drift (each new size is a bucket the old sizes never vacate). Returns
  // (buffers, bytes) dropped — including `buffer` itself when it alone
  // exceeds the cap — so the caller can settle the pooled_* stat gauges.
  std::pair<int64_t, int64_t> Push(std::vector<float>&& buffer) {
    const int64_t incoming = static_cast<int64_t>(CapacityBytes(buffer));
    const int64_t cap = BufferPoolCapBytes();
    std::lock_guard<std::mutex> lock(mu_);
    std::pair<int64_t, int64_t> dropped{0, 0};
    if (cap > 0 && bytes_ + incoming > cap) dropped = TrimLocked();
    if (cap > 0 && incoming > cap) {
      dropped.first += 1;
      dropped.second += incoming;
      return dropped;  // buffer dies here: it could never be cap-resident
    }
    buckets_[ClassFloor(buffer.capacity())].push_back(std::move(buffer));
    bytes_ += incoming;
    return dropped;
  }

  // Drops all buckets; returns (buffers, bytes) dropped for the counters.
  std::pair<int64_t, int64_t> Trim() {
    std::lock_guard<std::mutex> lock(mu_);
    return TrimLocked();
  }

 private:
  std::pair<int64_t, int64_t> TrimLocked() {
    int64_t buffers = 0;
    for (auto& [n, list] : buckets_) {
      buffers += static_cast<int64_t>(list.size());
    }
    int64_t bytes = bytes_;
    buckets_.clear();
    bytes_ = 0;
    return {buffers, bytes};
  }

  std::mutex mu_;
  std::unordered_map<size_t, std::vector<std::vector<float>>> buckets_;
  int64_t bytes_ = 0;  // pooled bytes in buckets_, maintained under mu_
};

GlobalPool& Global() {
  static GlobalPool* pool = new GlobalPool;
  return *pool;
}

// Thread-local tier: spills to the global pool once the byte budget is
// exhausted and flushes there when the thread exits. Only the owning thread
// pushes and pops, so its lock is uncontended except while TrimBufferPool
// drains the cache from another thread. A small direct-mapped "front" (one
// buffer per slot, keyed by size class) serves the op-chain steady state —
// the same handful of shapes cycling acquire/release — without touching the
// bucket map.
struct ThreadCache {
  static constexpr size_t kFrontSlots = 8;
  struct Slot {
    size_t size_class = 0;
    std::vector<float> buffer;
  };
  Slot front[kFrontSlots];
  std::unordered_map<size_t, std::vector<std::vector<float>>> buckets;
  size_t cached_bytes = 0;
  std::shared_ptr<StatBlock> stats;
  std::mutex mu;  // guards front, buckets and cached_bytes

  ThreadCache() : stats(std::make_shared<StatBlock>()) {
    {
      StatRegistry& registry = Registry();
      std::lock_guard<std::mutex> lock(registry.mu);
      registry.blocks.push_back(stats);
      registry.caches.push_back(this);
    }
    // First pool touch process-wide: publish the pool counters into metric
    // snapshots under the logcl.pool.* schema (DESIGN.md §12).
    static std::once_flag metrics_once;
    std::call_once(metrics_once, [] {
      Metrics().RegisterSource([](std::vector<MetricValue>* out) {
        BufferPoolStats s = PoolSnapshot();
        auto counter = [out](const char* name, uint64_t value) {
          MetricValue m;
          m.name = name;
          m.kind = MetricKind::kCounter;
          m.value = value;
          out->push_back(std::move(m));
        };
        auto gauge = [out](const char* name, uint64_t value) {
          MetricValue m;
          m.name = name;
          m.kind = MetricKind::kGauge;
          m.gauge = static_cast<int64_t>(value);
          out->push_back(std::move(m));
        };
        counter("logcl.pool.acquires", s.acquires);
        counter("logcl.pool.hits", s.hits);
        counter("logcl.pool.misses", s.misses);
        counter("logcl.pool.releases", s.releases);
        counter("logcl.pool.adoptions", s.adoptions);
        counter("logcl.pool.bytes_requested", s.bytes_requested);
        gauge("logcl.pool.live_bytes", s.live_bytes);
        gauge("logcl.pool.peak_live_bytes", s.peak_live_bytes);
        gauge("logcl.pool.outstanding_buffers", s.outstanding_buffers);
        gauge("logcl.pool.pooled_buffers", s.pooled_buffers);
        gauge("logcl.pool.pooled_bytes", s.pooled_bytes);
      });
    });
  }

  static size_t SlotIndex(size_t size_class) {
    // Fibonacci hash; top bits select among kFrontSlots.
    return (size_class * size_t{0x9E3779B97F4A7C15}) >> 61;
  }

  bool Pop(size_t size_class, std::vector<float>* out) {
    std::lock_guard<std::mutex> lock(mu);
    Slot& slot = front[SlotIndex(size_class)];
    if (slot.size_class == size_class && !slot.buffer.empty()) {
      *out = std::move(slot.buffer);
      slot.buffer = {};
    } else {
      auto it = buckets.find(size_class);
      if (it == buckets.end() || it->second.empty()) return false;
      *out = std::move(it->second.back());
      it->second.pop_back();
    }
    cached_bytes -= CapacityBytes(*out);
    return true;
  }

  bool TryPush(std::vector<float>&& buffer) {
    const size_t bytes = CapacityBytes(buffer);
    const size_t size_class = ClassFloor(buffer.capacity());
    std::lock_guard<std::mutex> lock(mu);
    if (cached_bytes + bytes > kThreadCacheMaxBytes) return false;
    Slot& slot = front[SlotIndex(size_class)];
    if (slot.buffer.empty()) {
      slot.size_class = size_class;
      slot.buffer = std::move(buffer);
    } else if (slot.size_class == size_class) {
      // Keep the newest buffer in the slot (LIFO cache warmth); displace
      // the old occupant to its bucket.
      buckets[slot.size_class].push_back(std::move(slot.buffer));
      slot.buffer = std::move(buffer);
    } else {
      buckets[size_class].push_back(std::move(buffer));
    }
    cached_bytes += bytes;
    return true;
  }

  std::pair<int64_t, int64_t> Trim() {
    std::lock_guard<std::mutex> lock(mu);
    int64_t buffers = 0;
    for (Slot& slot : front) {
      if (!slot.buffer.empty()) ++buffers;
      slot.size_class = 0;
      std::vector<float>().swap(slot.buffer);
    }
    for (auto& [n, list] : buckets) {
      buffers += static_cast<int64_t>(list.size());
    }
    int64_t bytes = static_cast<int64_t>(cached_bytes);
    buckets.clear();
    cached_bytes = 0;
    return {buffers, bytes};
  }

  // Hands every cached buffer to the global tier (still counted in
  // pooled_bytes unless the cap drops them).
  void Spill() {
    std::vector<std::vector<float>> spilled;
    {
      std::lock_guard<std::mutex> lock(mu);
      for (Slot& slot : front) {
        if (!slot.buffer.empty()) spilled.push_back(std::move(slot.buffer));
        slot.buffer = {};
        slot.size_class = 0;
      }
      for (auto& [n, list] : buckets) {
        for (auto& buffer : list) spilled.push_back(std::move(buffer));
      }
      buckets.clear();
      cached_bytes = 0;
    }
    int64_t dropped_buffers = 0;
    int64_t dropped_bytes = 0;
    for (std::vector<float>& buffer : spilled) {
      auto [buffers, bytes] = Global().Push(std::move(buffer));
      dropped_buffers += buffers;
      dropped_bytes += bytes;
    }
    Bump(stats->pooled_buffers, -dropped_buffers);
    Bump(stats->pooled_bytes, -dropped_bytes);
  }

  ~ThreadCache() {
    // Leave the live list first, so no TrimBufferPool can reach this cache
    // once it starts dying.
    {
      StatRegistry& registry = Registry();
      std::lock_guard<std::mutex> lock(registry.mu);
      registry.caches.erase(std::find(registry.caches.begin(),
                                      registry.caches.end(), this));
    }
    // Keep the buffers pooled. The stats block stays registered so this
    // thread's counts survive.
    Spill();
  }
};

ThreadCache& LocalCache() {
  thread_local ThreadCache cache;
  return cache;
}

void PoisonBuffer(std::vector<float>& buffer) {
  const float nan = std::numeric_limits<float>::signaling_NaN();
  for (float& v : buffer) v = nan;
}

}  // namespace

bool PoisonUninitEnabled() {
  return PoisonFlag().load(std::memory_order_relaxed);
}

void SetPoisonUninitEnabled(bool enabled) {
  PoisonFlag().store(enabled, std::memory_order_relaxed);
}

int64_t BufferPoolCapBytes() {
  return PoolCapFlag().load(std::memory_order_relaxed);
}

void SetBufferPoolCapBytes(int64_t cap_bytes) {
  PoolCapFlag().store(cap_bytes < 0 ? 0 : cap_bytes,
                      std::memory_order_relaxed);
}

std::vector<float> AcquireBuffer(size_t num_elements, BufferFill fill) {
  ThreadCache& cache = LocalCache();
  StatBlock& stats = *cache.stats;
  const int64_t bytes = static_cast<int64_t>(num_elements * sizeof(float));
  Bump(stats.bytes_requested, static_cast<uint64_t>(bytes));
  Bump<int64_t>(stats.outstanding, 1);
  NoteLiveDelta(bytes);

  std::vector<float> buffer;
  const size_t size_class = ClassCeil(num_elements);
  const bool recycled = num_elements > 0 &&
                        (cache.Pop(size_class, &buffer) ||
                         Global().Pop(size_class, &buffer));
  if (recycled) {
    ASAN_UNPOISON_MEMORY_REGION(buffer.data(), CapacityBytes(buffer));
    Bump<uint64_t>(stats.hits, 1);
    Bump<int64_t>(stats.pooled_buffers, -1);
    Bump(stats.pooled_bytes, -static_cast<int64_t>(CapacityBytes(buffer)));
    // Within the capacity: growing zero-fills only the new tail.
    buffer.resize(num_elements);
    if (fill == BufferFill::kZero) {
      std::fill(buffer.begin(), buffer.end(), 0.0f);
    } else if (PoisonUninitEnabled()) {
      PoisonBuffer(buffer);
    }
    // kUninit on a recycled buffer: the zero-init elision — contents are
    // stale and the caller overwrites every element.
  } else {
    Bump<uint64_t>(stats.misses, 1);
    buffer.reserve(size_class);
    buffer.assign(num_elements, 0.0f);  // fresh storage is always zeroed
    if (fill == BufferFill::kUninit && PoisonUninitEnabled()) {
      PoisonBuffer(buffer);
    }
  }
  return buffer;
}

void ReleaseBuffer(std::vector<float>&& buffer) {
  if (buffer.empty()) return;
  ThreadCache& cache = LocalCache();
  StatBlock& stats = *cache.stats;
  const int64_t bytes = static_cast<int64_t>(buffer.size() * sizeof(float));
  const int64_t capacity_bytes = static_cast<int64_t>(CapacityBytes(buffer));
  Bump<uint64_t>(stats.releases, 1);
  Bump<int64_t>(stats.outstanding, -1);
  NoteLiveDelta(-bytes);
  // Under ASan a pooled buffer stays poisoned until it is popped again, so
  // a tensor read after release is reported like a use-after-free.
  ASAN_POISON_MEMORY_REGION(buffer.data(), capacity_bytes);
  Bump<int64_t>(stats.pooled_buffers, 1);
  Bump(stats.pooled_bytes, capacity_bytes);
  std::vector<float> owned = std::move(buffer);
  buffer.clear();
  if (!cache.TryPush(std::move(owned))) {
    auto [dropped_buffers, dropped_bytes] = Global().Push(std::move(owned));
    Bump(stats.pooled_buffers, -dropped_buffers);
    Bump(stats.pooled_bytes, -dropped_bytes);
  }
}

void NoteAdoptedBuffer(size_t num_elements) {
  if (num_elements == 0) return;
  StatBlock& stats = *LocalCache().stats;
  Bump<uint64_t>(stats.adoptions, 1);
  Bump<int64_t>(stats.outstanding, 1);
  NoteLiveDelta(static_cast<int64_t>(num_elements * sizeof(float)));
}

BufferPoolStats PoolSnapshot() {
  BufferPoolStats out;
  int64_t outstanding = 0;
  int64_t pooled_buffers = 0;
  int64_t pooled_bytes = 0;
  {
    StatRegistry& registry = Registry();
    std::lock_guard<std::mutex> lock(registry.mu);
    for (const auto& block : registry.blocks) {
      out.hits += block->hits.load(std::memory_order_relaxed);
      out.misses += block->misses.load(std::memory_order_relaxed);
      out.releases += block->releases.load(std::memory_order_relaxed);
      out.adoptions += block->adoptions.load(std::memory_order_relaxed);
      out.bytes_requested +=
          block->bytes_requested.load(std::memory_order_relaxed);
      outstanding += block->outstanding.load(std::memory_order_relaxed);
      pooled_buffers += block->pooled_buffers.load(std::memory_order_relaxed);
      pooled_bytes += block->pooled_bytes.load(std::memory_order_relaxed);
    }
  }
  out.acquires = out.hits + out.misses;
  auto clamp = [](int64_t v) {
    return v > 0 ? static_cast<uint64_t>(v) : uint64_t{0};
  };
  out.live_bytes = clamp(LiveBytes().load(std::memory_order_relaxed));
  out.peak_live_bytes = clamp(PeakLiveBytes().load(std::memory_order_relaxed));
  out.outstanding_buffers = clamp(outstanding);
  out.pooled_buffers = clamp(pooled_buffers);
  out.pooled_bytes = clamp(pooled_bytes);
  return out;
}

void ResetPoolStats() {
  // Requires quiescent writers (no concurrent tensor ops), like any stats
  // read intended to be exact. live/pooled/outstanding reflect real buffer
  // state, so a reset re-bases the peak at the current live level instead
  // of zeroing the gauges.
  StatRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (const auto& block : registry.blocks) {
    block->hits.store(0, std::memory_order_relaxed);
    block->misses.store(0, std::memory_order_relaxed);
    block->releases.store(0, std::memory_order_relaxed);
    block->adoptions.store(0, std::memory_order_relaxed);
    block->bytes_requested.store(0, std::memory_order_relaxed);
  }
  PeakLiveBytes().store(LiveBytes().load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
}

void TrimBufferPool() {
  // Construct this thread's cache before taking the registry lock, which
  // the constructor takes too.
  StatBlock& stats = *LocalCache().stats;
  auto [buffers, bytes] = Global().Trim();
  {
    StatRegistry& registry = Registry();
    std::lock_guard<std::mutex> lock(registry.mu);
    for (ThreadCache* cache : registry.caches) {
      auto [cache_buffers, cache_bytes] = cache->Trim();
      buffers += cache_buffers;
      bytes += cache_bytes;
    }
  }
  // The gauges sum across blocks, so the whole drop is booked here.
  Bump(stats.pooled_buffers, -buffers);
  Bump(stats.pooled_bytes, -bytes);
}

void SpillThreadBufferCache() { LocalCache().Spill(); }

std::string BufferPoolStats::ToString() const {
  return StrFormat(
      "acquires=%llu hits=%llu (%.1f%%) misses=%llu releases=%llu "
      "adoptions=%llu requested=%.2f MB live=%.2f MB peak=%.2f MB "
      "pooled=%.2f MB outstanding=%llu",
      static_cast<unsigned long long>(acquires),
      static_cast<unsigned long long>(hits), 100.0 * HitRate(),
      static_cast<unsigned long long>(misses),
      static_cast<unsigned long long>(releases),
      static_cast<unsigned long long>(adoptions),
      static_cast<double>(bytes_requested) / (1024.0 * 1024.0),
      static_cast<double>(live_bytes) / (1024.0 * 1024.0),
      static_cast<double>(peak_live_bytes) / (1024.0 * 1024.0),
      static_cast<double>(pooled_bytes) / (1024.0 * 1024.0),
      static_cast<unsigned long long>(outstanding_buffers));
}

}  // namespace logcl
