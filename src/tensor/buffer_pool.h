// Pooled tensor memory: a size-bucketed buffer pool recycling the
// std::vector<float> storage behind TensorNode data/grad and kernel scratch.
//
// Why: one LogCL training step rebuilds the autograd tape from scratch —
// omega R-GCN layers per snapshot x m local timesteps x two forward phases —
// so an epoch materialises tens of thousands of short-lived buffers whose
// sizes repeat exactly across steps. Recycling them sidesteps the general
// purpose allocator (and, for kernels that fully overwrite their output, the
// redundant zero-fill a fresh std::vector<float>(n) forces).
//
// Design notes:
//  - Buckets are size classes, four per octave: a buffer's capacity is its
//    class and its size is what was asked for. Successive steps request the
//    same sizes, so steady-state hit rates approach 100% after step one, and
//    sizes that drift by a few rows from call to call (the global encoder's
//    compact query subgraphs) share a bucket instead of stranding one
//    buffer per size. A class wastes at most 25% of a buffer's capacity;
//    pooled bytes and the caps below count capacity.
//  - Two tiers: a thread-local cache (bounded bytes, spills to the global
//    tier; its lock is uncontended except during TrimBufferPool) in front of
//    a mutex-protected global map. Worker threads recycle their kernel
//    scratch entirely within their own cache; the global tier hands buffers
//    across threads with the mutex providing the happens-before edge. A
//    thread's cache moves to the global tier when the thread exits or calls
//    SpillThreadBufferCache (a replica worker's control thread does after
//    each Advance build, so co-located workers' builds share buffers).
//  - Determinism contract: results are bitwise identical whether a buffer
//    is fresh or recycled, at any thread count. This holds because every
//    kUninit acquisition is fully overwritten before it is read
//    (LOGCL_POISON_UNINIT=1 fills recycled/uninitialised buffers with
//    signalling NaNs so a kernel that reads before writing fails loudly in
//    tests).
//  - Invariant: a pooled buffer is never aliased by two live owners. Acquire
//    pops the buffer out of the free list; Release is only called by owners
//    giving up their storage (TensorNode destruction, PooledBuffer scope
//    exit, Backward's grad recycling).
//  - The global tier is byte-capped (LOGCL_POOL_MAX_MB, default 1024).
//    Workloads whose allocation sizes drift across classes — streaming
//    ingest grows history-dependent tensor shapes every snapshot — would
//    otherwise strand every superseded class in a bucket nothing ever pops
//    again, growing the process without bound. Exceeding the cap drops all pooled buffers; the
//    live working set re-pools within an iteration. The cap is the
//    backstop: StreamSession::IngestSnapshot calls TrimBufferPool after
//    every ingest. That empties the pool on every thread, serving workers
//    included, and drops the same-shape buffers serving would have reused
//    along with the superseded sizes, so a long stream's memory stays flat
//    instead of climbing toward the cap.
//  - Under AddressSanitizer a released buffer is poisoned while it sits in a
//    free list and unpoisoned when it is acquired again, so a read through a
//    released tensor's storage is reported as it would be without the pool.
//  - Env toggles: LOGCL_POISON_UNINIT=1 enables the poison-fill debug mode;
//    LOGCL_POOL_MAX_MB=0 removes the global-tier cap.

#ifndef LOGCL_TENSOR_BUFFER_POOL_H_
#define LOGCL_TENSOR_BUFFER_POOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace logcl {

/// Requested initialisation of an acquired buffer. kZero is always all
/// zeros; kUninit leaves recycled contents in place (poisoned with
/// signalling NaNs under LOGCL_POISON_UNINIT=1) and is only safe when the
/// caller fully overwrites the buffer before reading it.
enum class BufferFill { kZero, kUninit };

/// True when kUninit acquisitions are filled with signalling NaNs
/// (LOGCL_POISON_UNINIT=1; see BufferFill).
bool PoisonUninitEnabled();
void SetPoisonUninitEnabled(bool enabled);

/// Byte cap on the global free-list tier (LOGCL_POOL_MAX_MB; 0 =
/// unbounded). Crossing it drops every pooled buffer — see the file
/// comment on size drift. Thread-local caches have their own fixed bound.
int64_t BufferPoolCapBytes();
void SetBufferPoolCapBytes(int64_t cap_bytes);

/// Returns a buffer with exactly `num_elements` elements, recycled when the
/// pool holds one of that size class. See BufferFill for the contents
/// contract.
std::vector<float> AcquireBuffer(size_t num_elements, BufferFill fill);

/// Returns storage to the pool. The argument is left empty. Empty buffers are a no-op.
void ReleaseBuffer(std::vector<float>&& buffer);

/// Records a caller-allocated buffer becoming tensor storage (FromVector and
/// friends) so the live/outstanding counters stay exact: such buffers are
/// released like any other on node destruction.
void NoteAdoptedBuffer(size_t num_elements);

/// Allocation-observability counters (monotonic since ResetPoolStats()).
struct BufferPoolStats {
  uint64_t acquires = 0;         // AcquireBuffer calls
  uint64_t hits = 0;             // served from a free list
  uint64_t misses = 0;           // fresh heap allocation
  uint64_t releases = 0;         // buffers returned (pooled or freed)
  uint64_t adoptions = 0;        // NoteAdoptedBuffer calls
  uint64_t bytes_requested = 0;  // cumulative bytes across acquires
  uint64_t live_bytes = 0;       // bytes currently checked out / adopted
  uint64_t peak_live_bytes = 0;  // high-water mark of live_bytes
  uint64_t outstanding_buffers = 0;  // live buffer count
  uint64_t pooled_buffers = 0;   // buffers sitting in free lists
  uint64_t pooled_bytes = 0;     // bytes sitting in free lists

  /// Fraction of acquires served from a free list (0 when none yet).
  double HitRate() const {
    return acquires == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(acquires);
  }

  /// One-line rendering for logs/benchmarks.
  std::string ToString() const;
};

/// Snapshot of the counters (cheap; relaxed atomic reads). The same values
/// surface as `logcl.pool.*` in MetricsRegistry::Snapshot() / DumpMetrics
/// via a registered source (see common/observability.h and DESIGN.md §12).
BufferPoolStats PoolSnapshot();
void ResetPoolStats();

/// Drops every buffer in the global free lists and in every live thread's
/// cache; afterwards pooled_buffers and pooled_bytes read 0 (with no
/// concurrent releases).
void TrimBufferPool();

/// Moves the calling thread's cached buffers to the global tier, where any
/// thread can pop them. For a thread that allocates in bursts between idle
/// spans (a replica worker's Advance builds), so its buffers serve the next
/// burst on another thread instead of idling in its cache.
void SpillThreadBufferCache();

/// RAII pooled scratch buffer for kernel internals: acquires on
/// construction, releases on scope exit. Movable, not copyable.
class PooledBuffer {
 public:
  PooledBuffer() = default;
  PooledBuffer(size_t num_elements, BufferFill fill)
      : buffer_(AcquireBuffer(num_elements, fill)) {}
  ~PooledBuffer() { ReleaseBuffer(std::move(buffer_)); }

  PooledBuffer(PooledBuffer&& other) noexcept
      : buffer_(std::move(other.buffer_)) {
    other.buffer_.clear();
  }
  PooledBuffer& operator=(PooledBuffer&& other) noexcept {
    if (this != &other) {
      ReleaseBuffer(std::move(buffer_));
      buffer_ = std::move(other.buffer_);
      other.buffer_.clear();
    }
    return *this;
  }
  PooledBuffer(const PooledBuffer&) = delete;
  PooledBuffer& operator=(const PooledBuffer&) = delete;

  float* data() { return buffer_.data(); }
  const float* data() const { return buffer_.data(); }
  size_t size() const { return buffer_.size(); }
  float& operator[](size_t i) { return buffer_[i]; }
  float operator[](size_t i) const { return buffer_[i]; }

 private:
  std::vector<float> buffer_;
};

}  // namespace logcl

#endif  // LOGCL_TENSOR_BUFFER_POOL_H_
