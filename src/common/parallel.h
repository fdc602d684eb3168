// Parallel execution runtime: a lazily-initialised persistent worker pool
// shared by every compute kernel in the repo.
//
// Design notes:
//  - Pool size comes from SetNumThreads(), else the LOGCL_NUM_THREADS env
//    var, else std::thread::hardware_concurrency(), capped at
//    kMaxNumThreads. The count includes the calling thread, so
//    SetNumThreads(1) means "no workers, run inline".
//  - ParallelFor uses *static* range partitioning: [begin, end) is split
//    into at most GetNumThreads() contiguous sub-ranges of near-equal size
//    (each at least `grain` indices, except possibly the last), so the
//    split is deterministic for a given thread count. Callers must write
//    only to locations owned by the indices of their sub-range; under that
//    contract the result is bitwise-identical at any thread count.
//  - ParallelReduce uses *fixed* chunking instead: chunk boundaries depend
//    only on (range, grain), never on the thread count, and per-chunk
//    partials are combined in ascending chunk order. This makes reductions
//    bitwise reproducible run-to-run AND across thread counts, which is
//    what the 1-vs-N determinism tests assert.
//  - Nested parallel calls (from inside a ParallelFor body) run inline on
//    the calling thread; the decomposition contracts above are unaffected.
//  - One top-level region uses the workers at a time. A top-level region
//    that finds another thread's region running (the serving dispatcher
//    beside a fine-tune, two replicas in one process) does not wait for
//    it: it runs its own chunks in order on its own thread, as a nested
//    call does. The partition depends only on (range, grain, thread
//    count), so the result is the same bits; the
//    `logcl.parallel.inline_regions` counter records how often it happens.
//  - Per-thread fast path for memory: worker threads recycle kernel scratch
//    through the tensor buffer pool's thread-local caches (see
//    tensor/buffer_pool.h), so per-shard PooledBuffer scratch inside
//    ParallelFor bodies is allocation- and lock-free in steady state. The
//    ParallelFor bounds array itself is stack-allocated for pools <= 64
//    threads for the same reason.

#ifndef LOGCL_COMMON_PARALLEL_H_
#define LOGCL_COMMON_PARALLEL_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace logcl {

/// Largest pool size (calling thread included). SetNumThreads clamps to it,
/// and LOGCL_NUM_THREADS values above it fall back to auto, so a typo
/// cannot make the first region start billions of threads.
inline constexpr int kMaxNumThreads = 256;

/// Threads the pool targets for top-level parallel regions (1 to
/// kMaxNumThreads, includes the calling thread).
int GetNumThreads();

/// Resizes the pool; n <= 0 restores the default (LOGCL_NUM_THREADS env var
/// or hardware concurrency), n > kMaxNumThreads is clamped to it. Joins
/// existing workers, so it must not be called while a parallel region is
/// running.
void SetNumThreads(int n);

namespace internal_parallel {

/// Executes chunk_fn(c) for c in [0, num_chunks), distributing chunks over
/// the pool (in order when run serially).
void RunChunks(int64_t num_chunks,
               const std::function<void(int64_t)>& chunk_fn);

/// Type-erased ParallelFor body for ranges that may dispatch to the pool.
void ParallelForErased(int64_t begin, int64_t end, int64_t grain,
                       const std::function<void(int64_t, int64_t)>& fn);

}  // namespace internal_parallel

/// Runs fn(sub_begin, sub_end) over a static partition of [begin, end); see
/// the file comment for the determinism contract. fn runs on the calling
/// thread when the range is empty, shorter than `grain`, the pool has one
/// thread, or the call is nested inside another parallel region. Ranges no
/// longer than `grain` always produce one part, so they run inline here
/// without ever type-erasing `fn` — small ops on the autograd hot path pay
/// no std::function construction or pool bookkeeping.
template <typename Fn>
inline void ParallelFor(int64_t begin, int64_t end, int64_t grain, Fn&& fn) {
  if (begin >= end) return;
  if (end - begin <= std::max<int64_t>(1, grain)) {
    fn(begin, end);
    return;
  }
  internal_parallel::ParallelForErased(begin, end, grain, fn);
}

/// Chunked reduction with a thread-count-invariant result. [begin, end) is
/// cut into ceil(range / grain) fixed chunks; `map(chunk_begin, chunk_end)`
/// produces one partial per chunk (possibly concurrently), and partials are
/// folded left-to-right with `combine(acc, partial)` in chunk order.
template <typename T, typename MapFn, typename CombineFn>
T ParallelReduce(int64_t begin, int64_t end, int64_t grain, T identity,
                 const MapFn& map, const CombineFn& combine) {
  if (begin >= end) return identity;
  grain = std::max<int64_t>(1, grain);
  int64_t range = end - begin;
  int64_t num_chunks = (range + grain - 1) / grain;
  std::vector<T> partials(static_cast<size_t>(num_chunks), identity);
  internal_parallel::RunChunks(num_chunks, [&](int64_t c) {
    int64_t cb = begin + c * grain;
    int64_t ce = std::min(end, cb + grain);
    partials[static_cast<size_t>(c)] = map(cb, ce);
  });
  T acc = std::move(identity);
  for (T& partial : partials) acc = combine(std::move(acc), std::move(partial));
  return acc;
}

}  // namespace logcl

#endif  // LOGCL_COMMON_PARALLEL_H_
