#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>

#include "common/logging.h"
#include "common/observability.h"
#include "common/runtime_config.h"

namespace logcl {
namespace {

// True while the current thread is executing inside a parallel region;
// nested calls then run inline instead of re-entering the pool.
thread_local bool tls_in_parallel_region = false;

// One job dispatched to the pool. Workers keep a shared_ptr, so a worker
// that wakes up late (after all chunks are claimed) still fetches from its
// own job's counters and can never claim a chunk of a newer job.
struct Job {
  const std::function<void(int64_t)>* fn = nullptr;
  int64_t num_chunks = 0;
  std::atomic<int64_t> next_chunk{0};
  std::atomic<int64_t> done_chunks{0};
};

int DefaultNumThreads() {
  int configured = RuntimeConfig::Get().num_threads;
  if (configured > 0) return configured;
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? std::min(static_cast<int>(hw), kMaxNumThreads) : 1;
}

// Registry counters for dispatched parallel work (regions that actually hit
// the pool; nested and one-chunk fast paths are not counted — they are the
// cases the runtime avoided dispatching). A region that found another
// thread's region holding the pool counts as inline_regions instead: how
// often concurrent callers (serving beside training, two replicas) overlap.
void NoteParallelRegion(int64_t num_chunks) {
  static Counter* regions = Metrics().GetCounter("logcl.parallel.regions");
  static Counter* chunks = Metrics().GetCounter("logcl.parallel.chunks");
  regions->Increment();
  chunks->Add(static_cast<uint64_t>(num_chunks));
}

void NoteInlineRegion() {
  static Counter* inline_regions =
      Metrics().GetCounter("logcl.parallel.inline_regions");
  inline_regions->Increment();
}

class ThreadPool {
 public:
  static ThreadPool& Instance() {
    static ThreadPool pool;
    return pool;
  }

  int num_threads() {
    std::lock_guard<std::mutex> lock(mu_);
    return num_threads_;
  }

  void SetThreads(int n) {
    std::lock_guard<std::mutex> run_lock(run_mu_);
    StopWorkers();
    std::lock_guard<std::mutex> lock(mu_);
    num_threads_ = n > 0 ? std::min(n, kMaxNumThreads) : DefaultNumThreads();
  }

  // Runs fn(c) for every chunk c in [0, num_chunks); the calling thread
  // participates. When another thread's top-level region holds the pool,
  // the chunks run here, in order, instead of queueing behind it: the
  // partition was fixed by the caller, so the result is the same bits.
  void Run(int64_t num_chunks, const std::function<void(int64_t)>& fn) {
    std::unique_lock<std::mutex> run_lock(run_mu_, std::try_to_lock);
    if (!run_lock.owns_lock()) {
      NoteInlineRegion();
      tls_in_parallel_region = true;
      for (int64_t c = 0; c < num_chunks; ++c) fn(c);
      tls_in_parallel_region = false;
      return;
    }
    NoteParallelRegion(num_chunks);
    EnsureWorkers();
    auto job = std::make_shared<Job>();
    job->fn = &fn;
    job->num_chunks = num_chunks;
    {
      std::lock_guard<std::mutex> lock(mu_);
      current_job_ = job;
      ++job_seq_;
      work_cv_.notify_all();
    }
    tls_in_parallel_region = true;
    ExecuteChunks(*job);
    tls_in_parallel_region = false;
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] {
      return job->done_chunks.load(std::memory_order_acquire) ==
             job->num_chunks;
    });
    current_job_.reset();
  }

 private:
  ThreadPool() { num_threads_ = DefaultNumThreads(); }

  ~ThreadPool() { StopWorkers(); }

  void EnsureWorkers() {
    std::lock_guard<std::mutex> lock(mu_);
    int wanted = num_threads_ - 1;
    while (static_cast<int>(workers_.size()) < wanted) {
      workers_.emplace_back([this] { WorkerMain(); });
    }
  }

  void StopWorkers() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
      work_cv_.notify_all();
    }
    for (std::thread& t : workers_) t.join();
    workers_.clear();
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = false;
  }

  void WorkerMain() {
    uint64_t seen_seq = 0;
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock,
                      [&] { return shutdown_ || job_seq_ != seen_seq; });
        if (shutdown_) return;
        seen_seq = job_seq_;
        job = current_job_;
      }
      if (!job) continue;
      tls_in_parallel_region = true;
      ExecuteChunks(*job);
      tls_in_parallel_region = false;
    }
  }

  // Claims chunks until exhausted; the thread finishing the last chunk
  // wakes the dispatching thread.
  void ExecuteChunks(Job& job) {
    for (;;) {
      int64_t c = job.next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= job.num_chunks) break;
      (*job.fn)(c);
      int64_t done =
          job.done_chunks.fetch_add(1, std::memory_order_acq_rel) + 1;
      if (done == job.num_chunks) {
        std::lock_guard<std::mutex> lock(mu_);
        done_cv_.notify_all();
      }
    }
  }

  std::mutex run_mu_;  // held by the one top-level region using the workers
  std::mutex mu_;      // guards all fields below
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  int num_threads_ = 1;
  bool shutdown_ = false;
  uint64_t job_seq_ = 0;
  std::shared_ptr<Job> current_job_;
};

}  // namespace

int GetNumThreads() { return ThreadPool::Instance().num_threads(); }

void SetNumThreads(int n) { ThreadPool::Instance().SetThreads(n); }

namespace internal_parallel {

void RunChunks(int64_t num_chunks,
               const std::function<void(int64_t)>& chunk_fn) {
  if (num_chunks <= 0) return;
  if (num_chunks == 1 || tls_in_parallel_region || GetNumThreads() == 1) {
    for (int64_t c = 0; c < num_chunks; ++c) chunk_fn(c);
    return;
  }
  ThreadPool::Instance().Run(num_chunks, chunk_fn);
}

}  // namespace internal_parallel

namespace internal_parallel {

void ParallelForErased(int64_t begin, int64_t end, int64_t grain,
                       const std::function<void(int64_t, int64_t)>& fn) {
  if (begin >= end) return;
  if (tls_in_parallel_region) {
    fn(begin, end);
    return;
  }
  grain = std::max<int64_t>(1, grain);
  int64_t range = end - begin;
  int64_t max_parts = (range + grain - 1) / grain;
  int64_t parts = std::min<int64_t>(GetNumThreads(), max_parts);
  if (parts <= 1) {
    fn(begin, end);
    return;
  }
  // Static split: parts near-equal contiguous sub-ranges. The bounds array
  // lives on the stack for realistic pool sizes — ParallelFor is called per
  // op on the training hot path, and a heap allocation here would defeat
  // the buffer pool's allocation elision one layer down.
  constexpr int64_t kStackParts = 64;
  int64_t stack_bounds[kStackParts + 1];
  std::vector<int64_t> heap_bounds;
  int64_t* bounds = stack_bounds;
  if (parts > kStackParts) {
    heap_bounds.resize(static_cast<size_t>(parts) + 1);
    bounds = heap_bounds.data();
  }
  int64_t base = range / parts;
  int64_t remainder = range % parts;
  bounds[0] = begin;
  for (int64_t p = 0; p < parts; ++p) {
    bounds[p + 1] = bounds[p] + base + (p < remainder ? 1 : 0);
  }
  RunChunks(parts, [&](int64_t p) { fn(bounds[p], bounds[p + 1]); });
}

}  // namespace internal_parallel

}  // namespace logcl
