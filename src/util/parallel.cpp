#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <new>
#include <string>

#include "util/metrics.hpp"

namespace autosec::util {

namespace {

// True on threads currently executing inside a parallel region (pool workers
// permanently; the calling thread while it participates). Nested
// parallel_for calls from such threads run inline.
thread_local bool t_in_parallel_region = false;

}  // namespace

// One parallel_for call. It lives on its caller's stack and sits in the
// pool's open list from posting until its caller has drawn its last chunk;
// the caller then waits only for the workers still inside it.
struct ThreadPool::Job {
  std::atomic<size_t> next{0};
  size_t end = 0;
  size_t chunk = 1;
  const ChunkFn* fn = nullptr;
  std::exception_ptr error;   // first exception of a chunk; guarded by mutex_
  size_t workers_inside = 0;  // guarded by mutex_
};

ThreadPool::ThreadPool(size_t threads) {
  const size_t lanes = std::max<size_t>(threads, 1);
  workers_.reserve(lanes - 1);
  for (size_t i = 0; i + 1 < lanes; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

size_t ThreadPool::run_chunks(Job& job) {
  size_t chunks = 0;
  while (true) {
    const size_t start = job.next.fetch_add(job.chunk, std::memory_order_relaxed);
    if (start >= job.end) break;
    const size_t stop = std::min(start + job.chunk, job.end);
    ++chunks;
    try {
      (*job.fn)(start, stop);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!job.error) job.error = std::current_exception();
    }
  }
  return chunks;
}

void ThreadPool::worker_loop() {
  t_in_parallel_region = true;  // workers never open their own region
  while (true) {
    Job* job = nullptr;
    {
      // Help the oldest open job with chunks left. The predicate turns true
      // only when a job opens, which notifies; cursors run out without the
      // lock, which only turns it false.
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] {
        for (Job* open : open_jobs_) {
          if (open->next.load(std::memory_order_relaxed) < open->end) {
            job = open;
            return true;
          }
        }
        return stop_;
      });
      if (stop_) return;
      ++job->workers_inside;
    }
    const size_t chunks = run_chunks(*job);
    // Lane occupancy of the workers that entered a job: one that drew zero
    // chunks found the job's cursor drained by the other lanes.
    if (chunks > 0) {
      metrics::registry().add("pool.worker_chunks", chunks);
      metrics::registry().add("pool.busy_worker_lanes");
    } else {
      metrics::registry().add("pool.idle_worker_lanes");
    }
    bool last_out = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      last_out = --job->workers_inside == 0;
    }
    // `job` may be gone once the lock is released; only the pool is touched.
    if (last_out) done_cv_.notify_all();
  }
}

void ThreadPool::parallel_for(size_t begin, size_t end, size_t grain,
                              const ChunkFn& fn) {
  if (begin >= end) return;
  const size_t count = end - begin;
  const size_t min_chunk = std::max<size_t>(grain, 1);
  if (t_in_parallel_region || workers_.empty() || count <= min_chunk) {
    fn(begin, end);
    return;
  }

  Job job;
  job.next.store(begin, std::memory_order_relaxed);
  job.end = end;
  // Grain 1 is a fan-out of coarse tasks (properties, points, BSCCs,
  // requests): one task per claim, so the longest never queues behind
  // another in one chunk. Kernel grains keep ~4 chunks per lane for load
  // balance, never below the grain.
  job.chunk = grain <= 1
                  ? 1
                  : std::max(min_chunk, (count + 4 * size() - 1) / (4 * size()));
  job.fn = &fn;
  bool overlapped = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    overlapped = !open_jobs_.empty();
    open_jobs_.push_back(&job);
  }
  work_cv_.notify_all();

  // Nothing between linking and unlinking may throw: run_chunks catches
  // every exception of a chunk, so the list never keeps a dead frame.
  t_in_parallel_region = true;
  const size_t caller_chunks = run_chunks(job);
  t_in_parallel_region = false;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    open_jobs_.erase(std::find(open_jobs_.begin(), open_jobs_.end(), &job));
    done_cv_.wait(lock, [&] { return job.workers_inside == 0; });
  }

  metrics::Registry& metrics = metrics::registry();
  if (metrics.enabled()) {
    metrics.add("pool.jobs");
    metrics.add("pool.indices", count);
    metrics.gauge("pool.lanes", static_cast<double>(size()));
    metrics.add("pool.caller_chunks", caller_chunks);
    if (overlapped) metrics.add("pool.overlapped_jobs");
  }
  if (job.error) std::rethrow_exception(job.error);
}

namespace {

std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;
size_t g_pool_size = 0;       // lanes of the live pool
size_t g_thread_override = 0; // 0 = automatic

size_t automatic_thread_count() {
  if (const char* env = std::getenv("AUTOSEC_THREADS")) {
    char* tail = nullptr;
    const long parsed = std::strtol(env, &tail, 10);
    if (tail != env && *tail == '\0' && parsed > 0) {
      return std::min<long>(parsed, 1024);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace

size_t thread_count() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  return g_thread_override > 0 ? g_thread_override : automatic_thread_count();
}

void set_thread_count(size_t threads) {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  g_thread_override = threads;
  g_pool.reset();  // rebuilt to the new size on next use
  g_pool_size = 0;
}

void abandon_pool_after_fork() noexcept {
  // Single-threaded context by contract (immediately after fork): leak the
  // inherited pool — its ~ThreadPool would block joining workers that exist
  // only in the parent — and reset the mutex in case a parent thread held it
  // at fork time.
  new (&g_pool_mutex) std::mutex();
  (void)g_pool.release();
  g_pool_size = 0;
}

ThreadPool& global_pool() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  const size_t want =
      g_thread_override > 0 ? g_thread_override : automatic_thread_count();
  if (!g_pool || g_pool_size != want) {
    g_pool.reset();  // join old workers before starting new ones
    g_pool = std::make_unique<ThreadPool>(want);
    g_pool_size = want;
  }
  return *g_pool;
}

void parallel_for(size_t begin, size_t end, size_t grain, const ChunkFn& fn) {
  if (begin >= end) return;
  if (t_in_parallel_region || end - begin <= std::max<size_t>(grain, 1)) {
    fn(begin, end);
    return;
  }
  global_pool().parallel_for(begin, end, grain, fn);
}

}  // namespace autosec::util
