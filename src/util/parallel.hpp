// Fixed-size thread pool with a blocking parallel_for over index ranges —
// the execution backend of the staged analysis engine. Design constraints:
//
//  * Determinism: parallel_for only partitions the index range; a chunk
//    [i, j) always runs the same code on the same indices, so any kernel
//    whose chunks write disjoint outputs produces bit-identical results at
//    1, 2 or N threads, whatever else runs on the pool at the same time.
//    Kernels that would need a reduction across chunks (dot products,
//    scatter-style SpMV) are deliberately left serial.
//  * One pool per process, many callers: workers are started once and
//    reused. Each top-level parallel_for opens its own job; its caller runs
//    that job's chunks and waits only for the workers still inside it, never
//    for another caller's job, so concurrent callers (serve requests on
//    different sessions) run their parallel work side by side. Idle workers
//    help the oldest open job that has chunks left.
//  * Nested calls stay inline: a parallel_for from inside a chunk (on a
//    worker, or on a caller running its own chunks) runs as a serial loop
//    instead of deadlocking or oversubscribing.
//  * Thread count: set_thread_count() override, else the AUTOSEC_THREADS
//    environment variable, else std::thread::hardware_concurrency().
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace autosec::util {

/// A chunk handler: process indices [begin, end).
using ChunkFn = std::function<void(size_t begin, size_t end)>;

/// Workers shared by any number of concurrent callers. Each top-level
/// parallel_for is its own job: its caller runs the job's chunks and waits
/// only for the workers inside it, idle workers help the oldest open job
/// with chunks left, and a parallel_for from inside a chunk runs inline.
class ThreadPool {
 public:
  /// Pool with `threads` total execution lanes (including the calling
  /// thread); clamped to >= 1. A 1-thread pool starts no workers and runs
  /// everything inline.
  explicit ThreadPool(size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution lanes (workers + the calling thread).
  size_t size() const { return workers_.size() + 1; }

  /// Run fn over [begin, end) split into chunks of at least `grain` indices;
  /// blocks until every chunk is done. The calling thread participates. A
  /// grain of 1 marks a fan-out of coarse tasks and hands out one index per
  /// claim; larger grains make about 4 chunks per lane. The first exception
  /// thrown by a chunk is rethrown here after the range is drained. Safe to
  /// call from several threads at once. Serial fast paths: single-lane pool,
  /// range <= grain, or a call from inside another parallel_for (nested
  /// regions run inline).
  void parallel_for(size_t begin, size_t end, size_t grain, const ChunkFn& fn);

 private:
  struct Job;  // one parallel_for call; lives on its caller's stack

  void worker_loop();
  size_t run_chunks(Job& job);  ///< returns chunks this lane ran

  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_cv_;  // a job was opened, or stop_
  std::condition_variable done_cv_;  // a job's last worker left it
  bool stop_ = false;
  std::vector<Job*> open_jobs_;      // oldest first
};

/// Resolved engine thread count: set_thread_count() override if set, else
/// AUTOSEC_THREADS, else hardware concurrency (>= 1 always).
size_t thread_count();

/// Override the engine thread count (0 restores the automatic choice). The
/// process-wide pool is rebuilt on the next use. Not safe to call while
/// parallel work is in flight.
void set_thread_count(size_t threads);

/// The process-wide pool, sized to thread_count() (rebuilt after
/// set_thread_count()).
ThreadPool& global_pool();

/// Call in a freshly fork()ed child before any engine work: the inherited
/// pool object's worker threads do not exist in the child, so destroying it
/// normally would join threads that never run. This abandons the object
/// without joining (and re-initializes the guard mutex, which may have been
/// snapshotted mid-acquisition); the next parallel_for builds a fresh pool.
void abandon_pool_after_fork() noexcept;

/// global_pool().parallel_for with the serial fast paths applied first.
void parallel_for(size_t begin, size_t end, size_t grain, const ChunkFn& fn);

}  // namespace autosec::util
