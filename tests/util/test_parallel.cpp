#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ctmc/ctmc.hpp"
#include "ctmc/steady_state.hpp"
#include "ctmc/transient.hpp"
#include "linalg/csr_matrix.hpp"

namespace autosec::util {
namespace {

/// Restores the automatic thread count when a test exits.
struct ThreadCountGuard {
  ~ThreadCountGuard() { set_thread_count(0); }
};

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadCountGuard guard;
  set_thread_count(4);
  constexpr size_t kCount = 1000;
  std::vector<std::atomic<int>> touched(kCount);
  parallel_for(0, kCount, 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) touched[i].fetch_add(1);
  });
  for (size_t i = 0; i < kCount; ++i) EXPECT_EQ(touched[i].load(), 1) << i;
}

TEST(ParallelFor, EmptyRangeDoesNotInvokeBody) {
  bool called = false;
  parallel_for(5, 5, 1, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, RespectsGrainForSmallRanges) {
  // A range no larger than the grain must run as one serial chunk.
  std::vector<std::pair<size_t, size_t>> chunks;
  parallel_for(0, 8, 8, [&](size_t begin, size_t end) {
    chunks.emplace_back(begin, end);
  });
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0], (std::pair<size_t, size_t>{0, 8}));
}

TEST(ParallelFor, NestedCallsRunInline) {
  ThreadCountGuard guard;
  set_thread_count(4);
  std::atomic<size_t> total{0};
  parallel_for(0, 16, 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      // Inner parallel_for from a pool lane must degrade to a serial loop
      // instead of deadlocking on the pool.
      parallel_for(0, 10, 1, [&](size_t b, size_t e) { total.fetch_add(e - b); });
    }
  });
  EXPECT_EQ(total.load(), 160u);
}

TEST(ParallelFor, PropagatesFirstException) {
  ThreadCountGuard guard;
  set_thread_count(4);
  EXPECT_THROW(
      parallel_for(0, 100, 1,
                   [&](size_t begin, size_t) {
                     if (begin >= 50) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // The pool must stay usable after an exception drained the range.
  std::atomic<size_t> count{0};
  parallel_for(0, 64, 1, [&](size_t b, size_t e) { count.fetch_add(e - b); });
  EXPECT_EQ(count.load(), 64u);
}

TEST(ParallelFor, CoarseFanOutsClaimOneIndexAtATime) {
  ThreadCountGuard guard;
  set_thread_count(4);
  // Grain 1 is a fan-out of coarse tasks: pairing two of them in one chunk
  // would make the longest task wait for its neighbour.
  std::atomic<size_t> claims{0};
  parallel_for(0, 40, 1, [&](size_t, size_t) { claims.fetch_add(1); });
  EXPECT_EQ(claims.load(), 40u) << "40 indices, so every claim must be one index";
}

// --- concurrent callers ---------------------------------------------------

/// A one-shot flag a thread can wait on with a deadline.
class Latch {
 public:
  void open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }
  /// False when the deadline passed with the latch still closed.
  bool wait_for(std::chrono::seconds timeout) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, timeout, [&] { return open_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
};

constexpr std::chrono::seconds kBlockBound{10};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

TEST(ParallelFor, SecondCallerDoesNotWaitForAnotherCallersJob) {
  ThreadCountGuard guard;
  set_thread_count(4);
  // Thread A's job holds one chunk open until the main thread's own
  // parallel_for has returned. A pool that serialized its callers would make
  // the main thread wait for A's job, so A's chunk would run into its bound.
  Latch a_started;
  Latch main_returned;
  std::atomic<bool> a_timed_out{false};
  std::thread a([&] {
    parallel_for(0, 8, 1, [&](size_t begin, size_t) {
      if (begin != 0) return;
      a_started.open();
      if (!main_returned.wait_for(kBlockBound)) a_timed_out = true;
    });
  });
  EXPECT_TRUE(a_started.wait_for(kBlockBound));

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::atomic<int>> touched(64);
  parallel_for(0, touched.size(), 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) touched[i].fetch_add(1);
  });
  const double elapsed = seconds_since(start);
  main_returned.open();
  a.join();

  EXPECT_FALSE(a_timed_out.load()) << "the second caller waited " << elapsed
                                   << " s for the first caller's job";
  EXPECT_LT(elapsed, 5.0);
  for (size_t i = 0; i < touched.size(); ++i) EXPECT_EQ(touched[i].load(), 1) << i;
}

TEST(ParallelFor, ConcurrentCallersEachCoverTheirOwnRange) {
  ThreadCountGuard guard;
  set_thread_count(4);
  constexpr size_t kCallers = 6;
  constexpr size_t kCalls = 300;
  std::atomic<size_t> bad_cover{0};
  std::atomic<size_t> nested_off_thread{0};
  std::atomic<size_t> nested_calls{0};
  std::vector<std::thread> callers;
  for (size_t caller = 0; caller < kCallers; ++caller) {
    callers.emplace_back([&, caller] {
      for (size_t call = 0; call < kCalls; ++call) {
        const size_t count = 1 + (call * 37 + caller * 101) % 700;
        const size_t grain = (call + caller) % 3 == 0 ? 1 : (call % 3 == 1 ? 4 : 128);
        // A range no larger than its grain runs inline and is no parallel
        // region, so only calls that reach the pool nest.
        const bool nested = call % 5 == 0 && count > grain;
        std::vector<std::atomic<int>> touched(count);
        parallel_for(0, count, grain, [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) touched[i].fetch_add(1);
          if (!nested) return;
          // A nested region runs inline on the lane that runs the chunk.
          const std::thread::id lane = std::this_thread::get_id();
          parallel_for(0, 16, 1, [&](size_t, size_t) {
            nested_calls.fetch_add(1);
            if (std::this_thread::get_id() != lane) nested_off_thread.fetch_add(1);
          });
        });
        for (size_t i = 0; i < count; ++i) {
          if (touched[i].load() != 1) bad_cover.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(bad_cover.load(), 0u);
  EXPECT_GT(nested_calls.load(), 0u);
  EXPECT_EQ(nested_off_thread.load(), 0u);
}

TEST(ParallelFor, ExceptionStaysWithTheCallerWhoseChunkThrew) {
  ThreadCountGuard guard;
  set_thread_count(4);
  // The quiet caller's job stays open (one chunk blocks) until the throwing
  // caller's parallel_for has returned, so the two jobs overlap.
  Latch quiet_started;
  Latch thrower_returned;
  std::atomic<size_t> quiet_indices{0};
  std::string quiet_error;
  std::thread quiet([&] {
    try {
      parallel_for(0, 32, 1, [&](size_t begin, size_t end) {
        quiet_indices.fetch_add(end - begin);
        if (begin != 0) return;
        quiet_started.open();
        thrower_returned.wait_for(kBlockBound);
      });
    } catch (const std::exception& error) {
      quiet_error = error.what();
    }
  });
  EXPECT_TRUE(quiet_started.wait_for(kBlockBound));

  std::string thrower_error;
  try {
    parallel_for(0, 32, 1, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        if (i % 4 == 3) throw std::runtime_error("thrower chunk failed");
      }
    });
  } catch (const std::runtime_error& error) {
    thrower_error = error.what();
  }
  thrower_returned.open();
  quiet.join();

  EXPECT_EQ(thrower_error, "thrower chunk failed");
  EXPECT_EQ(quiet_error, "");
  EXPECT_EQ(quiet_indices.load(), 32u);
  std::atomic<size_t> count{0};
  parallel_for(0, 64, 1, [&](size_t b, size_t e) { count.fetch_add(e - b); });
  EXPECT_EQ(count.load(), 64u);
}

TEST(ThreadCount, OverrideWinsOverEnvironment) {
  ThreadCountGuard guard;
  set_thread_count(3);
  EXPECT_EQ(thread_count(), 3u);
  set_thread_count(0);
  EXPECT_GE(thread_count(), 1u);
}

TEST(ThreadCount, ReadsEnvironmentWhenAutomatic) {
  ThreadCountGuard guard;
  ::setenv("AUTOSEC_THREADS", "7", 1);
  set_thread_count(0);
  EXPECT_EQ(thread_count(), 7u);
  ::unsetenv("AUTOSEC_THREADS");
  EXPECT_GE(thread_count(), 1u);
}

// --- determinism of the parallel numeric kernels -------------------------
//
// The engine's guarantee: a kernel run at 1, 2 or 8 threads returns
// bit-identical results, because parallel_for only partitions rows and each
// row is summed by exactly one thread in column order.

/// A stiff-ish birth-death chain (120 states unless asked otherwise) with
/// deterministic pseudo-random rates (no RNG: rates derived from the index).
ctmc::Ctmc test_chain(size_t n = 120) {
  linalg::CsrBuilder builder(n, n);
  for (size_t i = 0; i + 1 < n; ++i) {
    const double up = 0.3 + 0.01 * static_cast<double>(i % 17);
    const double down = 1.7 + 0.05 * static_cast<double>(i % 11);
    builder.add(i, i + 1, up);
    builder.add(i + 1, i, down);
  }
  return ctmc::Ctmc(std::move(builder).build());
}

template <typename Fn>
void expect_bit_identical_across_thread_counts(Fn&& compute) {
  ThreadCountGuard guard;
  set_thread_count(1);
  const std::vector<double> serial = compute();
  for (const size_t threads : {2, 8}) {
    set_thread_count(threads);
    const std::vector<double> parallel = compute();
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      // Exact equality on purpose: the contract is bit-identical results.
      EXPECT_EQ(parallel[i], serial[i]) << "index " << i << " at " << threads
                                        << " threads";
    }
  }
}

TEST(ParallelDeterminism, SparseMatrixVectorProduct) {
  // Large enough that the product splits its rows across the pool.
  const ctmc::Ctmc chain = test_chain(40000);
  const linalg::CsrMatrix matrix = chain.rates().transposed();
  ASSERT_GE(matrix.nonzeros(), linalg::kParallelProductNonzeros);
  std::vector<double> x(matrix.cols());
  for (size_t i = 0; i < x.size(); ++i) x[i] = 1.0 / static_cast<double>(i + 1);
  expect_bit_identical_across_thread_counts([&] {
    std::vector<double> y(matrix.rows(), 0.0);
    matrix.right_multiply(x, y);
    return y;
  });
}

TEST(ParallelDeterminism, TransientDistribution) {
  const ctmc::Ctmc chain = test_chain();
  std::vector<double> initial(chain.state_count(), 0.0);
  initial[0] = 1.0;
  expect_bit_identical_across_thread_counts(
      [&] { return ctmc::transient_distribution(chain, initial, 0.8); });
}

TEST(ParallelDeterminism, SteadyStateDistribution) {
  const ctmc::Ctmc chain = test_chain();
  std::vector<double> initial(chain.state_count(), 0.0);
  initial[0] = 1.0;
  expect_bit_identical_across_thread_counts(
      [&] { return ctmc::steady_state(chain, initial).distribution; });
}

}  // namespace
}  // namespace autosec::util
