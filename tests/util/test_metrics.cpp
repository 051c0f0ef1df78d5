#include "util/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "util/parallel.hpp"

namespace autosec::util::metrics {
namespace {

/// Every test runs against the process-wide registry: reset + enable on
/// entry, disable + reset on exit so no state leaks into other suites.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    registry().reset();
    registry().set_enabled(true);
  }
  void TearDown() override {
    registry().set_enabled(false);
    registry().reset();
  }
};

TEST_F(MetricsTest, CountersAccumulate) {
  Registry& r = registry();
  r.add("test.counter");
  r.add("test.counter", 4);
  EXPECT_EQ(r.counter_value("test.counter"), 5u);
  EXPECT_EQ(r.counter_value("test.absent"), 0u);
}

TEST_F(MetricsTest, GaugesLastWriteWins) {
  Registry& r = registry();
  r.gauge("test.gauge", 1.5);
  r.gauge("test.gauge", -2.25);
  ASSERT_TRUE(r.gauge_value("test.gauge").has_value());
  EXPECT_DOUBLE_EQ(*r.gauge_value("test.gauge"), -2.25);
  EXPECT_FALSE(r.gauge_value("test.absent").has_value());
}

TEST_F(MetricsTest, DisabledRegistryRecordsNothing) {
  Registry& r = registry();
  r.set_enabled(false);
  r.add("test.counter");
  r.gauge("test.gauge", 1.0);
  {
    ScopedSpan span("test_span");
  }
  r.set_enabled(true);
  EXPECT_EQ(r.counter_value("test.counter"), 0u);
  EXPECT_FALSE(r.gauge_value("test.gauge").has_value());
  EXPECT_EQ(r.span_stats("test_span").count, 0u);
}

TEST_F(MetricsTest, ScopedSpanRecordsElapsedTime) {
  {
    ScopedSpan span("test_span");
  }
  {
    ScopedSpan span("test_span");
  }
  const SpanStats stats = registry().span_stats("test_span");
  EXPECT_EQ(stats.count, 2u);
  EXPECT_GE(stats.seconds, 0.0);
}

TEST_F(MetricsTest, NestedSpansFormSlashJoinedPaths) {
  {
    ScopedSpan outer("outer");
    ScopedSpan inner("inner");
  }
  EXPECT_EQ(registry().span_stats("outer").count, 1u);
  EXPECT_EQ(registry().span_stats("outer/inner").count, 1u);
  EXPECT_EQ(registry().span_stats("inner").count, 0u);
}

TEST_F(MetricsTest, SpanStacksArePerThread) {
  // A span opened on another thread must not nest under this thread's spans.
  ScopedSpan outer("outer");
  std::thread worker([] { ScopedSpan span("worker_span"); });
  worker.join();
  EXPECT_EQ(registry().span_stats("worker_span").count, 1u);
  EXPECT_EQ(registry().span_stats("outer/worker_span").count, 0u);
}

TEST_F(MetricsTest, ResetClearsValuesButKeepsEnabled) {
  Registry& r = registry();
  r.add("test.counter");
  r.gauge("test.gauge", 1.0);
  {
    ScopedSpan span("test_span");
  }
  r.reset();
  EXPECT_TRUE(r.enabled());
  EXPECT_EQ(r.counter_value("test.counter"), 0u);
  EXPECT_FALSE(r.gauge_value("test.gauge").has_value());
  EXPECT_EQ(r.span_stats("test_span").count, 0u);
}

TEST_F(MetricsTest, ConcurrentAddsAreLossless) {
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([] {
      for (size_t k = 0; k < kPerThread; ++k) registry().add("test.concurrent");
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry().counter_value("test.concurrent"), kThreads * kPerThread);
}

TEST_F(MetricsTest, JsonHasSchemaAndSortedSections) {
  Registry& r = registry();
  r.add("b.counter", 2);
  r.add("a.counter", 1);
  r.gauge("test.gauge", 0.5);
  {
    ScopedSpan span("test_span");
  }
  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"schema\": \"autosec-metrics-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"a.counter\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"b.counter\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"test.gauge\": 0.5"), std::string::npos);
  EXPECT_NE(json.find("\"test_span\": {\"count\": 1, \"seconds\":"), std::string::npos);
  // Sorted keys: "a.counter" serializes before "b.counter".
  EXPECT_LT(json.find("a.counter"), json.find("b.counter"));
}

TEST_F(MetricsTest, JsonEscapesControlAndQuoteCharacters) {
  registry().add("weird\"name\n");
  const std::string json = registry().to_json();
  EXPECT_NE(json.find("weird\\\"name\\n"), std::string::npos);
}

TEST_F(MetricsTest, NonFiniteGaugesSerializeAsNull) {
  registry().gauge("test.inf", std::numeric_limits<double>::infinity());
  EXPECT_NE(registry().to_json().find("\"test.inf\": null"), std::string::npos);
}

TEST_F(MetricsTest, WriteJsonThrowsOnUnwritablePath) {
  EXPECT_THROW(registry().write_json("/nonexistent-dir/metrics.json"),
               std::runtime_error);
}

TEST_F(MetricsTest, PoolRecordsJobsAndChunks) {
  // parallel_for over enough work to engage the pool must record a job.
  std::atomic<size_t> total{0};
  util::parallel_for(0, 4096, 1, [&](size_t begin, size_t end) {
    total.fetch_add(end - begin, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), 4096u);
  if (util::thread_count() > 1) {
    EXPECT_GE(registry().counter_value("pool.jobs"), 1u);
    EXPECT_GE(registry().counter_value("pool.indices"), 4096u);
  }
}

TEST_F(MetricsTest, PoolCountsOverlappedJobs) {
  util::set_thread_count(4);
  // One caller: each job is closed before the next one opens.
  for (int i = 0; i < 8; ++i) util::parallel_for(0, 64, 1, [](size_t, size_t) {});
  EXPECT_EQ(registry().counter_value("pool.jobs"), 8u);
  EXPECT_EQ(registry().counter_value("pool.overlapped_jobs"), 0u);

  // Two callers: every chunk of the first caller's job blocks until the
  // second caller's job has run. Its 4 lanes hold 4 of its 8 chunks, so the
  // job still has chunks left, and stays open, while the second one opens.
  std::mutex mutex;
  std::condition_variable cv;
  bool started = false;
  bool released = false;
  std::thread first([&] {
    util::parallel_for(0, 8, 1, [&](size_t, size_t) {
      std::unique_lock<std::mutex> lock(mutex);
      started = true;
      cv.notify_all();
      cv.wait_for(lock, std::chrono::seconds(10), [&] { return released; });
    });
  });
  {
    std::unique_lock<std::mutex> lock(mutex);
    EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(10), [&] { return started; }));
  }
  util::parallel_for(0, 64, 1, [](size_t, size_t) {});
  {
    std::lock_guard<std::mutex> lock(mutex);
    released = true;
  }
  cv.notify_all();
  first.join();
  util::set_thread_count(0);
  EXPECT_GE(registry().counter_value("pool.overlapped_jobs"), 1u);
}

}  // namespace
}  // namespace autosec::util::metrics
