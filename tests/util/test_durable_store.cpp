// Unit tests of the durable store (util/durable_store.hpp) under the serve
// disk cache and the checkpoint ledger: the round-trip contract, atomic
// replacement, quota and fsck, and — the property both layers lean on — that
// every corruption mode degrades to a miss, never to a wrong answer, right
// through to the next serve request.
#include "util/durable_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "service/server.hpp"
#include "util/json.hpp"

namespace autosec::util {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void spit(const fs::path& path, const std::string& text) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
}

/// Offset of the payload in an entry file: after the header, identity and
/// payload-digest lines.
size_t payload_offset(const std::string& text) {
  size_t at = 0;
  for (int line = 0; line < 3; ++line) at = text.find('\n', at) + 1;
  return at;
}

class DurableStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test directory: ctest runs discovered tests in parallel processes,
    // so a shared path would race on SetUp/TearDown removal.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("autosec_store_") + info->test_suite_name() + "_" + info->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::vector<fs::path> entry_files() const {
    std::vector<fs::path> out;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      if (entry.path().extension() == ".entry") out.push_back(entry.path());
    }
    return out;
  }

  fs::path dir_;
};

/// The store in its serve disk-cache role (kind util::kResultStore).
class DiskCacheTest : public DurableStoreTest {};

TEST_F(DiskCacheTest, RoundTripAndStats) {
  DurableStore cache(dir_.string(), kResultStore);
  EXPECT_FALSE(cache.lookup("k1").has_value());
  EXPECT_TRUE(cache.store("k1", R"({"result": 42})"));
  const auto payload = cache.lookup("k1");
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, R"({"result": 42})");

  const DurableStore::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.stores, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.corrupt, 0u);
}

TEST_F(DiskCacheTest, EntriesSurviveACacheObjectRestart) {
  {
    DurableStore cache(dir_.string(), kResultStore);
    cache.store("persistent", "payload");
  }
  DurableStore reopened(dir_.string(), kResultStore);
  const auto payload = reopened.lookup("persistent");
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "payload");
}

TEST_F(DiskCacheTest, StoreReplacesAtomically) {
  DurableStore cache(dir_.string(), kResultStore);
  cache.store("k", "old");
  cache.store("k", "new");
  EXPECT_EQ(cache.lookup("k").value_or(""), "new");
  // Still exactly one file total — no temp-file litter left behind.
  EXPECT_EQ(entry_files().size(), 1u);
  EXPECT_EQ(std::distance(fs::directory_iterator(dir_), fs::directory_iterator{}), 1);
}

TEST_F(DiskCacheTest, TruncatedEntryIsUnlinkedAndReportsMiss) {
  DurableStore cache(dir_.string(), kResultStore);
  cache.store("k", "payload");
  const std::vector<fs::path> files = entry_files();
  ASSERT_EQ(files.size(), 1u);
  // Simulate a torn write: header only, no identity or payload lines.
  const std::string text = slurp(files[0]);
  spit(files[0], text.substr(0, text.find('\n') + 1));

  EXPECT_FALSE(cache.lookup("k").has_value());
  EXPECT_EQ(cache.stats().corrupt, 1u);
  // The poisoned file is gone; a fresh store works again.
  EXPECT_TRUE(entry_files().empty());
  cache.store("k", "payload2");
  EXPECT_EQ(cache.lookup("k").value_or(""), "payload2");
}

TEST_F(DiskCacheTest, GarbageEntryIsToleratedAsMiss) {
  DurableStore cache(dir_.string(), kResultStore);
  cache.store("k", "payload");
  const std::vector<fs::path> files = entry_files();
  ASSERT_EQ(files.size(), 1u);
  spit(files[0], "\xff\xfe garbage that is not a cache entry");
  EXPECT_FALSE(cache.lookup("k").has_value());
  EXPECT_EQ(cache.stats().corrupt, 1u);
}

TEST_F(DiskCacheTest, KeyMismatchIsACollisionNotAHit) {
  DurableStore cache(dir_.string(), kResultStore);
  cache.store("some-other-key", "payload");
  // A (hypothetical) hash collision: a well-formed entry under the right file
  // name but for another identity. The exact identity check must refuse to
  // replay it.
  fs::rename(cache.entry_path("some-other-key"), cache.entry_path("k"));
  EXPECT_FALSE(cache.lookup("k").has_value());
  EXPECT_EQ(cache.stats().corrupt, 1u);
}

TEST_F(DiskCacheTest, NewlineBearingIdentitiesAndPayloadsRoundTrip) {
  DurableStore cache(dir_.string(), kResultStore);
  EXPECT_TRUE(cache.store("key\nwith newline", "payload"));
  EXPECT_TRUE(cache.store("key", "payload\nwith newline\n"));
  EXPECT_EQ(cache.stats().stores, 2u);
  EXPECT_EQ(cache.lookup("key\nwith newline").value_or(""), "payload");
  EXPECT_EQ(cache.lookup("key").value_or(""), "payload\nwith newline\n");
  EXPECT_FALSE(cache.lookup("key\nwith").has_value());
  EXPECT_EQ(entry_files().size(), 2u);

  // Both survive a reopen's fsck.
  DurableStore reopened(dir_.string(), kResultStore);
  EXPECT_EQ(reopened.stats().fsck_removed, 0u);
  EXPECT_EQ(reopened.lookup("key\nwith newline").value_or(""), "payload");
}

TEST_F(DiskCacheTest, DistinctKeysGetDistinctFiles) {
  DurableStore cache(dir_.string(), kResultStore);
  cache.store("a", "1");
  cache.store("b", "2");
  EXPECT_EQ(entry_files().size(), 2u);
  EXPECT_EQ(cache.lookup("a").value_or(""), "1");
  EXPECT_EQ(cache.lookup("b").value_or(""), "2");
}

TEST_F(DiskCacheTest, TwoCachesOnOneDirectoryShareEntries) {
  // The pre-fork sharded server opens one store per worker process over the
  // same directory; a store from one must be a hit for the other.
  DurableStore writer(dir_.string(), kResultStore);
  DurableStore reader(dir_.string(), kResultStore);
  writer.store("shared", "payload");
  EXPECT_EQ(reader.lookup("shared").value_or(""), "payload");
}

TEST_F(DiskCacheTest, UnusableDirectoryThrows) {
  EXPECT_THROW(DurableStore("/proc/definitely/not/writable", kResultStore),
               std::runtime_error);
}

TEST_F(DiskCacheTest, SizeAccountingTracksStoresAndReplacements) {
  DurableStore cache(dir_.string(), kResultStore);
  EXPECT_EQ(cache.stats().size_bytes, 0u);
  cache.store("k", std::string(100, 'x'));
  const size_t after_first = cache.stats().size_bytes;
  EXPECT_GT(after_first, 100u);  // payload plus header, identity and digest
  // Replacing an entry accounts the delta, not the sum.
  cache.store("k", std::string(150, 'y'));
  EXPECT_EQ(cache.stats().size_bytes, after_first + 50u);
  EXPECT_EQ(cache.stats().size_bytes, fs::file_size(cache.entry_path("k")));
}

TEST_F(DiskCacheTest, ShrinkingTheQuotaEvictsOldestFirst) {
  DurableStore cache(dir_.string(), kResultStore);
  std::vector<fs::path> files;
  for (const char* key : {"a", "b", "c"}) {
    cache.store(key, std::string(100, key[0]));
    files.push_back(cache.entry_path(key));  // files[i] belongs to the i-th key
  }
  // Pin the age order explicitly — a fast test can create all three entries
  // within the filesystem's timestamp granularity.
  const auto now = fs::file_time_type::clock::now();
  fs::last_write_time(files[0], now - std::chrono::hours(3));
  fs::last_write_time(files[1], now - std::chrono::hours(2));
  fs::last_write_time(files[2], now - std::chrono::hours(1));

  const size_t total = cache.stats().size_bytes;
  cache.set_quota(total - 1);  // one entry has to go — the oldest
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(fs::exists(files[0])) << "oldest entry must be evicted first";
  EXPECT_EQ(cache.lookup("b").value_or(""), std::string(100, 'b'));
  EXPECT_EQ(cache.lookup("c").value_or(""), std::string(100, 'c'));
  EXPECT_LE(cache.stats().size_bytes, cache.stats().quota_bytes);
}

TEST_F(DiskCacheTest, StoreBeyondQuotaEvictsUntilTheNewEntryFits) {
  size_t entry_bytes = 0;
  {
    DurableStore sizer(dir_.string(), kResultStore);
    sizer.store("probe", std::string(100, 'p'));
    entry_bytes = sizer.stats().size_bytes;
  }
  fs::remove_all(dir_);

  // Room for two one-letter entries, not three.
  DurableStore cache(dir_.string(), kResultStore, 2 * entry_bytes + entry_bytes / 2);
  cache.store("a", std::string(100, 'a'));
  cache.store("b", std::string(100, 'b'));
  EXPECT_EQ(cache.stats().evictions, 0u);
  // Make "a" and "b" unambiguously older, then overflow.
  const auto now = fs::file_time_type::clock::now();
  for (const fs::path& path : entry_files()) {
    fs::last_write_time(path, now - std::chrono::hours(1));
  }
  cache.store("c", std::string(100, 'c'));
  EXPECT_GE(cache.stats().evictions, 1u);
  EXPECT_LE(cache.stats().size_bytes, cache.stats().quota_bytes);
  EXPECT_EQ(cache.lookup("c").value_or(""), std::string(100, 'c'))
      << "the entry just stored must survive its own eviction sweep";
}

TEST_F(DiskCacheTest, FsckRemovesStraysAndSeedsTheSizeAccounting) {
  size_t valid_bytes = 0;
  std::string stray;
  {
    DurableStore cache(dir_.string(), kResultStore);
    cache.store("survivor", "payload");
    valid_bytes = cache.stats().size_bytes;
    stray = cache.entry_path("lost") + ".4242-7.tmp";
  }
  // A crash mid-store leaves a temp file; corruption leaves an invalid
  // entry; and foreign files (operator notes) are none of our business.
  spit(stray, "torn");
  spit(dir_ / "ffffffffffffffffffffffffffffffff.entry", "garbage");
  spit(dir_ / "README", "operator notes");

  DurableStore reopened(dir_.string(), kResultStore);
  const DurableStore::Stats stats = reopened.stats();
  EXPECT_EQ(stats.fsck_removed, 2u);
  EXPECT_EQ(stats.size_bytes, valid_bytes)
      << "only surviving entries count against the quota";
  EXPECT_FALSE(fs::exists(stray));
  EXPECT_FALSE(fs::exists(dir_ / "ffffffffffffffffffffffffffffffff.entry"));
  EXPECT_TRUE(fs::exists(dir_ / "README")) << "foreign files are left alone";
  EXPECT_EQ(reopened.lookup("survivor").value_or(""), "payload");
}

TEST_F(DiskCacheTest, QuotaZeroMeansUnbounded) {
  DurableStore cache(dir_.string(), kResultStore, 0);
  for (int i = 0; i < 20; ++i) {
    cache.store("k" + std::to_string(i), std::string(500, 'x'));
  }
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(entry_files().size(), 20u);
}

TEST_F(DurableStoreTest, ConcurrentStoresAndLookupsSeeOnlyWholeEntries) {
  DurableStore store(dir_.string(), kResultStore);
  // Large enough that a torn or interleaved write would be visible.
  const std::string a(64 * 1024, 'a');
  const std::string b(96 * 1024, 'b');
  std::atomic<bool> writing{true};
  std::atomic<size_t> torn{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (writing.load()) {
        const auto payload = store.lookup("shared");
        if (payload && *payload != a && *payload != b) torn.fetch_add(1);
      }
    });
  }
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < 100; ++i) store.store("shared", (i + w) % 2 == 0 ? a : b);
    });
  }
  for (std::thread& writer : writers) writer.join();
  writing.store(false);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(torn.load(), 0u) << "a lookup returned a partial payload";
  EXPECT_EQ(store.stats().corrupt, 0u) << "a lookup caught a half-written entry";
  const auto last = store.lookup("shared");
  ASSERT_TRUE(last.has_value());
  EXPECT_TRUE(*last == a || *last == b);
  EXPECT_EQ(std::distance(fs::directory_iterator(dir_), fs::directory_iterator{}), 1)
      << "every writer's temp file was renamed away";
}

TEST_F(DurableStoreTest, ResultAndCheckpointStoresOnOneDirectoryKeepApart) {
  {
    DurableStore results(dir_.string(), kResultStore);
    DurableStore checkpoints(dir_.string(), kCheckpointStore);
    results.store("job", "result payload");
    checkpoints.store("job", "snapshot payload");
    EXPECT_EQ(results.lookup("job").value_or(""), "result payload");
    EXPECT_EQ(checkpoints.lookup("job").value_or(""), "snapshot payload");
  }
  // Reopening fscks each kind without touching the other's entries.
  DurableStore results(dir_.string(), kResultStore);
  DurableStore checkpoints(dir_.string(), kCheckpointStore);
  EXPECT_EQ(results.stats().fsck_removed, 0u);
  EXPECT_EQ(checkpoints.stats().fsck_removed, 0u);
  EXPECT_EQ(results.lookup("job").value_or(""), "result payload");
  EXPECT_EQ(checkpoints.lookup("job").value_or(""), "snapshot payload");

  // Even under the other kind's file name, the header refuses the entry.
  fs::rename(checkpoints.entry_path("job"), results.entry_path("job"));
  EXPECT_FALSE(results.lookup("job").has_value());
  EXPECT_EQ(results.stats().corrupt, 1u);
}

TEST_F(DurableStoreTest, OldFormatEntriesAreRemovedByFsck) {
  fs::create_directories(dir_);
  spit(dir_ / "0123456789abcdef0123456789abcdef.entry",
       "autosec-disk-cache-v1\nanalyze|key\n{\"result\": 1}\n");
  spit(dir_ / "0123456789abcdef.ckpt",
       "autosec-checkpoint-v1\nidentity 0123456789abcdef\npayload 0123456789abcdef\n"
       "{\"records\":{}}\n");
  DurableStore results(dir_.string(), kResultStore);
  EXPECT_EQ(results.stats().fsck_removed, 1u);
  DurableStore checkpoints(dir_.string(), kCheckpointStore);
  EXPECT_EQ(checkpoints.stats().fsck_removed, 1u);
  EXPECT_TRUE(fs::is_empty(dir_));
}

// ---- Corrupt payloads through the serve disk cache.

std::string check_line(const std::string& id) {
  return "{\"id\": \"" + id + "\", \"op\": \"check\", \"architecture\": \"" +
         std::string(AUTOSEC_SOURCE_DIR) +
         "/data/arch1.arch\", \"message\": \"m\", \"category\": \"confidentiality\", "
         "\"properties\": [\"R{\\\"exposure\\\"}=? [ C<=1 ]\"]}";
}

/// Answer one check on a fresh server, damage the stored entry's payload
/// with `damage`, and require the repeat to miss and recompute the same value.
void expect_damaged_payload_recomputes(const fs::path& dir,
                                       const std::function<void(std::string&)>& damage) {
  service::ServerOptions options;
  options.deterministic = true;
  options.disk_cache_dir = dir.string();
  service::Server server(options);
  const JsonValue cold = JsonValue::parse(server.handle_line(check_line("c1")));
  ASSERT_TRUE(cold.bool_or("ok", false)) << cold.dump();

  std::vector<fs::path> entries;
  for (const auto& item : fs::directory_iterator(dir)) entries.push_back(item.path());
  ASSERT_EQ(entries.size(), 1u);
  std::string text = slurp(entries[0]);
  std::string payload = text.substr(payload_offset(text));
  damage(payload);
  spit(entries[0], text.substr(0, payload_offset(text)) + payload);

  const JsonValue repeat = JsonValue::parse(server.handle_line(check_line("c2")));
  ASSERT_TRUE(repeat.bool_or("ok", false)) << repeat.dump();
  EXPECT_EQ(repeat.find("metrics")->string_or("disk_cache", ""), "miss");
  EXPECT_EQ(repeat.find("result")->dump(), cold.find("result")->dump());

  // The damaged entry was replaced by the recomputed one.
  const JsonValue warm = JsonValue::parse(server.handle_line(check_line("c3")));
  EXPECT_EQ(warm.find("metrics")->string_or("disk_cache", ""), "hit");
  EXPECT_EQ(warm.find("result")->dump(), cold.find("result")->dump());
}

TEST_F(DiskCacheTest, PayloadCutShortMissesAndTheNextRequestRecomputes) {
  expect_damaged_payload_recomputes(dir_, [](std::string& payload) {
    ASSERT_GT(payload.size(), 40u);
    payload.resize(40);
  });
}

TEST_F(DiskCacheTest, PayloadWithOneDigitChangedMissesAndTheNextRequestRecomputes) {
  expect_damaged_payload_recomputes(dir_, [](std::string& payload) {
    // The stored exposure value, 0.04667..., becomes 0.05667...
    const size_t at = payload.find("\"value\": 0.04");
    ASSERT_NE(at, std::string::npos) << payload;
    payload[at + std::string("\"value\": 0.0").size()] = '5';
  });
}

}  // namespace
}  // namespace autosec::util
