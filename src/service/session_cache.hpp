// Bounded LRU cache of engine sessions for `autosec serve`. Entries are
// keyed by the session key of service/identity.hpp (architecture content
// digest, the model and plan options, the message/category grid), so a
// repeated request for the same architecture and knobs reuses the session's
// cached compile/explore/uniformize/steady stages instead of rebuilding them.
//
// Thread model: the cache map is guarded by its own mutex; each entry
// carries a per-entry mutex that the server locks for the duration of a
// request, because csl::EngineSession::prepare() is not itself thread-safe.
// Requests hitting DIFFERENT entries run fully concurrently; requests on the
// same entry serialize (and the second one then hits every cached stage).
// Eviction drops the cache's reference only — a request still holding the
// shared_ptr finishes safely on the evicted entry.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <functional>

#include "automotive/analyzer.hpp"

namespace autosec::service {

class SessionCache {
 public:
  struct Entry {
    std::mutex mutex;  ///< serializes requests on this entry's session
    automotive::BatchSession batch;  ///< analyze/sweep grid or single pair
    uint64_t hits = 0;
  };

  struct Stats {
    size_t entries = 0;
    size_t capacity = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };

  explicit SessionCache(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Look up `key`, building a fresh entry via `build` on a miss (the build
  /// runs outside the cache lock; concurrent misses on the same key may both
  /// build, and the first to insert wins). `*hit` reports whether the
  /// returned entry existed before the call.
  std::shared_ptr<Entry> acquire(
      const std::string& key,
      const std::function<automotive::BatchSession()>& build, bool* hit);

  /// Drop `key` from the cache if present. Used after an engine-side failure
  /// (oom, solver_diverged, ...) so a poisoned session is rebuilt from
  /// scratch on the next request instead of being served from cache. Only
  /// the cache's reference is dropped — a request still holding the
  /// shared_ptr finishes safely.
  void evict(const std::string& key);

  /// Hot config reload: resize the cache. Shrinking trims least-recently-used
  /// entries immediately (requests holding the shared_ptr finish safely);
  /// growing just raises the ceiling. Capacity 0 is clamped to 1.
  void set_capacity(size_t capacity);

  Stats stats() const;

 private:
  mutable std::mutex mutex_;
  size_t capacity_;
  /// Front = most recently used. A list keeps LRU reordering O(1)-ish at the
  /// handful-of-entries scale a serve cache runs at.
  std::list<std::pair<std::string, std::shared_ptr<Entry>>> entries_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace autosec::service
