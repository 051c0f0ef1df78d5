#include "service/session_cache.hpp"

#include <algorithm>
#include <utility>

namespace autosec::service {

std::shared_ptr<SessionCache::Entry> SessionCache::acquire(
    const std::string& key,
    const std::function<automotive::BatchSession()>& build, bool* hit) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->first == key) {
        entries_.splice(entries_.begin(), entries_, it);  // bump to front
        hits_ += 1;
        entries_.front().second->hits += 1;
        if (hit) *hit = true;
        return entries_.front().second;
      }
    }
    misses_ += 1;
  }

  // Build outside the lock: a model transform can be expensive and must not
  // stall requests hitting other entries.
  auto entry = std::make_shared<Entry>();
  entry->batch = build();

  std::lock_guard<std::mutex> lock(mutex_);
  // A concurrent miss may have inserted the key meanwhile; reuse that entry
  // (first insert wins) so both requests end up on one session.
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->first == key) {
      entries_.splice(entries_.begin(), entries_, it);
      if (hit) *hit = true;
      return entries_.front().second;
    }
  }
  entries_.emplace_front(key, entry);
  while (entries_.size() > capacity_) {
    entries_.pop_back();
    evictions_ += 1;
  }
  if (hit) *hit = false;
  return entry;
}

void SessionCache::set_capacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = capacity == 0 ? 1 : capacity;
  while (entries_.size() > capacity_) {
    entries_.pop_back();
    evictions_ += 1;
  }
}

void SessionCache::evict(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->first == key) {
      entries_.erase(it);
      evictions_ += 1;
      return;
    }
  }
}

SessionCache::Stats SessionCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats stats;
  stats.entries = entries_.size();
  stats.capacity = capacity_;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.evictions = evictions_;
  return stats;
}

}  // namespace autosec::service
