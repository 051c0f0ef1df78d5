#include "util/durable_store.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/json.hpp"
#include "util/strings.hpp"

namespace autosec::util {

namespace fs = std::filesystem;

namespace {

/// Writers of one process tell their temp files apart by this sequence; the
/// process id tells processes apart.
std::atomic<uint64_t> temp_sequence{0};

int64_t file_size_or_zero(const fs::path& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<int64_t>(size);
}

/// The whole file in one read (every serve request probes the store, so
/// this is the hot path); nullopt when it cannot be opened or read in full.
std::optional<std::string> read_whole(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  std::optional<std::string> text;
  struct stat info;
  if (::fstat(fd, &info) == 0) {
    text.emplace(static_cast<size_t>(info.st_size), '\0');
    if (::read(fd, text->data(), text->size()) != static_cast<ssize_t>(text->size())) {
      text.reset();
    }
  }
  ::close(fd);
  return text;
}

std::string payload_line(std::string_view payload) {
  return "payload " + hex64(fnv1a64(payload)) + " " + std::to_string(payload.size());
}

struct Entry {
  std::string_view identity_line;
  std::string_view payload;
};

/// The identity line and payload of an entry file, or nullopt unless the
/// header is `header` and the payload matches its recorded digest and length.
std::optional<Entry> parse_entry(std::string_view text, std::string_view header) {
  const size_t header_end = text.find('\n');
  if (header_end == std::string_view::npos || text.substr(0, header_end) != header) {
    return std::nullopt;
  }
  const size_t identity_end = text.find('\n', header_end + 1);
  if (identity_end == std::string_view::npos) return std::nullopt;
  const size_t digest_end = text.find('\n', identity_end + 1);
  if (digest_end == std::string_view::npos) return std::nullopt;
  Entry entry;
  entry.identity_line = text.substr(header_end + 1, identity_end - header_end - 1);
  entry.payload = text.substr(digest_end + 1);
  if (text.substr(identity_end + 1, digest_end - identity_end - 1) !=
      payload_line(entry.payload)) {
    return std::nullopt;
  }
  return entry;
}

}  // namespace

DurableStore::DurableStore(std::string dir, StoreKind kind, size_t max_bytes)
    : dir_(std::move(dir)),
      suffix_(kind.suffix),
      header_("autosec-store-v1 " + std::string(kind.name)),
      max_bytes_(max_bytes) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec || !fs::is_directory(dir_)) {
    throw std::runtime_error(std::string(kind.name) +
                             " store: cannot create directory '" + dir_ + "'" +
                             (ec ? ": " + ec.message() : ""));
  }
  fsck();
  enforce_quota();
}

std::string DurableStore::entry_path(std::string_view identity) const {
  // Two independent hashes: 128 bits of name, so an accidental filename
  // collision needs simultaneous collisions in both. The identity line inside
  // the file closes the loophole entirely.
  std::string salted(identity);
  salted += "\x1e" "autosec-store-salt";
  return dir_ + "/" + hex64(fnv1a64(identity)) + hex64(fnv1a64(salted)) + suffix_;
}

void DurableStore::fsck() {
  std::lock_guard<std::mutex> lock(evict_mutex_);
  const std::string temp_marker = suffix_ + ".";
  int64_t live_bytes = 0;
  std::error_code ec;
  for (const auto& item : fs::directory_iterator(dir_, ec)) {
    if (!item.is_regular_file()) continue;
    const std::string name = item.path().filename().string();
    bool valid = false;
    if (name.ends_with(".tmp")) {
      // A crash mid-store: the rename never happened, the temp is garbage.
      if (name.find(temp_marker) == std::string::npos) continue;  // another kind's
    } else if (!name.ends_with(suffix_)) {
      continue;  // another kind's entry or a foreign file: leave it alone
    } else if (const std::optional<std::string> text = read_whole(item.path().string())) {
      // fsck does not know which identity an entry should hold; lookup
      // checks that on every read.
      valid = parse_entry(*text, header_).has_value();
    }
    if (valid) {
      live_bytes += file_size_or_zero(item.path());
      continue;
    }
    std::error_code remove_ec;
    fs::remove(item.path(), remove_ec);
    fsck_removed_.fetch_add(1, std::memory_order_relaxed);
  }
  size_bytes_.store(live_bytes, std::memory_order_relaxed);
}

void DurableStore::add_size(int64_t delta) {
  const int64_t now = size_bytes_.fetch_add(delta, std::memory_order_relaxed) + delta;
  if (now < 0) size_bytes_.store(0, std::memory_order_relaxed);
}

std::optional<std::string> DurableStore::lookup(std::string_view identity) {
  const std::string path = entry_path(identity);
  const std::optional<std::string> text = read_whole(path);
  if (!text) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  const std::optional<Entry> entry = parse_entry(*text, header_);
  if (!entry || entry->identity_line != json_quote(identity)) {
    // Torn or tampered payload, another kind's file, or a (vanishingly
    // unlikely) hash collision: drop the entry and answer cold.
    std::error_code ec;
    if (fs::remove(path, ec)) add_size(-static_cast<int64_t>(text->size()));
    corrupt_.fetch_add(1, std::memory_order_relaxed);
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return std::string(entry->payload);
}

bool DurableStore::store(std::string_view identity, std::string_view payload) {
  const std::string path = entry_path(identity);
  const std::string temp = path + "." + std::to_string(::getpid()) + "-" +
                           std::to_string(temp_sequence.fetch_add(1)) + ".tmp";
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out << header_ << "\n"
        << json_quote(identity) << "\n"
        << payload_line(payload) << "\n"
        << payload;
    out.flush();
    if (!out) {
      std::error_code ec;
      fs::remove(temp, ec);
      return false;
    }
  }
  const int64_t replaced = file_size_or_zero(path);  // 0 if fresh entry
  std::error_code ec;
  fs::rename(temp, path, ec);
  if (ec) {
    fs::remove(temp, ec);
    return false;
  }
  add_size(file_size_or_zero(path) - replaced);
  stores_.fetch_add(1, std::memory_order_relaxed);
  enforce_quota();
  return true;
}

void DurableStore::set_quota(size_t max_bytes) {
  max_bytes_.store(max_bytes, std::memory_order_relaxed);
  enforce_quota();
}

void DurableStore::enforce_quota() {
  const size_t quota = max_bytes_.load(std::memory_order_relaxed);
  if (quota == 0) return;
  if (size_bytes_.load(std::memory_order_relaxed) <= static_cast<int64_t>(quota)) return;
  std::lock_guard<std::mutex> lock(evict_mutex_);
  // Re-check under the lock: a concurrent sweep may already have trimmed.
  if (size_bytes_.load(std::memory_order_relaxed) <= static_cast<int64_t>(quota)) return;
  struct Candidate {
    fs::file_time_type mtime;
    std::string path;
    int64_t size = 0;
  };
  std::vector<Candidate> candidates;
  std::error_code ec;
  for (const auto& item : fs::directory_iterator(dir_, ec)) {
    if (!item.is_regular_file()) continue;
    if (!item.path().filename().string().ends_with(suffix_)) continue;
    std::error_code time_ec;
    const auto mtime = fs::last_write_time(item.path(), time_ec);
    if (time_ec) continue;
    candidates.push_back({mtime, item.path().string(), file_size_or_zero(item.path())});
  }
  // Oldest first; ties broken by path so eviction order is deterministic.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.mtime != b.mtime) return a.mtime < b.mtime;
              return a.path < b.path;
            });
  for (const auto& victim : candidates) {
    if (size_bytes_.load(std::memory_order_relaxed) <= static_cast<int64_t>(quota)) break;
    std::error_code remove_ec;
    if (fs::remove(victim.path, remove_ec)) {
      add_size(-victim.size);
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

DurableStore::Stats DurableStore::stats() const {
  Stats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.stores = stores_.load(std::memory_order_relaxed);
  stats.corrupt = corrupt_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.fsck_removed = fsck_removed_.load(std::memory_order_relaxed);
  const int64_t size = size_bytes_.load(std::memory_order_relaxed);
  stats.size_bytes = size < 0 ? 0 : static_cast<size_t>(size);
  stats.quota_bytes = max_bytes_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace autosec::util
