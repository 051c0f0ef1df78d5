// The one durable store under every persistence layer: the serve result
// cache (--disk-cache) and the checkpoint snapshots (--checkpoint) are both
// a DurableStore, a directory holding one file per identity.
//
// Entry file, named by two independent FNV-1a hashes of the identity plus
// the kind's suffix:
//
//   line 1: "autosec-store-v1 <kind>"            header naming the store kind
//   line 2: <identity as a JSON string literal>  compared exactly on read
//   line 3: "payload <hex64 digest> <bytes>"     FNV-1a digest and length of
//                                                everything after this line
//   rest:   <payload>                            opaque bytes, newlines allowed
//
// A write goes to a temp file unique to its writer (process id and a
// sequence number) and rename()s into place, so a crash mid-store leaves the
// old entry or none, and two writers of one identity never share a
// half-written file. An entry that fails validation — another kind's header,
// another identity, a payload whose length or digest does not match — is
// unlinked and answered as a miss: corruption degrades to a cold entry, never
// to a wrong answer.
//
// Opening a store creates its directory and fscks it: this kind's stray temp
// files and invalid entries are unlinked, files of other kinds and foreign
// files are left alone, and the surviving entries seed the size accounting.
// With a nonzero quota, each store that pushes the entries over it evicts
// whole entries oldest-first (by mtime) until they fit.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

namespace autosec::util {

/// What a store holds. The name goes into every entry header and the suffix
/// marks its files, so stores of different kinds can share a directory
/// without answering each other's entries.
struct StoreKind {
  std::string_view name;
  std::string_view suffix;
};
inline constexpr StoreKind kResultStore{"result-cache", ".entry"};
inline constexpr StoreKind kCheckpointStore{"checkpoint", ".ckpt"};

class DurableStore {
 public:
  /// Opens (creating if needed) the directory and fscks it. Throws
  /// std::runtime_error when the directory cannot be created. `max_bytes`
  /// of 0 means no size quota.
  DurableStore(std::string dir, StoreKind kind, size_t max_bytes = 0);

  DurableStore(const DurableStore&) = delete;
  DurableStore& operator=(const DurableStore&) = delete;

  /// The payload stored under `identity`, or nullopt on a miss (an entry
  /// that fails validation is unlinked first). Thread-safe.
  std::optional<std::string> lookup(std::string_view identity);

  /// Persist `payload` under `identity`, atomically replacing any previous
  /// entry. Best effort: a failed write returns false and leaves the
  /// identity cold; it does not throw. With a quota set, evicts the oldest
  /// entries afterwards until the store fits. Thread-safe.
  bool store(std::string_view identity, std::string_view payload);

  /// Hot config reload: change the size quota (0 = unbounded). Shrinking
  /// evicts oldest-first immediately.
  void set_quota(size_t max_bytes);

  /// The file that holds `identity`'s entry.
  std::string entry_path(std::string_view identity) const;

  struct Stats {
    size_t hits = 0;
    size_t misses = 0;
    size_t stores = 0;
    size_t corrupt = 0;       ///< entries discarded by validation on lookup
    size_t evictions = 0;     ///< entries removed by the size quota
    size_t fsck_removed = 0;  ///< stray temps and invalid entries at open
    size_t size_bytes = 0;    ///< bytes currently held by valid entries
    size_t quota_bytes = 0;   ///< active quota (0 = unbounded)
  };
  Stats stats() const;

 private:
  void fsck();
  /// Evict oldest-first until size_bytes_ <= quota (no-op when quota is 0).
  void enforce_quota();
  void add_size(int64_t delta);

  std::string dir_;
  std::string suffix_;
  std::string header_;
  std::atomic<size_t> max_bytes_{0};
  std::atomic<int64_t> size_bytes_{0};
  std::mutex evict_mutex_;  ///< one eviction/fsck sweep at a time
  std::atomic<size_t> hits_{0};
  std::atomic<size_t> misses_{0};
  std::atomic<size_t> stores_{0};
  std::atomic<size_t> corrupt_{0};
  std::atomic<size_t> evictions_{0};
  std::atomic<size_t> fsck_removed_{0};
};

}  // namespace autosec::util
