// Crash-durable progress for the solve stage: a CheckpointLedger records
// every property value the engine finishes, keyed by the full solve identity
// (constant-override key, explored state/transition counts, property text),
// and persists the records as one snapshot per job in a util::DurableStore
// of the checkpoint kind. A restarted CLI run — or a respawned serve worker
// handed the same request — loads the snapshot and replays recorded values
// bit-exactly (doubles travel as the hex of their IEEE-754 bit pattern, never
// through decimal), while everything not yet recorded is recomputed by the
// deterministic engine. The resumed result is therefore bit-identical to an
// uninterrupted run, and an interruption costs at most the work since the
// last persist.
//
// Scope: the ledger checkpoints at the evaluate() safepoint — the same
// boundary where util::ResourceBudget charges and util::fault polls
// "solve.cancel". Stages below it (exploration frontier, solver iterates)
// are deliberately not serialized: they rebuild deterministically in
// explore/uniformize time, which the DAC'15 workload amortizes across the
// dozens of properties of one batch. The ledger turns an N-property batch
// interrupted at property k into a resume that recomputes stages plus the
// N-k missing solves, not all N.
//
// The snapshot is the store entry of the job identity (service/identity.hpp)
// and its payload is single-line JSON, {"records":{<key>:<hex bits>,...}}.
// The store owns the file: atomic writes, the exact identity check, the
// payload digest, and unlinking anything that fails validation — so a
// corrupt snapshot degrades to recomputation, never to a wrong answer.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "util/durable_store.hpp"

namespace autosec::csl {

struct CheckpointOptions {
  /// Where snapshots live: a store of kind util::kCheckpointStore, shared so
  /// one opened directory serves every ledger of a process.
  std::shared_ptr<util::DurableStore> store;
  /// Full job identity: everything that determines the batch's results
  /// (service::JobIdentity::job). Names the job's snapshot in the store.
  std::string identity;
  /// Minimum milliseconds between persists; 0 persists after every record
  /// (the strongest durability, what the resume tests use). flush() and the
  /// destructor persist regardless.
  uint64_t interval_ms = 0;
};

class CheckpointLedger {
 public:
  explicit CheckpointLedger(CheckpointOptions options);
  /// Best-effort final persist of dirty records.
  ~CheckpointLedger();

  CheckpointLedger(const CheckpointLedger&) = delete;
  CheckpointLedger& operator=(const CheckpointLedger&) = delete;

  /// Load the job's snapshot if the store has a valid one. Returns the
  /// number of records recovered.
  size_t load();

  /// Recorded value for `key`, bit-exact. True on a hit.
  bool lookup(const std::string& key, double* value) const;

  /// Record a finished solve and persist when the interval allows. Thread-
  /// safe (check_all records from the parallel fan-out).
  void record(const std::string& key, double value);

  /// Persist now if anything is dirty.
  void flush();

  size_t size() const;
  /// Snapshot writes so far — the unit of checkpoint overhead the Fig. 5
  /// bench gate accounts (persists x per-persist cost / wall).
  uint64_t persists() const;
  /// Lookups answered from a loaded snapshot — how tests prove a resumed run
  /// actually replayed instead of recomputing.
  uint64_t resumed_hits() const;

 private:
  void persist_locked();

  CheckpointOptions options_;
  mutable std::mutex mutex_;
  std::map<std::string, uint64_t> records_;  ///< key -> double bit pattern
  bool dirty_ = false;
  uint64_t persists_ = 0;
  mutable uint64_t resumed_hits_ = 0;
  /// Steady-clock ms at the last persist (0 = never), for interval gating.
  uint64_t last_persist_ms_ = 0;
};

}  // namespace autosec::csl
