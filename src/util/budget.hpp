// Per-request resource governance. A ResourceBudget extends the CancelToken
// safepoint pattern (util/cancel.hpp) from "stop when told" to "stop when a
// ceiling is hit": engine stages call note_states / charge_bytes at their
// natural safepoints — between exploration chunks, after building a
// uniformized matrix, before a large solve — and unwind with a typed
// EngineFailure (state_budget_exceeded / memory_budget_exceeded) the moment a
// ceiling is exceeded, carrying the partial progress made so far.
//
// Byte accounting is approximate by design: stages charge the dominant
// allocations (state table, CSR matrices), not every byte, so the ceiling
// bounds the engine's working set to within a small constant factor.
// Counters are relaxed atomics — safe to charge from the parallel solver
// fan-out.
#pragma once

#include <atomic>
#include <cstddef>

#include "util/failure.hpp"

namespace autosec::util {

class ResourceBudget {
 public:
  /// Ceilings of 0 mean "unlimited" for that dimension.
  explicit ResourceBudget(size_t max_states = 0, size_t max_bytes = 0)
      : max_states_(max_states), max_bytes_(max_bytes) {}

  size_t max_states() const { return max_states_.load(std::memory_order_relaxed); }
  size_t max_bytes() const { return max_bytes_.load(std::memory_order_relaxed); }

  /// Swap the ceilings of a live budget — how a hot config reload retunes a
  /// long-lived admission gate without dropping the bytes already reserved.
  /// Work admitted under the old ceilings keeps its reservations; the new
  /// ceilings apply to every charge from now on.
  void set_ceilings(size_t max_states, size_t max_bytes) {
    max_states_.store(max_states, std::memory_order_relaxed);
    max_bytes_.store(max_bytes, std::memory_order_relaxed);
  }

  /// True when a state-count ceiling is armed and `count` exceeds it. The
  /// explorer composes its own EngineFailure (with frontier size and last
  /// command) instead of calling a throwing helper.
  bool states_exceeded(size_t count) const {
    const size_t ceiling = max_states();
    return ceiling != 0 && count > ceiling;
  }

  /// Record `bytes` of engine allocations attributed to `stage`; throws
  /// EngineFailure(kMemoryBudgetExceeded) once the running total passes the
  /// byte ceiling. The failed charge is still recorded so diagnostics show
  /// the total that tripped the ceiling.
  void charge_bytes(size_t bytes, const char* stage) {
    const size_t total =
        charged_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    // Peak under concurrent charges: a stale max just loses one update; the
    // loop converges because totals only grow.
    size_t peak = peak_.load(std::memory_order_relaxed);
    while (total > peak &&
           !peak_.compare_exchange_weak(peak, total, std::memory_order_relaxed)) {
    }
    const size_t ceiling = max_bytes();
    if (ceiling != 0 && total > ceiling) {
      FailureProgress progress;
      progress.limit = ceiling;
      progress.charged_bytes = total;
      throw EngineFailure(
          FailureCode::kMemoryBudgetExceeded, stage,
          std::string(stage) + ": engine memory budget exceeded (" +
              std::to_string(total) + " bytes charged, ceiling " +
              std::to_string(ceiling) + ")",
          progress);
    }
  }

  /// Admission-control variant of charge_bytes: reserve `bytes` against the
  /// ceiling without throwing. On success the bytes stay charged (pair with
  /// release_bytes when the admitted work completes); when the reservation
  /// would cross the ceiling it is rolled back and false is returned, so the
  /// caller can shed the work instead of unwinding mid-flight.
  bool try_charge_bytes(size_t bytes) {
    const size_t total =
        charged_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    const size_t ceiling = max_bytes();
    if (ceiling != 0 && total > ceiling) {
      charged_.fetch_sub(bytes, std::memory_order_relaxed);
      return false;
    }
    size_t peak = peak_.load(std::memory_order_relaxed);
    while (total > peak &&
           !peak_.compare_exchange_weak(peak, total, std::memory_order_relaxed)) {
    }
    return true;
  }

  /// Return bytes to the budget when a stage frees a tracked allocation.
  void release_bytes(size_t bytes) {
    charged_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  size_t charged_bytes() const { return charged_.load(std::memory_order_relaxed); }
  size_t peak_bytes() const { return peak_.load(std::memory_order_relaxed); }

 private:
  // Atomic so a hot config reload can retune ceilings while requests charge.
  std::atomic<size_t> max_states_;
  std::atomic<size_t> max_bytes_;
  std::atomic<size_t> charged_{0};
  std::atomic<size_t> peak_{0};
};

}  // namespace autosec::util
