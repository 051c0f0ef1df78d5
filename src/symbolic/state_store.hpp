// State storage for the explorer: every variable bit-packed into its
// declared range width, the packed words interned in an arena-backed
// hash-consing table (open addressing, hash + deep word compare — the KLEE
// ExprAllocUnique idiom). No per-state heap allocation; a state costs
// ceil(bits/64) words plus one table slot.
//
// ExplorationEngine is the request-level token of the retired store choice.
// It stays parseable for one release (CLI --engine, serve "engine"):
// auto and classic are the same request, and compact only turns symmetry
// reduction on for ctmc models under reduction auto (csl::apply_plan).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "symbolic/model.hpp"

namespace autosec::symbolic {

/// The engine a request names. Exploration always uses the one StateStore;
/// kCompact additionally resolves reduction auto to on for ctmc models.
enum class ExplorationEngine { kAuto, kClassic, kCompact };

/// Wire/CLI token of an engine choice ("auto" | "classic" | "compact").
std::string_view engine_token(ExplorationEngine engine);
/// Parse an engine token; nullopt for anything unknown.
std::optional<ExplorationEngine> parse_engine_token(std::string_view text);

/// Bit-packing layout of a model's state vector: each variable occupies
/// ceil(log2(high-low+1)) bits (minimum 1) of a little-endian bit stream;
/// fields may straddle 64-bit word boundaries.
class StateLayout {
 public:
  explicit StateLayout(const std::vector<CompiledVariable>& variables);

  size_t variable_count() const { return fields_.size(); }
  size_t bits() const { return bits_; }
  /// Packed words per state (at least 1).
  size_t words() const { return words_; }
  size_t bytes() const { return words_ * sizeof(uint64_t); }

  /// Pack a full valuation; `out` must hold words() words (overwritten).
  void pack(std::span<const int32_t> values, uint64_t* out) const;
  /// Unpack into `values` (must hold variable_count() entries).
  void unpack(const uint64_t* packed, std::span<int32_t> values) const;

 private:
  struct Field {
    uint32_t word;   ///< index of the first word the field touches
    uint32_t shift;  ///< bit offset within that word
    uint32_t bits;   ///< field width (1..33)
    int32_t low;     ///< declared lower bound (packed value is offset by it)
  };
  std::vector<Field> fields_;
  size_t bits_ = 0;
  size_t words_ = 1;
};

/// Interning store of explored states. Indices are dense and assigned in
/// insertion order, which is what lets the explorer number states (and
/// matrix rows) in BFS order. Interning a seen state allocates nothing;
/// interning a fresh one bumps the arena cursor (amortized one chunk
/// allocation per 4096 states).
class StateStore {
 public:
  /// `table_capacity` is the initial open-addressing table size (rounded up
  /// to a power of two); the default is right for normal exploration, tests
  /// shrink it to force collision chains and rehash growth.
  explicit StateStore(const CompiledModel& model, size_t table_capacity = 1 << 10);

  /// Return the index of `values`, inserting it when unseen; `inserted`
  /// reports which happened. Values must respect the declared ranges.
  uint32_t intern(std::span<const int32_t> values, bool& inserted);

  /// Copy the valuation of state `index` into `out` (resized as needed).
  void values_of(size_t index, std::vector<int32_t>& out) const;

  size_t size() const { return size_; }

  /// Amortized tracked bytes per interned state — what the explorer charges
  /// against the resource budget: the packed words plus the open-addressing
  /// slot (4 bytes at the <=70% load factor the growth policy keeps).
  size_t bytes_per_state() const { return layout_.bytes() + 8; }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;
  static constexpr size_t kChunkStates = 4096;

  const uint64_t* row(uint32_t id) const {
    return chunks_[id / kChunkStates].get() + (id % kChunkStates) * words_;
  }
  uint64_t* allocate_row();
  void maybe_grow();

  StateLayout layout_;
  size_t words_;
  size_t size_ = 0;
  std::vector<std::unique_ptr<uint64_t[]>> chunks_;
  std::vector<uint32_t> table_;
  std::vector<uint64_t> scratch_;
};

}  // namespace autosec::symbolic
