#include "symbolic/state_store.hpp"

#include <cstring>

namespace autosec::symbolic {

std::string_view engine_token(ExplorationEngine engine) {
  switch (engine) {
    case ExplorationEngine::kAuto: return "auto";
    case ExplorationEngine::kClassic: return "classic";
    case ExplorationEngine::kCompact: return "compact";
  }
  return "auto";
}

std::optional<ExplorationEngine> parse_engine_token(std::string_view text) {
  if (text == "auto") return ExplorationEngine::kAuto;
  if (text == "classic") return ExplorationEngine::kClassic;
  if (text == "compact") return ExplorationEngine::kCompact;
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// StateLayout

StateLayout::StateLayout(const std::vector<CompiledVariable>& variables) {
  fields_.reserve(variables.size());
  size_t bit = 0;
  for (const CompiledVariable& var : variables) {
    const auto range =
        static_cast<uint64_t>(var.high) - static_cast<uint64_t>(var.low);
    uint32_t bits = 1;
    while (bits < 64 && (range >> bits) != 0) ++bits;
    fields_.push_back({static_cast<uint32_t>(bit / 64),
                       static_cast<uint32_t>(bit % 64), bits, var.low});
    bit += bits;
  }
  bits_ = bit;
  words_ = bits_ == 0 ? 1 : (bits_ + 63) / 64;
}

void StateLayout::pack(std::span<const int32_t> values, uint64_t* out) const {
  for (size_t w = 0; w < words_; ++w) out[w] = 0;
  for (size_t v = 0; v < fields_.size(); ++v) {
    const Field& field = fields_[v];
    const uint64_t offset = static_cast<uint32_t>(values[v]) -
                            static_cast<uint32_t>(field.low);
    out[field.word] |= offset << field.shift;
    if (field.shift + field.bits > 64) {
      out[field.word + 1] |= offset >> (64 - field.shift);
    }
  }
}

void StateLayout::unpack(const uint64_t* packed, std::span<int32_t> values) const {
  for (size_t v = 0; v < fields_.size(); ++v) {
    const Field& field = fields_[v];
    uint64_t offset = packed[field.word] >> field.shift;
    if (field.shift + field.bits > 64) {
      offset |= packed[field.word + 1] << (64 - field.shift);
    }
    if (field.bits < 64) offset &= (uint64_t{1} << field.bits) - 1;
    values[v] = static_cast<int32_t>(static_cast<uint32_t>(offset) +
                                     static_cast<uint32_t>(field.low));
  }
}

// ---------------------------------------------------------------------------
// StateStore

namespace {

uint64_t hash_words(const uint64_t* words, size_t count) {
  // splitmix64-style mixing per word: cheap and well distributed over the
  // low-entropy packed values.
  uint64_t hash = 0x9e3779b97f4a7c15ull;
  for (size_t i = 0; i < count; ++i) {
    uint64_t x = words[i] + 0x9e3779b97f4a7c15ull + hash;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    hash = x ^ (x >> 31);
  }
  return hash;
}

}  // namespace

StateStore::StateStore(const CompiledModel& model, size_t table_capacity)
    : layout_(model.variables), words_(layout_.words()) {
  size_t capacity = 16;
  while (capacity < table_capacity) capacity *= 2;
  table_.assign(capacity, kEmpty);
  scratch_.resize(words_);
}

uint32_t StateStore::intern(std::span<const int32_t> values, bool& inserted) {
  layout_.pack(values, scratch_.data());
  const uint64_t hash = hash_words(scratch_.data(), words_);
  size_t slot = static_cast<size_t>(hash) & (table_.size() - 1);
  while (table_[slot] != kEmpty) {
    const uint32_t id = table_[slot];
    if (std::memcmp(row(id), scratch_.data(), words_ * sizeof(uint64_t)) == 0) {
      inserted = false;
      return id;
    }
    slot = (slot + 1) & (table_.size() - 1);
  }
  inserted = true;
  const auto id = static_cast<uint32_t>(size_);
  uint64_t* cell = allocate_row();
  std::memcpy(cell, scratch_.data(), words_ * sizeof(uint64_t));
  table_[slot] = id;
  ++size_;
  maybe_grow();
  return id;
}

void StateStore::values_of(size_t index, std::vector<int32_t>& out) const {
  out.resize(layout_.variable_count());
  layout_.unpack(row(static_cast<uint32_t>(index)), out);
}

uint64_t* StateStore::allocate_row() {
  if (size_ / kChunkStates == chunks_.size()) {
    chunks_.push_back(std::make_unique<uint64_t[]>(kChunkStates * words_));
  }
  return chunks_[size_ / kChunkStates].get() + (size_ % kChunkStates) * words_;
}

void StateStore::maybe_grow() {
  if (size_ * 10 < table_.size() * 7) return;
  std::vector<uint32_t> grown(table_.size() * 2, kEmpty);
  for (uint32_t id = 0; id < size_; ++id) {
    size_t slot = static_cast<size_t>(hash_words(row(id), words_)) &
                  (grown.size() - 1);
    while (grown[slot] != kEmpty) slot = (slot + 1) & (grown.size() - 1);
    grown[slot] = id;
  }
  table_ = std::move(grown);
}

}  // namespace autosec::symbolic
