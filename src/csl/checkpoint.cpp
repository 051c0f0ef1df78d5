#include "csl/checkpoint.hpp"

#include <bit>
#include <chrono>
#include <optional>
#include <utility>

#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/strings.hpp"

namespace autosec::csl {

namespace {

uint64_t steady_ms() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

}  // namespace

CheckpointLedger::CheckpointLedger(CheckpointOptions options)
    : options_(std::move(options)) {}

CheckpointLedger::~CheckpointLedger() {
  try {
    flush();
  } catch (...) {
    // Destructor persistence is best-effort; the next run recomputes.
  }
}

size_t CheckpointLedger::load() {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::optional<std::string> payload = options_.store->lookup(options_.identity);
  if (!payload) return 0;
  try {
    const util::JsonValue doc = util::JsonValue::parse(*payload);
    const util::JsonValue* records = doc.find("records");
    if (records == nullptr || !records->is_object()) throw util::JsonError("no records", 0);
    std::map<std::string, uint64_t> loaded;
    for (const auto& [key, bits] : records->members()) {
      if (!bits.is_string() || bits.as_string().size() != 16) {
        throw util::JsonError("bad record bits", 0);
      }
      loaded.emplace(key, std::stoull(bits.as_string(), nullptr, 16));
    }
    records_ = std::move(loaded);
    dirty_ = false;
    util::metrics::registry().add("checkpoint.loads");
    return records_.size();
  } catch (const std::exception&) {
    // The store vouched for the bytes, but they are no snapshot: resume cold
    // (recomputation, never a wrong answer); the next persist replaces them.
    util::metrics::registry().add("checkpoint.corrupt");
    return 0;
  }
}

bool CheckpointLedger::lookup(const std::string& key, double* value) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = records_.find(key);
  if (it == records_.end()) return false;
  if (value != nullptr) *value = std::bit_cast<double>(it->second);
  ++resumed_hits_;
  return true;
}

void CheckpointLedger::record(const std::string& key, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  const uint64_t bits = std::bit_cast<uint64_t>(value);
  const auto [it, inserted] = records_.emplace(key, bits);
  if (!inserted && it->second == bits) return;  // nothing new to persist
  it->second = bits;
  dirty_ = true;
  const uint64_t now = steady_ms();
  if (options_.interval_ms == 0 || last_persist_ms_ == 0 ||
      now - last_persist_ms_ >= options_.interval_ms) {
    persist_locked();
  }
}

void CheckpointLedger::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (dirty_) persist_locked();
}

void CheckpointLedger::persist_locked() {
  util::JsonWriter writer(0);
  writer.begin_object();
  writer.key("records");
  writer.begin_object();
  for (const auto& [key, bits] : records_) {
    writer.key(key).value(util::hex64(bits));
  }
  writer.end_object();
  writer.end_object();
  // A failed write stays dirty and retries on the next record or flush.
  if (!options_.store->store(options_.identity, writer.str())) return;
  dirty_ = false;
  ++persists_;
  last_persist_ms_ = steady_ms();
  util::metrics::registry().add("checkpoint.persists");
}

size_t CheckpointLedger::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

uint64_t CheckpointLedger::persists() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return persists_;
}

uint64_t CheckpointLedger::resumed_hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return resumed_hits_;
}

}  // namespace autosec::csl
