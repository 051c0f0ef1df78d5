#include "symbolic/explorer.hpp"

#include <algorithm>
#include <cmath>
#include <new>

#include "util/failure.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"

namespace autosec::symbolic {

StateSpace::StateSpace(std::shared_ptr<const CompiledModel> model,
                       std::shared_ptr<const StateStore> store, size_t initial_state,
                       linalg::CsrMatrix rates, size_t transition_count,
                       SymmetryGroup symmetry)
    : model_(std::move(model)),
      store_(std::move(store)),
      initial_state_(initial_state),
      rates_(std::move(rates)),
      transition_count_(transition_count),
      symmetry_(std::move(symmetry)) {}

StateSpace::StateSpace(std::shared_ptr<const CompiledModel> model,
                       std::shared_ptr<const StateStore> store, size_t initial_state,
                       std::shared_ptr<const mdp::Mdp> mdp, size_t transition_count)
    : model_(std::move(model)),
      store_(std::move(store)),
      initial_state_(initial_state),
      mdp_(std::move(mdp)),
      transition_count_(transition_count) {}

const linalg::CsrMatrix& StateSpace::rates() const {
  if (is_mdp()) {
    throw ModelError(
        "this state space was explored from an mdp model; it has per-action "
        "probability rows, not a rate matrix");
  }
  return rates_;
}

ctmc::Ctmc StateSpace::to_ctmc() const { return ctmc::Ctmc(rates()); }

const mdp::Mdp& StateSpace::mdp() const {
  if (!is_mdp()) {
    throw ModelError("this state space was explored from a ctmc model; "
                     "there is no per-action MDP to hand out");
  }
  return *mdp_;
}

std::vector<int32_t> StateSpace::state_values(size_t index) const {
  std::vector<int32_t> out;
  store_->values_of(index, out);
  return out;
}

std::string StateSpace::state_to_string(size_t index) const {
  const std::vector<int32_t> state = state_values(index);
  std::string out = "(";
  for (size_t v = 0; v < state.size(); ++v) {
    if (v > 0) out += ",";
    out += model_->variables[v].name + "=" + std::to_string(state[v]);
  }
  out += ")";
  return out;
}

std::vector<double> StateSpace::initial_distribution() const {
  std::vector<double> dist(state_count(), 0.0);
  dist[initial_state_] = 1.0;
  return dist;
}

std::vector<bool> StateSpace::satisfying(const Expr& condition) const {
  if (reduced() && !symmetry_.invariant(condition)) {
    throw ModelError(
        "state formula '" + condition.to_string() +
        "' is not invariant under the symmetry reduction that built this "
        "state space; its value would depend on which orbit representative "
        "was stored. Re-run without the reduction (CLI: --reduction off; "
        "serve: leave out \"engine\": \"compact\"), or phrase the property "
        "symmetrically (e.g. over all interchangeable modules instead of "
        "one).");
  }
  std::vector<bool> mask(state_count());
  std::vector<int32_t> values;
  for (size_t i = 0; i < mask.size(); ++i) {
    store_->values_of(i, values);
    mask[i] = condition.evaluate_bool(values);
  }
  return mask;
}

std::vector<bool> StateSpace::label_mask(const std::string& label_name) const {
  const CompiledLabel* label = model_->find_label(label_name);
  if (label == nullptr) throw ModelError("unknown label '" + label_name + "'");
  return satisfying(label->condition);
}

std::vector<double> StateSpace::reward_vector(const std::string& rewards_name) const {
  const CompiledRewardStruct* rewards = model_->find_rewards(rewards_name);
  if (rewards == nullptr) {
    throw ModelError("unknown rewards structure '" + rewards_name + "'");
  }
  // No invariance gate here: symmetry detection verifies that every
  // automorphism maps each reward structure's item multiset onto itself, so
  // the per-state reward sum is constant on orbits by construction.
  std::vector<double> out(state_count(), 0.0);
  std::vector<int32_t> values;
  for (size_t i = 0; i < out.size(); ++i) {
    store_->values_of(i, values);
    double acc = 0.0;
    for (const RewardItem& item : rewards->items) {
      if (item.guard.evaluate_bool(values)) {
        acc += item.value.evaluate_number(values);
      }
    }
    out[i] = acc;
  }
  return out;
}

namespace {

/// One breadth-first exploration, shared by every model type. States are
/// numbered in intern order and the frontier is the index range
/// [next_, store size): a FIFO queue over dense ids pops states in exactly
/// that order. A popped state's rows are therefore complete when the loop
/// moves past it, and the row emitter of the model type (emit_ctmc_row /
/// emit_mdp_rows) appends them straight onto the CSR arrays.
class Explorer {
 public:
  Explorer(const CompiledModel& model, const ExploreOptions& options,
           SymmetryGroup symmetry)
      : model_(model),
        options_(options),
        symmetry_(std::move(symmetry)),
        limit_(options.resolved_state_limit()),
        store_(std::make_shared<StateStore>(model)) {}

  void run() {
    std::vector<int32_t> initial = model_.initial_state();
    symmetry_.canonicalize(initial, scratch_);
    initial_ = intern(initial);

    std::vector<int32_t> current;
    while (next_ < store_->size()) {
      if (util::fault::triggered("explore.alloc")) throw std::bad_alloc();
      charge(kChargeStep);
      const auto id = static_cast<uint32_t>(next_++);
      store_->values_of(id, current);
      if (model_.type == ModelType::kMdp) {
        emit_mdp_rows(id, current);
      } else {
        emit_ctmc_row(id, current);
      }
    }
    charge(0);
  }

  StateSpace finish(std::shared_ptr<const CompiledModel> model) && {
    const size_t rows = offsets_.size() - 1;
    const size_t states = store_->size();
    linalg::CsrMatrix matrix(rows, states, std::move(offsets_), std::move(columns_),
                             std::move(values_));
    if (model_.type != ModelType::kMdp) {
      AUTOSEC_LOG_INFO("explorer")
          << "explored " << states << " states, " << transitions_ << " transitions";
      return StateSpace(std::move(model), std::move(store_), initial_,
                        std::move(matrix), transitions_, std::move(symmetry_));
    }
    auto flat = std::make_shared<mdp::Mdp>();
    flat->transitions = std::move(matrix);
    flat->state_of_row = std::move(state_of_row_);
    flat->state_offsets = std::move(state_offsets_);
    flat->state_offsets.push_back(static_cast<uint32_t>(rows));
    flat->action_labels = std::move(action_labels_);
    flat->validate();
    const size_t entries = flat->transitions.nonzeros();
    AUTOSEC_LOG_INFO("explorer") << "explored " << states << " states, " << rows
                                 << " actions, " << entries << " transitions";
    return StateSpace(std::move(model), std::move(store_), initial_, std::move(flat),
                      entries);
  }

 private:
  static constexpr size_t kChargeStep = 64 * 1024;

  /// CTMC: one rate row per state. Parallel commands into the same state
  /// (and, under reduction, into the same orbit) are summed by the shared
  /// row merge; transitions count firings before merging.
  void emit_ctmc_row(uint32_t id, const std::vector<int32_t>& current) {
    row_.clear();
    for (const CompiledCommand& command : model_.commands) {
      if (!command.guard.evaluate_bool(current)) continue;
      last_module_ = &command.module;
      const double rate = command.rate.evaluate_number(current);
      if (rate < 0.0 || !std::isfinite(rate)) {
        throw ModelError("explore: command in module '" + command.module +
                         "' has invalid rate " + std::to_string(rate) + " in state " +
                         std::to_string(id));
      }
      if (rate == 0.0) {
        if (options_.allow_zero_rates) continue;
        throw ModelError("explore: zero rate with enabled guard in module '" +
                         command.module + "'");
      }
      update(command.module, command.assignments, current);
      // `current` is already canonical (every interned state is), so the
      // self-loop test compares canonical forms: transitions within one
      // orbit fold onto the quotient's diagonal, which a CTMC never observes.
      symmetry_.canonicalize(successor_, scratch_);
      if (successor_ == current) continue;
      row_.push_back({intern(successor_), rate});
    }
    transitions_ += row_.size();
    linalg::sort_and_merge_row(row_);
    for (const linalg::Entry& entry : row_) push_entry(entry.column, entry.value);
    offsets_.push_back(static_cast<uint32_t>(columns_.size()));
  }

  /// MDP: every enabled command becomes one row of the flattened
  /// (state, action) -> distribution matrix. Self-loops are kept: an action
  /// that stays put is a real choice for a nondeterministic attacker, unlike
  /// a CTMC rate onto the diagonal which no transient analysis can observe.
  void emit_mdp_rows(uint32_t id, const std::vector<int32_t>& current) {
    const size_t first_row = state_of_row_.size();
    state_offsets_.push_back(static_cast<uint32_t>(first_row));
    for (size_t c = 0; c < model_.commands.size(); ++c) {
      const CompiledCommand& command = model_.commands[c];
      if (!command.guard.evaluate_bool(current)) continue;
      last_module_ = &command.module;

      double total = 0.0;
      outcomes_.clear();
      for (const CompiledBranch& branch : command.branches) {
        const double probability = branch.probability.evaluate_number(current);
        if (probability < 0.0 || !std::isfinite(probability)) {
          throw ModelError("explore: command in module '" + command.module +
                           "' has invalid branch probability " +
                           std::to_string(probability) + " in state " +
                           std::to_string(id));
        }
        if (probability == 0.0) continue;
        total += probability;
        update(command.module, branch.assignments, current);
        outcomes_.emplace_back(intern(successor_), probability);
      }
      if (outcomes_.empty()) {
        throw ModelError("explore: command in module '" + command.module +
                         "' has all-zero branch probabilities in state " +
                         std::to_string(id));
      }
      if (std::abs(total - 1.0) > 1e-9) {
        throw ModelError("explore: branch probabilities of a command in module '" +
                         command.module + "' sum to " + std::to_string(total) +
                         " (expected 1) in state " + std::to_string(id));
      }
      // Merge duplicate successors and divide the float residue of `total`
      // back out, so every committed row is stochastic to machine precision.
      // The sort key is (successor, probability), not the successor alone as
      // in sort_and_merge_row: it fixes the order duplicates are summed in.
      std::sort(outcomes_.begin(), outcomes_.end());
      for (size_t i = 0; i < outcomes_.size();) {
        size_t j = i;
        double probability = 0.0;
        while (j < outcomes_.size() && outcomes_[j].first == outcomes_[i].first) {
          probability += outcomes_[j].second;
          ++j;
        }
        push_entry(outcomes_[i].first, probability / total);
        i = j;
      }
      end_action(id, command.action.empty() ? command.module + "#" + std::to_string(c)
                                            : command.action);
    }
    if (state_of_row_.size() == first_row) {
      // Deadlock state: implicit self-loop so every state has >= 1 action.
      push_entry(id, 1.0);
      end_action(id, "(self-loop)");
    }
  }

  void push_entry(uint32_t column, double value) {
    columns_.push_back(column);
    values_.push_back(value);
  }

  void end_action(uint32_t id, std::string label) {
    offsets_.push_back(static_cast<uint32_t>(columns_.size()));
    state_of_row_.push_back(id);
    action_labels_.push_back(std::move(label));
  }

  /// successor_ = current with the assignments applied, each checked against
  /// its variable's declared range.
  void update(const std::string& module,
              const std::vector<std::pair<uint32_t, Expr>>& assignments,
              const std::vector<int32_t>& current) {
    successor_ = current;
    for (const auto& [var_index, value_expr] : assignments) {
      const Value value = value_expr.evaluate(current);
      const CompiledVariable& var = model_.variables[var_index];
      if (!value.is_int()) {
        throw ModelError("explore: non-integer update for variable '" + var.name + "'");
      }
      const int64_t raw = value.as_int();
      if (raw < var.low || raw > var.high) {
        throw ModelError("explore: update drives variable '" + var.name + "' to " +
                         std::to_string(raw) + ", outside [" + std::to_string(var.low) +
                         ".." + std::to_string(var.high) + "] (module '" + module +
                         "')");
      }
      successor_[var_index] = static_cast<int32_t>(raw);
    }
  }

  /// Index of `state`, interning it (and so queueing it) when unseen. A
  /// fresh state beyond the resolved ceiling unwinds with a typed failure
  /// naming the binding constraint and carrying the partial progress.
  uint32_t intern(std::span<const int32_t> state) {
    bool inserted = false;
    const uint32_t id = store_->intern(state, inserted);
    if (inserted && store_->size() > limit_.limit) {
      util::FailureProgress progress;
      progress.states_explored = store_->size() - 1;
      progress.frontier_size = store_->size() - 1 - next_;
      progress.limit = limit_.limit;
      if (last_module_ != nullptr) progress.last_command = *last_module_;
      throw util::EngineFailure(
          util::FailureCode::kStateBudgetExceeded, "explore",
          "explore: state count exceeds the configured maximum (" +
              std::to_string(limit_.limit) + ", set by " + limit_.describe() + ")",
          progress);
    }
    return id;
  }

  /// Charge the budget for what exploration holds once it has grown by at
  /// least `step` bytes since the last charge: the store's per-state bytes,
  /// the CSR arrays, and for mdp the per-row owner and label and the
  /// per-state row offsets.
  void charge(size_t step) {
    if (!options_.budget) return;
    const size_t held =
        store_->size() * store_->bytes_per_state() +
        offsets_.size() * sizeof(uint32_t) +
        columns_.size() * (sizeof(uint32_t) + sizeof(double)) +
        state_of_row_.size() * (sizeof(uint32_t) + sizeof(std::string)) +
        state_offsets_.size() * sizeof(uint32_t);
    if (held - charged_ < step) return;
    options_.budget->charge_bytes(held - charged_, "explore");
    charged_ = held;
  }

  const CompiledModel& model_;
  const ExploreOptions& options_;
  SymmetryGroup symmetry_;
  CanonScratch scratch_;
  const ExploreOptions::ResolvedStateLimit limit_;
  std::shared_ptr<StateStore> store_;
  size_t next_ = 0;  ///< next state to expand; [next_, size) is the frontier
  uint32_t initial_ = 0;
  const std::string* last_module_ = nullptr;  ///< module of the command firing now
  size_t charged_ = 0;

  std::vector<int32_t> successor_;
  std::vector<linalg::Entry> row_;
  std::vector<std::pair<uint32_t, double>> outcomes_;

  std::vector<uint32_t> offsets_{0};
  std::vector<uint32_t> columns_;
  std::vector<double> values_;
  size_t transitions_ = 0;                  ///< ctmc firings before merging
  std::vector<uint32_t> state_of_row_;      ///< mdp only
  std::vector<uint32_t> state_offsets_;     ///< mdp only: first row of each state
  std::vector<std::string> action_labels_;  ///< mdp only
};

}  // namespace

StateSpace explore(CompiledModel model, const ExploreOptions& options) {
  return explore(std::make_shared<const CompiledModel>(std::move(model)), options);
}

StateSpace explore(std::shared_ptr<const CompiledModel> model_ptr,
                   const ExploreOptions& options) {
  const CompiledModel& model = *model_ptr;
  if (model.variables.empty()) throw ModelError("explore: model has no variables");

  SymmetryGroup symmetry;
  if (options.reduction == SymmetryReduction::kOn) {
    // Symmetry reduction folds orbit-internal transitions onto the diagonal,
    // which is exact for a CTMC but erases real choices of an MDP attacker.
    if (model.type == ModelType::kMdp) {
      throw ModelError(
          "symmetry reduction is not supported for mdp models; re-run with "
          "reduction off (reduction auto never reduces an mdp model, "
          "whatever the engine)");
    }
    symmetry = detect_symmetries(model);
    if (!symmetry.trivial()) {
      AUTOSEC_LOG_INFO("explorer")
          << "symmetry reduction active: " << symmetry.interchangeable_modules()
          << " interchangeable modules in " << symmetry.orbits().size()
          << " orbit(s)";
    }
  }

  Explorer explorer(model, options, std::move(symmetry));
  explorer.run();
  return std::move(explorer).finish(std::move(model_ptr));
}

}  // namespace autosec::symbolic
