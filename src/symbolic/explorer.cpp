#include "symbolic/explorer.hpp"

#include <algorithm>
#include <cmath>
#include <new>

#include "util/failure.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"

namespace autosec::symbolic {

StateSpace::StateSpace(std::shared_ptr<const CompiledModel> model,
                       std::shared_ptr<const ModelProgram> program,
                       std::shared_ptr<const StateStore> store, size_t initial_state,
                       ctmc::Ctmc chain, size_t transition_count,
                       SymmetryGroup symmetry)
    : model_(std::move(model)),
      program_(std::move(program)),
      store_(std::move(store)),
      initial_state_(initial_state),
      chain_(std::move(chain)),
      transition_count_(transition_count),
      symmetry_(std::move(symmetry)) {}

StateSpace::StateSpace(std::shared_ptr<const CompiledModel> model,
                       std::shared_ptr<const ModelProgram> program,
                       std::shared_ptr<const StateStore> store, size_t initial_state,
                       std::shared_ptr<const mdp::Mdp> mdp, size_t transition_count)
    : model_(std::move(model)),
      program_(std::move(program)),
      store_(std::move(store)),
      initial_state_(initial_state),
      mdp_(std::move(mdp)),
      transition_count_(transition_count) {}

const ctmc::Ctmc& StateSpace::chain() const {
  if (is_mdp()) {
    throw ModelError(
        "this state space was explored from an mdp model; it has per-action "
        "probability rows, not a rate matrix");
  }
  return chain_;
}

const mdp::Mdp& StateSpace::mdp() const {
  if (!is_mdp()) {
    throw ModelError("this state space was explored from a ctmc model; "
                     "there is no per-action MDP to hand out");
  }
  return *mdp_;
}

namespace {

/// Budget bytes of a ctmc space's arrays: row offsets, columns and values of
/// the rate matrix, and one exit rate per state.
size_t ctmc_array_bytes(size_t states, size_t entries) {
  return states * sizeof(double) + (states + 1) * sizeof(uint32_t) +
         entries * (sizeof(uint32_t) + sizeof(double));
}

}  // namespace

size_t StateSpace::array_bytes() const {
  if (!is_mdp()) return ctmc_array_bytes(state_count(), chain_.rates().nonzeros());
  const linalg::CsrMatrix& rows = mdp_->transitions;
  return (rows.rows() + 1) * sizeof(uint32_t) +
         rows.nonzeros() * (sizeof(uint32_t) + sizeof(double)) +
         rows.rows() * (sizeof(uint32_t) + sizeof(std::string)) +
         state_count() * sizeof(uint32_t);
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

std::vector<bool> StateSpace::mask_of(const Program& program, uint32_t root) const {
  std::vector<bool> mask(state_count());
  Program::Frame frame(program);
  // A literal has one value in every state (and raises, if it is not a
  // bool, on the first as the tree would).
  const size_t evaluated = program.constant(root) ? 1 : mask.size();
  for (size_t i = 0; i < evaluated; ++i) {
    frame.begin(store_->packed(i));
    mask[i] = program.eval_bool(frame, root);
  }
  if (evaluated < mask.size()) mask.assign(mask.size(), mask[0]);
  return mask;
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
  // A property naming a label resolves to the label's own condition: the
  // model's program has it already.
  for (size_t l = 0; l < model_->labels.size(); ++l) {
    if (model_->labels[l].condition.node() == condition.node()) {
      return mask_of(program_->program, program_->labels[l]);
    }
  }
  return mask_of(Program({condition}, store_->layout()), 0);
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
  const std::vector<ModelProgram::RewardItem>& items =
      program_->rewards[static_cast<size_t>(rewards - model_->rewards.data())];
  const Program& program = program_->program;
  Program::Frame frame(program);
  std::vector<double> out(state_count(), 0.0);
  for (size_t i = 0; i < out.size(); ++i) {
    frame.begin(store_->packed(i));
    double acc = 0.0;
    for (const ModelProgram::RewardItem& item : items) {
      if (program.eval_bool(frame, item.guard)) {
        acc += program.eval_number(frame, item.value);
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
  /// `record`: also record the rate-only family (see explore_family).
  Explorer(const CompiledModel& model, const ExploreOptions& options,
           SymmetryGroup symmetry, bool record)
      : model_(model),
        options_(options),
        symmetry_(std::move(symmetry)),
        limit_(options.resolved_state_limit()),
        store_(std::make_shared<StateStore>(model)),
        layout_(store_->layout()),
        compiled_(std::make_shared<const ModelProgram>(model, layout_)),
        program_(compiled_->program),
        frame_(program_),
        current_(layout_.words()),
        successor_(layout_.words()),
        unpacked_(layout_.variable_count()) {
    if (record) {
      family_ = std::make_shared<RateFamily>();
      family_->term_offsets.push_back(0);
    }
  }

  void run() {
    std::vector<int32_t> initial = model_.initial_state();
    symmetry_.canonicalize(initial, scratch_);
    layout_.pack(initial, successor_.data());
    initial_ = intern(successor_.data());

    while (next_ < store_->size()) {
      if (util::fault::triggered("explore.alloc")) throw std::bad_alloc();
      charge(kChargeStep);
      const auto id = static_cast<uint32_t>(next_++);
      copy_state(store_->packed(id), current_.size(), current_.data());
      frame_.begin(current_.data());
      if (model_.type == ModelType::kMdp) {
        emit_mdp_rows(id);
      } else {
        emit_ctmc_row(id);
      }
    }
    charge(0);
  }

  FamilyExplore finish(std::shared_ptr<const CompiledModel> model) && {
    const size_t rows = offsets_.size() - 1;
    const size_t states = store_->size();
    if (family_) {
      // The family keeps its own copy of the row structure: the space's
      // arrays go when its stage set does, the family's graph stays.
      if (options_.budget) {
        options_.budget->charge_bytes(
            (offsets_.size() + columns_.size()) * sizeof(uint32_t), "explore");
      }
      family_->model = model;
      family_->store = store_;
      family_->initial_state = initial_;
      family_->transition_count = transitions_;
      family_->row_offsets = offsets_;
      family_->columns = columns_;
    }
    linalg::CsrMatrix matrix(rows, states, std::move(offsets_), std::move(columns_),
                             std::move(values_));
    if (model_.type != ModelType::kMdp) {
      AUTOSEC_LOG_INFO("explorer")
          << "explored " << states << " states, " << transitions_ << " transitions";
      if (family_) family_->program = compiled_;
      return {StateSpace(std::move(model), std::move(compiled_), std::move(store_),
                         initial_, ctmc::Ctmc(std::move(matrix)), transitions_,
                         std::move(symmetry_)),
              std::move(family_)};
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
    return {StateSpace(std::move(model), std::move(compiled_), std::move(store_),
                       initial_, std::move(flat), entries),
            nullptr};
  }

 private:
  static constexpr size_t kChargeStep = 64 * 1024;

  /// One successor of the row being emitted and the command that fired it:
  /// the 16 bytes of a linalg::Entry, with the command in its padding.
  struct RowEntry {
    uint32_t column;
    uint32_t command;
    double value;
  };

  /// CTMC: one rate row per state. Parallel commands into the same state
  /// (and, under reduction, into the same orbit) are summed by the row
  /// merge; transitions count firings before merging.
  void emit_ctmc_row(uint32_t id) {
    row_.clear();
    for (size_t c = 0; c < model_.commands.size(); ++c) {
      const CompiledCommand& command = model_.commands[c];
      const ModelProgram::Command& roots = compiled_->commands[c];
      if (!program_.eval_bool(frame_, roots.guard)) continue;
      last_module_ = &command.module;
      const double rate = program_.eval_number(frame_, roots.rate);
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
      update(command.module, roots.updates);
      // `current` is already canonical (every interned state is), so the
      // self-loop test compares canonical forms: transitions within one
      // orbit fold onto the quotient's diagonal, which a CTMC never observes.
      if (!symmetry_.trivial()) {
        layout_.unpack(successor_.data(), unpacked_);
        symmetry_.canonicalize(unpacked_, scratch_);
        layout_.pack(unpacked_, successor_.data());
      }
      if (same_state(successor_.data(), current_.data(), current_.size())) continue;
      row_.push_back({intern(successor_.data()), static_cast<uint32_t>(c), rate});
    }
    transitions_ += row_.size();
    merge_row();
    offsets_.push_back(static_cast<uint32_t>(columns_.size()));
  }

  /// Sort the row by column and sum the rates that share one, as
  /// linalg::CsrBuilder does: std::sort on the column alone makes the same
  /// comparisons whatever else an entry carries, so the same rates are added
  /// in the same order. A recording explore notes each entry's
  /// commands in that order.
  void merge_row() {
    std::sort(row_.begin(), row_.end(),
              [](const RowEntry& a, const RowEntry& b) { return a.column < b.column; });
    for (size_t first = 0; first < row_.size();) {
      double value = row_[first].value;
      size_t next = first + 1;
      for (; next < row_.size() && row_[next].column == row_[first].column; ++next) {
        value += row_[next].value;
      }
      push_entry(row_[first].column, value);
      if (family_) {
        for (size_t k = first; k < next; ++k) {
          family_->term_commands.push_back(row_[k].command);
        }
        family_->term_offsets.push_back(
            static_cast<uint32_t>(family_->term_commands.size()));
      }
      first = next;
    }
  }

  /// MDP: every enabled command becomes one row of the flattened
  /// (state, action) -> distribution matrix. Self-loops are kept: an action
  /// that stays put is a real choice for a nondeterministic attacker, unlike
  /// a CTMC rate onto the diagonal which no transient analysis can observe.
  void emit_mdp_rows(uint32_t id) {
    const size_t first_row = state_of_row_.size();
    state_offsets_.push_back(static_cast<uint32_t>(first_row));
    for (size_t c = 0; c < model_.commands.size(); ++c) {
      const CompiledCommand& command = model_.commands[c];
      const ModelProgram::Command& roots = compiled_->commands[c];
      if (!program_.eval_bool(frame_, roots.guard)) continue;
      last_module_ = &command.module;

      double total = 0.0;
      outcomes_.clear();
      for (const ModelProgram::Branch& branch : roots.branches) {
        const double probability = program_.eval_number(frame_, branch.probability);
        if (probability < 0.0 || !std::isfinite(probability)) {
          throw ModelError("explore: command in module '" + command.module +
                           "' has invalid branch probability " +
                           std::to_string(probability) + " in state " +
                           std::to_string(id));
        }
        if (probability == 0.0) continue;
        total += probability;
        update(command.module, branch.updates);
        outcomes_.emplace_back(intern(successor_.data()), probability);
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
      // in the ctmc row merge: it fixes the order duplicates are summed in.
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

  /// successor_ = current_ with the updates applied as field writes on its
  /// packed words, each value checked against its variable's declared range.
  /// Every right-hand side reads current_.
  void update(const std::string& module,
              const std::vector<ModelProgram::Update>& updates) {
    copy_state(current_.data(), current_.size(), successor_.data());
    for (const auto& [var_index, root] : updates) {
      int64_t raw = 0;
      const CompiledVariable& var = model_.variables[var_index];
      if (!program_.eval_int(frame_, root, raw)) {
        throw ModelError("explore: non-integer update for variable '" + var.name + "'");
      }
      if (raw < var.low || raw > var.high) {
        throw ModelError("explore: update drives variable '" + var.name + "' to " +
                         std::to_string(raw) + ", outside [" + std::to_string(var.low) +
                         ".." + std::to_string(var.high) + "] (module '" + module +
                         "')");
      }
      layout_.set(successor_.data(), var_index, static_cast<int32_t>(raw));
    }
  }

  /// Index of `state`, interning it (and so queueing it) when unseen. A
  /// fresh state beyond the resolved ceiling unwinds with a typed failure
  /// naming the binding constraint and carrying the partial progress.
  uint32_t intern(const uint64_t* packed) {
    bool inserted = false;
    const uint32_t id = store_->intern(packed, inserted);
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
  /// the CSR arrays, for ctmc the chain's per-state exit rate, for mdp the
  /// per-row owner and label and the per-state row offsets, and a recording
  /// explore's rate terms.
  void charge(size_t step) {
    if (!options_.budget) return;
    const size_t per_state = store_->bytes_per_state() +
                             (model_.type == ModelType::kMdp ? 0 : sizeof(double));
    const size_t terms =
        family_ ? family_->term_offsets.size() + family_->term_commands.size() : 0;
    const size_t held =
        store_->size() * per_state +
        offsets_.size() * sizeof(uint32_t) +
        columns_.size() * (sizeof(uint32_t) + sizeof(double)) +
        state_of_row_.size() * (sizeof(uint32_t) + sizeof(std::string)) +
        state_offsets_.size() * sizeof(uint32_t) + terms * sizeof(uint32_t);
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
  const StateLayout& layout_;
  std::shared_ptr<const ModelProgram> compiled_;
  const Program& program_;
  Program::Frame frame_;
  std::vector<uint64_t> current_;    ///< packed words of the state being expanded
  std::vector<uint64_t> successor_;  ///< packed words of the successor being built
  std::vector<int32_t> unpacked_;    ///< a successor unpacked for canonicalization
  size_t next_ = 0;  ///< next state to expand; [next_, size) is the frontier
  uint32_t initial_ = 0;
  const std::string* last_module_ = nullptr;  ///< module of the command firing now
  size_t charged_ = 0;

  std::shared_ptr<RateFamily> family_;  ///< recording explores only

  std::vector<RowEntry> row_;
  std::vector<std::pair<uint32_t, double>> outcomes_;

  std::vector<uint32_t> offsets_{0};
  std::vector<uint32_t> columns_;
  std::vector<double> values_;
  size_t transitions_ = 0;                  ///< ctmc firings before merging
  std::vector<uint32_t> state_of_row_;      ///< mdp only
  std::vector<uint32_t> state_offsets_;     ///< mdp only: first row of each state
  std::vector<std::string> action_labels_;  ///< mdp only
};

/// A family's rates must be positive, finite literals: then every enabled
/// command fires in every variant, and a row sums the same commands.
bool literal_rate(const CompiledCommand& command, double& rate) {
  Value value;
  if (!command.rate.as_literal(value) || !value.is_numeric()) return false;
  rate = value.as_number();
  return rate > 0.0 && std::isfinite(rate);
}

bool can_head_family(const CompiledModel& model, const ExploreOptions& options) {
  if (model.type != ModelType::kCtmc || options.reduction == SymmetryReduction::kOn) {
    return false;
  }
  double rate = 0.0;
  return std::all_of(model.commands.begin(), model.commands.end(),
                     [&](const CompiledCommand& command) {
                       return literal_rate(command, rate);
                     });
}

FamilyExplore run_explore(std::shared_ptr<const CompiledModel> model_ptr,
                          const ExploreOptions& options, bool record) {
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

  Explorer explorer(model, options, std::move(symmetry),
                    record && can_head_family(model, options));
  explorer.run();
  return std::move(explorer).finish(std::move(model_ptr));
}

}  // namespace

StateSpace explore(CompiledModel model, const ExploreOptions& options) {
  return explore(std::make_shared<const CompiledModel>(std::move(model)), options);
}

StateSpace explore(std::shared_ptr<const CompiledModel> model_ptr,
                   const ExploreOptions& options) {
  return run_explore(std::move(model_ptr), options, false).space;
}

FamilyExplore explore_family(std::shared_ptr<const CompiledModel> model,
                             const ExploreOptions& options) {
  return run_explore(std::move(model), options, true);
}

size_t RateFamily::bytes() const {
  return store->size() * store->bytes_per_state() +
         (row_offsets.size() + columns.size() + term_offsets.size() +
          term_commands.size()) *
             sizeof(uint32_t);
}

bool rate_variants(const CompiledModel& a, const CompiledModel& b) {
  if (a.type != ModelType::kCtmc || b.type != ModelType::kCtmc ||
      a.variables.size() != b.variables.size() ||
      a.commands.size() != b.commands.size() || a.labels.size() != b.labels.size() ||
      a.rewards.size() != b.rewards.size()) {
    return false;
  }
  for (size_t v = 0; v < a.variables.size(); ++v) {
    const CompiledVariable& x = a.variables[v];
    const CompiledVariable& y = b.variables[v];
    if (x.name != y.name || x.module != y.module || x.low != y.low ||
        x.high != y.high || x.init != y.init) {
      return false;
    }
  }
  for (size_t c = 0; c < a.commands.size(); ++c) {
    const CompiledCommand& x = a.commands[c];
    const CompiledCommand& y = b.commands[c];
    double rate = 0.0;
    if (!literal_rate(x, rate) || !literal_rate(y, rate) || !x.guard.same_as(y.guard) ||
        x.action != y.action || x.module != y.module ||
        x.assignments.size() != y.assignments.size()) {
      return false;
    }
    for (size_t k = 0; k < x.assignments.size(); ++k) {
      if (x.assignments[k].first != y.assignments[k].first ||
          !x.assignments[k].second.same_as(y.assignments[k].second)) {
        return false;
      }
    }
  }
  for (size_t l = 0; l < a.labels.size(); ++l) {
    if (a.labels[l].name != b.labels[l].name ||
        !a.labels[l].condition.same_as(b.labels[l].condition)) {
      return false;
    }
  }
  for (size_t r = 0; r < a.rewards.size(); ++r) {
    const CompiledRewardStruct& x = a.rewards[r];
    const CompiledRewardStruct& y = b.rewards[r];
    if (x.name != y.name || x.items.size() != y.items.size()) return false;
    for (size_t k = 0; k < x.items.size(); ++k) {
      if (!x.items[k].guard.same_as(y.items[k].guard) ||
          !x.items[k].value.same_as(y.items[k].value)) {
        return false;
      }
    }
  }
  return true;
}

std::optional<StateSpace> refill(const RateFamily& family,
                                 std::shared_ptr<const CompiledModel> model,
                                 const ExploreOptions& options) {
  const size_t states = family.store->size();
  if (options.reduction == SymmetryReduction::kOn ||
      options.resolved_state_limit().limit < states ||
      !rate_variants(*family.model, *model)) {
    return std::nullopt;
  }
  std::vector<double> rates(model->commands.size());
  for (size_t c = 0; c < rates.size(); ++c) literal_rate(model->commands[c], rates[c]);

  const size_t entries = family.columns.size();
  if (options.budget) {
    options.budget->charge_bytes(ctmc_array_bytes(states, entries), "explore");
  }
  std::vector<double> values(entries);
  for (size_t e = 0; e < entries; ++e) {
    uint32_t term = family.term_offsets[e];
    double value = rates[family.term_commands[term]];
    for (++term; term < family.term_offsets[e + 1]; ++term) {
      value += rates[family.term_commands[term]];
    }
    values[e] = value;
  }
  linalg::CsrMatrix matrix(states, states, family.row_offsets, family.columns,
                           std::move(values));
  return StateSpace(std::move(model), family.program, family.store, family.initial_state,
                    ctmc::Ctmc(std::move(matrix)), family.transition_count);
}

}  // namespace autosec::symbolic
