// Explicit state-space exploration: breadth-first enumeration of the
// reachable states of a CompiledModel, producing the ctmc::Ctmc (ctmc
// models: the rate matrix and its exit rates, the one copy every later stage
// reads) or the flattened per-action probability matrix (mdp models), plus
// evaluated label masks and reward vectors. This is the step PRISM performs
// when "building the model"; the paper's Section 4 reports its state counts
// (4·10^5 – 1.2·10^6) and notes that runtime tracks the state count.
//
// One BFS loop serves both model types: states are interned in the
// bit-packed StateStore (symbolic/state_store.hpp), and each expanded state's
// rows go straight into the CSR arrays. An optional on-the-fly symmetry
// reduction (symbolic/symmetry.hpp) collapses interchangeable ECU/stream
// modules during the BFS instead of after full materialization.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ctmc/ctmc.hpp"
#include "mdp/mdp.hpp"
#include "symbolic/model.hpp"
#include "symbolic/state_store.hpp"
#include "symbolic/symmetry.hpp"
#include "util/budget.hpp"

namespace autosec::symbolic {

/// On-the-fly symmetry reduction policy. explore() treats kAuto as off;
/// csl::apply_plan resolves it to kOn for ctmc models when the request names
/// the compact engine (the big-fleet path), so default exploration never
/// changes which states exist.
enum class SymmetryReduction { kAuto, kOff, kOn };

struct ExploreOptions {
  /// Abort exploration beyond this many states with a typed
  /// util::EngineFailure (code state_budget_exceeded) carrying the states
  /// explored, the unexpanded frontier size, and the last command fired.
  size_t max_states = 20'000'000;
  /// Drop transitions whose rate evaluates to exactly 0 (guard enabled but
  /// rate zero). Rates < 0 always throw.
  bool allow_zero_rates = true;
  /// Collapse verified-interchangeable modules during the BFS. Exact (an
  /// ordinary lumping) for every query whose state formula is invariant
  /// under the detected group; non-invariant queries on a reduced space
  /// fail with a typed error instead of answering wrong.
  SymmetryReduction reduction = SymmetryReduction::kAuto;
  /// Optional per-request resource budget. Its state ceiling tightens
  /// max_states (resolved_state_limit() computes the binding constraint
  /// once); its byte ceiling is charged incrementally as the state store and
  /// the CSR arrays grow.
  std::shared_ptr<util::ResourceBudget> budget;

  /// The one resolved state ceiling: the tighter of max_states and the
  /// budget's state ceiling, remembering which constraint binds so typed
  /// failures always name it.
  struct ResolvedStateLimit {
    size_t limit = 0;
    bool from_budget = false;
    const char* describe() const {
      return from_budget ? "the resource budget's state ceiling"
                         : "the max_states exploration option";
    }
  };
  ResolvedStateLimit resolved_state_limit() const {
    ResolvedStateLimit resolved{max_states, false};
    if (budget && budget->max_states() != 0 && budget->max_states() < max_states) {
      resolved = {budget->max_states(), true};
    }
    return resolved;
  }
};

/// The explored model: states, transitions, and evaluators bound to the
/// state enumeration. States live in the StateStore; when a symmetry
/// reduction was active, every stored state is the canonical representative
/// of its orbit and the transition matrix is the exact lumped quotient. A
/// ctmc space owns the one copy of its chain that every stage reads.
class StateSpace {
 public:
  StateSpace(std::shared_ptr<const CompiledModel> model,
             std::shared_ptr<const StateStore> store, size_t initial_state,
             ctmc::Ctmc chain, size_t transition_count, SymmetryGroup symmetry = {});
  /// MDP state space: holds the flattened per-action matrix instead of rates.
  StateSpace(std::shared_ptr<const CompiledModel> model,
             std::shared_ptr<const StateStore> store, size_t initial_state,
             std::shared_ptr<const mdp::Mdp> mdp, size_t transition_count);

  size_t state_count() const { return store_->size(); }
  size_t transition_count() const { return transition_count_; }
  size_t initial_state() const { return initial_state_; }

  /// Model type this space was explored from.
  ModelType type() const { return model_->type; }
  bool is_mdp() const { return mdp_ != nullptr; }

  /// Valuation of one state (unpacked from the store).
  std::vector<int32_t> state_values(size_t index) const;

  /// Human-readable "(x=1,y=0)" rendering of a state.
  std::string state_to_string(size_t index) const;

  /// The explored chain (off-diagonal rates and exit rates). Throws
  /// ModelError on an mdp space (there is no rate matrix to hand out).
  const ctmc::Ctmc& chain() const;
  const linalg::CsrMatrix& rates() const { return chain().rates(); }

  /// Flattened per-action MDP; throws ModelError on a ctmc space.
  const mdp::Mdp& mdp() const;
  std::shared_ptr<const mdp::Mdp> mdp_ptr() const { return mdp_; }

  /// Point distribution on the initial state.
  std::vector<double> initial_distribution() const;

  /// Evaluate an arbitrary resolved boolean expression on every state. On a
  /// symmetry-reduced space the expression must be invariant under the
  /// active group; throws ModelError otherwise (a representative-dependent
  /// answer would be silently wrong).
  std::vector<bool> satisfying(const Expr& condition) const;
  /// Mask of states satisfying the named label; throws ModelError if unknown.
  std::vector<bool> label_mask(const std::string& label_name) const;

  /// State-reward vector of the named rewards structure (sum of matching
  /// items per state); throws ModelError if unknown.
  std::vector<double> reward_vector(const std::string& rewards_name) const;

  const CompiledModel& model() const { return *model_; }
  std::shared_ptr<const CompiledModel> model_ptr() const { return model_; }

  /// Name of the state store, as metrics and serve envelopes report it. The
  /// bit-packed store is the only one, so this is always "compact".
  const char* engine_name() const { return "compact"; }
  /// Tracked bytes per interned state of the store.
  size_t bytes_per_state() const { return store_->bytes_per_state(); }
  /// The interned states; spaces refilled from one rate-only family share it.
  const std::shared_ptr<const StateStore>& store() const { return store_; }
  /// Budget bytes of the store: what exploration charged per interned state.
  size_t store_bytes() const { return state_count() * bytes_per_state(); }
  /// Budget bytes of everything else the space holds: the CSR arrays and the
  /// exit rates (ctmc), or the CSR arrays, row owners, action labels and
  /// state offsets (mdp). store_bytes() + array_bytes() is exactly what
  /// explore() charged.
  size_t array_bytes() const;
  /// True when an on-the-fly symmetry reduction collapsed this space.
  bool reduced() const { return !symmetry_.trivial(); }
  const SymmetryGroup& symmetry() const { return symmetry_; }

 private:
  std::shared_ptr<const CompiledModel> model_;  // owned (shared with callers)
  std::shared_ptr<const StateStore> store_;
  size_t initial_state_;
  ctmc::Ctmc chain_;                        // ctmc only
  std::shared_ptr<const mdp::Mdp> mdp_;     // mdp only
  size_t transition_count_;
  SymmetryGroup symmetry_;
};

/// Run the BFS exploration. The state space takes (shared) ownership of the
/// compiled model, so `explore(compile(model))` is safe. Throws ModelError on
/// updates that leave a variable's declared range, negative rates, or
/// state-count overflow.
StateSpace explore(CompiledModel model, const ExploreOptions& options = {});
StateSpace explore(std::shared_ptr<const CompiledModel> model,
                   const ExploreOptions& options = {});

// ---------------------------------------------------------------------------
// Rate-only families: one explored graph for every model that differs only in
// its command rates (a swept or perturbed rate constant). This is the linear,
// rate-only case of parametric model checking.

/// True when `a` and `b` are rate variants: both ctmc models with identical
/// variables (names, modules, ranges, initial values), commands (guards,
/// updates, actions, modules), labels and reward items, and every command
/// rate a positive, finite literal in both. Only the rate literals may
/// differ, so both explore to the same states, rows and columns.
bool rate_variants(const CompiledModel& a, const CompiledModel& b);

/// The explored graph of a rate-only family: its model's states (shared by
/// every space refilled from it), the chain's row structure, and for each CSR
/// entry e the commands whose rates the row merge summed into it, in
/// summation order: term_commands[term_offsets[e] .. term_offsets[e+1]).
struct RateFamily {
  std::shared_ptr<const CompiledModel> model;
  std::shared_ptr<const StateStore> store;
  size_t initial_state = 0;
  size_t transition_count = 0;
  std::vector<uint32_t> row_offsets;
  std::vector<uint32_t> columns;
  std::vector<uint32_t> term_offsets;
  std::vector<uint32_t> term_commands;

  /// Budget bytes the family holds: its store, row structure and terms.
  size_t bytes() const;
};

/// What explore_family() returns: the explored space and its family.
struct FamilyExplore {
  StateSpace space;
  /// Null when the model cannot head a family: an mdp model, a symmetry
  /// reduction, or a command rate that is not a positive, finite literal.
  std::shared_ptr<const RateFamily> family;
};

/// explore(), also recording the rate-only family of the explored space. The
/// space is bit-identical to explore()'s. The budget is charged for the
/// family's row structure and terms on top of what explore() charges, so the
/// total is space.array_bytes() + family->bytes().
FamilyExplore explore_family(std::shared_ptr<const CompiledModel> model,
                             const ExploreOptions& options = {});

/// The space of `model` on `family`'s graph: it shares the family's store,
/// copies its row structure and sums the model's own rate literals in the
/// recorded order — the same additions explore() performs, so the chain, its
/// exit rates and every answer are bit-identical to explore(model, options).
/// O(nnz); charges the budget for space.array_bytes(). Returns nullopt (the
/// caller explores instead, and so gets explore's own errors) when `model` is
/// not a rate variant of the family's model, when `options` ask for symmetry
/// reduction, or when their state ceiling is below the family's state count.
std::optional<StateSpace> refill(const RateFamily& family,
                                 std::shared_ptr<const CompiledModel> model,
                                 const ExploreOptions& options = {});

}  // namespace autosec::symbolic
