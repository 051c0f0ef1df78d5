// The staged analysis engine: one reusable session owning the
//   compile → explore → (uniformize | Mdp) → solve
// pipeline of the paper's Fig. 2, with every stage built lazily, cached, and
// keyed by the active constant-override set. The explored StateSpace holds
// the compiled model and, for a ctmc model, the one ctmc::Ctmc every later
// stage reads (chain() hands out that object, never a copy). The pipeline is
// model-type generic: a ctmc model flows through the uniformization stages,
// an mdp model (nondeterministic attacker) through the flattened per-action
// matrix and value iteration, behind the same check()/check_all() surface —
// directional operators (Pmax/Pmin/Rmax/Rmin) select the adversary's
// objective, and check_with_strategy() additionally exports the optimizing
// scheduler with an independent induced-chain cross-check. Re-checking another property —
// or the same property at another horizon — reuses every stage already
// built, and a property a stage set has already solved is answered from the
// values it keeps; switching constant overrides re-keys the pipeline but
// keeps earlier stage sets cached for when a sweep returns to a value. Stage
// sets whose models differ only in command rates share one explored graph
// (check_points() records it as the session's rate-only family; later
// builds refill it with their own rates instead of exploring).
//
// This is the one checker of the engine: every property is solved by a
// session. Callers that already hold an explored space adopt it
// (EngineSession(space, options)), csl::check_lumped checks the quotient of a
// lumping as such a space, and automotive::analyze_architecture_report
// batches all of an architecture's message properties through one session.
//
// Thread model: check_all() fans independent property solves across the
// process-wide pool (util::parallel_for) — its cumulative-reward properties
// as one task that shares a single transient pass — and check_points() fans
// one property's override points the same way, one task per claim; each
// solve then runs its numeric kernels serially (nested parallel regions
// degrade to serial loops), while single check() calls parallelize inside
// the kernels instead. Sessions on different threads open their own pool
// jobs and never wait for each other's. Results are deterministic either
// way.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "csl/engine_options.hpp"
#include "csl/property.hpp"
#include "csl/strategy_export.hpp"
#include "ctmc/ctmc.hpp"
#include "ctmc/restricted.hpp"
#include "ctmc/steady_state.hpp"
#include "ctmc/transient.hpp"
#include "mdp/value_iteration.hpp"
#include "symbolic/explorer.hpp"
#include "symbolic/model.hpp"

namespace autosec::csl {

/// Session-level view of the shared engine knobs (csl/engine_options.hpp):
/// the session consumes constant_overrides, explore, transient, steady_state
/// and cancel; nmax/horizon_years are inert at this layer.
using SessionOptions = EngineOptions;

/// One constant-override set: the argument of set_constant_overrides() and
/// one point of check_points().
using OverrideSet = std::vector<std::pair<std::string, symbolic::Value>>;

/// One point of check_points(): the property's value at that override set
/// and the size of the state space it was solved on.
struct PointValue {
  double value = 0.0;
  size_t state_count = 0;
};

/// What check_points() does with a stage set it built for a point: keep it
/// cached, so a long-lived session answers a repeated sweep without
/// exploring or solving (serve), or release it — and return its bytes to the
/// resource budget — once the point is solved, so a one-shot sweep holds at
/// most one stage set per pool lane (CLI sweep, criticality). Stage sets that
/// existed before the call are always kept.
enum class PointStages { kKeep, kRelease };

/// Cumulative per-stage counters and wall-clock timings — the session-local
/// view of the pipeline. The same stage events also land in the process-wide
/// util::metrics registry (spans "compile"/"explore"/"uniformize"/
/// "steady_state"/"solve", counters "session.*"), which aggregates across
/// every session of the process; this struct stays the per-session slice.
/// Counters make cache behaviour observable: a session that answered N
/// properties with explore_count == 1 provably reused its state space.
struct SessionStats {
  size_t compile_count = 0;
  /// Real explorations; a space refilled from the session's rate-only family
  /// counts in refill_count instead.
  size_t explore_count = 0;
  size_t refill_count = 0;
  size_t uniformize_count = 0;
  size_t steady_state_count = 0;
  size_t check_count = 0;
  /// Evaluations answered from the values a stage set had already solved.
  size_t value_hit_count = 0;
  /// Solver rungs taken beyond the first (Krylov → Gauss-Seidel → power)
  /// across every solve of the session — 0 when every solve converged on its
  /// first rung; surfaced per request by the serving layer.
  size_t solver_fallbacks = 0;
  /// State store of the last explore (always "compact", the one store);
  /// empty until the space is built. Surfaced per request by the serving
  /// layer and recorded in the metrics registry.
  std::string engine;
  double compile_seconds = 0.0;
  double explore_seconds = 0.0;  ///< explores and refills
  double solve_seconds = 0.0;  ///< property evaluation incl. uniformization
};

class EngineSession {
 public:
  /// Session over a symbolic model; nothing is built until first use.
  explicit EngineSession(symbolic::Model model, SessionOptions options = {});

  /// Session adopting an already-explored state space (callers that explored
  /// it themselves, and check_lumped's quotient). Compile/explore stages are
  /// pinned; constant overrides cannot be re-keyed.
  explicit EngineSession(std::shared_ptr<const symbolic::StateSpace> space,
                         SessionOptions options = {});

  EngineSession(const EngineSession&) = delete;
  EngineSession& operator=(const EngineSession&) = delete;

  /// Model type of the session's pipeline — the stage axis the compile/
  /// explore/solve stages dispatch on. Derived from the model's declared type
  /// (or the adopted space's) at construction, so it always matches reality;
  /// a caller-provided options.model_type that disagrees is corrected.
  symbolic::ModelType model_type() const { return options_.model_type; }

  // --- stage accessors (each builds and caches its stage on first use).
  const symbolic::StateSpace& space();
  std::shared_ptr<const symbolic::StateSpace> space_ptr();
  /// The explored space's chain (space().chain(), not a copy); throws
  /// PropertyError on an mdp session (no rate matrix).
  const ctmc::Ctmc& chain();
  /// Uniformization of the base chain at its default rate (modified chains —
  /// bounded reachability — uniformize per call).
  const ctmc::Uniformized& uniformized();
  /// Long-run distribution from the initial state; shared by every S=? /
  /// steady-reward property of the session.
  const ctmc::SteadyStateResult& steady();

  /// Re-key the pipeline to another constant-override set. Stages already
  /// built for earlier keys stay cached and are reused when the key returns.
  /// Throws PropertyError on a space-adopting session.
  void set_constant_overrides(OverrideSet overrides);

  /// Swap the cooperative cancellation token. Stage boundaries and solver
  /// sweeps poll the active token and unwind with util::Cancelled once it is
  /// cancelled or its deadline passes; a long-lived (cached) session arms a
  /// fresh token per request. Pass nullptr to disarm.
  void set_cancel_token(std::shared_ptr<util::CancelToken> token) {
    options_.cancel = std::move(token);
  }

  /// Swap the per-request resource budget (see EngineOptions::budget).
  /// Stages already cached were paid for by an earlier budget; only work the
  /// new request actually performs is charged. Pass nullptr to disarm.
  void set_resource_budget(std::shared_ptr<util::ResourceBudget> budget) {
    options_.budget = std::move(budget);
  }

  /// Swap the checkpoint ledger (see EngineOptions::checkpoint). Finished
  /// solves are recorded; solves the ledger already holds replay bit-exactly
  /// without touching the solver. Pass nullptr to disarm.
  void set_checkpoint(std::shared_ptr<CheckpointLedger> checkpoint) {
    options_.checkpoint = std::move(checkpoint);
  }

  // --- property evaluation.
  double check(const Property& property);
  double check(std::string_view property_text);
  bool satisfies(const Property& property);
  bool satisfies(std::string_view property_text);

  /// Batch evaluation: builds the stages once, then solves every property —
  /// in parallel across the pool (in batch order at one thread). Every
  /// non-directional R{..}=? [ C<=t ] of a ctmc whose chain moves joins one
  /// task, scheduled first, that walks the uniformized chain once for all of
  /// them (ctmc::expected_cumulative_rewards); its members still pass the
  /// evaluate() safepoint and checkpoint one at a time in batch order.
  /// Results are positionally aligned with `properties` and bit-identical to
  /// one check() per property.
  std::vector<double> check_all(std::span<const Property> properties);
  std::vector<double> check_all(const std::vector<std::string>& property_texts);

  /// Multi-point evaluation: one property at many constant-override sets —
  /// a parameter sweep (the paper's Fig. 6) or the finite differences of a
  /// criticality analysis. Each point finds or builds the stage set of its
  /// own override key in the session's cache (a key an earlier call already
  /// built explores nothing; see PointStages for what happens to new ones),
  /// and its checkpoint records are keyed by that override key. The first
  /// new point is built before the fan-out: its explore records the graph as
  /// the session's rate-only family (symbolic::explore_family), unless it is
  /// a rate variant of the family the session already has, and every later
  /// build whose model is a rate variant refills from it in O(nnz)
  /// (symbolic::refill). The points fan across the pool, each running its
  /// kernels serially, as check_all() does for properties (in point order at
  /// one thread). The active key is left unchanged, so space() and
  /// single-property calls still answer for it. Results are positionally
  /// aligned with `points` and bit-identical to re-keying with
  /// set_constant_overrides() and calling check() once per point. Throws
  /// PropertyError on a space-adopting session.
  std::vector<PointValue> check_points(const Property& property,
                                       std::span<const OverrideSet> points,
                                       PointStages keep = PointStages::kKeep);
  std::vector<PointValue> check_points(std::string_view property_text,
                                       std::span<const OverrideSet> points,
                                       PointStages keep = PointStages::kKeep);

  /// MDP only: evaluate a directional reachability property (Pmax/Pmin of an
  /// until/eventually) and export the optimizing scheduler. The returned
  /// strategy is already cross-checked: its induced Markov chain was built
  /// and solved independently of value iteration, and strategy.induced_value
  /// records that second answer.
  StrategyCheck check_with_strategy(const Property& property);
  StrategyCheck check_with_strategy(std::string_view property_text);

  /// Value of `strategy` (e.g. one parsed back from its JSON document) under
  /// `property`, computed on the chain the strategy induces. The round-trip
  /// validation path of --strategy-json.
  double induced_value(const Property& property, const StrategyExport& strategy);

  /// Version-1 JSON document of an exported strategy, rendered against this
  /// session's state space (action labels, state valuations, attack path).
  util::JsonValue strategy_document(const Property& property,
                                    const StrategyExport& strategy);

  /// States satisfying a state formula (labels resolved, then variables).
  std::vector<bool> satisfying(const symbolic::Expr& formula);

  /// Resolve a property's time bound against the model constants.
  double time_bound_value(const Property& property);

  /// The session's transient options with the active cancel token's poll
  /// hook and resource budget bound — what its own transient solves run
  /// with, for callers that drive ctmc kernels on the session's chain.
  ctmc::TransientOptions transient_options() const;

  const SessionStats& stats() const { return stats_; }
  const SessionOptions& options() const { return options_; }

 private:
  /// All artifacts derived from one constant-override key.
  struct Stages {
    std::string key;  ///< override_cache_key of the set the stages belong to
    /// The explored space: it holds the compiled model and, on the ctmc
    /// axis, the one copy of the chain every stage below reads.
    std::shared_ptr<const symbolic::StateSpace> space;
    /// False when the space's store belongs to a rate-only family (the space
    /// was refilled from it, or recorded it): releasing the set then leaves
    /// the store's bytes charged.
    bool owns_store = true;
    std::vector<double> initial;
    std::optional<ctmc::Uniformized> uniformized;
    std::optional<ctmc::SteadyStateResult> steady;
    /// Guards every lazily built member: two points (or properties) that
    /// need the same stage set build it once, the second one waiting.
    std::mutex lazy_mutex;
    /// Values solved on this set, by property source: evaluate() answers a
    /// property it holds without solving again.
    std::map<std::string, double> values;
    std::mutex values_mutex;
  };

  Stages& prepare();  ///< build compile/explore for the active key
  /// The cached stage set of `key`, created empty on first lookup (then
  /// `*created` is set, when given).
  std::shared_ptr<Stages> stages_for(const std::string& key, bool* created = nullptr);
  /// Drop `stages` from the cache and return the bytes it was charged to the
  /// resource budget (never a family's store); holders of a reference keep
  /// it alive.
  void release(Stages& stages);
  /// Build compile/explore of `stages` (from `overrides`, the set its key
  /// was derived from) unless already built: refilled from the session's
  /// rate-only family when the compiled model is a rate variant of it,
  /// explored otherwise — recording the explored graph as the session's
  /// family when `record`.
  void build(Stages& stages, const OverrideSet& overrides, bool record = false);

  symbolic::Expr resolve_formula(const Stages& stages,
                                 const symbolic::Expr& formula) const;
  std::vector<bool> satisfying_in(const Stages& stages,
                                  const symbolic::Expr& formula) const;
  double time_bound_in(const Stages& stages, const Property& property) const;

  double evaluate(Stages& stages, const Property& property);
  /// The safepoint, checkpoint and value-map wrapper every solve passes
  /// through: `solve` computes the value when neither the ledger nor the
  /// stage set's values hold it.
  double evaluate(Stages& stages, const Property& property,
                  const std::function<double()>& solve);
  /// The value the stage set holds for `property`, if it has solved it.
  std::optional<double> held_value(Stages& stages, const Property& property);
  /// The solve dispatch below the checkpoint safepoint: always computes.
  double evaluate_fresh(Stages& stages, const Property& property);
  /// check_all's cumulative-reward group: evaluates properties[i] for every
  /// i of `group` in order into results[i]. The first member neither the
  /// ledger nor the stage set's values hold solves itself and every later
  /// member the values do not hold in one shared pass.
  void evaluate_cumulative_group(Stages& stages, std::span<const Property> properties,
                                 std::span<const size_t> group,
                                 std::vector<double>& results);
  /// Ledger key of one solve: the stage set's own override key + explored
  /// stage identity + property text — everything that determines the value.
  std::string checkpoint_key(const Stages& stages, const Property& property) const;
  /// MDP dispatch: directional probability/reward properties over the
  /// flattened per-action matrix. `strategy_out`, when non-null, receives the
  /// optimizing scheduler (kProbUntil only).
  double evaluate_mdp(Stages& stages, const Property& property,
                      StrategyExport* strategy_out);
  /// The reachability query an mdp until/eventually property denotes: target
  /// mask, query MDP (forbidden states absorbed), optional step bound.
  struct MdpReachQuery;
  MdpReachQuery mdp_reach_query(Stages& stages, const Property& property);
  double mdp_until(Stages& stages, const Property& property, bool maximize,
                   StrategyExport* strategy_out);
  double mdp_reward(Stages& stages, const Property& property, bool maximize);
  /// Steps of an mdp time bound: bounds count discrete steps and must fold to
  /// a non-negative integer (within 1e-9).
  size_t mdp_steps(Stages& stages, const Property& property);
  mdp::ViOptions mdp_vi_options(bool interval) const;
  double check_until(Stages& stages, const Property& property);
  double check_globally(Stages& stages, const Property& property);
  double check_steady_prob(Stages& stages, const Property& property);
  double check_reward(Stages& stages, const Property& property);
  /// Solve a restricted system, adding its fallback rungs to the stats.
  std::vector<double> solve_restricted(const ctmc::RestrictedSystem& system,
                                       const std::vector<double>& b);

  const ctmc::Uniformized& uniformized_of(Stages& stages);
  const ctmc::SteadyStateResult& steady_of(Stages& stages);

  // Effective steady-state options with the active cancel token's poll hook
  // bound (a pass-through copy when no token is armed).
  ctmc::SteadyStateOptions steady_state_options() const;
  void check_cancel(const char* stage) const;

  std::optional<symbolic::Model> model_;  ///< absent for space-adopting sessions
  SessionOptions options_;
  std::string active_key_;
  // Stage sets, one per override key. Shared ownership keeps a set alive for
  // a check_points() point that is still solving on it while another point
  // releases it from the cache.
  std::vector<std::shared_ptr<Stages>> cache_;
  /// The rate-only family check_points() recorded last (null until then).
  std::shared_ptr<const symbolic::RateFamily> family_;
  std::mutex cache_mutex_;  ///< guards cache_ and family_ under check_points
  Stages* active_ = nullptr;
  SessionStats stats_;
  std::mutex stats_mutex_;  ///< counters under parallel check_all/check_points
};

/// Canonical cache key of an override set (order-insensitive).
std::string override_cache_key(const OverrideSet& overrides);

}  // namespace autosec::csl
