#include "csl/session.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>

#include <thread>

#include "csl/checkpoint.hpp"
#include "csl/property_parser.hpp"
#include "ctmc/rewards.hpp"
#include "ctmc/scc.hpp"
#include "linalg/gauss_seidel.hpp"
#include "linalg/vector_ops.hpp"
#include "mdp/strategy.hpp"
#include "util/failure.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"

namespace autosec::csl {

using symbolic::Expr;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Poll hook for the numeric kernels: a copy of the shared token, so the
/// options structs stay valid even if the session re-arms mid-solve.
std::function<bool()> poll_hook(const std::shared_ptr<util::CancelToken>& token) {
  if (!token) return {};
  return [token] { return token->expired(); };
}

}  // namespace

std::string override_cache_key(const OverrideSet& overrides) {
  std::vector<std::pair<std::string, std::string>> parts;
  parts.reserve(overrides.size());
  for (const auto& [name, value] : overrides) {
    parts.emplace_back(name, value.to_string());
  }
  std::sort(parts.begin(), parts.end());
  std::string key;
  for (const auto& [name, text] : parts) {
    key += name;
    key += '=';
    key += text;
    key += ';';
  }
  return key;
}

EngineSession::EngineSession(symbolic::Model model, SessionOptions options)
    : model_(std::move(model)),
      options_(std::move(options)),
      active_key_(override_cache_key(options_.constant_overrides)) {
  // The model-type axis always reflects the model actually held: a default
  // options struct on an mdp model must not silently demand a rate matrix.
  options_.model_type = model_->type;
  apply_plan(options_.plan, options_);
}

EngineSession::EngineSession(std::shared_ptr<const symbolic::StateSpace> space,
                             SessionOptions options)
    : options_(std::move(options)) {
  if (!space) throw PropertyError("EngineSession: null state space");
  options_.model_type = space->type();
  apply_plan(options_.plan, options_);
  if (!options_.constant_overrides.empty()) {
    throw PropertyError(
        "EngineSession: constant overrides require a symbolic model, not a "
        "pre-explored state space");
  }
  auto stages = std::make_shared<Stages>();
  stats_.engine = space->engine_name();
  stages->key = active_key_;
  stages->space = std::move(space);
  cache_.push_back(std::move(stages));
  active_ = cache_.front().get();
}

void EngineSession::set_constant_overrides(OverrideSet overrides) {
  if (!model_) {
    throw PropertyError(
        "EngineSession: cannot re-key constant overrides on a session built "
        "from a pre-explored state space");
  }
  options_.constant_overrides = std::move(overrides);
  active_key_ = override_cache_key(options_.constant_overrides);
  active_ = nullptr;  // re-resolved (and possibly rebuilt) on next use
}

ctmc::TransientOptions EngineSession::transient_options() const {
  ctmc::TransientOptions transient = options_.transient;
  if (!transient.cancelled) transient.cancelled = poll_hook(options_.cancel);
  if (!transient.budget) transient.budget = options_.budget;
  return transient;
}

ctmc::SteadyStateOptions EngineSession::steady_state_options() const {
  ctmc::SteadyStateOptions steady = options_.steady_state;
  if (!steady.solver.cancelled) steady.solver.cancelled = poll_hook(options_.cancel);
  return steady;
}

void EngineSession::check_cancel(const char* stage) const {
  if (options_.cancel) options_.cancel->check(stage);
}

EngineSession::Stages& EngineSession::prepare() {
  if (active_ == nullptr) active_ = stages_for(active_key_).get();
  build(*active_, options_.constant_overrides);
  return *active_;
}

std::shared_ptr<EngineSession::Stages> EngineSession::stages_for(
    const std::string& key, bool* created) {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  for (const std::shared_ptr<Stages>& stages : cache_) {
    if (stages->key == key) return stages;
  }
  cache_.push_back(std::make_shared<Stages>());
  cache_.back()->key = key;
  if (created != nullptr) *created = true;
  return cache_.back();
}

void EngineSession::release(Stages& stages) {
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    std::erase_if(cache_, [&](const std::shared_ptr<Stages>& cached) {
      return cached.get() == &stages;
    });
  }
  if (!options_.budget) return;
  std::lock_guard<std::mutex> lock(stages.lazy_mutex);
  if (!stages.space) return;
  size_t bytes = stages.space->array_bytes();
  if (stages.owns_store) bytes += stages.space->store_bytes();
  if (stages.uniformized) bytes += stages.uniformized->held_bytes();
  options_.budget->release_bytes(bytes);
}

void EngineSession::build(Stages& stages, const OverrideSet& overrides, bool record) {
  check_cancel("prepare");
  std::lock_guard<std::mutex> lock(stages.lazy_mutex);
  if (!stages.space) {
    // model_ is guaranteed here: space-adopting sessions seed their stage set
    // in the constructor and cannot re-key.
    auto start = std::chrono::steady_clock::now();
    std::shared_ptr<const symbolic::CompiledModel> compiled;
    try {
      util::metrics::ScopedSpan span("compile");
      compiled = std::make_shared<const symbolic::CompiledModel>(
          symbolic::compile(*model_, overrides));
    } catch (const std::bad_alloc&) {
      throw util::EngineFailure(util::FailureCode::kOom, "compile",
                                "compile: out of memory");
    }
    {
      std::lock_guard<std::mutex> stats_lock(stats_mutex_);
      stats_.compile_count += 1;
      stats_.compile_seconds += seconds_since(start);
    }
    util::metrics::Registry& metrics = util::metrics::registry();
    metrics.add("session.compiles");

    start = std::chrono::steady_clock::now();
    symbolic::ExploreOptions explore = options_.explore;
    if (!explore.budget) explore.budget = options_.budget;
    std::shared_ptr<const symbolic::RateFamily> family;
    {
      std::lock_guard<std::mutex> cache_lock(cache_mutex_);
      family = family_;
    }
    bool refilled = false;
    try {
      if (family) {
        util::metrics::ScopedSpan span("refill");
        std::optional<symbolic::StateSpace> space =
            symbolic::refill(*family, compiled, explore);
        if (space) {
          stages.space = std::make_shared<const symbolic::StateSpace>(std::move(*space));
          stages.owns_store = false;
          refilled = true;
        }
      }
      if (!refilled) {
        util::metrics::ScopedSpan span("explore");
        symbolic::FamilyExplore explored =
            record ? symbolic::explore_family(std::move(compiled), explore)
                   : symbolic::FamilyExplore{
                         symbolic::explore(std::move(compiled), explore), nullptr};
        stages.space =
            std::make_shared<const symbolic::StateSpace>(std::move(explored.space));
        if (explored.family) {
          stages.owns_store = false;
          std::lock_guard<std::mutex> cache_lock(cache_mutex_);
          family_ = std::move(explored.family);
        }
      }
    } catch (const std::bad_alloc&) {
      util::FailureProgress progress;
      if (options_.budget) {
        progress.charged_bytes = options_.budget->charged_bytes();
      }
      throw util::EngineFailure(util::FailureCode::kOom, "explore",
                                "explore: out of memory", progress);
    }
    {
      std::lock_guard<std::mutex> stats_lock(stats_mutex_);
      (refilled ? stats_.refill_count : stats_.explore_count) += 1;
      stats_.explore_seconds += seconds_since(start);
      stats_.engine = stages.space->engine_name();
    }

    if (refilled) {
      metrics.add("session.refills");
    } else if (metrics.enabled()) {
      metrics.add("session.explores");
      metrics.add("explore.states", stages.space->state_count());
      metrics.add("explore.transitions", stages.space->transition_count());
      metrics.add(std::string("explore.engine.") + stages.space->engine_name());
      metrics.gauge("explore.bytes_per_state",
                    static_cast<double>(stages.space->bytes_per_state()));
    }
  }
  if (stages.initial.empty()) {
    stages.initial = stages.space->initial_distribution();
  }
}

const symbolic::StateSpace& EngineSession::space() { return *prepare().space; }

std::shared_ptr<const symbolic::StateSpace> EngineSession::space_ptr() {
  return prepare().space;
}

const ctmc::Ctmc& EngineSession::chain() {
  Stages& stages = prepare();
  if (stages.space->is_mdp()) {
    throw PropertyError(
        "chain(): this session holds an mdp model; there is no CTMC stage");
  }
  return stages.space->chain();
}

const ctmc::Uniformized& EngineSession::uniformized() {
  Stages& stages = prepare();
  if (stages.space->is_mdp()) {
    throw PropertyError(
        "uniformized(): this session holds an mdp model; there is no CTMC stage");
  }
  return uniformized_of(stages);
}

const ctmc::SteadyStateResult& EngineSession::steady() {
  Stages& stages = prepare();
  if (stages.space->is_mdp()) {
    throw PropertyError(
        "steady(): steady-state analysis is not defined for mdp models");
  }
  return steady_of(stages);
}

const ctmc::Uniformized& EngineSession::uniformized_of(Stages& stages) {
  std::lock_guard<std::mutex> lock(stages.lazy_mutex);
  if (!stages.uniformized) {
    try {
      util::metrics::ScopedSpan span("uniformize");
      stages.uniformized =
          ctmc::uniformize(stages.space->chain(), transient_options());
    } catch (const std::bad_alloc&) {
      throw util::EngineFailure(util::FailureCode::kOom, "uniformize",
                                "uniformize: out of memory");
    }
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    stats_.uniformize_count += 1;
  }
  return *stages.uniformized;
}

const ctmc::SteadyStateResult& EngineSession::steady_of(Stages& stages) {
  std::lock_guard<std::mutex> lock(stages.lazy_mutex);
  if (!stages.steady) {
    util::metrics::ScopedSpan span("steady_state");
    stages.steady = ctmc::steady_state(stages.space->chain(), stages.initial,
                                       steady_state_options());
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    stats_.steady_state_count += 1;
    stats_.solver_fallbacks += stages.steady->solver_fallbacks;
  }
  return *stages.steady;
}

Expr EngineSession::resolve_formula(const Stages& stages,
                                    const Expr& formula) const {
  // Labels are exposed to the resolver as pre-resolved formulas named
  // "label:<name>" — matching the encoding the expression parser emits for
  // quoted atoms.
  std::vector<std::pair<std::string, Expr>> label_formulas;
  for (const symbolic::CompiledLabel& label : stages.space->model().labels) {
    label_formulas.emplace_back("label:" + label.name, label.condition);
  }
  std::vector<std::string> variable_names;
  for (const symbolic::CompiledVariable& v : stages.space->model().variables) {
    variable_names.push_back(v.name);
  }
  const symbolic::SymbolScope scope{
      .constants = &stages.space->model().constant_values,
      .formulas = &label_formulas,
      .variables = &variable_names,
  };
  try {
    return formula.resolve(scope);
  } catch (const symbolic::EvalError& e) {
    throw PropertyError(std::string("state formula: ") + e.what());
  }
}

std::vector<bool> EngineSession::satisfying_in(const Stages& stages,
                                               const Expr& formula) const {
  return stages.space->satisfying(resolve_formula(stages, formula));
}

std::vector<bool> EngineSession::satisfying(const Expr& formula) {
  return satisfying_in(prepare(), formula);
}

double EngineSession::time_bound_in(const Stages& stages,
                                    const Property& property) const {
  if (!property.has_time_bound()) {
    throw PropertyError("property requires a time bound: " + property.source);
  }
  const Expr resolved = resolve_formula(stages, property.time_bound);
  symbolic::Value value;
  if (!resolved.as_literal(value) || !value.is_numeric()) {
    throw PropertyError("time bound does not fold to a number: " + property.source);
  }
  const double t = value.as_number();
  if (!(t >= 0.0)) throw PropertyError("negative time bound: " + property.source);
  return t;
}

double EngineSession::time_bound_value(const Property& property) {
  return time_bound_in(prepare(), property);
}

double EngineSession::check(const Property& property) {
  Stages& stages = prepare();
  const auto start = std::chrono::steady_clock::now();
  double value = 0.0;
  {
    util::metrics::ScopedSpan span("solve");
    value = evaluate(stages, property);
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.solve_seconds += seconds_since(start);
  }
  return value;
}

double EngineSession::check(std::string_view property_text) {
  return check(parse_property(property_text));
}

bool EngineSession::satisfies(const Property& property) {
  if (property.is_query()) {
    throw PropertyError("satisfies: property is a =? query: " + property.source);
  }
  Stages& stages = prepare();
  const Expr resolved = resolve_formula(stages, property.bound_value);
  symbolic::Value bound;
  if (!resolved.as_literal(bound) || !bound.is_numeric()) {
    throw PropertyError("satisfies: bound does not fold to a number: " +
                        property.source);
  }
  const double value = check(property);
  const double threshold = bound.as_number();
  switch (property.bound) {
    case BoundKind::kLt: return value < threshold;
    case BoundKind::kLe: return value <= threshold;
    case BoundKind::kGt: return value > threshold;
    case BoundKind::kGe: return value >= threshold;
    case BoundKind::kQuery: break;
  }
  throw PropertyError("satisfies: corrupt bound kind");
}

bool EngineSession::satisfies(std::string_view property_text) {
  return satisfies(parse_property(property_text));
}

std::vector<double> EngineSession::check_all(std::span<const Property> properties) {
  if (properties.empty()) return {};
  Stages& stages = prepare();  // one compile/explore serves the whole batch

  // Pre-build the shared lazy stages serially: under the parallel fan-out the
  // first solver to need them would build them while its peers block on
  // lazy_mutex, wasting the pool.
  if (!stages.space->is_mdp()) {  // mdp solves have no shared lazy stages
    bool needs_uniformized = false;
    bool needs_steady = false;
    for (const Property& p : properties) {
      switch (p.kind) {
        case PropertyKind::kCumulativeReward:
        case PropertyKind::kInstantaneousReward:
          needs_uniformized = true;
          break;
        case PropertyKind::kSteadyStateProb:
        case PropertyKind::kSteadyStateReward:
          needs_steady = true;
          break;
        default:
          break;
      }
    }
    if (needs_uniformized && stages.space->chain().max_exit_rate() > 0.0) {
      uniformized_of(stages);
    }
    if (needs_steady) steady_of(stages);
  }

  // Every C<=t on a moving chain walks the same iterates π₀Pᵏ, so they form
  // one task sharing one pass. It goes first: it is the batch's longest.
  std::vector<size_t> group;
  std::vector<size_t> singles;
  const bool moving_ctmc =
      !stages.space->is_mdp() && stages.space->chain().max_exit_rate() > 0.0;
  for (size_t i = 0; i < properties.size(); ++i) {
    const bool shares_pass = moving_ctmc &&
                             properties[i].kind == PropertyKind::kCumulativeReward &&
                             properties[i].direction == OptDirection::kNone;
    (shares_pass ? group : singles).push_back(i);
  }
  const size_t first_single = group.empty() ? 0 : 1;
  const size_t tasks = first_single + singles.size();

  const auto start = std::chrono::steady_clock::now();
  util::metrics::ScopedSpan span("solve");
  std::vector<double> results(properties.size(), 0.0);
  // Each task writes only its own results slots; evaluation order cannot
  // change any value, so the batch is deterministic at every thread count.
  const auto run_tasks = [&](size_t begin, size_t end) {
    for (size_t task = begin; task < end; ++task) {
      if (task < first_single) {
        evaluate_cumulative_group(stages, properties, group, results);
      } else {
        const size_t i = singles[task - first_single];
        results[i] = evaluate(stages, properties[i]);
      }
    }
  };
  util::parallel_for(0, tasks, 1, run_tasks);
  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_.solve_seconds += seconds_since(start);
  return results;
}

std::vector<double> EngineSession::check_all(
    const std::vector<std::string>& property_texts) {
  std::vector<Property> properties;
  properties.reserve(property_texts.size());
  for (const std::string& text : property_texts) {
    properties.push_back(parse_property(text));
  }
  return check_all(std::span<const Property>(properties));
}

std::vector<PointValue> EngineSession::check_points(
    const Property& property, std::span<const OverrideSet> points,
    PointStages keep) {
  if (!model_) {
    throw PropertyError(
        "EngineSession: check_points needs a symbolic model to re-key; this "
        "session adopted a pre-explored state space");
  }
  std::vector<std::shared_ptr<Stages>> sets(points.size());
  std::vector<char> created(points.size(), 0);
  for (size_t i = 0; i < points.size(); ++i) {
    bool fresh = false;
    sets[i] = stages_for(override_cache_key(points[i]), &fresh);
    created[i] = fresh ? 1 : 0;
  }
  // One new point first: its explore records the session's rate-only family
  // (unless it refills from the family the session has), so the other points
  // of that family refill instead of exploring. Points that are not rate
  // variants of it explore in the fan-out.
  if (const auto lead = std::find(created.begin(), created.end(), 1);
      lead != created.end()) {
    const size_t i = static_cast<size_t>(lead - created.begin());
    build(*sets[i], points[i], /*record=*/true);
  }

  std::vector<PointValue> results(points.size());
  const auto solve_range = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      Stages& stages = *sets[i];
      build(stages, points[i]);
      const auto start = std::chrono::steady_clock::now();
      {
        util::metrics::ScopedSpan span("solve");
        results[i] = {evaluate(stages, property), stages.space->state_count()};
      }
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        stats_.solve_seconds += seconds_since(start);
      }
      if (created[i] != 0 && keep == PointStages::kRelease) release(stages);
      sets[i].reset();  // a released set goes now, not when the call returns
    }
  };
  // Each slot writes only results[i], and a point's value depends only on its
  // own stage set, so the fan-out is deterministic at every thread count.
  util::parallel_for(0, points.size(), 1, solve_range);
  return results;
}

std::vector<PointValue> EngineSession::check_points(
    std::string_view property_text, std::span<const OverrideSet> points,
    PointStages keep) {
  return check_points(parse_property(property_text), points, keep);
}

std::string EngineSession::checkpoint_key(const Stages& stages,
                                          const Property& property) const {
  // Stage identity folded into the key: if anything about exploration changed
  // between the interrupted run and the resume (model edit, engine fix), the
  // counts diverge, the key misses, and the value is recomputed — a stale
  // snapshot can degrade to recomputation but never replay a wrong answer.
  // The override key is the stage set's own, not the active one: the points
  // of one check_points() call share the active key, and rate-only points
  // share their state and transition counts too.
  std::string key = stages.key;
  key += '\x1f';
  key += std::to_string(stages.space->state_count());
  key += ',';
  key += std::to_string(stages.space->transition_count());
  key += '\x1f';
  key += property.source;
  return key;
}

void EngineSession::evaluate_cumulative_group(Stages& stages,
                                              std::span<const Property> properties,
                                              std::span<const size_t> group,
                                              std::vector<double>& results) {
  std::vector<size_t> pass;    // the group positions the shared pass solved
  std::vector<double> shared;  // their values, aligned with `pass`
  for (size_t m = 0; m < group.size(); ++m) {
    results[group[m]] = evaluate(stages, properties[group[m]], [&] {
      auto at = std::find(pass.begin(), pass.end(), m);
      if (at == pass.end()) {
        // Each member's value is independent of the others in the pass, so
        // leaving out the members the values already hold changes no bit.
        pass = {m};
        for (size_t k = m + 1; k < group.size(); ++k) {
          if (!held_value(stages, properties[group[k]])) pass.push_back(k);
        }
        // One reward vector per structure, shared by the members naming it.
        std::map<std::string, std::vector<double>> rewards;
        std::vector<ctmc::CumulativeRewardMember> members;
        for (const size_t k : pass) {
          const Property& member = properties[group[k]];
          auto [it, inserted] = rewards.try_emplace(member.reward_name);
          if (inserted) it->second = stages.space->reward_vector(it->first);
          members.push_back({it->second, time_bound_in(stages, member)});
        }
        shared = ctmc::expected_cumulative_rewards(uniformized_of(stages), stages.initial,
                                                   members, transient_options());
        at = pass.begin();
      }
      return shared[static_cast<size_t>(at - pass.begin())];
    });
  }
}

double EngineSession::evaluate(Stages& stages, const Property& property) {
  return evaluate(stages, property, [&] { return evaluate_fresh(stages, property); });
}

double EngineSession::evaluate(Stages& stages, const Property& property,
                               const std::function<double()>& solve) {
  check_cancel("solve");
  if (util::fault::triggered("solve.cancel")) throw util::Cancelled("solve");
  if (util::fault::triggered("solve.hang")) {
    // Deterministic hang: spin without crossing another safepoint, so the
    // watchdog sees a stalled progress epoch. Only a SIGKILL ends it — the
    // injection site the serve watchdog leg is built on.
    for (;;) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  util::metrics::registry().add("session.properties");
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.check_count += 1;
  }
  CheckpointLedger* const ledger = options_.checkpoint.get();
  std::string key;
  if (ledger != nullptr) {
    key = checkpoint_key(stages, property);
    if (double recorded = 0.0; ledger->lookup(key, &recorded)) {
      util::metrics::registry().add("session.checkpoint_hits");
      return recorded;  // bit-exact replay of the interrupted run's solve
    }
  }
  // A property's value depends only on its source and the stage set (the
  // session's solver options are fixed), so a value the set has solved is
  // the value a new solve would return, bit for bit. A solve that throws
  // stores nothing, and a property without source text is never kept.
  double value = 0.0;
  if (const std::optional<double> held = held_value(stages, property)) {
    value = *held;
    util::metrics::registry().add("session.value_hits");
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.value_hit_count += 1;
  } else {
    value = solve();
    if (!property.source.empty()) {
      std::lock_guard<std::mutex> lock(stages.values_mutex);
      stages.values.emplace(property.source, value);
    }
  }
  // The ledger records hits too, so what it holds never depends on what the
  // session solved before.
  if (ledger != nullptr) ledger->record(key, value);
  return value;
}

std::optional<double> EngineSession::held_value(Stages& stages,
                                                const Property& property) {
  if (property.source.empty()) return std::nullopt;
  std::lock_guard<std::mutex> lock(stages.values_mutex);
  const auto it = stages.values.find(property.source);
  if (it == stages.values.end()) return std::nullopt;
  return it->second;
}

double EngineSession::evaluate_fresh(Stages& stages, const Property& property) {
  if (stages.space->is_mdp()) return evaluate_mdp(stages, property, nullptr);
  if (property.direction != OptDirection::kNone) {
    throw PropertyError(
        "directional operators (Pmax/Pmin/Rmax/Rmin) require an mdp model; "
        "this model is a ctmc: " +
        property.source);
  }
  switch (property.kind) {
    case PropertyKind::kProbUntil: return check_until(stages, property);
    case PropertyKind::kProbGlobally: return check_globally(stages, property);
    case PropertyKind::kSteadyStateProb: return check_steady_prob(stages, property);
    case PropertyKind::kCumulativeReward:
    case PropertyKind::kInstantaneousReward:
    case PropertyKind::kSteadyStateReward:
    case PropertyKind::kReachabilityReward: return check_reward(stages, property);
  }
  throw PropertyError("corrupt property kind");
}

std::vector<double> EngineSession::reachability_probabilities(
    const ctmc::Ctmc& chain, const std::vector<bool>& target) {
  // Prob0/Prob1 graph precomputation first: states that cannot reach the
  // target are exactly 0, states that reach it almost surely are exactly 1.
  // Only the genuinely uncertain states go through the numeric least-fixpoint
  // x = A·x + b on the embedded DTMC (b = one-step probability into the
  // certain set). Besides making the 0/1 answers exact, this strips every
  // recurrent class out of the linear system — BSCC states are always
  // classified — so the iterative solvers never see the near-1 eigenmodes of
  // an almost-closed recurrent set.
  const size_t n = chain.state_count();
  const ctmc::ReachabilityClassification classes =
      ctmc::classify_reachability(chain.rates(), target);
  std::vector<double> x(n, 0.0);
  bool any_uncertain = false;
  for (size_t i = 0; i < n; ++i) {
    if (classes.certain[i]) {
      x[i] = 1.0;
    } else if (classes.possible[i]) {
      any_uncertain = true;
    }
  }
  if (!any_uncertain) return x;

  const linalg::CsrMatrix embedded = chain.embedded_dtmc();
  linalg::CsrBuilder block(n, n);
  std::vector<double> one_step(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    if (classes.certain[i] || !classes.possible[i]) continue;
    const auto cols = embedded.row_columns(i);
    const auto vals = embedded.row_values(i);
    for (size_t k = 0; k < cols.size(); ++k) {
      if (classes.certain[cols[k]]) {
        one_step[i] += vals[k];
      } else if (classes.possible[cols[k]]) {
        // Diagonal entries stay in the block; solve_fixpoint folds A_ii < 1
        // into the update, and an uncertain state can never have A_ii = 1.
        block.add(i, cols[k], vals[k]);
      }
      // Successors in the Prob0 set contribute nothing.
    }
  }
  auto solved = linalg::solve_fixpoint(std::move(block).build(), one_step,
                                       steady_state_options().solver);
  if (solved.cancelled) throw util::Cancelled("solve");
  if (solved.attempts.size() > 1) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.solver_fallbacks += solved.attempts.size() - 1;
  }
  if (!solved.converged) {
    util::FailureProgress progress;
    progress.iterations = solved.iterations;
    progress.residual = solved.final_delta;
    throw util::EngineFailure(
        util::FailureCode::kSolverDiverged, "solve",
        "reachability fixpoint failed on every solver rung (" +
            std::to_string(solved.attempts.size()) + " attempted)",
        progress);
  }
  for (size_t i = 0; i < n; ++i) {
    if (!classes.certain[i] && classes.possible[i]) x[i] = solved.x[i];
  }
  return x;
}

double EngineSession::check_until(Stages& stages, const Property& property) {
  const ctmc::Ctmc& chain = stages.space->chain();
  const std::vector<double>& initial = stages.initial;
  const std::vector<bool> allowed = satisfying_in(stages, property.left);
  const std::vector<bool> target = satisfying_in(stages, property.right);

  if (property.has_time_lower_bound()) {
    // Interval until Φ U[t1,t2] Ψ (Baier et al.'s two-phase algorithm):
    // phase 1 evolves to t1 on the chain with ¬Φ absorbing — any path that
    // leaves Φ before t1 can no longer satisfy the formula — then the mass
    // still inside Φ runs a plain bounded until for the remaining t2-t1.
    const Expr lower_resolved = resolve_formula(stages, property.time_lower_bound);
    symbolic::Value lower_value;
    if (!lower_resolved.as_literal(lower_value) || !lower_value.is_numeric()) {
      throw PropertyError("interval lower bound does not fold to a number: " +
                          property.source);
    }
    const double t1 = lower_value.as_number();
    const double t2 = time_bound_in(stages, property);
    if (t1 < 0.0 || t2 < t1) {
      throw PropertyError("invalid time interval in: " + property.source);
    }
    const size_t n = chain.state_count();
    std::vector<bool> not_allowed(n, false);
    for (size_t i = 0; i < n; ++i) not_allowed[i] = !allowed[i];
    const ctmc::Ctmc phase1 = chain.with_absorbing(not_allowed);
    std::vector<double> at_t1 = ctmc::transient_distribution(
        phase1, initial, t1, transient_options());
    for (size_t i = 0; i < n; ++i) {
      if (!allowed[i]) at_t1[i] = 0.0;  // left Φ before t1: failed
    }
    return ctmc::bounded_reachability(chain, at_t1, allowed, target, t2 - t1,
                                      transient_options());
  }

  if (property.has_time_bound()) {
    return ctmc::bounded_reachability(chain, initial, allowed, target,
                                      time_bound_in(stages, property),
                                      transient_options());
  }
  // Unbounded until: restrict to the allowed region by making forbidden
  // states absorbing (they can never contribute), then take unbounded
  // reachability of the target.
  const size_t n = chain.state_count();
  std::vector<bool> absorbing(n, false);
  bool any_forbidden = false;
  for (size_t i = 0; i < n; ++i) {
    absorbing[i] = !allowed[i] && !target[i];
    any_forbidden = any_forbidden || absorbing[i];
  }
  const std::vector<double> reach =
      any_forbidden
          ? reachability_probabilities(chain.with_absorbing(absorbing), target)
          : reachability_probabilities(chain, target);
  return linalg::dot(initial, reach);
}

double EngineSession::check_globally(Stages& stages, const Property& property) {
  // P[G phi] = 1 − P[F !phi] (with the same bound).
  Property dual;
  dual.kind = PropertyKind::kProbUntil;
  dual.left = Expr::literal(true);
  dual.right = !property.right;
  dual.time_bound = property.time_bound;
  dual.time_lower_bound = property.time_lower_bound;
  dual.source = property.source;
  return 1.0 - check_until(stages, dual);
}

double EngineSession::check_steady_prob(Stages& stages, const Property& property) {
  const std::vector<bool> target = satisfying_in(stages, property.right);
  // The long-run distribution is a per-stage-set cache: every S=? property of
  // the session reuses one BSCC decomposition and one set of solves.
  const ctmc::SteadyStateResult& result = steady_of(stages);
  double acc = 0.0;
  for (size_t i = 0; i < target.size(); ++i) {
    if (target[i]) acc += result.distribution[i];
  }
  return acc;
}

double EngineSession::check_reward(Stages& stages, const Property& property) {
  const ctmc::Ctmc& chain = stages.space->chain();
  const std::vector<double>& initial = stages.initial;
  const std::vector<double> rewards =
      stages.space->reward_vector(property.reward_name);
  switch (property.kind) {
    case PropertyKind::kCumulativeReward: {
      const double t = time_bound_in(stages, property);
      if (chain.max_exit_rate() == 0.0) {
        return ctmc::expected_cumulative_reward(chain, initial, rewards, t,
                                                transient_options());
      }
      // Base-chain accumulation reuses the session's uniformization stage, so
      // repeated horizons skip the uniformize + transpose work.
      return ctmc::expected_cumulative_reward(uniformized_of(stages), initial,
                                              rewards, t,
                                              transient_options());
    }
    case PropertyKind::kInstantaneousReward: {
      const double t = time_bound_in(stages, property);
      if (chain.max_exit_rate() == 0.0 || t == 0.0) {
        return linalg::dot(initial, rewards);
      }
      const std::vector<double> dist = ctmc::transient_distribution(
          uniformized_of(stages), initial, t, transient_options());
      return linalg::dot(dist, rewards);
    }
    case PropertyKind::kSteadyStateReward:
      return linalg::dot(steady_of(stages).distribution, rewards);
    case PropertyKind::kReachabilityReward: {
      const std::vector<bool> target = satisfying_in(stages, property.right);
      // PRISM convention: the expected reward is infinite when the target is
      // missed with positive probability. The Prob1 set is a graph
      // precomputation, so the finite/infinite classification is exact — no
      // numeric reach-probability threshold.
      const std::vector<bool> certain =
          ctmc::almost_sure_reachability(chain.rates(), target);
      const size_t n = chain.state_count();
      for (size_t i = 0; i < n; ++i) {
        if (initial[i] > 0.0 && !certain[i]) {
          return std::numeric_limits<double>::infinity();
        }
      }
      // e_i = 0 on target; otherwise e_i = r_i / E_i + Σ_j P_ij e_j. The
      // system is restricted to the Prob1 states: anything outside carries
      // infinite expected reward, and including it would make the transient
      // block singular (an absorbing non-target state) or near-singular.
      // Successors of non-target Prob1 states are again Prob1 or target, so
      // the restricted system is closed; Prob1 also guarantees exit > 0.
      const linalg::CsrMatrix embedded = chain.embedded_dtmc();
      linalg::CsrBuilder block(n, n);
      std::vector<double> base(n, 0.0);
      for (size_t i = 0; i < n; ++i) {
        if (target[i] || !certain[i]) continue;
        base[i] = rewards[i] / chain.exit_rate(i);
        const auto cols = embedded.row_columns(i);
        const auto vals = embedded.row_values(i);
        for (size_t k = 0; k < cols.size(); ++k) {
          if (!target[cols[k]]) block.add(i, cols[k], vals[k]);
        }
      }
      auto solved = linalg::solve_fixpoint(std::move(block).build(), base,
                                           steady_state_options().solver);
      if (solved.cancelled) throw util::Cancelled("solve");
      if (solved.attempts.size() > 1) {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        stats_.solver_fallbacks += solved.attempts.size() - 1;
      }
      if (!solved.converged) {
        util::FailureProgress progress;
        progress.iterations = solved.iterations;
        progress.residual = solved.final_delta;
        throw util::EngineFailure(
            util::FailureCode::kSolverDiverged, "solve",
            "reachability reward fixpoint failed on every solver rung (" +
                std::to_string(solved.attempts.size()) + " attempted)",
            progress);
      }
      return linalg::dot(initial, solved.x);
    }
    default:
      throw PropertyError("check_reward: not a reward property");
  }
}

// --- MDP axis -------------------------------------------------------------

/// The reachability query an mdp until/eventually denotes. `query` points at
/// the space's base MDP when no state is forbidden, at `absorbed` otherwise;
/// exported strategy rows index the query MDP, and the re-check path rebuilds
/// it from the same property so the indices line up.
struct EngineSession::MdpReachQuery {
  std::shared_ptr<const mdp::Mdp> base;
  std::optional<mdp::Mdp> absorbed;
  const mdp::Mdp* query = nullptr;
  std::vector<bool> target;
  bool bounded = false;
  size_t steps = 0;
};

mdp::ViOptions EngineSession::mdp_vi_options(bool interval) const {
  mdp::ViOptions options;
  options.interval = interval;
  // Interval iteration brackets the true value within epsilon, so the
  // reported midpoint is within epsilon/2 — comfortably inside the 1e-8
  // agreement the induced-chain cross-check asserts.
  options.epsilon = 1e-10;
  options.cancelled = poll_hook(options_.cancel);
  return options;
}

size_t EngineSession::mdp_steps(Stages& stages, const Property& property) {
  const double t = time_bound_in(stages, property);
  const double rounded = std::nearbyint(t);
  if (std::abs(t - rounded) > 1e-9 || rounded < 0.0 || rounded > 1e15) {
    throw PropertyError(
        "mdp time bounds count discrete steps and must be non-negative "
        "integers: " +
        property.source);
  }
  return static_cast<size_t>(rounded);
}

EngineSession::MdpReachQuery EngineSession::mdp_reach_query(
    Stages& stages, const Property& property) {
  if (property.has_time_lower_bound()) {
    throw PropertyError(
        "interval-bounded until is not supported for mdp models: " +
        property.source);
  }
  MdpReachQuery q;
  q.base = stages.space->mdp_ptr();
  q.target = satisfying_in(stages, property.right);
  const std::vector<bool> allowed = satisfying_in(stages, property.left);
  const size_t n = q.base->state_count();
  std::vector<bool> forbidden(n, false);
  bool any_forbidden = false;
  for (size_t i = 0; i < n; ++i) {
    forbidden[i] = !allowed[i] && !q.target[i];
    any_forbidden = any_forbidden || forbidden[i];
  }
  if (any_forbidden) {
    // Restrict to the allowed region exactly as the ctmc path does: forbidden
    // states become absorbing, so no path through them can reach the target.
    q.absorbed = q.base->with_absorbing(forbidden);
    q.query = &*q.absorbed;
  } else {
    q.query = q.base.get();
  }
  if (property.has_time_bound()) {
    q.bounded = true;
    q.steps = mdp_steps(stages, property);
  }
  return q;
}

double EngineSession::mdp_until(Stages& stages, const Property& property,
                                bool maximize, StrategyExport* strategy_out) {
  MdpReachQuery q = mdp_reach_query(stages, property);
  const size_t initial = stages.space->initial_state();

  if (q.bounded) {
    const mdp::BoundedViResult result = mdp::bounded_reachability(
        *q.query, q.target, q.steps, maximize, mdp_vi_options(false));
    const double value = result.values[initial];
    if (strategy_out != nullptr) {
      strategy_out->bounded = true;
      strategy_out->schedule = result.schedule;
      strategy_out->value = value;
      strategy_out->induced_value = mdp::induced_bounded_reachability(
          *q.query, result.schedule, q.target, initial);
      strategy_out->property = property.source;
      strategy_out->direction = maximize ? "max" : "min";
    }
    return value;
  }

  // Unbounded: interval iteration, so convergence is sound (plain value
  // iteration's step criterion can stop early on slowly-mixing models).
  const mdp::ViResult result =
      mdp::reachability(*q.query, q.target, maximize, mdp_vi_options(true));
  if (result.cancelled) throw util::Cancelled("solve");
  if (!result.converged) {
    util::FailureProgress progress;
    progress.iterations = result.iterations;
    progress.residual = result.residual;
    throw util::EngineFailure(util::FailureCode::kSolverDiverged, "solve",
                              "mdp value iteration did not converge within " +
                                  std::to_string(result.iterations) + " sweeps",
                              progress);
  }
  const double value = result.values[initial];
  if (strategy_out != nullptr) {
    strategy_out->bounded = false;
    strategy_out->rows = mdp::extract_reachability_strategy(
        *q.query, q.target, result, maximize, /*tolerance=*/1e-8);
    strategy_out->value = value;
    const std::vector<double> induced = mdp::induced_reachability(
        mdp::induced_chain(*q.query, strategy_out->rows), q.target);
    strategy_out->induced_value = induced[initial];
    strategy_out->property = property.source;
    strategy_out->direction = maximize ? "max" : "min";
  }
  return value;
}

double EngineSession::mdp_reward(Stages& stages, const Property& property,
                                 bool maximize) {
  const mdp::Mdp& model = stages.space->mdp();
  const size_t initial = stages.space->initial_state();
  const std::vector<double> rewards =
      stages.space->reward_vector(property.reward_name);
  switch (property.kind) {
    case PropertyKind::kCumulativeReward:
      return mdp::bounded_cumulative_reward(model, rewards,
                                            mdp_steps(stages, property),
                                            maximize, mdp_vi_options(false))
          .values[initial];
    case PropertyKind::kInstantaneousReward:
      return mdp::instantaneous_reward(model, rewards,
                                       mdp_steps(stages, property), maximize,
                                       mdp_vi_options(false))
          .values[initial];
    case PropertyKind::kReachabilityReward: {
      const std::vector<bool> target = satisfying_in(stages, property.right);
      const mdp::ViResult result = mdp::reachability_reward(
          model, target, rewards, maximize, mdp_vi_options(false));
      if (result.cancelled) throw util::Cancelled("solve");
      if (!result.converged) {
        util::FailureProgress progress;
        progress.iterations = result.iterations;
        progress.residual = result.residual;
        throw util::EngineFailure(
            util::FailureCode::kSolverDiverged, "solve",
            "mdp reward iteration did not converge within " +
                std::to_string(result.iterations) + " sweeps",
            progress);
      }
      return result.values[initial];
    }
    default:
      throw PropertyError("mdp_reward: not a reward property");
  }
}

double EngineSession::evaluate_mdp(Stages& stages, const Property& property,
                                   StrategyExport* strategy_out) {
  if (property.direction == OptDirection::kNone) {
    throw PropertyError(
        "an mdp model requires a directional operator (Pmax/Pmin/Rmax/Rmin) "
        "to resolve the nondeterministic choices: " +
        property.source);
  }
  const bool maximize = property.direction == OptDirection::kMax;
  switch (property.kind) {
    case PropertyKind::kProbUntil:
      return mdp_until(stages, property, maximize, strategy_out);
    case PropertyKind::kProbGlobally: {
      // Pmax[G φ] = 1 − Pmin[F ¬φ] (and dually): the optimizing adversary of
      // a safety objective is the pessimizing adversary of its complement.
      Property dual;
      dual.kind = PropertyKind::kProbUntil;
      dual.direction =
          maximize ? OptDirection::kMin : OptDirection::kMax;
      dual.left = Expr::literal(true);
      dual.right = !property.right;
      dual.time_bound = property.time_bound;
      dual.time_lower_bound = property.time_lower_bound;
      dual.source = property.source;
      return 1.0 - mdp_until(stages, dual, !maximize, strategy_out);
    }
    case PropertyKind::kSteadyStateProb:
    case PropertyKind::kSteadyStateReward:
      throw PropertyError(
          "steady-state operators are not supported for mdp models (the "
          "long-run distribution depends on the scheduler): " +
          property.source);
    case PropertyKind::kCumulativeReward:
    case PropertyKind::kInstantaneousReward:
    case PropertyKind::kReachabilityReward:
      return mdp_reward(stages, property, maximize);
  }
  throw PropertyError("corrupt property kind");
}

StrategyCheck EngineSession::check_with_strategy(const Property& property) {
  Stages& stages = prepare();
  if (!stages.space->is_mdp()) {
    throw PropertyError(
        "check_with_strategy requires an mdp model; a ctmc has no scheduler "
        "to export");
  }
  if (property.kind != PropertyKind::kProbUntil) {
    throw PropertyError(
        "strategy export supports probabilistic until/eventually "
        "(Pmax/Pmin [ ... U ... ] / [ F ... ]) only: " +
        property.source);
  }
  check_cancel("solve");
  if (util::fault::triggered("solve.cancel")) throw util::Cancelled("solve");
  util::metrics::registry().add("session.properties");
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.check_count += 1;
  }
  const auto start = std::chrono::steady_clock::now();
  StrategyCheck out;
  {
    util::metrics::ScopedSpan span("solve");
    const bool maximize = [&] {
      if (property.direction == OptDirection::kNone) {
        throw PropertyError(
            "an mdp model requires a directional operator (Pmax/Pmin) to "
            "resolve the nondeterministic choices: " +
            property.source);
      }
      return property.direction == OptDirection::kMax;
    }();
    out.value = mdp_until(stages, property, maximize, &out.strategy);
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.solve_seconds += seconds_since(start);
  }
  return out;
}

StrategyCheck EngineSession::check_with_strategy(std::string_view property_text) {
  return check_with_strategy(parse_property(property_text));
}

double EngineSession::induced_value(const Property& property,
                                    const StrategyExport& strategy) {
  Stages& stages = prepare();
  if (!stages.space->is_mdp()) {
    throw PropertyError("induced_value requires an mdp model");
  }
  if (property.kind != PropertyKind::kProbUntil) {
    throw PropertyError(
        "induced_value supports probabilistic until/eventually only: " +
        property.source);
  }
  MdpReachQuery q = mdp_reach_query(stages, property);
  const size_t initial = stages.space->initial_state();
  const size_t n = q.query->state_count();
  if (strategy.bounded != q.bounded) {
    throw PropertyError(
        "strategy/property mismatch: one is step-bounded, the other is not");
  }
  if (strategy.bounded) {
    if (strategy.schedule.size() != q.steps ||
        (q.steps > 0 && strategy.schedule.front().size() != n)) {
      throw PropertyError(
          "strategy/property mismatch: schedule dimensions do not match the "
          "query (steps or state count differ)");
    }
    return mdp::induced_bounded_reachability(*q.query, strategy.schedule,
                                             q.target, initial);
  }
  if (strategy.rows.size() != n) {
    throw PropertyError(
        "strategy/property mismatch: rows cover " +
        std::to_string(strategy.rows.size()) + " states, the query has " +
        std::to_string(n));
  }
  const std::vector<double> induced = mdp::induced_reachability(
      mdp::induced_chain(*q.query, strategy.rows), q.target);
  return induced[initial];
}

util::JsonValue EngineSession::strategy_document(const Property& property,
                                                 const StrategyExport& strategy) {
  Stages& stages = prepare();
  if (!stages.space->is_mdp()) {
    throw PropertyError("strategy_document requires an mdp model");
  }
  MdpReachQuery q = mdp_reach_query(stages, property);
  return strategy_json_value(strategy, *stages.space, *q.query, q.target);
}

}  // namespace autosec::csl
