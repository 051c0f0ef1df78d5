#include "automotive/analyzer.hpp"

#include <utility>

#include "symbolic/explorer.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/stopwatch.hpp"

namespace autosec::automotive {

namespace {

/// The batch model's override set for a request: the single-model protection
/// constants "eta_msg"/"phi_msg" become each grid pair's own constant, every
/// other override passes through.
csl::OverrideSet batch_overrides(const BatchSession& batch,
                                 const csl::OverrideSet& overrides) {
  csl::OverrideSet renamed;
  for (const auto& [name, value] : overrides) {
    const bool eta = name == kMessageEtaConstant;
    if (!eta && name != kMessagePhiConstant) {
      renamed.emplace_back(name, value);
      continue;
    }
    for (const std::string& message : batch.messages) {
      for (const SecurityCategory category : batch.categories) {
        renamed.emplace_back(eta ? batch_message_eta_constant(message, category)
                                 : batch_message_phi_constant(message, category),
                             value);
      }
    }
  }
  return renamed;
}

/// Counter/timing delta `after - before` — what one request added to a
/// long-lived session's cumulative stats.
csl::SessionStats stats_delta(const csl::SessionStats& after,
                              const csl::SessionStats& before) {
  csl::SessionStats delta;
  delta.engine = after.engine;
  delta.compile_count = after.compile_count - before.compile_count;
  delta.explore_count = after.explore_count - before.explore_count;
  delta.uniformize_count = after.uniformize_count - before.uniformize_count;
  delta.steady_state_count = after.steady_state_count - before.steady_state_count;
  delta.check_count = after.check_count - before.check_count;
  delta.solver_fallbacks = after.solver_fallbacks - before.solver_fallbacks;
  delta.compile_seconds = after.compile_seconds - before.compile_seconds;
  delta.explore_seconds = after.explore_seconds - before.explore_seconds;
  delta.solve_seconds = after.solve_seconds - before.solve_seconds;
  return delta;
}

}  // namespace

std::string exposure_property(double horizon_years) {
  return "R{\"" + std::string(kExposureReward) + "\"}=? [ C<=" +
         util::json_number(horizon_years) + " ]";
}

symbolic::Model pair_model(const Architecture& architecture, const std::string& message,
                           SecurityCategory category, const AnalysisOptions& options) {
  TransformOptions transform_options;
  transform_options.message = message;
  transform_options.category = category;
  transform_options.nmax = options.nmax;
  transform_options.literal_patch_guard = options.literal_patch_guard;
  transform_options.guardian_requires_foothold = options.guardian_requires_foothold;
  transform_options.include_reliability = options.include_reliability;
  transform_options.model_type = options.model_type;
  return transform(architecture, transform_options);
}

csl::SessionOptions session_options(const AnalysisOptions& options) {
  return static_cast<const csl::EngineOptions&>(options);
}

SecurityAnalysis::SecurityAnalysis(const Architecture& architecture,
                                   const std::string& message, SecurityCategory category,
                                   const AnalysisOptions& options)
    : options_(options),
      architecture_name_(architecture.name),
      message_(message),
      category_(category),
      model_(pair_model(architecture, message, category, options)),
      session_(std::make_shared<csl::EngineSession>(model_, session_options(options))) {
  session_->space();  // explore eagerly, matching the historical behaviour
}

double SecurityAnalysis::build_seconds() const {
  const csl::SessionStats& stats = session_->stats();
  return stats.compile_seconds + stats.explore_seconds;
}

AnalysisResult SecurityAnalysis::result() const {
  AnalysisResult out;
  out.architecture = architecture_name_;
  out.message = message_;
  out.category = category_;
  out.state_count = session_->space().state_count();
  out.transition_count = session_->space().transition_count();
  out.build_seconds = build_seconds();

  const double horizon = options_.horizon_years;
  util::Stopwatch watch;
  const std::string h = util::json_number(horizon);
  const std::vector<std::string> properties = {
      exposure_property(horizon),
      "P=? [ F<=" + h + " \"violated\" ]",
      "S=? [ \"violated\" ]",
      "R{\"time\"}=? [ F \"violated\" ]",
  };
  const std::vector<double> values = session_->check_all(properties);
  out.exploitable_fraction = values[0] / horizon;
  out.breach_probability = values[1];
  out.steady_state_fraction = values[2];
  out.mean_time_to_breach = values[3];
  out.check_seconds = watch.elapsed_seconds();
  return out;
}

double SecurityAnalysis::check(const std::string& property) const {
  return session_->check(property);
}

AnalysisResult analyze_message(const Architecture& architecture,
                               const std::string& message, SecurityCategory category,
                               const AnalysisOptions& options) {
  const SecurityAnalysis analysis(architecture, message, category, options);
  return analysis.result();
}

ArchitectureReport analyze_architecture_report(
    const Architecture& architecture, const AnalysisOptions& options,
    const std::vector<SecurityCategory>& categories,
    const std::vector<std::string>& messages) {
  // An empty grid has nothing to analyze, and no batch model to build.
  if (categories.empty() || (messages.empty() && architecture.messages.empty())) {
    return {};
  }
  // One combined model for every pair: exactly one compile and one explore
  // per constant-override set, all properties solved against the shared
  // state space.
  BatchSession batch = make_batch_session(architecture, options, categories, messages);
  return analyze_batch_session(batch, options);
}

BatchSession make_batch_session(const Architecture& architecture,
                                const AnalysisOptions& options,
                                const std::vector<SecurityCategory>& categories,
                                const std::vector<std::string>& messages) {
  BatchSession batch;
  batch.architecture_name = architecture.name;
  batch.messages = messages;
  if (batch.messages.empty()) {
    for (const Message& message : architecture.messages) {
      batch.messages.push_back(message.name);
    }
  }
  batch.categories = categories;

  BatchTransformOptions transform_options;
  transform_options.messages = batch.messages;
  transform_options.categories = batch.categories;
  transform_options.nmax = options.nmax;
  transform_options.literal_patch_guard = options.literal_patch_guard;
  transform_options.include_reliability = options.include_reliability;
  transform_options.guardian_requires_foothold = options.guardian_requires_foothold;
  batch.session = std::make_shared<csl::EngineSession>(
      transform_batch(architecture, transform_options), session_options(options));
  return batch;
}

ArchitectureReport analyze_batch_session(BatchSession& batch,
                                         const AnalysisOptions& options) {
  ArchitectureReport report;
  const size_t pair_count = batch.messages.size() * batch.categories.size();
  if (pair_count == 0 || !batch.session) return report;

  util::metrics::ScopedSpan span("analyze");
  {
    util::metrics::Registry& metrics = util::metrics::registry();
    if (metrics.enabled()) {
      metrics.add("analyze.architectures");
      metrics.add("analyze.pairs", pair_count);
    }
  }

  csl::EngineSession& session = *batch.session;
  // Per-request knobs: re-key the stage cache when the override set changed
  // (same-key repeats reuse every cached stage) and arm this request's cancel
  // token on the long-lived session.
  csl::OverrideSet overrides = batch_overrides(batch, options.constant_overrides);
  if (csl::override_cache_key(overrides) !=
      csl::override_cache_key(session.options().constant_overrides)) {
    session.set_constant_overrides(std::move(overrides));
  }
  session.set_cancel_token(options.cancel);
  session.set_resource_budget(options.budget);
  session.set_checkpoint(options.checkpoint);
  const csl::SessionStats before = session.stats();

  // Shortest round-trip digits: the bound the solve integrates to is exactly
  // the horizon the results are divided by.
  const double horizon = options.horizon_years;
  const std::string h = util::json_number(horizon);
  std::vector<std::string> properties;
  properties.reserve(pair_count * 4);
  for (const std::string& message : batch.messages) {
    for (const SecurityCategory category : batch.categories) {
      const std::string violated = batch_violated_label(message, category);
      const std::string exposure = batch_exposure_reward(message, category);
      properties.push_back("R{\"" + exposure + "\"}=? [ C<=" + h + " ]");
      properties.push_back("P=? [ F<=" + h + " \"" + violated + "\" ]");
      properties.push_back("S=? [ \"" + violated + "\" ]");
      properties.push_back("R{\"time\"}=? [ F \"" + violated + "\" ]");
    }
  }
  const std::vector<double> values = session.check_all(properties);

  const size_t state_count = session.space().state_count();
  const size_t transition_count = session.space().transition_count();
  report.stats = stats_delta(session.stats(), before);
  // Shared stage costs are split evenly across the pairs they served.
  const double build_each =
      (report.stats.compile_seconds + report.stats.explore_seconds) / pair_count;
  const double check_each = report.stats.solve_seconds / pair_count;

  report.results.reserve(pair_count);
  size_t v = 0;
  for (const std::string& message : batch.messages) {
    for (const SecurityCategory category : batch.categories) {
      AnalysisResult result;
      result.architecture = batch.architecture_name;
      result.message = message;
      result.category = category;
      result.exploitable_fraction = values[v++] / horizon;
      result.breach_probability = values[v++];
      result.steady_state_fraction = values[v++];
      result.mean_time_to_breach = values[v++];
      result.state_count = state_count;
      result.transition_count = transition_count;
      result.build_seconds = build_each;
      result.check_seconds = check_each;
      report.results.push_back(std::move(result));
    }
  }
  return report;
}

}  // namespace autosec::automotive
