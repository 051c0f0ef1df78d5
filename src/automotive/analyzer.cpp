#include "automotive/analyzer.hpp"

#include <utility>

#include "symbolic/explorer.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/stopwatch.hpp"

namespace autosec::automotive {

namespace {

void apply_thread_option(const AnalysisOptions& options) {
  if (options.threads > 0) {
    util::set_thread_count(static_cast<size_t>(options.threads));
  }
}

/// The single-model constant names do not exist in the batch model, so
/// overrides targeting them force the per-pair path.
bool overrides_require_single_models(const AnalysisOptions& options) {
  for (const auto& [name, value] : options.constant_overrides) {
    if (name == kMessageEtaConstant || name == kMessagePhiConstant) return true;
  }
  return false;
}

void accumulate(csl::SessionStats& total, const csl::SessionStats& part) {
  if (total.engine.empty()) {
    total.engine = part.engine;
  } else if (!part.engine.empty() && part.engine != total.engine) {
    total.engine = "mixed";  // kAuto may resolve differently per pair
  }
  total.compile_count += part.compile_count;
  total.explore_count += part.explore_count;
  total.uniformize_count += part.uniformize_count;
  total.steady_state_count += part.steady_state_count;
  total.check_count += part.check_count;
  total.solver_fallbacks += part.solver_fallbacks;
  total.compile_seconds += part.compile_seconds;
  total.explore_seconds += part.explore_seconds;
  total.solve_seconds += part.solve_seconds;
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
  csl::SessionOptions session;
  static_cast<csl::EngineOptions&>(session) = options;
  session.parallel_properties = options.parallel_solves;
  return session;
}

SecurityAnalysis::SecurityAnalysis(const Architecture& architecture,
                                   const std::string& message, SecurityCategory category,
                                   const AnalysisOptions& options)
    : options_(options),
      architecture_name_(architecture.name),
      message_(message),
      category_(category),
      model_(pair_model(architecture, message, category, options)),
      session_(std::make_shared<csl::EngineSession>(model_, session_options(options))),
      checker_(session_) {
  apply_thread_option(options_);
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
  return checker_.check(property);
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
  apply_thread_option(options);

  std::vector<std::string> message_names = messages;
  if (message_names.empty()) {
    for (const Message& message : architecture.messages) {
      message_names.push_back(message.name);
    }
  }

  ArchitectureReport report;
  const size_t pair_count = message_names.size() * categories.size();
  if (pair_count == 0) return report;

  if (!options.batch_model || overrides_require_single_models(options)) {
    // Per-pair path: nest the stage spans under "analyze/..." like the batch
    // path (analyze_batch_session) does for itself.
    util::metrics::ScopedSpan span("analyze");
    {
      util::metrics::Registry& metrics = util::metrics::registry();
      if (metrics.enabled()) {
        metrics.add("analyze.architectures");
        metrics.add("analyze.pairs", pair_count);
      }
    }
    // Legacy path: one model per (message, category) pair. The pairs are
    // independent, so they can still fan across the pool; each slot writes
    // only its own result, keeping the report deterministic.
    std::vector<std::pair<std::string, SecurityCategory>> pairs;
    pairs.reserve(pair_count);
    for (const std::string& message : message_names) {
      for (const SecurityCategory category : categories) {
        pairs.emplace_back(message, category);
      }
    }
    report.results.resize(pairs.size());
    std::vector<csl::SessionStats> stats(pairs.size());
    AnalysisOptions pair_options = options;
    pair_options.threads = 0;  // already applied process-wide
    const auto analyze_range = [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        const SecurityAnalysis analysis(architecture, pairs[i].first, pairs[i].second,
                                        pair_options);
        report.results[i] = analysis.result();
        stats[i] = analysis.session()->stats();
      }
    };
    if (options.parallel_solves) {
      util::parallel_for(0, pairs.size(), 1, analyze_range);
    } else {
      analyze_range(0, pairs.size());
    }
    for (const csl::SessionStats& part : stats) accumulate(report.stats, part);
    return report;
  }

  // Staged path: one combined model for every pair — exactly one compile and
  // one explore per constant-override set, all properties solved against the
  // shared state space.
  BatchSession batch = make_batch_session(architecture, options, categories,
                                          message_names);
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
  apply_thread_option(options);

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
  if (csl::override_cache_key(options.constant_overrides) !=
      csl::override_cache_key(session.options().constant_overrides)) {
    session.set_constant_overrides(options.constant_overrides);
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

std::vector<AnalysisResult> analyze_architecture(
    const Architecture& architecture, const AnalysisOptions& options,
    const std::vector<SecurityCategory>& categories) {
  return analyze_architecture_report(architecture, options, categories).results;
}

}  // namespace autosec::automotive
