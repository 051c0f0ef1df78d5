#include "service/identity.hpp"

#include "csl/session.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace autosec::service {

namespace {

using automotive::SecurityCategory;

char flag(bool value) { return value ? '1' : '0'; }

/// The model and plan fields of the options: everything that changes the
/// transformed model, its explored space or the solver configuration baked
/// into a session.
std::string model_key(const automotive::AnalysisOptions& options) {
  // Every field of EngineOptions and SolverPlan is named here, so a new field
  // fails to compile until it is keyed below or listed as not affecting
  // results:
  //  * constant_overrides, horizon_years: keyed by the job identity, not the
  //    session (see identity.hpp);
  //  * transient, steady_state, explore: stage settings only apply_plan()
  //    (from `plan`) and library callers write; no request sets them;
  //  * cancel, budget, checkpoint: they stop or record one run's work; a run
  //    that finishes has the same result.
  [[maybe_unused]] const auto& [model_type, plan, transient, steady_state, explore,
                                constant_overrides, nmax, horizon_years, cancel, budget,
                                checkpoint] =
      static_cast<const csl::EngineOptions&>(options);
  const auto& [engine, reduction, steady_state_detection] = plan;

  std::string key = "model=";
  key += symbolic::model_type_token(model_type);
  key += ";nmax=" + std::to_string(nmax);
  key += ";engine=";
  key += symbolic::engine_token(engine);
  key += ";reduction=" + std::to_string(static_cast<int>(reduction));
  // The retired solver pin keeps its default's text, like batch_model below.
  key += ";solver=0";
  key += ";ssd=";
  key += flag(steady_state_detection);
  // AnalysisOptions' own transform knobs.
  key += ";literal_patch_guard=";
  key += flag(options.literal_patch_guard);
  key += ";guardian_requires_foothold=";
  key += flag(options.guardian_requires_foothold);
  key += ";reliability=";
  key += flag(options.include_reliability);
  // The text of the retired batch-model switch stays, constant, so disk-cache
  // entries and checkpoints written while it existed keep their keys.
  key += ";batch_model=1";
  return key;
}

}  // namespace

JobIdentity job_identity(std::string_view op, SessionScope scope,
                         uint64_t architecture_digest,
                         const automotive::AnalysisOptions& options,
                         const std::vector<std::string>& messages,
                         const std::vector<SecurityCategory>& categories,
                         std::string_view payload) {
  JobIdentity identity;
  std::string& session = identity.session_key;
  session = scope == SessionScope::kBatch ? "batch" : "pair";
  session += "|arch=" + util::hex64(architecture_digest);
  session += '|';
  session += model_key(options);
  session += "|messages=";
  for (const std::string& message : messages) {
    session += util::json_quote(message);
    session += ',';
  }
  session += "|categories=";
  for (const SecurityCategory category : categories) {
    session += automotive::category_key(category);
    session += ',';
  }

  std::string& job = identity.job;
  job = op;
  job += '|';
  job += session;
  // Numbers go through util::json_number so the identity is exact, not
  // printf-rounded.
  job += "|horizon=" + util::json_number(options.horizon_years);
  job += "|overrides=" + csl::override_cache_key(options.constant_overrides);
  job += '|';
  job += payload;
  return identity;
}

automotive::AnalysisOptions analysis_options(const Request& request) {
  automotive::AnalysisOptions options;
  options.nmax = request.nmax;
  options.horizon_years = request.horizon_years;
  options.constant_overrides = request.overrides;
  options.model_type = request.model_type;
  options.plan.steady_state_detection = request.steady_state_detection;
  options.plan.engine = request.engine;
  return options;
}

std::vector<SecurityCategory> grid_categories(const Request& request) {
  if (!request.categories.empty()) return request.categories;
  return {SecurityCategory::kConfidentiality, SecurityCategory::kIntegrity,
          SecurityCategory::kAvailability};
}

JobIdentity request_identity(const Request& request, uint64_t architecture_digest) {
  const std::string_view op = op_name(request.op);
  const automotive::AnalysisOptions options = analysis_options(request);
  if (request.op == Op::kAnalyze) {
    return job_identity(op, SessionScope::kBatch, architecture_digest, options,
                        request.messages, grid_categories(request), "");
  }
  // Timeouts and resource budgets stay out of the payload: they bound the
  // work, they do not change a successful result.
  std::string payload;
  if (request.op == Op::kCheck) {
    payload = "properties=";
    for (const std::string& property : request.properties) {
      payload += util::json_quote(property);
      payload += ',';
    }
    // A strategy-bearing response carries more than the plain one; the two
    // must not share a disk entry. The session answers both.
    if (request.strategy) payload += "|strategy";
  } else if (request.op == Op::kSweep) {
    payload = "constant=" + util::json_quote(request.constant) + "|values=";
    for (const double value : request.values) {
      payload += util::json_number(value);
      payload += ',';
    }
  }
  return job_identity(op, SessionScope::kPair, architecture_digest, options,
                      {request.message}, {request.category}, payload);
}

}  // namespace autosec::service
