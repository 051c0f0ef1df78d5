#include "service/server.hpp"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <istream>
#include <new>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "automotive/analyzer.hpp"
#include "automotive/archfile.hpp"
#include "automotive/diagnostics.hpp"
#include "automotive/transform.hpp"
#include "csl/checkpoint.hpp"
#include "csl/property_parser.hpp"
#include "csl/session.hpp"
#include "service/shard.hpp"
#include "service/transport.hpp"
#include "util/budget.hpp"
#include "util/cancel.hpp"
#include "util/drain.hpp"
#include "util/failure.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"

namespace autosec::service {

namespace {

using util::JsonValue;

/// Client mistakes discovered after parsing (missing file, unknown message,
/// invalid architecture); carries the structured error of the response.
class RequestError : public std::runtime_error {
 public:
  explicit RequestError(ErrorInfo info)
      : std::runtime_error(info.message), info_(std::move(info)) {}
  const ErrorInfo& info() const { return info_; }

 private:
  ErrorInfo info_;
};

[[noreturn]] void bad_request(const std::string& message) {
  throw RequestError({"bad_request", message, ""});
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) bad_request("cannot open architecture file '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Per-request cancel token: armed when the request (or the server default)
/// carries a timeout. timeout_ms == 0 arms an already-expired deadline, so
/// the very first engine safepoint unwinds — the deterministic timeout path.
std::shared_ptr<util::CancelToken> make_token(
    const Request& request, const std::optional<int64_t>& fallback_ms) {
  const std::optional<int64_t> ms =
      request.timeout_ms ? request.timeout_ms : fallback_ms;
  if (!ms) return nullptr;
  auto token = std::make_shared<util::CancelToken>();
  token->set_deadline_after(std::chrono::milliseconds(*ms));
  return token;
}

/// Per-request resource meter. Always non-null: ceilings of 0 mean the
/// request set no limit, but the meter still records the peak bytes the
/// engine charged — the observation the admission controller's working-set
/// estimate learns from. Budgets are deliberately NOT part of the cache key:
/// they bound one request's work, they do not change the model or the
/// session's stages.
std::shared_ptr<util::ResourceBudget> make_budget(const Request& request) {
  const size_t max_states =
      request.max_states ? static_cast<size_t>(*request.max_states) : 0;
  const size_t max_bytes =
      request.max_memory_mb
          ? static_cast<size_t>(*request.max_memory_mb) * 1024 * 1024
          : 0;
  return std::make_shared<util::ResourceBudget>(max_states, max_bytes);
}

/// Parse the architecture text, mapping parse/validation failures to
/// bad_request (the client named a bad file, not an engine defect).
automotive::Architecture parse_architecture_checked(const std::string& content,
                                                    const std::string& path) {
  try {
    return automotive::parse_architecture(content);
  } catch (const std::exception& error) {
    bad_request("invalid architecture '" + path + "': " + error.what());
  }
}

/// The architecture of a single-pair op, with the request's message checked
/// against it: check, sweep and diagnose answer an unknown message alike.
automotive::Architecture pair_architecture(const std::string& content,
                                           const Request& request) {
  automotive::Architecture arch =
      parse_architecture_checked(content, request.architecture);
  if (arch.find_message(request.message) == nullptr) {
    bad_request("unknown message '" + request.message + "'");
  }
  return arch;
}

/// The "detail" object of an engine-failure envelope: only the progress
/// fields the failing stage actually reported.
JsonValue progress_to_json(const util::FailureProgress& progress) {
  JsonValue detail = JsonValue::object();
  if (progress.states_explored) {
    detail["states_explored"] = JsonValue::number(*progress.states_explored);
  }
  if (progress.frontier_size) {
    detail["frontier_size"] = JsonValue::number(*progress.frontier_size);
  }
  if (progress.last_command) {
    detail["last_command"] = JsonValue::string(*progress.last_command);
  }
  if (progress.iterations) {
    detail["iterations"] = JsonValue::number(*progress.iterations);
  }
  if (progress.residual) {
    detail["residual"] = JsonValue::number(*progress.residual);
  }
  if (progress.limit) detail["limit"] = JsonValue::number(*progress.limit);
  if (progress.charged_bytes) {
    detail["charged_bytes"] = JsonValue::number(*progress.charged_bytes);
  }
  return detail;
}

JsonValue result_to_json(const automotive::AnalysisResult& result) {
  JsonValue out = JsonValue::object();
  out["message"] = JsonValue::string(result.message);
  out["category"] = JsonValue::string(automotive::category_name(result.category));
  out["exploitable_fraction"] = JsonValue::number(result.exploitable_fraction);
  out["breach_probability"] = JsonValue::number(result.breach_probability);
  out["steady_state_fraction"] = JsonValue::number(result.steady_state_fraction);
  // +inf (breach not certain) serializes as null per the JSON convention.
  out["mean_time_to_breach"] = JsonValue::number(result.mean_time_to_breach);
  return out;
}

/// Startup merge of --config over the command-line flags, so
/// constructor-time sizing (cache capacity, admission, disk-cache quota)
/// already reflects the file. A bad file throws: startup fails loudly,
/// unlike a reload (where the previous config stays in force).
ServerOptions with_startup_config(ServerOptions options) {
  if (options.config_path.empty()) return options;
  const ServeConfig config = ServeConfig::from_file(options.config_path);
  if (config.max_inflight) options.max_inflight = *config.max_inflight;
  if (config.max_load_mb) options.max_load_mb = *config.max_load_mb;
  if (config.max_connections) options.max_connections = *config.max_connections;
  if (config.cache_capacity) options.cache_capacity = *config.cache_capacity;
  if (config.disk_cache_mb) options.disk_cache_mb = *config.disk_cache_mb;
  if (config.checkpoint_interval_ms) {
    options.checkpoint_interval_ms = *config.checkpoint_interval_ms;
  }
  if (config.default_timeout_ms) {
    if (*config.default_timeout_ms < 0) {
      options.default_timeout_ms = std::nullopt;
    } else {
      options.default_timeout_ms = *config.default_timeout_ms;
    }
  }
  if (config.max_batch) options.max_batch = *config.max_batch;
  if (config.watchdog_ms) options.watchdog_ms = *config.watchdog_ms;
  if (config.log_level) {
    util::set_log_level(util::parse_log_level(*config.log_level));
  }
  return options;
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(with_startup_config(std::move(options))),
      cache_(options_.cache_capacity),
      admission_(AdmissionOptions{options_.max_inflight, options_.max_load_mb,
                                  options_.deterministic}) {
  // Both stores open here, once: their directories are created and fscked
  // before the first request, and an unusable directory fails startup
  // instead of silently disabling what the operator asked for.
  if (!options_.disk_cache_dir.empty()) {
    disk_cache_ = std::make_unique<util::DurableStore>(
        options_.disk_cache_dir, util::kResultStore,
        options_.disk_cache_mb * (size_t{1} << 20));
  }
  if (!options_.checkpoint_dir.empty()) {
    checkpoints_ = std::make_shared<util::DurableStore>(options_.checkpoint_dir,
                                                        util::kCheckpointStore);
  }
  default_timeout_ms_.store(options_.default_timeout_ms.value_or(-1),
                            std::memory_order_relaxed);
  max_batch_.store(options_.max_batch, std::memory_order_relaxed);
  checkpoint_interval_ms_.store(options_.checkpoint_interval_ms,
                                std::memory_order_relaxed);
  watchdog_ms_.store(options_.watchdog_ms, std::memory_order_relaxed);
  max_connections_ =
      std::make_shared<std::atomic<size_t>>(options_.max_connections);
  if (!options_.config_path.empty()) {
    // Re-derive the canonical form for status; with_startup_config already
    // validated the file, so a racing edit here at worst blanks the surface.
    try {
      active_config_ = ServeConfig::from_file(options_.config_path).canonical();
    } catch (const std::exception&) {
      active_config_.clear();
    }
  }
}

std::optional<int64_t> Server::effective_timeout() const {
  const int64_t ms = default_timeout_ms_.load(std::memory_order_relaxed);
  if (ms < 0) return std::nullopt;
  return ms;
}

std::shared_ptr<csl::CheckpointLedger> Server::make_ledger(const Job& job,
                                                           RequestMetrics& metrics) {
  if (!checkpoints_) return nullptr;
  // Keyed by the job identity: a model edit or a different question names a
  // different snapshot and can never replay a stale value.
  auto ledger = std::make_shared<csl::CheckpointLedger>(csl::CheckpointOptions{
      checkpoints_, job.identity.job,
      checkpoint_interval_ms_.load(std::memory_order_relaxed)});
  metrics.checkpoint_records = ledger->load();
  return ledger;
}

void Server::apply_config(const ServeConfig& config) {
  const AdmissionController::Stats admission_stats = admission_.stats();
  admission_.set_limits(
      config.max_inflight.value_or(admission_stats.max_inflight),
      config.max_load_mb.value_or(admission_stats.max_load_mb));
  if (config.max_connections) {
    max_connections_->store(*config.max_connections,
                            std::memory_order_relaxed);
  }
  if (config.cache_capacity) cache_.set_capacity(*config.cache_capacity);
  if (config.disk_cache_mb && disk_cache_) {
    disk_cache_->set_quota(*config.disk_cache_mb * (size_t{1} << 20));
  }
  if (config.checkpoint_interval_ms) {
    checkpoint_interval_ms_.store(*config.checkpoint_interval_ms,
                                  std::memory_order_relaxed);
  }
  if (config.default_timeout_ms) {
    default_timeout_ms_.store(*config.default_timeout_ms < 0
                                  ? int64_t{-1}
                                  : *config.default_timeout_ms,
                              std::memory_order_relaxed);
  }
  if (config.max_batch) {
    max_batch_.store(*config.max_batch, std::memory_order_relaxed);
  }
  if (config.watchdog_ms) {
    watchdog_ms_.store(*config.watchdog_ms, std::memory_order_relaxed);
  }
  if (config.log_level) {
    util::set_log_level(util::parse_log_level(*config.log_level));
  }
  {
    std::lock_guard<std::mutex> lock(config_mutex_);
    active_config_ = config.canonical();
  }
  config_reloads_.fetch_add(1, std::memory_order_relaxed);
  util::metrics::registry().add("serve.config_reloads");
}

bool Server::apply_config_text(const std::string& text) {
  try {
    apply_config(ServeConfig::parse(text));
    return true;
  } catch (const std::exception& error) {
    AUTOSEC_LOG_WARN("serve")
        << "config reload rejected (previous configuration stays in "
           "force): "
        << error.what();
    return false;
  }
}

bool Server::reload_config_file() {
  if (options_.config_path.empty()) return false;
  try {
    apply_config(ServeConfig::from_file(options_.config_path));
    AUTOSEC_LOG_INFO("serve")
        << "config reloaded from '" << options_.config_path << "'";
    return true;
  } catch (const std::exception& error) {
    AUTOSEC_LOG_WARN("serve")
        << "config reload rejected (previous configuration stays in "
           "force): "
        << error.what();
    return false;
  }
}

std::string Server::active_config() const {
  std::lock_guard<std::mutex> lock(config_mutex_);
  return active_config_.empty() ? "{}" : active_config_;
}

void Server::reload_watch_loop() {
  // A short poll (rather than blocking forever) lets run() stop this thread
  // on paths that finish without a drain signal (stdin EOF).
  while (!reload_stop_.load(std::memory_order_relaxed)) {
    pollfd fds[1] = {{util::reload_fd(), POLLIN, 0}};
    ::poll(fds, 1, 200);
    if (util::consume_reload()) reload_config_file();
  }
}

util::JsonValue Server::run_analyze(const Job& job, RequestMetrics& metrics) {
  const Request& request = job.request;
  const auto token = make_token(request, effective_timeout());
  metrics.budget = make_budget(request);
  const auto ledger = make_ledger(job, metrics);

  bool hit = false;
  const auto entry = cache_.acquire(
      job.identity.session_key,
      [&] {
        const automotive::Architecture arch =
            parse_architecture_checked(job.architecture, request.architecture);
        return automotive::make_batch_session(arch, analysis_options(request),
                                              grid_categories(request), request.messages);
      },
      &hit);

  std::lock_guard<std::mutex> lock(entry->mutex);
  metrics.session_cache = hit ? "hit" : "miss";
  metrics.cache_key = job.identity.session_key;
  automotive::AnalysisOptions options = analysis_options(request);
  options.cancel = token;
  options.budget = metrics.budget;
  options.checkpoint = ledger;
  const automotive::ArchitectureReport report =
      automotive::analyze_batch_session(entry->batch, options);
  if (ledger) {
    ledger->flush();
    metrics.checkpoint_hits = ledger->resumed_hits();
    metrics.checkpoint_records = ledger->size();
  }

  metrics.explores = report.stats.explore_count;
  metrics.solver_fallbacks = report.stats.solver_fallbacks;
  if (!report.stats.engine.empty()) metrics.engine = report.stats.engine;
  if (!report.results.empty()) metrics.states = report.results.front().state_count;

  JsonValue result = JsonValue::object();
  result["architecture"] = JsonValue::string(entry->batch.architecture_name);
  result["horizon_years"] = JsonValue::number(request.horizon_years);
  JsonValue results = JsonValue::array();
  for (const automotive::AnalysisResult& r : report.results) {
    results.push_back(result_to_json(r));
  }
  result["results"] = std::move(results);
  return result;
}

util::JsonValue Server::run_on_pair_session(const Job& job, RequestMetrics& metrics,
                                            const PairSolve& solve) {
  const Request& request = job.request;
  const auto token = make_token(request, effective_timeout());
  bool hit = false;
  const auto entry = cache_.acquire(
      job.identity.session_key,
      [&] {
        const automotive::Architecture arch =
            pair_architecture(job.architecture, request);
        // No cancel token or budget: those are per-request, not per-entry.
        const automotive::AnalysisOptions options = analysis_options(request);
        automotive::BatchSession batch;
        batch.architecture_name = arch.name;
        batch.messages = {request.message};
        batch.categories = {request.category};
        try {
          batch.session = std::make_shared<csl::EngineSession>(
              automotive::pair_model(arch, request.message, request.category, options),
              automotive::session_options(options));
        } catch (const std::exception& error) {
          bad_request(std::string("cannot transform architecture: ") + error.what());
        }
        return batch;
      },
      &hit);

  std::lock_guard<std::mutex> lock(entry->mutex);
  metrics.session_cache = hit ? "hit" : "miss";
  metrics.cache_key = job.identity.session_key;
  metrics.budget = make_budget(request);
  csl::EngineSession& session = *entry->batch.session;
  session.set_cancel_token(token);
  session.set_resource_budget(metrics.budget);
  // Attach (or detach) this request's ledger: the session outlives requests
  // in the cache, so a stale ledger must never linger on it.
  const auto ledger = make_ledger(job, metrics);
  session.set_checkpoint(ledger);
  const csl::SessionStats before = session.stats();

  JsonValue result = JsonValue::object();
  result["architecture"] = JsonValue::string(entry->batch.architecture_name);
  result["message"] = JsonValue::string(request.message);
  result["category"] =
      JsonValue::string(automotive::category_name(request.category));
  solve(session, result);
  session.set_checkpoint(nullptr);
  if (ledger) {
    ledger->flush();
    metrics.checkpoint_hits = ledger->resumed_hits();
    metrics.checkpoint_records = ledger->size();
  }

  metrics.explores = session.stats().explore_count - before.explore_count;
  metrics.solver_fallbacks =
      session.stats().solver_fallbacks - before.solver_fallbacks;
  if (!session.stats().engine.empty()) metrics.engine = session.stats().engine;
  return result;
}

util::JsonValue Server::run_check(const Job& job, RequestMetrics& metrics) {
  const Request& request = job.request;
  return run_on_pair_session(job, metrics, [&](csl::EngineSession& session,
                                               JsonValue& result) {
    if (csl::override_cache_key(request.overrides) !=
        csl::override_cache_key(session.options().constant_overrides)) {
      session.set_constant_overrides(request.overrides);
    }
    std::vector<double> values;
    std::vector<JsonValue> strategies;
    if (request.strategy) {
      // Strategy export solves per property (the scheduler is per-objective);
      // properties that cannot carry one (rewards, steady state) fail the
      // whole request with the engine's typed error.
      values.reserve(request.properties.size());
      strategies.reserve(request.properties.size());
      for (const std::string& text : request.properties) {
        const csl::Property property = csl::parse_property(text);
        const csl::StrategyCheck checked = session.check_with_strategy(property);
        values.push_back(checked.value);
        strategies.push_back(session.strategy_document(property, checked.strategy));
      }
    } else {
      values = session.check_all(request.properties);
    }
    metrics.states = session.space().state_count();

    JsonValue rows = JsonValue::array();
    for (size_t i = 0; i < request.properties.size(); ++i) {
      JsonValue row = JsonValue::object();
      row["property"] = JsonValue::string(request.properties[i]);
      row["value"] = JsonValue::number(values[i]);
      if (i < strategies.size()) row["strategy"] = std::move(strategies[i]);
      rows.push_back(std::move(row));
    }
    result["properties"] = std::move(rows);
  });
}

util::JsonValue Server::run_sweep(const Job& job, RequestMetrics& metrics) {
  const Request& request = job.request;
  return run_on_pair_session(job, metrics, [&](csl::EngineSession& session,
                                               JsonValue& result) {
    // One multi-point solve on the cached session: each value is one
    // override set (a value an earlier request saw hits its cached stages),
    // and the points fan across the pool.
    const double horizon = request.horizon_years;
    std::vector<csl::OverrideSet> point_overrides;
    point_overrides.reserve(request.values.size());
    for (const double value : request.values) {
      point_overrides.push_back(request.overrides);
      point_overrides.back().emplace_back(request.constant, symbolic::Value::of(value));
    }
    const std::vector<csl::PointValue> exposures = session.check_points(
        automotive::exposure_property(horizon), point_overrides);
    // The last point's space: the sweep never explores the un-swept base key.
    metrics.states = exposures.back().state_count;

    JsonValue points = JsonValue::array();
    for (size_t i = 0; i < exposures.size(); ++i) {
      JsonValue point = JsonValue::object();
      point["value"] = JsonValue::number(request.values[i]);
      point["exploitable_fraction"] = JsonValue::number(exposures[i].value / horizon);
      points.push_back(std::move(point));
    }
    result["constant"] = JsonValue::string(request.constant);
    result["horizon_years"] = JsonValue::number(horizon);
    result["points"] = std::move(points);
  });
}

util::JsonValue Server::run_diagnose(const Job& job, RequestMetrics& metrics) {
  // One pair session per request (automotive::diagnose), not a cached one:
  // its criticality points are released as they are solved, so there is no
  // long-lived session to reuse: session_cache "none".
  const Request& request = job.request;
  const automotive::Architecture arch = pair_architecture(job.architecture, request);
  const auto token = make_token(request, effective_timeout());
  metrics.budget = make_budget(request);
  automotive::AnalysisOptions options = analysis_options(request);
  options.cancel = token;
  options.budget = metrics.budget;

  const automotive::Diagnosis diagnosis =
      automotive::diagnose(arch, request.message, request.category, options);

  JsonValue result = JsonValue::object();
  result["architecture"] = JsonValue::string(arch.name);
  result["message"] = JsonValue::string(request.message);
  result["category"] =
      JsonValue::string(automotive::category_name(request.category));

  JsonValue criticality = JsonValue::array();
  for (const automotive::Criticality& c : diagnosis.criticality) {
    JsonValue row = JsonValue::object();
    row["constant"] = JsonValue::string(c.constant);
    row["value"] = JsonValue::number(c.base_value);
    row["elasticity"] = JsonValue::number(c.elasticity);
    criticality.push_back(std::move(row));
  }
  result["criticality"] = std::move(criticality);

  JsonValue breach = JsonValue::object();
  breach["total_breach_probability"] =
      JsonValue::number(diagnosis.first_breach.total_breach_probability);
  JsonValue attributions = JsonValue::array();
  for (const automotive::BreachAttribution& a : diagnosis.first_breach.attributions) {
    JsonValue row = JsonValue::object();
    row["component"] = JsonValue::string(a.component);
    row["probability"] = JsonValue::number(a.probability);
    attributions.push_back(std::move(row));
  }
  breach["attributions"] = std::move(attributions);
  result["first_breach"] = std::move(breach);

  JsonValue quantiles = JsonValue::array();
  for (const automotive::BreachQuantile& q : diagnosis.quantiles) {
    JsonValue row = JsonValue::object();
    row["quantile"] = JsonValue::number(q.quantile);
    // +inf (quantile beyond max_years) serializes as null.
    row["years"] = JsonValue::number(q.years);
    quantiles.push_back(std::move(row));
  }
  result["breach_time_quantiles"] = std::move(quantiles);

  metrics.states = diagnosis.state_count;
  return result;
}

util::JsonValue Server::run_status(RequestMetrics&) {
  const SessionCache::Stats stats = cache_.stats();
  JsonValue result = JsonValue::object();
  // What this build of the service can do, for clients negotiating features
  // (the machine-readable request schema is tools/serve_schema.json).
  JsonValue capabilities = JsonValue::object();
  capabilities["schema_version"] = JsonValue::string(std::string(kSchemaVersion));
  JsonValue ops = JsonValue::array();
  for (const char* op : {"analyze", "check", "sweep", "diagnose", "status"}) {
    ops.push_back(JsonValue::string(op));
  }
  capabilities["ops"] = std::move(ops);
  JsonValue model_types = JsonValue::array();
  model_types.push_back(JsonValue::string("ctmc"));
  model_types.push_back(JsonValue::string("mdp"));
  capabilities["model_types"] = std::move(model_types);
  capabilities["strategy_export"] = JsonValue::boolean(true);
  result["capabilities"] = std::move(capabilities);
  JsonValue cache = JsonValue::object();
  cache["entries"] = JsonValue::number(stats.entries);
  cache["capacity"] = JsonValue::number(stats.capacity);
  cache["hits"] = JsonValue::number(stats.hits);
  cache["misses"] = JsonValue::number(stats.misses);
  cache["evictions"] = JsonValue::number(stats.evictions);
  result["cache"] = std::move(cache);
  const AdmissionController::Stats admission_stats = admission_.stats();
  JsonValue admission = JsonValue::object();
  admission["admitted"] = JsonValue::number(admission_stats.admitted);
  admission["shed"] = JsonValue::number(admission_stats.shed);
  admission["inflight"] = JsonValue::number(admission_stats.inflight);
  admission["max_inflight"] = JsonValue::number(admission_stats.max_inflight);
  admission["max_load_mb"] = JsonValue::number(admission_stats.max_load_mb);
  result["admission"] = std::move(admission);
  if (disk_cache_) {
    const util::DurableStore::Stats disk_stats = disk_cache_->stats();
    JsonValue disk = JsonValue::object();
    disk["hits"] = JsonValue::number(disk_stats.hits);
    disk["misses"] = JsonValue::number(disk_stats.misses);
    disk["stores"] = JsonValue::number(disk_stats.stores);
    disk["corrupt"] = JsonValue::number(disk_stats.corrupt);
    disk["evictions"] = JsonValue::number(disk_stats.evictions);
    disk["fsck_removed"] = JsonValue::number(disk_stats.fsck_removed);
    disk["size_bytes"] = JsonValue::number(disk_stats.size_bytes);
    disk["quota_bytes"] = JsonValue::number(disk_stats.quota_bytes);
    result["disk_cache"] = std::move(disk);
  } else {
    result["disk_cache"] = JsonValue::null();
  }
  if (!options_.checkpoint_dir.empty()) {
    JsonValue checkpoint = JsonValue::object();
    checkpoint["dir"] = JsonValue::string(options_.checkpoint_dir);
    checkpoint["interval_ms"] = JsonValue::number(
        checkpoint_interval_ms_.load(std::memory_order_relaxed));
    result["checkpoint"] = std::move(checkpoint);
  } else {
    result["checkpoint"] = JsonValue::null();
  }
  // The operational knobs as they stand right now — how an operator verifies
  // a SIGHUP reload actually landed.
  JsonValue config = JsonValue::object();
  config["path"] = options_.config_path.empty()
                       ? JsonValue::null()
                       : JsonValue::string(options_.config_path);
  config["reloads"] =
      JsonValue::number(config_reloads_.load(std::memory_order_relaxed));
  config["active"] = JsonValue::parse(active_config());
  config["max_connections"] = JsonValue::number(
      max_connections_->load(std::memory_order_relaxed));
  config["max_batch"] =
      JsonValue::number(max_batch_.load(std::memory_order_relaxed));
  const int64_t timeout_ms =
      default_timeout_ms_.load(std::memory_order_relaxed);
  config["default_timeout_ms"] = timeout_ms < 0
                                     ? JsonValue::null()
                                     : JsonValue::number(timeout_ms);
  config["watchdog_ms"] =
      JsonValue::number(watchdog_ms_.load(std::memory_order_relaxed));
  result["config"] = std::move(config);
  result["requests"] = JsonValue::number(requests_.load(std::memory_order_relaxed));
  result["errors"] = JsonValue::number(errors_.load(std::memory_order_relaxed));
  result["draining"] = JsonValue::boolean(draining());
  result["threads"] = JsonValue::number(util::thread_count());
  util::metrics::Registry& registry = util::metrics::registry();
  result["metrics"] = registry.enabled() ? JsonValue::parse(registry.to_json())
                                         : JsonValue::null();
  return result;
}

util::JsonValue Server::dispatch(const Job& job, RequestMetrics& metrics) {
  switch (job.request.op) {
    case Op::kAnalyze: return run_analyze(job, metrics);
    case Op::kCheck: return run_check(job, metrics);
    case Op::kSweep: return run_sweep(job, metrics);
    case Op::kDiagnose: return run_diagnose(job, metrics);
    case Op::kStatus: return run_status(metrics);
  }
  bad_request("unhandled op");
}

std::string Server::handle_line(const std::string& line) {
  const auto start = std::chrono::steady_clock::now();
  requests_.fetch_add(1, std::memory_order_relaxed);
  util::metrics::registry().add("serve.requests");

  const ParseResult parsed = parse_request(line);
  RequestMetrics metrics;
  std::optional<JsonValue> result;
  ErrorInfo error;
  std::optional<JsonValue> error_detail;
  Ticket ticket;
  // An engine-side failure may have left the cached session in a bad state
  // (half-built stages, a poisoned matrix): drop the entry so the next
  // request rebuilds from scratch. Timeouts are NOT evicted — a cancelled
  // session is clean and its cached stages stay valid.
  bool evict_entry = false;
  bool admitted = true;

  if (draining()) {
    error = {"shutting_down", "service is draining and not accepting requests", ""};
  } else if (!parsed.request) {
    error = parsed.error;
  } else {
    // Admission gate: decide before any engine work starts, so a saturated
    // server sheds new requests instead of aborting admitted ones. Status is
    // exempt — it is how operators look at a saturated server.
    if (parsed.request->op != Op::kStatus) {
      int64_t retry_after_ms = 0;
      std::optional<Ticket> grant = admission_.try_admit(&retry_after_ms);
      if (!grant) {
        admitted = false;
        error = {"overloaded",
                 "service is at capacity; retry after retry_after_ms", ""};
        error.retry_after_ms = retry_after_ms;
        util::metrics::registry().add("serve.shed");
      } else {
        ticket = std::move(*grant);
      }
    }
    if (admitted) {
      try {
        // Fault site: proves the dispatcher converts an allocation failure into
        // a structured oom envelope and keeps serving (autosec-verify --faults).
        if (util::fault::triggered("serve.dispatch.alloc")) throw std::bad_alloc();
        // The architecture is read and digested once; every layer below
        // keys on what this read saw.
        Job job{*parsed.request, {}, {}};
        // Status reports live server state: no file, never disk-cached.
        const bool has_job = job.request.op != Op::kStatus;
        if (has_job) {
          job.architecture = read_file(job.request.architecture);
          job.identity =
              request_identity(job.request, util::fnv1a64(job.architecture));
        }
        // Disk-cache probe: a hit replays the stored result without touching
        // the engine at all (explores 0 by construction).
        const bool disk_cached = disk_cache_ && has_job;
        if (disk_cached) {
          if (const std::optional<std::string> payload =
                  disk_cache_->lookup(job.identity.job)) {
            JsonValue stored = JsonValue::parse(*payload);
            if (stored.find("result") != nullptr) {
              metrics.disk_cache = "hit";
              metrics.states =
                  static_cast<size_t>(stored.int_or("states", 0));
              metrics.engine = stored.string_or("engine", "none");
              // The parsed document is ours: move the (large) result out
              // instead of copying it.
              result = std::move(stored["result"]);
              util::metrics::registry().add("serve.disk_hits");
            }
          }
          if (!result) metrics.disk_cache = "miss";
        }
        if (!result) {
          result = dispatch(job, metrics);
          if (disk_cached) {
            JsonValue stored = JsonValue::object();
            stored["result"] = *result;
            stored["states"] = JsonValue::number(metrics.states);
            stored["engine"] = JsonValue::string(metrics.engine);
            disk_cache_->store(job.identity.job, stored.dump());
          }
        }
      } catch (const util::Cancelled& cancelled) {
        error = {"timeout", cancelled.what(), cancelled.stage()};
      } catch (const RequestError& request_error) {
        error = request_error.info();
      } catch (const util::EngineFailure& failure) {
        error = {failure.code_name(), failure.what(), failure.stage()};
        error_detail = progress_to_json(failure.progress());
        evict_entry = true;
      } catch (const std::bad_alloc&) {
        error = {"oom", "allocation failure while handling the request", ""};
        evict_entry = true;
      } catch (const std::exception& engine_error) {
        error = {"engine_error", engine_error.what(), ""};
      } catch (...) {
        error = {"internal_error",
                 "an unexpected exception crossed the dispatcher", ""};
        evict_entry = true;
      }
    }
  }
  if (evict_entry && !metrics.cache_key.empty()) {
    cache_.evict(metrics.cache_key);
  }
  if (!result) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    util::metrics::registry().add("serve.errors");
  }

  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  metrics.wall_seconds = options_.deterministic ? 0.0 : wall_seconds;
  // Feed what this request actually cost back into the admission estimates
  // (the ticket's destructor releases the slot and reservation).
  ticket.observe(wall_seconds * 1000.0,
                 metrics.budget ? metrics.budget->peak_bytes() : 0);

  util::JsonWriter writer(0);
  writer.begin_object();
  writer.key("schema_version").value(kSchemaVersion);
  writer.key("id").value(parsed.id);
  writer.key("op").value(parsed.op_text);
  writer.key("ok").value(result.has_value());
  if (result) {
    writer.key("result");
    result->write(writer);
  } else {
    writer.key("error");
    writer.begin_object();
    writer.key("code").value(error.code);
    writer.key("message").value(error.message);
    if (!error.stage.empty()) writer.key("stage").value(error.stage);
    if (error.retry_after_ms) {
      writer.key("retry_after_ms").value(*error.retry_after_ms);
    }
    if (error_detail && error_detail->size() > 0) {
      writer.key("detail");
      error_detail->write(writer);
    }
    writer.end_object();
  }
  writer.key("metrics");
  writer.begin_object();
  writer.key("wall_seconds").value(metrics.wall_seconds);
  writer.key("session_cache").value(metrics.session_cache);
  writer.key("disk_cache").value(metrics.disk_cache);
  writer.key("explores").value(metrics.explores);
  writer.key("states").value(metrics.states);
  writer.key("solver_fallbacks").value(metrics.solver_fallbacks);
  writer.key("engine").value(metrics.engine);
  // Only when checkpointing is armed — the v1 envelope without --checkpoint
  // is golden-tested and must stay byte-stable.
  if (!options_.checkpoint_dir.empty()) {
    writer.key("checkpoint");
    writer.begin_object();
    writer.key("hits").value(metrics.checkpoint_hits);
    writer.key("records").value(metrics.checkpoint_records);
    writer.end_object();
  }
  writer.end_object();
  writer.end_object();
  return writer.take();
}

std::vector<std::string> Server::handle_batch(const std::vector<std::string>& lines) {
  std::vector<std::string> responses(lines.size());
  size_t index = 0;
  while (index < lines.size()) {
    const size_t batch = std::min(effective_max_batch(), lines.size() - index);
    if (batch == 1) {
      responses[index] = handle_line(lines[index]);
    } else {
      // Fan the batch across the pool; responses keep input order because
      // every slot writes only its own element.
      util::parallel_for(0, batch, 1, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          responses[index + i] = handle_line(lines[index + i]);
        }
      });
    }
    index += batch;
  }
  return responses;
}

void Server::process_buffered(std::string& buffer, std::ostream& out) {
  std::vector<std::string> lines;
  size_t pos = 0;
  while (true) {
    const size_t newline = buffer.find('\n', pos);
    if (newline == std::string::npos) break;
    std::string line = buffer.substr(pos, newline - pos);
    pos = newline + 1;
    if (line.find_first_not_of(" \t\r") != std::string::npos) {
      lines.push_back(std::move(line));  // blank lines are ignored, not errors
    }
  }
  buffer.erase(0, pos);
  if (lines.empty()) return;

  for (const std::string& response : handle_batch(lines)) out << response << '\n';
  out.flush();
}

int Server::serve_stream(std::istream& in, std::ostream& out) {
  std::ostringstream all;
  all << in.rdbuf();
  std::string buffer = all.str();
  if (!buffer.empty() && buffer.back() != '\n') buffer += '\n';
  process_buffered(buffer, out);
  return 0;
}

int Server::serve_fd(int fd, std::ostream& out) {
  std::string buffer;
  bool eof = false;
  while (!eof && !util::drain_requested()) {
    pollfd fds[2] = {{fd, POLLIN, 0}, {util::drain_fd(), POLLIN, 0}};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // drain signal
    if ((fds[0].revents & (POLLIN | POLLHUP)) == 0) continue;
    char chunk[65536];
    const ssize_t got = ::read(fd, chunk, sizeof(chunk));
    if (got < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      break;
    }
    if (got == 0) {
      eof = true;
    } else {
      buffer.append(chunk, static_cast<size_t>(got));
      // Requests already received are handled (and answered) even if a drain
      // arrives while they run — the graceful part of the drain.
      process_buffered(buffer, out);
    }
  }
  process_buffered(buffer, out);
  begin_drain();
  return 0;
}

std::string Server::overflow_response() const {
  ErrorInfo error{"overloaded",
                  "connection limit reached; retry after retry_after_ms", ""};
  error.retry_after_ms = options_.deterministic ? 100 : 1000;
  return synthetic_envelope("", "", error);
}

namespace {

/// In-process connection handler: every batch of lines fans across the
/// engine pool synchronously, so finish() has nothing left to wait for.
class DirectConnection : public ConnectionHandler {
 public:
  DirectConnection(Server& server, std::shared_ptr<ConnectionSink> sink)
      : server_(server), sink_(std::move(sink)) {}

  void handle_lines(std::vector<std::string> lines) override {
    for (const std::string& response : server_.handle_batch(lines)) {
      sink_->write_line(response);
    }
  }

  void finish() override {}

 private:
  Server& server_;
  std::shared_ptr<ConnectionSink> sink_;
};

}  // namespace

int Server::serve_listener(int listen_fd, std::ostream& err) {
  AcceptLoopOptions accept_options;
  accept_options.max_connections = options_.max_connections;
  accept_options.dynamic_max_connections = max_connections_;
  accept_options.overflow_line = [this] { return overflow_response(); };
  const int rc = serve_connections(
      listen_fd, accept_options,
      [this](std::shared_ptr<ConnectionSink> sink) {
        return std::make_unique<DirectConnection>(*this, std::move(sink));
      },
      err);
  begin_drain();
  err << "serve: drained, shutting down\n";
  return rc;
}

int Server::run(std::ostream& out, std::ostream& err) {
  if (options_.threads > 0) {
    util::set_thread_count(static_cast<size_t>(options_.threads));
  }
  if (!options_.tcp_address.empty() && !options_.socket_path.empty()) {
    err << "serve: --tcp and --socket are mutually exclusive\n";
    return 2;
  }
  const bool has_listener =
      !options_.tcp_address.empty() || !options_.socket_path.empty();
  if (options_.workers > 0 && !has_listener) {
    err << "serve: --workers requires --tcp or --socket\n";
    return 2;
  }
  if (!options_.input_path.empty()) {
    std::ifstream in(options_.input_path);
    if (!in) {
      err << "serve: cannot open input '" << options_.input_path << "'\n";
      return 2;
    }
    return serve_stream(in, out);
  }
  util::install_drain_signals();
  // SIGHUP config reload for the in-process serve paths; the sharded parent
  // runs its own watcher (it also has to push "!cfg" frames to workers).
  std::thread reload_thread;
  if (!options_.config_path.empty() && options_.workers == 0) {
    util::install_reload_signal();
    reload_thread = std::thread([this] { reload_watch_loop(); });
  }
  const auto stop_reload_thread = [&] {
    if (reload_thread.joinable()) {
      reload_stop_.store(true, std::memory_order_relaxed);
      reload_thread.join();
    }
  };
  if (has_listener) {
    std::string listen_error;
    int listen_fd = -1;
    if (!options_.tcp_address.empty()) {
      int port = 0;
      listen_fd = listen_tcp(options_.tcp_address, &port, listen_error);
      if (listen_fd >= 0) {
        // The resolved endpoint (not the requested one): with port 0 this
        // line is how tests and CI discover where the server landed.
        std::string host = "127.0.0.1";
        if (const size_t colon = options_.tcp_address.rfind(':');
            colon != std::string::npos) {
          host = options_.tcp_address.substr(0, colon);
        }
        err << "serve: listening on " << host << ":" << port << "\n";
      }
    } else {
      listen_fd = listen_unix(options_.socket_path, listen_error);
      if (listen_fd >= 0) {
        err << "serve: listening on " << options_.socket_path << "\n";
      }
    }
    if (listen_fd < 0) {
      err << "serve: " << listen_error << "\n";
      stop_reload_thread();
      return 2;
    }
    const int rc = options_.workers > 0 ? run_sharded(listen_fd, options_, err)
                                        : serve_listener(listen_fd, err);
    ::close(listen_fd);
    if (!options_.socket_path.empty()) ::unlink(options_.socket_path.c_str());
    stop_reload_thread();
    return rc;
  }
  const int rc = serve_fd(STDIN_FILENO, out);
  stop_reload_thread();
  return rc;
}

int run_serve(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err) {
  ServerOptions options;
  try {
    for (size_t i = 0; i < args.size(); ++i) {
      const std::string& flag = args[i];
      const auto next_value = [&]() -> const std::string& {
        if (++i >= args.size()) {
          throw std::runtime_error("flag " + flag + " needs a value");
        }
        return args[i];
      };
      if (flag == "--input") {
        options.input_path = next_value();
      } else if (flag == "--socket") {
        options.socket_path = next_value();
      } else if (flag == "--tcp") {
        options.tcp_address = next_value();
      } else if (flag == "--workers") {
        options.workers = static_cast<int>(std::stol(next_value()));
      } else if (flag == "--max-connections") {
        options.max_connections = std::max<size_t>(1, std::stoul(next_value()));
      } else if (flag == "--max-inflight") {
        options.max_inflight = static_cast<size_t>(std::stoul(next_value()));
      } else if (flag == "--max-load-mb") {
        options.max_load_mb = static_cast<size_t>(std::stoul(next_value()));
      } else if (flag == "--disk-cache") {
        options.disk_cache_dir = next_value();
      } else if (flag == "--disk-cache-mb") {
        options.disk_cache_mb = static_cast<size_t>(std::stoul(next_value()));
      } else if (flag == "--checkpoint") {
        options.checkpoint_dir = next_value();
      } else if (flag == "--checkpoint-interval-ms") {
        options.checkpoint_interval_ms =
            static_cast<uint64_t>(std::stoull(next_value()));
      } else if (flag == "--watchdog-ms") {
        options.watchdog_ms = static_cast<uint64_t>(std::stoull(next_value()));
      } else if (flag == "--config") {
        options.config_path = next_value();
      } else if (flag == "--cache-capacity") {
        options.cache_capacity = static_cast<size_t>(std::stoul(next_value()));
      } else if (flag == "--default-timeout-ms") {
        options.default_timeout_ms = std::stoll(next_value());
      } else if (flag == "--max-batch") {
        options.max_batch = std::max<size_t>(1, std::stoul(next_value()));
      } else if (flag == "--threads") {
        options.threads = static_cast<int>(std::stol(next_value()));
      } else if (flag == "--deterministic") {
        options.deterministic = true;
      } else {
        throw std::runtime_error("unknown serve flag '" + flag + "'");
      }
    }
  } catch (const std::exception& error) {
    err << "serve: " << error.what() << "\n";
    return 2;
  }
  try {
    Server server(std::move(options));
    return server.run(out, err);
  } catch (const std::exception& error) {
    err << "serve: " << error.what() << "\n";
    return 2;
  }
}

}  // namespace autosec::service
