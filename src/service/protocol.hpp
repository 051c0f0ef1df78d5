// The v1 serve protocol: newline-delimited JSON requests and responses over
// stdin, a file, or a Unix socket (see service/server.hpp). Every response —
// success or error — carries the same envelope:
//
//   {"schema_version": "autosec-serve-v1", "id": "...", "op": "...",
//    "ok": true|false, "result": {...} | "error": {...}, "metrics": {...}}
//
// The error object is structured ({"code", "message", "stage"?, "detail"?})
// with codes
//   bad_request              malformed JSON, unknown op, invalid/missing fields
//   timeout                  the request's deadline expired (stage names the
//                            engine stage that observed it)
//   engine_error             the engine rejected the model or a solve failed
//   shutting_down            the service is draining (SIGTERM)
//   overloaded               admission control shed the request before any
//                            engine work started; the error object carries
//                            "retry_after_ms", the suggested client backoff
//                            (requests already running are never aborted)
//   state_budget_exceeded    exploration hit the request's max_states ceiling
//   memory_budget_exceeded   tracked engine allocations hit max_memory_mb
//   oom                      a real allocation failure inside a stage
//   solver_diverged          every solver rung failed to converge
//   numerical_error          NaN/Inf detected in a result vector
//   cancelled                cooperative cancellation other than a deadline
//   internal_error           an unexpected exception crossed the dispatcher
// Engine-side failures (the codes below shutting_down) carry an optional
// "detail" object with the partial progress the failing stage reported:
// states_explored, frontier_size, last_command, iterations, residual, limit,
// charged_bytes — only the fields the stage could fill. After such a failure
// the offending session-cache entry is evicted; the worker keeps serving.
//
// The metrics object makes cache behaviour observable per request:
//   {"wall_seconds": S, "session_cache": "hit"|"miss"|"none",
//    "disk_cache": "hit"|"miss"|"none", "explores": N, "states": N,
//    "solver_fallbacks": N, "engine": "..."}
// — "explores" is the state-space explorations this request added to its
// session; a repeated analyze answered from the session cache reports
// session_cache "hit" and explores 0. "disk_cache" reports the persistent
// result cache (--disk-cache, a util::DurableStore): "hit" means the whole
// result was replayed from disk (explores 0, no engine work), "none" means
// no disk cache is configured or the op is not cacheable. "solver_fallbacks" counts
// solver rungs taken beyond the first (a degraded but correct solve).
// "engine" is the state store that held the request's states ("compact",
// the one store; "none" for requests that build no state space, e.g.
// status/diagnose).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "automotive/architecture.hpp"
#include "linalg/gauss_seidel.hpp"
#include "symbolic/model.hpp"
#include "symbolic/state_store.hpp"

namespace autosec::service {

inline constexpr std::string_view kSchemaVersion = "autosec-serve-v1";

enum class Op { kAnalyze, kCheck, kSweep, kDiagnose, kStatus };

/// The op token as it appears on the wire ("analyze", "check", ...).
std::string_view op_name(Op op);

/// Structured error object of the v1 envelope.
struct ErrorInfo {
  ErrorInfo() = default;
  ErrorInfo(std::string code, std::string message, std::string stage)
      : code(std::move(code)), message(std::move(message)),
        stage(std::move(stage)) {}

  std::string code;     ///< bad_request | timeout | engine_error | shutting_down
  std::string message;  ///< human-readable detail
  std::string stage;    ///< engine stage for timeouts; empty otherwise
  /// Suggested client backoff; present only on `overloaded` responses.
  std::optional<int64_t> retry_after_ms;
};

/// A parsed v1 request. Fields not used by the request's op are left at
/// their defaults; see docs/serving.md for the full field matrix.
struct Request {
  std::string id;  ///< echoed verbatim; empty when the client sent none
  Op op = Op::kStatus;

  /// Path to the .arch file (every op except status).
  std::string architecture;
  /// analyze: the (message, category) grid; empty means all messages /
  /// all three categories.
  std::vector<std::string> messages;
  std::vector<automotive::SecurityCategory> categories;
  /// check / sweep / diagnose: the single target pair.
  std::string message;
  automotive::SecurityCategory category =
      automotive::SecurityCategory::kConfidentiality;

  std::vector<std::string> properties;  ///< check: CSL property texts
  std::string constant;                 ///< sweep: overridden constant name
  std::vector<double> values;           ///< sweep: values to evaluate

  int nmax = 1;
  double horizon_years = 1.0;
  std::vector<std::pair<std::string, symbolic::Value>> overrides;
  /// Per-request wall-clock budget. Absent = no timeout; 0 = already
  /// expired (deterministic timeout, used by the protocol tests).
  std::optional<int64_t> timeout_ms;
  std::optional<linalg::FixpointMethod> solver;
  /// Per-request resource ceilings (absent = unlimited). Exceeding one
  /// yields a typed state_budget_exceeded / memory_budget_exceeded error.
  std::optional<int64_t> max_states;
  std::optional<int64_t> max_memory_mb;
  /// Engine token ("auto" | "classic" | "compact"), kept for one release:
  /// "compact" turns symmetry reduction on for ctmc models; the other two
  /// are the same request.
  symbolic::ExplorationEngine engine = symbolic::ExplorationEngine::kAuto;
  /// Steady-state truncation of long transient horizons (default on). The
  /// solve kernels themselves resolve from the matrix alone
  /// (docs/engine.md#solver-kernels); no request field selects them.
  bool steady_state_detection = true;
  /// Model family of the generated model ("ctmc" | "mdp"): ctmc is the
  /// paper's exploit-vs-patch race, mdp the nondeterministic worst-case
  /// attacker. Part of request identity — session and disk cache keys fold
  /// it in, so a cached ctmc answer can never serve an mdp query.
  symbolic::ModelType model_type = symbolic::ModelType::kCtmc;
  /// check on an mdp model: also export the optimizing scheduler (the attack
  /// path) per property; the response's result rows gain a "strategy" object.
  bool strategy = false;
};

/// Outcome of parsing one request line: either a request or a bad_request
/// error (never both). `id`/`op_text` carry whatever could be salvaged from
/// the malformed input so the error response can still echo them.
struct ParseResult {
  std::optional<Request> request;
  ErrorInfo error;
  std::string id;       ///< echoed id even when parsing failed
  std::string op_text;  ///< raw op string even when unknown
};

/// Parse one newline-delimited request. Unknown top-level keys are rejected
/// (bad_request) so client typos fail loudly instead of silently running a
/// default analysis.
ParseResult parse_request(std::string_view line);

/// Parse a category token ("confidentiality" | "integrity" | "availability").
std::optional<automotive::SecurityCategory> parse_category_token(
    std::string_view text);

/// A complete v1 error envelope built outside the dispatcher — for requests
/// that never reach it (connection overflow, a request whose worker crashed
/// past the resend cap). `id`/`op_text` echo what could be salvaged from the
/// original line; metrics are all zero ("none" caches, engine "none").
std::string synthetic_envelope(std::string_view id, std::string_view op_text,
                               const ErrorInfo& error);

}  // namespace autosec::service
