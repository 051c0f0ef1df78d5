// End-to-end security analysis driver — the complete flow of the paper's
// Fig. 2: architecture → Markov model (transform) → rates (already embedded
// as constants) → property → probabilistic model checking → quantified
// result.
//
// The headline metric matches the paper's evaluation: "percentage of time the
// message m is exploitable within 1 year", i.e. the expected cumulated
// violation time R{"exposure"}=?[C<=1] divided by the horizon.
//
// Every measure is solved by the staged engine (csl::EngineSession). A
// whole-vehicle report — on the CLI and in serve alike — transforms the
// architecture into ONE batch model covering every (message, category) pair,
// compiles and explores it once per constant-override set, and fans all
// properties across the thread pool against the shared state space; a
// SecurityAnalysis holds the session of one pair's own model.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "automotive/architecture.hpp"
#include "automotive/transform.hpp"
#include "csl/session.hpp"

namespace autosec::automotive {

/// Analyzer-level view of the shared engine knobs (csl/engine_options.hpp):
/// nmax, horizon_years, constant_overrides (names per transform.hpp's
/// *_constant helpers — the paper's Fig. 6 parameter exploration),
/// solver/transient settings and the cancel token are all inherited fields.
struct AnalysisOptions : csl::EngineOptions {
  bool literal_patch_guard = false;
  bool guardian_requires_foothold = false;  // see TransformOptions
  bool include_reliability = true;          // see TransformOptions
};

struct AnalysisResult {
  std::string architecture;
  std::string message;
  SecurityCategory category = SecurityCategory::kConfidentiality;

  /// Expected fraction of the horizon during which the message is
  /// exploitable (0..1). Multiply by 100 for the paper's percentages.
  double exploitable_fraction = 0.0;
  /// Probability that the message becomes exploitable at least once within
  /// the horizon: P=?[F<=h "violated"].
  double breach_probability = 0.0;
  /// Long-run fraction of time in violated states: S=?["violated"].
  double steady_state_fraction = 0.0;
  /// Mean time (years) until the message first becomes exploitable:
  /// R{"time"}=?[F "violated"]. +infinity when a breach is not certain
  /// (e.g. isolated networks).
  double mean_time_to_breach = 0.0;

  /// Size of the state space the result was computed on (the shared batch
  /// model's for whole-vehicle reports, the pair model's for analyze_message).
  size_t state_count = 0;
  size_t transition_count = 0;
  double build_seconds = 0.0;
  double check_seconds = 0.0;
};

/// A whole-vehicle report plus the engine counters that produced it. The
/// stats expose the staged pipeline's cache behaviour: explore_count ==
/// number of constant-override sets (1 for a plain report).
struct ArchitectureReport {
  std::vector<AnalysisResult> results;
  csl::SessionStats stats;
};

/// The headline property of a single-pair model, R{"exposure"}=? [ C<=h ]:
/// the expected time the message is exploitable within the horizon (divide
/// by h for the exploitable fraction). The bound is printed in shortest
/// round-trip form, so the solve integrates to exactly `horizon_years`.
std::string exposure_property(double horizon_years);

/// The Markov model of one (message, category) pair, built by transform()
/// from the analysis options' model knobs — what SecurityAnalysis checks.
symbolic::Model pair_model(const Architecture& architecture, const std::string& message,
                           SecurityCategory category, const AnalysisOptions& options);

/// The engine-session options an analysis runs with: the shared engine
/// knobs. A session built from pair_model() and these options compiles and
/// explores nothing until first use, so a check_points() caller (sweeps,
/// criticality) explores only its points' override keys.
csl::SessionOptions session_options(const AnalysisOptions& options);

/// A reusable analysis session over one (message, category) pair: the model
/// is transformed once and handed to a csl::EngineSession, which compiles and
/// explores it lazily and caches every stage; several properties can then be
/// checked against it.
class SecurityAnalysis {
 public:
  SecurityAnalysis(const Architecture& architecture, const std::string& message,
                   SecurityCategory category, const AnalysisOptions& options = {});

  SecurityAnalysis(const SecurityAnalysis&) = delete;
  SecurityAnalysis& operator=(const SecurityAnalysis&) = delete;

  /// The standard result bundle (exposure fraction, breach probability,
  /// steady state).
  AnalysisResult result() const;

  /// Check an arbitrary CSL property against the generated model (labels
  /// "violated", "ecu_<name>_exploited", "bus_<name>_exploitable" and the
  /// reward structure "exposure" are available).
  double check(const std::string& property) const;

  const symbolic::Model& model() const { return model_; }
  const AnalysisOptions& options() const { return options_; }
  const symbolic::StateSpace& space() const { return session_->space(); }
  const std::shared_ptr<csl::EngineSession>& session() const { return session_; }
  double build_seconds() const;

 private:
  AnalysisOptions options_;
  std::string architecture_name_;
  std::string message_;
  SecurityCategory category_;
  symbolic::Model model_;
  std::shared_ptr<csl::EngineSession> session_;
};

/// One-shot convenience wrapper.
AnalysisResult analyze_message(const Architecture& architecture,
                               const std::string& message, SecurityCategory category,
                               const AnalysisOptions& options = {});

/// A prepared whole-vehicle batch analysis: the combined model's engine
/// session plus the (message, category) grid it answers. Splitting the batch
/// path into make + analyze lets a long-lived caller — the serving layer's
/// session cache — build the session once and answer repeated reports from
/// its cached stages (no re-compile / re-explore; see SessionStats).
struct BatchSession {
  std::shared_ptr<csl::EngineSession> session;
  std::string architecture_name;
  std::vector<std::string> messages;
  std::vector<SecurityCategory> categories;
};

/// Transform + wrap the architecture into a reusable batch session. The model
/// covers every (message, category) pair of the grid; nothing is compiled or
/// explored until the first analyze_batch_session call.
BatchSession make_batch_session(
    const Architecture& architecture, const AnalysisOptions& options = {},
    const std::vector<SecurityCategory>& categories = {
        SecurityCategory::kConfidentiality, SecurityCategory::kIntegrity,
        SecurityCategory::kAvailability},
    const std::vector<std::string>& messages = {});

/// Whole-vehicle report from a prepared batch session — the one analyze path
/// of the CLI and serve. `options` supplies the per-request knobs
/// (horizon_years, constant_overrides — re-keying the session's stage cache
/// when they change). The single-model protection constants "eta_msg" /
/// "phi_msg" apply to every (message, category) pair of the grid: they are
/// renamed to each pair's batch_message_eta_constant /
/// batch_message_phi_constant before re-keying, so a pair without a
/// protection module fails with the undeclared-constant ModelError. The
/// returned stats are the DELTA this call added to the session: a report
/// answered entirely from cache has stats.explore_count == 0.
ArchitectureReport analyze_batch_session(BatchSession& batch,
                                         const AnalysisOptions& options = {});

/// Whole-vehicle report: every message in the architecture (or `messages`
/// when non-empty), across the given categories. Results are ordered
/// message-major in declaration order — the table a decision maker compares
/// variants with. make_batch_session + analyze_batch_session: one compile +
/// explore serves all pairs.
ArchitectureReport analyze_architecture_report(
    const Architecture& architecture, const AnalysisOptions& options = {},
    const std::vector<SecurityCategory>& categories = {
        SecurityCategory::kConfidentiality, SecurityCategory::kIntegrity,
        SecurityCategory::kAvailability},
    const std::vector<std::string>& messages = {});

}  // namespace autosec::automotive
