// One job identity for every layer that decides whether two jobs are "the
// same": the serve session cache, the serve disk cache, and the checkpoint
// snapshots of serve and the CLI. Each job gets two keys:
//
//  * the session key selects a cached engine session: the session scope
//    (batch grid or single pair), the architecture *content* digest, the
//    model and plan fields of the analysis options, and the message/category
//    grid. Horizon and constant overrides stay out — a session re-keys its
//    stage cache per override set (that is what makes sweeps cheap), and the
//    horizon only appears in property texts — so check and sweep on one pair
//    share a session;
//  * the job identity names one result: the session key plus the op, the
//    horizon, the overrides and the op payload (property texts, sweep
//    values, ...). It keys disk-cache entries and checkpoint snapshots.
//
// identity.cpp takes csl::EngineOptions and csl::SolverPlan apart with
// structured bindings, so a field added to either struct breaks the build
// until it is keyed there or named as not affecting results.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "automotive/analyzer.hpp"
#include "service/protocol.hpp"

namespace autosec::service {

/// Which engine session a job runs on: the whole-vehicle batch model of a
/// (message x category) grid, or the model of one (message, category) pair.
enum class SessionScope { kBatch, kPair };

struct JobIdentity {
  std::string session_key;
  std::string job;
};

/// The keys of one job over an architecture whose file content digests to
/// `architecture_digest` (util::fnv1a64). Empty `messages` means every
/// message of the architecture.
JobIdentity job_identity(std::string_view op, SessionScope scope,
                         uint64_t architecture_digest,
                         const automotive::AnalysisOptions& options,
                         const std::vector<std::string>& messages,
                         const std::vector<automotive::SecurityCategory>& categories,
                         std::string_view payload);

/// The engine options a serve request runs with. The cancel token, budget
/// and checkpoint ledger stay unset: they are per-request, and the server
/// arms them.
automotive::AnalysisOptions analysis_options(const Request& request);

/// The (message, category) grid an analyze request covers: its explicit
/// categories, or the standard three.
std::vector<automotive::SecurityCategory> grid_categories(const Request& request);

/// The keys of a serve request of any op but status.
JobIdentity request_identity(const Request& request, uint64_t architecture_digest);

}  // namespace autosec::service
