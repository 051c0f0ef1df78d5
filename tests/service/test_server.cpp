// End-to-end tests of the serve layer: v1 envelope stability (golden files),
// session-cache reuse proven by the per-request metrics, structured timeouts,
// drain behaviour, and bit-identical agreement with one-shot analysis.
#include "service/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "automotive/analyzer.hpp"
#include "automotive/archfile.hpp"
#include "util/fault.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"

namespace autosec::service {
namespace {

using util::JsonValue;

std::string source_path(const std::string& relative) {
  return std::string(AUTOSEC_SOURCE_DIR) + "/" + relative;
}

std::string arch_path() { return source_path("data/arch1.arch"); }

std::string analyze_line(const std::string& id, const std::string& extra = "") {
  return "{\"id\": \"" + id + "\", \"op\": \"analyze\", \"architecture\": \"" +
         arch_path() + "\"" + extra + "}";
}

JsonValue handle(Server& server, const std::string& line) {
  return JsonValue::parse(server.handle_line(line));
}

ServerOptions deterministic_options() {
  ServerOptions options;
  options.deterministic = true;
  return options;
}

std::string read_golden(const std::string& name) {
  const std::string path = source_path("tests/service/golden/" + name);
  std::ifstream file(path);
  EXPECT_TRUE(file.is_open()) << "missing golden file " << path;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  std::string text = buffer.str();
  if (!text.empty() && text.back() == '\n') text.pop_back();
  return text;
}

/// Replace every number with 0, pinning the response's shape and key order
/// without pinning solver output.
JsonValue normalize_numbers(const JsonValue& value) {
  switch (value.kind()) {
    case JsonValue::Kind::kNumber: return JsonValue::number(0);
    case JsonValue::Kind::kArray: {
      JsonValue out = JsonValue::array();
      for (size_t i = 0; i < value.size(); ++i) {
        out.push_back(normalize_numbers(value.at(i)));
      }
      return out;
    }
    case JsonValue::Kind::kObject: {
      JsonValue out = JsonValue::object();
      for (const auto& [key, member] : value.members()) {
        out[key] = normalize_numbers(member);
      }
      return out;
    }
    default: return value;
  }
}

TEST(ServerTest, EnvelopeCarriesSchemaVersionAndMetrics) {
  Server server(deterministic_options());
  const JsonValue response = handle(server, analyze_line("r1"));
  EXPECT_EQ(response.string_or("schema_version", ""), "autosec-serve-v1");
  EXPECT_EQ(response.string_or("id", ""), "r1");
  EXPECT_EQ(response.string_or("op", ""), "analyze");
  EXPECT_TRUE(response.bool_or("ok", false)) << response.dump();
  ASSERT_NE(response.find("result"), nullptr);
  ASSERT_NE(response.find("metrics"), nullptr);
  EXPECT_EQ(response.find("metrics")->number_or("wall_seconds", -1.0), 0.0);
}

TEST(ServerTest, RepeatedAnalyzeHitsSessionCacheWithoutReExploration) {
  Server server(deterministic_options());
  const JsonValue first = handle(server, analyze_line("r1"));
  const JsonValue second = handle(server, analyze_line("r2"));

  EXPECT_EQ(first.find("metrics")->string_or("session_cache", ""), "miss");
  EXPECT_EQ(first.find("metrics")->int_or("explores", -1), 1);
  // The repeat is answered entirely from the cached session's stages.
  EXPECT_EQ(second.find("metrics")->string_or("session_cache", ""), "hit");
  EXPECT_EQ(second.find("metrics")->int_or("explores", -1), 0);
  // And returns the identical payload.
  EXPECT_EQ(first.find("result")->dump(), second.find("result")->dump());

  const JsonValue status = handle(server, R"({"op": "status"})");
  const JsonValue* cache = status.find("result")->find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->int_or("entries", -1), 1);
  EXPECT_EQ(cache->int_or("hits", -1), 1);
  EXPECT_EQ(cache->int_or("misses", -1), 1);
}

TEST(ServerTest, OverrideChangeReExploresButKeepsSession) {
  Server server(deterministic_options());
  handle(server, analyze_line("r1"));
  const JsonValue overridden =
      handle(server, analyze_line("r2", ", \"overrides\": {\"phi_gw\": 8.0}"));
  // Same cached session (no new cache entry), but a new override set means
  // one new exploration of the re-keyed stage set.
  EXPECT_EQ(overridden.find("metrics")->string_or("session_cache", ""), "hit");
  EXPECT_EQ(overridden.find("metrics")->int_or("explores", -1), 1);
  // Returning to the original overrides hits the earlier stage set again.
  const JsonValue back = handle(server, analyze_line("r3"));
  EXPECT_EQ(back.find("metrics")->int_or("explores", -1), 0);
}

automotive::Architecture load_architecture(const std::string& path) {
  std::ifstream file(path);
  EXPECT_TRUE(file.is_open()) << "missing architecture " << path;
  std::ostringstream text;
  text << file.rdbuf();
  return automotive::parse_architecture(text.str());
}

/// Every served analyze row equals the one-shot report's row bit for bit.
void expect_rows_match_report(const JsonValue& response,
                              const automotive::ArchitectureReport& report) {
  const JsonValue* result = response.find("result");
  ASSERT_NE(result, nullptr) << response.dump();
  const JsonValue* rows = result->find("results");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->size(), report.results.size());
  for (size_t i = 0; i < report.results.size(); ++i) {
    const JsonValue& row = rows->at(i);
    const automotive::AnalysisResult& expected = report.results[i];
    EXPECT_EQ(row.string_or("message", ""), expected.message);
    // Doubles round-trip exactly through the shortest-form JSON encoding, so
    // == is the right comparison: served numerics are bit-identical to the
    // one-shot path.
    EXPECT_EQ(row.number_or("exploitable_fraction", -1.0),
              expected.exploitable_fraction);
    EXPECT_EQ(row.number_or("breach_probability", -1.0),
              expected.breach_probability);
    EXPECT_EQ(row.number_or("steady_state_fraction", -1.0),
              expected.steady_state_fraction);
    EXPECT_EQ(row.number_or("mean_time_to_breach", -1.0),
              expected.mean_time_to_breach);
  }
}

TEST(ServerTest, ServedNumbersMatchOneShotAnalysisBitExactly) {
  Server server(deterministic_options());
  const JsonValue response = handle(server, analyze_line("r1"));
  expect_rows_match_report(
      response, automotive::analyze_architecture_report(load_architecture(arch_path())));
}

TEST(ServerTest, ConcurrentRequestsOnDistinctSessionsMatchOneShot) {
  // Four requests on four sessions compute at once on one 4-lane pool, each
  // fanning its property tasks across it; every served value still equals
  // the one-shot analysis of its architecture.
  util::set_thread_count(4);
  const std::vector<std::string> paths = {
      source_path("data/arch1.arch"), source_path("data/arch2.arch"),
      source_path("data/arch3.arch"), source_path("data/zonal_ethernet.arch")};
  Server server(deterministic_options());
  std::vector<std::string> responses(paths.size());
  std::vector<std::thread> clients;
  for (size_t c = 0; c < paths.size(); ++c) {
    clients.emplace_back([&, c] {
      responses[c] = server.handle_line(
          "{\"id\": \"c" + std::to_string(c) +
          "\", \"op\": \"analyze\", \"architecture\": \"" + paths[c] + "\"}");
    });
  }
  for (std::thread& client : clients) client.join();
  util::set_thread_count(0);

  for (size_t c = 0; c < paths.size(); ++c) {
    SCOPED_TRACE(paths[c]);
    const JsonValue response = JsonValue::parse(responses[c]);
    ASSERT_TRUE(response.bool_or("ok", false)) << responses[c];
    expect_rows_match_report(
        response, automotive::analyze_architecture_report(load_architecture(paths[c])));
  }
  EXPECT_EQ(server.cache_stats().entries, paths.size());
}

TEST(ServerTest, SingleModelProtectionOverrideAppliesToTheGrid) {
  // "eta_msg" is the single-pair model's name for the protection rate; an
  // analyze applies it to every (message, category) pair of its grid, the
  // way the CLI's --set does.
  Server server(deterministic_options());
  const std::string path = source_path("data/zonal_ethernet.arch");
  const JsonValue response = handle(
      server, "{\"id\": \"z\", \"op\": \"analyze\", \"architecture\": \"" + path +
                  "\", \"messages\": [\"steer\"], \"categories\": "
                  "[\"confidentiality\"], \"nmax\": 2, "
                  "\"overrides\": {\"eta_msg\": 0.5}}");
  ASSERT_TRUE(response.bool_or("ok", false)) << response.dump();
  const JsonValue* rows = response.find("result")->find("results");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->size(), 1u);

  automotive::AnalysisOptions options;
  options.nmax = 2;
  options.constant_overrides = {{"eta_msg", symbolic::Value::of(0.5)}};
  const automotive::AnalysisResult expected = automotive::analyze_message(
      automotive::load_architecture_file(path), "steer",
      automotive::SecurityCategory::kConfidentiality, options);
  const JsonValue& row = rows->at(0);
  EXPECT_NEAR(row.number_or("exploitable_fraction", -1.0),
              expected.exploitable_fraction, 1e-9);
  EXPECT_NEAR(row.number_or("breach_probability", -1.0), expected.breach_probability,
              1e-9);
  EXPECT_NEAR(row.number_or("steady_state_fraction", -1.0),
              expected.steady_state_fraction, 1e-9);
  EXPECT_NEAR(row.number_or("mean_time_to_breach", -1.0), expected.mean_time_to_breach,
              1e-9 * std::max(1.0, expected.mean_time_to_breach));
}

TEST(ServerTest, SweepReusesStagesAcrossRepeats) {
  Server server(deterministic_options());
  const std::string sweep_line =
      "{\"id\": \"s\", \"op\": \"sweep\", \"architecture\": \"" + arch_path() +
      "\", \"message\": \"m\", \"constant\": \"phi_gw\", \"values\": [2, 4, 8]}";
  const JsonValue first = handle(server, sweep_line);
  ASSERT_TRUE(first.bool_or("ok", false)) << first.dump();
  // The first value explores; the other two refill its graph.
  EXPECT_EQ(first.find("metrics")->int_or("explores", -1), 1);
  // Every sweep value's stage set is cached: the repeat explores nothing.
  const JsonValue second = handle(server, sweep_line);
  EXPECT_EQ(second.find("metrics")->int_or("explores", -1), 0);
  EXPECT_EQ(first.find("result")->dump(), second.find("result")->dump());
}

/// A bound text that parses back to exactly `value`, written independently
/// of the engine's own number formatting.
std::string exact_text(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

TEST(ServerTest, NonRoundHorizonsIntegrateToTheExactBound) {
  // 1/3 has no short decimal form: a bound printed with a fixed number of
  // decimals integrates to a different horizon than the one results are
  // divided by.
  const double horizon = 1.0 / 3.0;
  const std::string h = exact_text(horizon);
  const automotive::Architecture arch = load_architecture(arch_path());
  automotive::AnalysisOptions options;
  options.horizon_years = horizon;
  const auto category = automotive::SecurityCategory::kConfidentiality;

  // Direct checks at the exact bound: on the batch model analyze runs, and
  // on the single-pair model a sweep point runs.
  automotive::BatchSession batch =
      automotive::make_batch_session(arch, options, {category}, {"m"});
  const double batch_exposure =
      batch.session->check("R{\"" + automotive::batch_exposure_reward("m", category) +
                           "\"}=? [ C<=" + h + " ]") /
      horizon;
  const double batch_breach = batch.session->check(
      "P=? [ F<=" + h + " \"" + automotive::batch_violated_label("m", category) + "\" ]");
  csl::EngineSession single(automotive::pair_model(arch, "m", category, options));
  single.set_constant_overrides({{"phi_gw", symbolic::Value::of(8.0)}});
  const double point_exposure =
      single.check("R{\"exposure\"}=? [ C<=" + h + " ]") / horizon;

  const automotive::ArchitectureReport report =
      automotive::analyze_architecture_report(arch, options, {category}, {"m"});
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_EQ(report.results[0].exploitable_fraction, batch_exposure);
  EXPECT_EQ(report.results[0].breach_probability, batch_breach);

  Server server(deterministic_options());
  const JsonValue analyzed = handle(
      server, analyze_line("h1", ", \"messages\": [\"m\"], \"categories\": "
                                 "[\"confidentiality\"], \"horizon_years\": " + h));
  ASSERT_TRUE(analyzed.bool_or("ok", false)) << analyzed.dump();
  const JsonValue& row = analyzed.find("result")->find("results")->at(0);
  EXPECT_EQ(row.number_or("exploitable_fraction", -1.0), batch_exposure);
  EXPECT_EQ(row.number_or("breach_probability", -1.0), batch_breach);

  const JsonValue swept = handle(
      server, "{\"op\": \"sweep\", \"architecture\": \"" + arch_path() +
                  "\", \"message\": \"m\", \"constant\": \"phi_gw\", \"values\": "
                  "[8], \"horizon_years\": " + h + "}");
  ASSERT_TRUE(swept.bool_or("ok", false)) << swept.dump();
  EXPECT_EQ(swept.find("result")->find("points")->at(0).number_or(
                "exploitable_fraction", -1.0),
            point_exposure);
}

TEST(ServerTest, CheckEvaluatesPropertiesOnCachedSingleModel) {
  Server server(deterministic_options());
  const std::string check_line =
      "{\"op\": \"check\", \"architecture\": \"" + arch_path() +
      "\", \"message\": \"m\", \"properties\": [\"S=? [ \\\"violated\\\" ]\"]}";
  const JsonValue response = handle(server, check_line);
  ASSERT_TRUE(response.bool_or("ok", false)) << response.dump();
  const JsonValue* rows = response.find("result")->find("properties");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->size(), 1u);
  const double value = rows->at(0).number_or("value", -1.0);
  EXPECT_GE(value, 0.0);
  EXPECT_LE(value, 1.0);
  EXPECT_EQ(
      handle(server, check_line).find("metrics")->string_or("session_cache", ""),
      "hit");
}

TEST(ServerTest, ZeroTimeoutReturnsStructuredTimeoutError) {
  Server server(deterministic_options());
  const JsonValue response =
      handle(server, analyze_line("t1", ", \"timeout_ms\": 0"));
  EXPECT_FALSE(response.bool_or("ok", true));
  const JsonValue* error = response.find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->string_or("code", ""), "timeout");
  EXPECT_EQ(error->string_or("stage", ""), "prepare");
  // The timeout must not poison the cached session: the next request without
  // a deadline succeeds.
  EXPECT_TRUE(handle(server, analyze_line("t2")).bool_or("ok", false));
}

TEST(ServerTest, DefaultTimeoutAppliesWhenRequestCarriesNone) {
  ServerOptions options = deterministic_options();
  options.default_timeout_ms = 0;
  Server server(options);
  const JsonValue response = handle(server, analyze_line("t1"));
  ASSERT_NE(response.find("error"), nullptr) << response.dump();
  EXPECT_EQ(response.find("error")->string_or("code", ""), "timeout");
  // A per-request timeout overrides the default.
  const JsonValue ok =
      handle(server, analyze_line("t2", ", \"timeout_ms\": 600000"));
  EXPECT_TRUE(ok.bool_or("ok", false)) << ok.dump();
}

TEST(ServerTest, DrainingAnswersShuttingDown) {
  Server server(deterministic_options());
  EXPECT_TRUE(handle(server, analyze_line("r1")).bool_or("ok", false));
  server.begin_drain();
  const JsonValue response = handle(server, analyze_line("r2"));
  EXPECT_FALSE(response.bool_or("ok", true));
  EXPECT_EQ(response.find("error")->string_or("code", ""), "shutting_down");
  EXPECT_EQ(response.string_or("id", ""), "r2");
}

TEST(ServerTest, MalformedRequestMatchesGolden) {
  Server server(deterministic_options());
  const std::string response = server.handle_line("{\"id\": \"g1\", \"op\": ");
  EXPECT_EQ(response, read_golden("malformed_request.json"));
}

TEST(ServerTest, AnalyzeResponseShapeMatchesGolden) {
  Server server(deterministic_options());
  const JsonValue response = handle(server, analyze_line("g2"));
  EXPECT_EQ(normalize_numbers(response).dump(),
            read_golden("analyze_shape.json"));
}

TEST(ServerTest, BadInputsGetStructuredErrors) {
  Server server(deterministic_options());
  EXPECT_EQ(handle(server, R"({"op": "analyze", "architecture": "/nope.arch"})")
                .find("error")
                ->string_or("code", ""),
            "bad_request");
  const JsonValue unknown_message = handle(
      server, "{\"op\": \"check\", \"architecture\": \"" + arch_path() +
                  "\", \"message\": \"ghost\", \"properties\": [\"S=? [ "
                  "\\\"violated\\\" ]\"]}");
  EXPECT_FALSE(unknown_message.bool_or("ok", true));
  EXPECT_EQ(unknown_message.find("error")->string_or("code", ""), "bad_request");
}

TEST(ServerTest, ServeStreamKeepsInputOrder) {
  ServerOptions options = deterministic_options();
  options.max_batch = 4;
  Server server(options);
  std::istringstream in(analyze_line("a") + "\n" + analyze_line("b") + "\n" +
                        "\n" +  // blank lines are skipped
                        R"({"op": "status", "id": "c"})" + "\n");
  std::ostringstream out;
  EXPECT_EQ(server.serve_stream(in, out), 0);
  std::vector<std::string> ids;
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) {
    ids.push_back(JsonValue::parse(line).string_or("id", ""));
  }
  EXPECT_EQ(ids, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(ServerTest, ConcurrentRequestsOnSharedServerStaySane) {
  Server server(deterministic_options());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 4;
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string id = "t" + std::to_string(t) + "-" + std::to_string(i);
        const std::string line =
            (i % 3 == 2) ? R"({"op": "status", "id": ")" + id + "\"}"
                         : analyze_line(id);
        try {
          const JsonValue response = JsonValue::parse(server.handle_line(line));
          if (!response.bool_or("ok", false)) failures[t] += 1;
          if (response.string_or("id", "") != id) failures[t] += 1;
        } catch (...) {
          failures[t] += 1;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << "thread " << t;
  // Exactly one session was ever built for the shared key.
  EXPECT_EQ(server.cache_stats().entries, 1u);
}

TEST(ServerTest, StateBudgetExceededYieldsTypedErrorWithDetail) {
  Server server(deterministic_options());
  const JsonValue response =
      handle(server, analyze_line("b1", ", \"max_states\": 2"));
  EXPECT_FALSE(response.bool_or("ok", true));
  const JsonValue* error = response.find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->string_or("code", ""), "state_budget_exceeded");
  EXPECT_EQ(error->string_or("stage", ""), "explore");
  const JsonValue* detail = error->find("detail");
  ASSERT_NE(detail, nullptr) << response.dump();
  EXPECT_EQ(detail->int_or("limit", -1), 2);
  EXPECT_GE(detail->int_or("states_explored", -1), 2);
  EXPECT_FALSE(detail->string_or("last_command", "").empty());
  // The failure must not poison the service: an unbudgeted repeat succeeds
  // (on a freshly rebuilt session — the failing entry was evicted).
  EXPECT_TRUE(handle(server, analyze_line("b2")).bool_or("ok", false));
}

TEST(ServerTest, BudgetKnobsDoNotChangeTheCacheKey) {
  // A budgeted request and an unbudgeted one for the same model share one
  // session entry: budgets bound work, they don't define the model.
  Server server(deterministic_options());
  ASSERT_TRUE(handle(server, analyze_line("k1")).bool_or("ok", false));
  const JsonValue budgeted =
      handle(server, analyze_line("k2", ", \"max_states\": 1000000"));
  ASSERT_TRUE(budgeted.bool_or("ok", false)) << budgeted.dump();
  EXPECT_EQ(budgeted.find("metrics")->string_or("session_cache", ""), "hit");
}

TEST(ServerTest, EngineChoiceIsVisibleInMetricsAndSplitsTheCacheKey) {
  Server server(deterministic_options());
  const JsonValue implicit = handle(server, analyze_line("e1"));
  ASSERT_TRUE(implicit.bool_or("ok", false)) << implicit.dump();
  // One store holds every space, so the envelope always names it.
  EXPECT_EQ(implicit.find("metrics")->string_or("engine", ""), "compact");
  // An explicit compact request may reduce the space: its own session
  // entry, freshly explored.
  const JsonValue compact =
      handle(server, analyze_line("e2", ", \"engine\": \"compact\""));
  ASSERT_TRUE(compact.bool_or("ok", false)) << compact.dump();
  EXPECT_EQ(compact.find("metrics")->string_or("engine", ""), "compact");
  EXPECT_EQ(compact.find("metrics")->string_or("session_cache", ""), "miss");
  EXPECT_GE(compact.find("metrics")->int_or("explores", -1), 1);
  // Unknown engine tokens are rejected before any work happens.
  const JsonValue bad =
      handle(server, analyze_line("e3", ", \"engine\": \"warp\""));
  EXPECT_FALSE(bad.bool_or("ok", true));
  EXPECT_EQ(bad.find("error")->string_or("code", ""), "bad_request");
}

TEST(ServerTest, InjectedEngineFaultEvictsEntryAndServerKeepsServing) {
  Server server(deterministic_options());
  ASSERT_TRUE(handle(server, analyze_line("f0")).bool_or("ok", false));
  const uint64_t evictions_before = server.cache_stats().evictions;

  // Force an allocation failure inside the next request's explore stage.
  // The session cache holds the old override set's stages, so an override
  // change re-explores — with the armed fault in its path.
  util::fault::disarm_all();
  util::fault::arm_site("explore.alloc");
  const JsonValue faulted = handle(
      server, analyze_line("f1", ", \"overrides\": {\"phi_gw\": 9.0}"));
  util::fault::disarm_all();

  EXPECT_FALSE(faulted.bool_or("ok", true));
  EXPECT_EQ(faulted.find("error")->string_or("code", ""), "oom");
  EXPECT_EQ(faulted.find("error")->string_or("stage", ""), "explore");
  // The poisoned entry was evicted...
  EXPECT_EQ(server.cache_stats().evictions, evictions_before + 1);
  // ...and the worker keeps serving: the same request now succeeds on a
  // rebuilt session.
  const JsonValue retried = handle(
      server, analyze_line("f2", ", \"overrides\": {\"phi_gw\": 9.0}"));
  EXPECT_TRUE(retried.bool_or("ok", false)) << retried.dump();
}

TEST(ServerTest, DispatchFaultBecomesStructuredOom) {
  Server server(deterministic_options());
  util::fault::disarm_all();
  util::fault::arm_site("serve.dispatch.alloc");
  const JsonValue faulted = handle(server, analyze_line("d1"));
  util::fault::disarm_all();
  EXPECT_FALSE(faulted.bool_or("ok", true));
  EXPECT_EQ(faulted.find("error")->string_or("code", ""), "oom");
  EXPECT_TRUE(handle(server, analyze_line("d2")).bool_or("ok", false));
}

TEST(ServerTest, SolverFallbackIsVisibleInResponseMetrics) {
  Server server(deterministic_options());
  util::fault::disarm_all();
  util::fault::arm_site("krylov.breakdown");
  const JsonValue response = handle(server, analyze_line("s1"));
  util::fault::disarm_all();
  // The ladder recovered: the request succeeded, degraded but correct, and
  // the fallback is observable.
  ASSERT_TRUE(response.bool_or("ok", false)) << response.dump();
  EXPECT_GE(response.find("metrics")->int_or("solver_fallbacks", -1), 1);
  // A clean repeat reports zero fallbacks.
  const JsonValue clean = handle(server, analyze_line("s2"));
  EXPECT_EQ(clean.find("metrics")->int_or("solver_fallbacks", -1), 0);
}

TEST(ServerTest, SaturatedServerShedsWithOverloadedGolden) {
  ServerOptions options = deterministic_options();
  options.max_inflight = 1;
  Server server(options);
  // Hold the only admission slot, exactly as a long-running request would.
  int64_t retry = 0;
  std::optional<Ticket> held = server.admission().try_admit(&retry);
  ASSERT_TRUE(held.has_value());

  const std::string shed = server.handle_line(analyze_line("o1"));
  EXPECT_EQ(shed, read_golden("overloaded.json"));
  const JsonValue parsed = JsonValue::parse(shed);
  EXPECT_EQ(parsed.find("error")->int_or("retry_after_ms", -1), 100);

  // The slot frees when the held ticket goes away; the same request is then
  // admitted and runs normally — shedding never poisoned anything.
  held.reset();
  const JsonValue after = handle(server, analyze_line("o2"));
  EXPECT_TRUE(after.bool_or("ok", false)) << after.dump();

  const JsonValue status = handle(server, R"({"op": "status"})");
  const JsonValue* admission = status.find("result")->find("admission");
  ASSERT_NE(admission, nullptr);
  EXPECT_EQ(admission->int_or("shed", -1), 1);
  EXPECT_EQ(admission->int_or("max_inflight", -1), 1);
  EXPECT_GE(admission->int_or("admitted", -1), 2);  // held ticket + o2
}

TEST(ServerTest, StatusBypassesAdmissionOnASaturatedServer) {
  ServerOptions options = deterministic_options();
  options.max_inflight = 1;
  Server server(options);
  int64_t retry = 0;
  std::optional<Ticket> held = server.admission().try_admit(&retry);
  ASSERT_TRUE(held.has_value());
  // Operators can still look at a saturated server.
  const JsonValue status = handle(server, R"({"op": "status"})");
  EXPECT_TRUE(status.bool_or("ok", false)) << status.dump();
  EXPECT_EQ(status.find("result")->find("admission")->int_or("inflight", -1),
            1);
}

TEST(ServerTest, DiskCacheWarmRestartAnswersWithoutEngineWork) {
  const std::string dir = ::testing::TempDir() + "autosec_warm_restart_cache";
  std::filesystem::remove_all(dir);
  ServerOptions options = deterministic_options();
  options.disk_cache_dir = dir;

  std::string cold_result;
  {
    Server first(options);
    const JsonValue cold = handle(first, analyze_line("w1"));
    ASSERT_TRUE(cold.bool_or("ok", false)) << cold.dump();
    EXPECT_EQ(cold.find("metrics")->string_or("disk_cache", ""), "miss");
    EXPECT_EQ(cold.find("metrics")->int_or("explores", -1), 1);
    cold_result = cold.find("result")->dump();
    const JsonValue status = handle(first, R"({"op": "status"})");
    const JsonValue* disk = status.find("result")->find("disk_cache");
    ASSERT_NE(disk, nullptr);
    EXPECT_EQ(disk->int_or("stores", -1), 1);
  }  // server gone — only the disk survives the "restart"

  Server second(options);
  const JsonValue warm = handle(second, analyze_line("w2"));
  ASSERT_TRUE(warm.bool_or("ok", false)) << warm.dump();
  EXPECT_EQ(warm.find("metrics")->string_or("disk_cache", ""), "hit");
  // The whole point: zero engine work after a restart.
  EXPECT_EQ(warm.find("metrics")->int_or("explores", -1), 0);
  EXPECT_EQ(warm.find("metrics")->string_or("session_cache", ""), "none");
  // And the replayed payload is bit-identical to the computed one.
  EXPECT_EQ(warm.find("result")->dump(), cold_result);
  std::filesystem::remove_all(dir);
}

TEST(ServerTest, DiskCacheKeySeparatesRequestIdentity) {
  const std::string dir = ::testing::TempDir() + "autosec_disk_key_cache";
  std::filesystem::remove_all(dir);
  ServerOptions options = deterministic_options();
  options.disk_cache_dir = dir;
  Server server(options);

  handle(server, analyze_line("k1"));
  // Same architecture, different override set: must MISS (different answer).
  const JsonValue overridden =
      handle(server, analyze_line("k2", ", \"overrides\": {\"phi_gw\": 8.0}"));
  EXPECT_EQ(overridden.find("metrics")->string_or("disk_cache", ""), "miss");
  // Different horizon: must MISS too.
  const JsonValue horizon =
      handle(server, analyze_line("k3", ", \"horizon_years\": 2.0"));
  EXPECT_EQ(horizon.find("metrics")->string_or("disk_cache", ""), "miss");
  // The exact original request hits.
  const JsonValue repeat = handle(server, analyze_line("k4"));
  EXPECT_EQ(repeat.find("metrics")->string_or("disk_cache", ""), "hit");
  std::filesystem::remove_all(dir);
}

TEST(ServerTest, StatusIsNeverDiskCached) {
  const std::string dir = ::testing::TempDir() + "autosec_status_cache";
  std::filesystem::remove_all(dir);
  ServerOptions options = deterministic_options();
  options.disk_cache_dir = dir;
  Server server(options);
  const JsonValue status = handle(server, R"({"op": "status"})");
  EXPECT_EQ(status.find("metrics")->string_or("disk_cache", ""), "none");
  const JsonValue disk = *status.find("result")->find("disk_cache");
  EXPECT_EQ(disk.int_or("stores", -1), 0);
  std::filesystem::remove_all(dir);
}

TEST(ServerTest, UnknownMessageIsTheSameBadRequestForEveryPairOp) {
  Server server(deterministic_options());
  const std::string target = "\"architecture\": \"" + arch_path() +
                             "\", \"message\": \"x\", \"category\": \"integrity\"";
  const std::string property = R"("P=? [ F<=1 \"violated\" ]")";
  for (const std::string& line :
       {"{\"op\": \"check\", " + target + ", \"properties\": [" + property + "]}",
        "{\"op\": \"sweep\", " + target +
            ", \"constant\": \"phi_gw\", \"values\": [1, 2]}",
        "{\"op\": \"diagnose\", " + target + "}"}) {
    const JsonValue response = handle(server, line);
    ASSERT_FALSE(response.bool_or("ok", true)) << response.dump();
    const JsonValue* error = response.find("error");
    EXPECT_EQ(error->string_or("code", ""), "bad_request") << line;
    EXPECT_EQ(error->string_or("message", ""), "unknown message 'x'") << line;
  }
}

TEST(ServerTest, UnusableDiskCacheDirFailsConstructionLoudly) {
  ServerOptions options = deterministic_options();
  options.disk_cache_dir = "/proc/definitely/not/writable";
  EXPECT_THROW(Server{options}, std::runtime_error);
}

TEST(ServerTest, OverflowResponseIsAStructuredOverloadedEnvelope) {
  Server server(deterministic_options());
  const JsonValue overflow = JsonValue::parse(server.overflow_response());
  EXPECT_EQ(overflow.string_or("schema_version", ""), "autosec-serve-v1");
  EXPECT_FALSE(overflow.bool_or("ok", true));
  EXPECT_EQ(overflow.find("error")->string_or("code", ""), "overloaded");
  EXPECT_EQ(overflow.find("error")->int_or("retry_after_ms", -1), 100);
}

std::string diagnose_line(const std::string& id, int nmax,
                          const std::string& extra = "") {
  return "{\"id\": \"" + id + "\", \"op\": \"diagnose\", \"architecture\": \"" +
         arch_path() + "\", \"message\": \"m\", \"nmax\": " + std::to_string(nmax) +
         extra + "}";
}

/// Counter deltas of the process registry over one scope.
class RegistryScope {
 public:
  RegistryScope() {
    util::metrics::registry().reset();
    util::metrics::registry().set_enabled(true);
  }
  ~RegistryScope() {
    util::metrics::registry().set_enabled(false);
    util::metrics::registry().reset();
  }
  uint64_t counter(const std::string& name) const {
    return util::metrics::registry().counter_value(name);
  }
};

TEST(ServerTest, ConcurrentIdenticalJobsComputeOnce) {
  const std::string root = ::testing::TempDir() + "autosec_coalesce_cache";
  std::filesystem::remove_all(root);
  ServerOptions options;
  options.disk_cache_dir = root + "/solo";
  RegistryScope registry;
  std::string solo_result;
  {
    Server solo(options);
    const JsonValue alone = handle(solo, diagnose_line("solo", 2));
    ASSERT_TRUE(alone.bool_or("ok", false)) << alone.dump();
    solo_result = alone.find("result")->dump();
  }
  const uint64_t one_diagnosis = registry.counter("session.compiles");
  ASSERT_GT(one_diagnosis, 0u);

  for (int round = 0; round < 3; ++round) {
    options.disk_cache_dir = root + "/round" + std::to_string(round);
    Server server(options);
    util::metrics::registry().reset();
    std::string first, second;
    std::thread a([&] { first = server.handle_line(diagnose_line("a", 2)); });
    std::thread b([&] { second = server.handle_line(diagnose_line("b", 2)); });
    a.join();
    b.join();
    // Whichever came second waited for the first's answer (coalesced) or
    // found it stored (a disk hit); the engine ran one diagnosis.
    EXPECT_EQ(registry.counter("session.compiles"), one_diagnosis);
    EXPECT_EQ(registry.counter("serve.coalesced") + registry.counter("serve.disk_hits"),
              1u);
    for (const std::string& text : {first, second}) {
      const JsonValue response = JsonValue::parse(text);
      ASSERT_TRUE(response.bool_or("ok", false)) << text;
      EXPECT_EQ(response.find("result")->dump(), solo_result);
      EXPECT_EQ(response.find("metrics")->int_or("explores", -1), 0);
    }
  }
  std::filesystem::remove_all(root);
}

TEST(ServerTest, CoalescedFollowerKeepsItsOwnDeadline) {
  const std::string dir = ::testing::TempDir() + "autosec_coalesce_deadline";
  std::filesystem::remove_all(dir);
  ServerOptions options;
  options.disk_cache_dir = dir;
  Server server(options);
  std::string leader;
  std::thread slow([&] { leader = server.handle_line(diagnose_line("slow", 4)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // The same job with a 1 ms deadline: it stops waiting (or, had it come
  // first, computing) when its own deadline passes.
  const JsonValue follower =
      handle(server, diagnose_line("quick", 4, ", \"timeout_ms\": 1"));
  slow.join();
  ASSERT_FALSE(follower.bool_or("ok", true)) << follower.dump();
  EXPECT_EQ(follower.find("error")->string_or("code", ""), "timeout");
  EXPECT_TRUE(JsonValue::parse(leader).bool_or("ok", false)) << leader;

  // A job whose identical leader fails (here: its own deadline passes)
  // computes the answer itself.
  const std::string integrity = ", \"category\": \"integrity\"";
  std::string failing;
  std::thread capped([&] {
    failing = server.handle_line(
        diagnose_line("capped", 4, integrity + ", \"timeout_ms\": 100"));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const JsonValue recovered = handle(server, diagnose_line("free", 4, integrity));
  capped.join();
  EXPECT_TRUE(recovered.bool_or("ok", false)) << recovered.dump();
  const JsonValue failed = JsonValue::parse(failing);
  ASSERT_FALSE(failed.bool_or("ok", true)) << failing;
  EXPECT_EQ(failed.find("error")->string_or("code", ""), "timeout") << failing;
  std::filesystem::remove_all(dir);
}

TEST(ServerTest, DeterministicBatchesAreByteIdentical) {
  // Repeated session keys and a final status: handled one at a time in
  // input order, five fresh servers print the same bytes.
  std::vector<std::string> lines;
  for (int i = 0; i < 6; ++i) {
    lines.push_back(analyze_line("d" + std::to_string(i),
                                 i % 2 == 0 ? "" : ", \"horizon_years\": 2.0"));
  }
  lines.push_back(R"({"id": "s", "op": "status"})");
  std::optional<std::vector<std::string>> first;
  for (int run = 0; run < 5; ++run) {
    Server server(deterministic_options());
    const std::vector<std::string> responses = server.handle_batch(lines);
    if (!first) {
      first = responses;
      const JsonValue status = JsonValue::parse(responses.back());
      EXPECT_EQ(status.find("result")->find("cache")->int_or("hits", -1), 5);
      continue;
    }
    EXPECT_EQ(responses, *first) << "run " << run;
  }
}

TEST(ServerTest, HandleBatchKeepsInputOrderAcrossThePool) {
  Server server(deterministic_options());
  std::vector<std::string> lines;
  for (int i = 0; i < 8; ++i) {
    lines.push_back(analyze_line("b" + std::to_string(i)));
  }
  lines.push_back("{not json");
  const std::vector<std::string> responses = server.handle_batch(lines);
  ASSERT_EQ(responses.size(), lines.size());
  for (int i = 0; i < 8; ++i) {
    const JsonValue response = JsonValue::parse(responses[i]);
    EXPECT_EQ(response.string_or("id", ""), "b" + std::to_string(i));
    EXPECT_TRUE(response.bool_or("ok", false));
  }
  EXPECT_EQ(JsonValue::parse(responses[8]).find("error")->string_or("code", ""),
            "bad_request");
}

TEST(ServerTest, CheckpointMetricsAppearOnlyWhenCheckpointingIsOn) {
  // Golden-file safety: without --checkpoint the envelope must not change.
  Server plain(deterministic_options());
  const JsonValue off = handle(plain, analyze_line("c0"));
  EXPECT_EQ(off.find("metrics")->find("checkpoint"), nullptr);

  const std::string dir = ::testing::TempDir() + "autosec_ckpt_metrics";
  std::filesystem::remove_all(dir);
  ServerOptions options = deterministic_options();
  options.checkpoint_dir = dir;
  Server server(options);
  const JsonValue on = handle(server, analyze_line("c1"));
  ASSERT_TRUE(on.bool_or("ok", false)) << on.dump();
  const JsonValue* checkpoint = on.find("metrics")->find("checkpoint");
  ASSERT_NE(checkpoint, nullptr);
  EXPECT_EQ(checkpoint->int_or("hits", -1), 0);  // first run records, no replay
  std::filesystem::remove_all(dir);
}

TEST(ServerTest, RestartedServerReplaysFromCheckpointBitIdentically) {
  const std::string dir = ::testing::TempDir() + "autosec_ckpt_restart";
  std::filesystem::remove_all(dir);
  ServerOptions options = deterministic_options();
  options.checkpoint_dir = dir;

  std::string fresh_result;
  {
    Server first(options);
    const JsonValue fresh = handle(first, analyze_line("r1"));
    ASSERT_TRUE(fresh.bool_or("ok", false)) << fresh.dump();
    fresh_result = fresh.find("result")->dump();
  }  // a killed worker: only the checkpoint directory survives

  Server second(options);
  const JsonValue resumed = handle(second, analyze_line("r2"));
  ASSERT_TRUE(resumed.bool_or("ok", false)) << resumed.dump();
  // Payload bit-identical, and the metrics prove it was replayed rather
  // than recomputed.
  EXPECT_EQ(resumed.find("result")->dump(), fresh_result);
  const JsonValue* checkpoint = resumed.find("metrics")->find("checkpoint");
  ASSERT_NE(checkpoint, nullptr);
  EXPECT_GT(checkpoint->int_or("hits", -1), 0);
  std::filesystem::remove_all(dir);
}

TEST(ServerTest, StatusSurfacesCheckpointAndConfig) {
  const std::string dir = ::testing::TempDir() + "autosec_ckpt_status";
  std::filesystem::remove_all(dir);
  ServerOptions options = deterministic_options();
  options.checkpoint_dir = dir;
  options.checkpoint_interval_ms = 250;
  Server server(options);
  const JsonValue status = handle(server, R"({"op": "status"})");
  const JsonValue* checkpoint = status.find("result")->find("checkpoint");
  ASSERT_NE(checkpoint, nullptr);
  EXPECT_EQ(checkpoint->string_or("dir", ""), dir);
  EXPECT_EQ(checkpoint->int_or("interval_ms", -1), 250);
  const JsonValue* config = status.find("result")->find("config");
  ASSERT_NE(config, nullptr);
  EXPECT_EQ(config->int_or("reloads", -1), 0);
  std::filesystem::remove_all(dir);
}

TEST(ServerTest, ApplyConfigRetunesALiveServerWithoutDroppingState) {
  ServerOptions options = deterministic_options();
  options.max_inflight = 1;
  Server server(options);
  // Populate the session cache, then reload: the entry must survive.
  ASSERT_TRUE(handle(server, analyze_line("h1")).bool_or("ok", false));

  ASSERT_TRUE(server.apply_config_text(
      R"({"max_inflight": 3, "max_batch": 4, "default_timeout_ms": 9000})"));
  EXPECT_EQ(server.config_reloads(), 1u);
  EXPECT_EQ(server.effective_max_batch(), 4u);

  // The admission gate now admits three concurrent tickets.
  int64_t retry = 0;
  std::optional<Ticket> a = server.admission().try_admit(&retry);
  std::optional<Ticket> b = server.admission().try_admit(&retry);
  std::optional<Ticket> c = server.admission().try_admit(&retry);
  EXPECT_TRUE(a.has_value());
  EXPECT_TRUE(b.has_value());
  EXPECT_TRUE(c.has_value());
  EXPECT_FALSE(server.admission().try_admit(&retry).has_value());
  a.reset();
  b.reset();
  c.reset();

  // No cache invalidation: the pre-reload entry still hits.
  const JsonValue warm = handle(server, analyze_line("h2"));
  EXPECT_EQ(warm.find("metrics")->string_or("session_cache", ""), "hit");

  // The status surface reports the active document.
  const JsonValue status = handle(server, R"({"op": "status"})");
  const JsonValue* config = status.find("result")->find("config");
  ASSERT_NE(config, nullptr);
  EXPECT_EQ(config->int_or("reloads", -1), 1);
  EXPECT_EQ(config->int_or("max_batch", -1), 4);
  const JsonValue* active = config->find("active");
  ASSERT_NE(active, nullptr);
  EXPECT_EQ(active->int_or("max_inflight", -1), 3);
}

TEST(ServerTest, MalformedConfigReloadIsRejectedAndKeepsTheOldLimits) {
  Server server(deterministic_options());
  ASSERT_TRUE(server.apply_config_text(R"({"max_inflight": 2})"));
  // Malformed JSON, unknown fields, and bad enum values are all rejected.
  EXPECT_FALSE(server.apply_config_text("{not json"));
  EXPECT_FALSE(server.apply_config_text(R"({"max_inflght": 5})"));
  EXPECT_FALSE(server.apply_config_text(R"({"log_level": "shouting"})"));
  EXPECT_EQ(server.config_reloads(), 1u) << "rejected reloads must not count";

  // The previous configuration stays in force.
  int64_t retry = 0;
  std::optional<Ticket> a = server.admission().try_admit(&retry);
  std::optional<Ticket> b = server.admission().try_admit(&retry);
  EXPECT_TRUE(a.has_value());
  EXPECT_TRUE(b.has_value());
  EXPECT_FALSE(server.admission().try_admit(&retry).has_value());
}

TEST(ServerTest, StartupConfigFileOverridesFlags) {
  const std::string path = ::testing::TempDir() + "autosec_startup_config.json";
  {
    std::ofstream file(path);
    file << R"({"max_inflight": 2, "max_batch": 3})" << "\n";
  }
  ServerOptions options = deterministic_options();
  options.max_inflight = 64;  // the file must win
  options.config_path = path;
  Server server(options);
  EXPECT_EQ(server.effective_max_batch(), 3u);
  int64_t retry = 0;
  std::optional<Ticket> a = server.admission().try_admit(&retry);
  std::optional<Ticket> b = server.admission().try_admit(&retry);
  EXPECT_TRUE(a.has_value());
  EXPECT_TRUE(b.has_value());
  EXPECT_FALSE(server.admission().try_admit(&retry).has_value());
  std::filesystem::remove(path);
}

TEST(ServerTest, UnreadableStartupConfigFailsLoudly) {
  ServerOptions options = deterministic_options();
  options.config_path = "/definitely/no/such/config.json";
  EXPECT_THROW(Server{options}, std::runtime_error);
}

TEST(ServeConfigTest, ParseRejectsUnknownFieldsAndBadValues) {
  EXPECT_NO_THROW(ServeConfig::parse("{}"));
  const ServeConfig config = ServeConfig::parse(
      R"({"max_inflight": 8, "default_timeout_ms": -1, "log_level": "info"})");
  EXPECT_EQ(config.max_inflight.value_or(0), 8u);
  EXPECT_EQ(config.default_timeout_ms.value_or(0), -1);
  EXPECT_EQ(config.log_level.value_or(""), "info");
  EXPECT_THROW(ServeConfig::parse("[]"), std::runtime_error);
  EXPECT_THROW(ServeConfig::parse(R"({"surprise": 1})"), std::runtime_error);
  EXPECT_THROW(ServeConfig::parse(R"({"max_inflight": -4})"),
               std::runtime_error);
  EXPECT_THROW(ServeConfig::parse(R"({"log_level": "loud"})"),
               std::runtime_error);
  // canonical() round-trips through parse().
  const ServeConfig again = ServeConfig::parse(config.canonical());
  EXPECT_EQ(again.canonical(), config.canonical());
}

TEST(SessionCacheTest, SetCapacityTrimsTheTail) {
  SessionCache cache(4);
  const auto build = [] { return automotive::BatchSession{}; };
  bool hit = false;
  cache.acquire("a", build, &hit);
  cache.acquire("b", build, &hit);
  cache.acquire("c", build, &hit);
  cache.acquire("b", build, &hit);  // bump b → a is now LRU-most
  cache.set_capacity(2);
  EXPECT_EQ(cache.stats().entries, 2u);
  cache.acquire("b", build, &hit);
  EXPECT_TRUE(hit) << "recently used entries survive the shrink";
  cache.acquire("a", build, &hit);
  EXPECT_FALSE(hit) << "the LRU tail was trimmed";
}

TEST(SessionCacheTest, EvictByKeyDropsOnlyThatEntry) {
  SessionCache cache(4);
  const auto build = [] { return automotive::BatchSession{}; };
  bool hit = false;
  cache.acquire("a", build, &hit);
  cache.acquire("b", build, &hit);
  cache.evict("a");
  cache.evict("ghost");  // unknown keys are a no-op
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  cache.acquire("b", build, &hit);
  EXPECT_TRUE(hit);
  cache.acquire("a", build, &hit);
  EXPECT_FALSE(hit);  // evicted entries rebuild
}

TEST(SessionCacheTest, EvictsLeastRecentlyUsed) {
  SessionCache cache(2);
  const auto build = [] { return automotive::BatchSession{}; };
  bool hit = false;
  cache.acquire("a", build, &hit);
  EXPECT_FALSE(hit);
  cache.acquire("b", build, &hit);
  cache.acquire("a", build, &hit);  // bump a → b is now LRU
  EXPECT_TRUE(hit);
  cache.acquire("c", build, &hit);  // evicts b
  EXPECT_FALSE(hit);
  cache.acquire("a", build, &hit);
  EXPECT_TRUE(hit);
  cache.acquire("b", build, &hit);
  EXPECT_FALSE(hit);
  const SessionCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 2u);
}

TEST(SessionCacheTest, DigestIsContentSensitive) {
  EXPECT_EQ(util::fnv1a64("abc"), util::fnv1a64("abc"));
  EXPECT_NE(util::fnv1a64("abc"), util::fnv1a64("abd"));
  EXPECT_NE(util::fnv1a64(""), util::fnv1a64(" "));
}

}  // namespace
}  // namespace autosec::service
