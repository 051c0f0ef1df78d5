#include "cli/cli.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>

#include "assess/asil.hpp"
#include "assess/cvss.hpp"
#include "automotive/analyzer.hpp"
#include "automotive/archfile.hpp"
#include "automotive/diagnostics.hpp"
#include "automotive/transform.hpp"
#include "csl/checkpoint.hpp"
#include "csl/property_parser.hpp"
#include "ctmc/poisson.hpp"
#include "ctmc/simulation.hpp"
#include "service/identity.hpp"
#include "service/server.hpp"
#include "symbolic/dot.hpp"
#include "symbolic/writer.hpp"
#include "util/budget.hpp"
#include "util/durable_store.hpp"
#include "util/failure.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/numeric.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace autosec::cli {

namespace {

using automotive::Architecture;
using automotive::SecurityCategory;

class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Flag/value cursor over the argument list.
class Args {
 public:
  explicit Args(std::vector<std::string> args) : args_(std::move(args)) {}

  bool empty() const { return position_ >= args_.size(); }
  std::string next(const std::string& what) {
    if (empty()) throw UsageError("missing " + what);
    return args_[position_++];
  }
  std::optional<std::string> try_next() {
    if (empty()) return std::nullopt;
    return args_[position_++];
  }

 private:
  std::vector<std::string> args_;
  size_t position_ = 0;
};

// Locale-independent flag parsing (util/numeric.hpp): flag values mean the
// same thing whatever LC_NUMERIC the caller's shell exported.
double parse_double(const std::string& text, const std::string& what) {
  const std::optional<double> value = util::parse_double(text);
  if (!value) throw UsageError("malformed " + what + ": " + text);
  // from_chars accepts "nan"/"inf"; neither is a usable flag value.
  if (!std::isfinite(*value)) throw UsageError(what + " must be finite");
  return *value;
}

int parse_int(const std::string& text, const std::string& what) {
  const std::optional<int64_t> value = util::parse_int(text);
  if (!value || *value < std::numeric_limits<int>::min() ||
      *value > std::numeric_limits<int>::max()) {
    throw UsageError("malformed " + what + ": " + text);
  }
  return static_cast<int>(*value);
}

std::vector<SecurityCategory> parse_categories(const std::string& text) {
  const std::string lowered = util::to_lower(text);
  if (lowered == "all") {
    return {SecurityCategory::kConfidentiality, SecurityCategory::kIntegrity,
            SecurityCategory::kAvailability};
  }
  if (util::starts_with(lowered, "conf")) return {SecurityCategory::kConfidentiality};
  if (util::starts_with(lowered, "int")) return {SecurityCategory::kIntegrity};
  if (util::starts_with(lowered, "avail")) return {SecurityCategory::kAvailability};
  throw UsageError("unknown category '" + text +
                   "' (confidentiality|integrity|availability|all)");
}

/// Shared options of the model-building commands.
struct ModelOptions {
  std::string file;
  std::string message;  // empty = all messages (where allowed)
  std::vector<SecurityCategory> categories = {SecurityCategory::kConfidentiality,
                                              SecurityCategory::kIntegrity,
                                              SecurityCategory::kAvailability};
  automotive::AnalysisOptions analysis;
  std::string property;
  std::string props_file;  ///< file with one property per line, '#' comments
  std::string output;
  // sweep
  std::string constant;
  double from = 0.0;
  double to = 0.0;
  int points = 15;
  bool logarithmic = true;
  // simulate
  size_t samples = 10000;
  uint64_t seed = 1;
  // output format
  bool csv = false;
  // resource ceilings (0 = unlimited)
  size_t max_states = 0;
  size_t max_memory_mb = 0;
  // check --model-type mdp: write the optimizing scheduler's JSON document
  // here, then parse it back and re-check the induced chain (exit 3 when the
  // round-trip disagrees with value iteration beyond 1e-8).
  std::string strategy_json;
  // crash durability: snapshot finished solves under this directory; a rerun
  // with the same file and options resumes bit-identically. Completed runs
  // always flush (the ledger destructor persists), so the interval only
  // bounds what a hard kill can lose; 0 persists on every record.
  std::string checkpoint_dir;
  uint64_t checkpoint_interval_ms = 250;
};

/// Arm options.analysis.checkpoint with a loaded ledger (csl/checkpoint.hpp)
/// for `command`'s job on options.file. The job identity (service/
/// identity.hpp) digests the architecture file content plus every
/// result-affecting option, so an edited model or a different flag set
/// resumes cold instead of replaying stale values; the per-record keys
/// (override set, state counts, property source) close the loop below that.
void attach_checkpoint(ModelOptions& options, std::string_view command) {
  if (options.checkpoint_dir.empty()) return;
  std::ifstream in(options.file, std::ios::binary);
  std::ostringstream content;
  content << in.rdbuf();

  std::vector<std::string> messages;
  if (!options.message.empty()) messages.push_back(options.message);
  std::string payload = "property=" + util::json_quote(options.property);
  payload += "|props=" + util::json_quote(options.props_file);
  payload += "|constant=" + util::json_quote(options.constant);
  payload += "|from=" + util::json_number(options.from);
  payload += "|to=" + util::json_number(options.to);
  payload += "|points=" + std::to_string(options.points);
  if (!options.logarithmic) payload += "|linear";
  const service::SessionScope scope = command == "analyze"
                                          ? service::SessionScope::kBatch
                                          : service::SessionScope::kPair;
  const service::JobIdentity identity =
      service::job_identity(command, scope, util::fnv1a64(content.str()),
                            options.analysis, messages, options.categories, payload);

  csl::CheckpointOptions checkpoint_options;
  checkpoint_options.store = std::make_shared<util::DurableStore>(options.checkpoint_dir,
                                                                  util::kCheckpointStore);
  checkpoint_options.identity = identity.job;
  checkpoint_options.interval_ms = options.checkpoint_interval_ms;
  auto ledger = std::make_shared<csl::CheckpointLedger>(std::move(checkpoint_options));
  ledger->load();
  options.analysis.checkpoint = std::move(ledger);
}

ModelOptions parse_model_options(Args& args, std::string_view command) {
  ModelOptions options;
  options.file = args.next("architecture file");
  while (auto flag = args.try_next()) {
    if (*flag == "--message") {
      options.message = args.next("--message value");
    } else if (*flag == "--category") {
      options.categories = parse_categories(args.next("--category value"));
    } else if (*flag == "--nmax") {
      options.analysis.nmax = parse_int(args.next("--nmax value"), "--nmax");
      if (options.analysis.nmax < 1) throw UsageError("--nmax must be >= 1");
    } else if (*flag == "--horizon") {
      options.analysis.horizon_years =
          parse_double(args.next("--horizon value"), "--horizon");
      if (!(options.analysis.horizon_years > 0.0)) {
        throw UsageError("--horizon must be > 0");
      }
    } else if (*flag == "--set") {
      const std::string assignment = args.next("--set value");
      const size_t eq = assignment.find('=');
      if (eq == std::string::npos) throw UsageError("--set needs NAME=VALUE");
      options.analysis.constant_overrides.emplace_back(
          assignment.substr(0, eq),
          symbolic::Value::of(parse_double(assignment.substr(eq + 1), "--set value")));
    } else if (*flag == "--threads") {
      options.analysis.threads = parse_int(args.next("--threads value"), "--threads");
      if (options.analysis.threads < 1) throw UsageError("--threads must be >= 1");
      util::set_thread_count(static_cast<size_t>(options.analysis.threads));
    } else if (*flag == "--literal-patch-guard") {
      options.analysis.literal_patch_guard = true;
    } else if (*flag == "--no-reliability") {
      options.analysis.include_reliability = false;
    } else if (*flag == "--property") {
      options.property = args.next("--property value");
    } else if (*flag == "--props") {
      options.props_file = args.next("--props value");
    } else if (*flag == "-o" || *flag == "--output") {
      options.output = args.next("output path");
    } else if (*flag == "--constant") {
      options.constant = args.next("--constant value");
    } else if (*flag == "--from") {
      options.from = parse_double(args.next("--from value"), "--from");
    } else if (*flag == "--to") {
      options.to = parse_double(args.next("--to value"), "--to");
    } else if (*flag == "--points") {
      options.points = parse_int(args.next("--points value"), "--points");
      if (options.points < 2) throw UsageError("--points must be >= 2");
    } else if (*flag == "--linear") {
      options.logarithmic = false;
    } else if (*flag == "--samples") {
      options.samples = static_cast<size_t>(
          parse_int(args.next("--samples value"), "--samples"));
    } else if (*flag == "--seed") {
      options.seed =
          static_cast<uint64_t>(parse_int(args.next("--seed value"), "--seed"));
    } else if (*flag == "--csv") {
      options.csv = true;
    } else if (*flag == "--max-states") {
      const int value = parse_int(args.next("--max-states value"), "--max-states");
      if (value < 1) throw UsageError("--max-states must be >= 1");
      options.max_states = static_cast<size_t>(value);
    } else if (*flag == "--max-memory-mb") {
      const int value =
          parse_int(args.next("--max-memory-mb value"), "--max-memory-mb");
      if (value < 1) throw UsageError("--max-memory-mb must be >= 1");
      options.max_memory_mb = static_cast<size_t>(value);
    } else if (*flag == "--engine") {
      const std::string engine = args.next("--engine value");
      const auto parsed = symbolic::parse_engine_token(engine);
      if (!parsed) {
        throw UsageError("unknown engine '" + engine +
                         "' (auto|classic|compact)");
      }
      options.analysis.plan.engine = *parsed;
    } else if (*flag == "--reduction") {
      const std::string reduction = args.next("--reduction value");
      if (reduction == "auto") {
        options.analysis.plan.reduction = symbolic::SymmetryReduction::kAuto;
      } else if (reduction == "on") {
        options.analysis.plan.reduction = symbolic::SymmetryReduction::kOn;
      } else if (reduction == "off") {
        options.analysis.plan.reduction = symbolic::SymmetryReduction::kOff;
      } else {
        throw UsageError("unknown reduction '" + reduction + "' (auto|on|off)");
      }
    } else if (*flag == "--no-steady-detect") {
      options.analysis.plan.steady_state_detection = false;
    } else if (*flag == "--model-type") {
      const std::string token = args.next("--model-type value");
      const auto parsed = symbolic::parse_model_type_token(token);
      if (!parsed) {
        throw UsageError("unknown model type '" + token + "' (ctmc|mdp)");
      }
      options.analysis.model_type = *parsed;
    } else if (*flag == "--strategy-json") {
      options.strategy_json = args.next("--strategy-json value");
    } else if (*flag == "--checkpoint") {
      options.checkpoint_dir = args.next("--checkpoint value");
    } else if (*flag == "--checkpoint-interval-ms") {
      const int value = parse_int(args.next("--checkpoint-interval-ms value"),
                                  "--checkpoint-interval-ms");
      if (value < 0) throw UsageError("--checkpoint-interval-ms must be >= 0");
      options.checkpoint_interval_ms = static_cast<uint64_t>(value);
    } else {
      throw UsageError("unknown option '" + *flag + "'");
    }
  }
  if (options.max_states != 0 || options.max_memory_mb != 0) {
    options.analysis.budget = std::make_shared<util::ResourceBudget>(
        options.max_states, options.max_memory_mb * 1024 * 1024);
  }
  attach_checkpoint(options, command);
  return options;
}

std::vector<std::string> selected_messages(const Architecture& arch,
                                           const ModelOptions& options) {
  if (!options.message.empty()) {
    if (arch.find_message(options.message) == nullptr) {
      throw UsageError("no message '" + options.message + "' in " + options.file);
    }
    return {options.message};
  }
  std::vector<std::string> names;
  for (const auto& message : arch.messages) names.push_back(message.name);
  return names;
}

int command_analyze(Args& args, std::ostream& out) {
  const ModelOptions options = parse_model_options(args, "analyze");
  const Architecture arch = automotive::load_architecture_file(options.file);

  // One staged engine pass: the architecture is explored once and every
  // (message, category) property is solved against the shared state space.
  const automotive::ArchitectureReport report = automotive::analyze_architecture_report(
      arch, options.analysis, options.categories, selected_messages(arch, options));

  util::TextTable table({"Message", "Category", "exploitable time", "breach prob.",
                         "long-run share", "mean time to breach", "states"});
  for (const automotive::AnalysisResult& result : report.results) {
    table.add_row({result.message, std::string(category_name(result.category)),
                   util::format_percent(result.exploitable_fraction),
                   util::format_sig(result.breach_probability, 3),
                   util::format_percent(result.steady_state_fraction),
                   std::isfinite(result.mean_time_to_breach)
                       ? util::format_sig(result.mean_time_to_breach, 3) + " y"
                       : "inf",
                   std::to_string(result.state_count)});
  }
  if (options.csv) {
    out << table.to_csv();
  } else {
    out << "architecture: " << arch.name << "  (horizon "
        << util::format_sig(options.analysis.horizon_years, 4) << " years, nmax "
        << options.analysis.nmax << ")\n\n"
        << table;
    out << "\nstages: compile " << util::format_sig(report.stats.compile_seconds, 3)
        << " s (x" << report.stats.compile_count << ")  explore "
        << util::format_sig(report.stats.explore_seconds, 3) << " s (x"
        << report.stats.explore_count << ")  solve "
        << util::format_sig(report.stats.solve_seconds, 3) << " s ("
        << report.stats.check_count << " properties, " << util::thread_count()
        << " threads)\n";
  }
  return 0;
}

int command_check(Args& args, std::ostream& out) {
  const ModelOptions options = parse_model_options(args, "check");
  if (options.property.empty() && options.props_file.empty()) {
    throw UsageError("check needs --property or --props");
  }
  if (options.message.empty()) throw UsageError("check needs --message");
  const Architecture arch = automotive::load_architecture_file(options.file);

  const automotive::SecurityAnalysis analysis(arch, options.message,
                                              options.categories.front(),
                                              options.analysis);

  // --strategy-json: solve with scheduler export, write the document, then
  // prove the round trip — parse the file back and re-check the Markov chain
  // the parsed strategy induces. Disagreement beyond 1e-8 exits 3.
  if (!options.strategy_json.empty()) {
    if (options.property.empty()) {
      throw UsageError("--strategy-json needs a single --property");
    }
    const csl::Property property = csl::parse_property(options.property);
    csl::EngineSession& session = *analysis.session();
    const csl::StrategyCheck checked = session.check_with_strategy(property);
    const util::JsonValue document =
        session.strategy_document(property, checked.strategy);
    {
      std::ofstream file(options.strategy_json);
      if (!file) throw UsageError("cannot write '" + options.strategy_json + "'");
      file << document.dump(2) << "\n";
    }
    std::ifstream file(options.strategy_json);
    std::ostringstream buffer;
    buffer << file.rdbuf();
    const csl::StrategyExport parsed = csl::parse_strategy_json(buffer.str());
    const double induced = session.induced_value(property, parsed);
    out << "value:   " << util::format_sig(checked.value, 10) << "\n";
    out << "induced: " << util::format_sig(induced, 10) << "\n";
    const bool ok = std::abs(checked.value - induced) <= 1e-8;
    out << (ok ? "strategy roundtrip ok\n" : "strategy roundtrip MISMATCH\n");
    return ok ? 0 : 3;
  }

  // Single property: terse output, exit code reflects bounded verdicts.
  if (!options.property.empty()) {
    const csl::Property property = csl::parse_property(options.property);
    if (property.is_query()) {
      out << util::format_sig(analysis.checker().check(property), 10) << "\n";
      return 0;
    }
    const bool satisfied = analysis.checker().satisfies(property);
    out << (satisfied ? "true" : "false") << "\n";
    return satisfied ? 0 : 2;
  }

  // Property file: one property per line, '#' comments; tabulated results,
  // exit 2 if any bounded property is violated.
  std::ifstream props(options.props_file);
  if (!props) throw UsageError("cannot open '" + options.props_file + "'");
  util::TextTable table({"property", "result"});
  bool any_violated = false;
  std::string line;
  while (std::getline(props, line)) {
    const std::string head = line.substr(0, line.find('#'));
    const std::string_view text = util::trim(head);
    if (text.empty()) continue;
    const csl::Property property = csl::parse_property(text);
    std::string result;
    if (property.is_query()) {
      result = util::format_sig(analysis.checker().check(property), 8);
    } else {
      const bool satisfied = analysis.checker().satisfies(property);
      any_violated = any_violated || !satisfied;
      result = satisfied ? "true" : "FALSE";
    }
    table.add_row({std::string(text), result});
  }
  out << (options.csv ? table.to_csv() : table.to_string());
  return any_violated ? 2 : 0;
}

int command_simulate(Args& args, std::ostream& out) {
  const ModelOptions options = parse_model_options(args, "simulate");
  if (options.message.empty()) throw UsageError("simulate needs --message");
  const Architecture arch = automotive::load_architecture_file(options.file);

  const automotive::SecurityAnalysis analysis(arch, options.message,
                                              options.categories.front(),
                                              options.analysis);
  const ctmc::Ctmc chain = analysis.space().to_ctmc();
  const std::vector<bool> violated =
      analysis.space().label_mask(automotive::kViolatedLabel);
  ctmc::SimulationOptions simulation;
  simulation.samples = options.samples;
  simulation.seed = options.seed;
  const ctmc::SimulationEstimate estimate = ctmc::estimate_time_fraction(
      chain, static_cast<uint32_t>(analysis.space().initial_state()), violated,
      options.analysis.horizon_years, simulation);
  const double numeric =
      analysis.checker().check(
          automotive::exposure_property(options.analysis.horizon_years)) /
      options.analysis.horizon_years;

  out << "statistical: " << util::format_percent(estimate.mean) << " +/- "
      << util::format_percent(estimate.half_width) << " (95% CI, "
      << estimate.samples << " samples)\n";
  out << "numerical:   " << util::format_percent(numeric) << "\n";
  return 0;
}

int command_export_prism(Args& args, std::ostream& out) {
  const ModelOptions options = parse_model_options(args, "export-prism");
  if (options.message.empty()) throw UsageError("export-prism needs --message");
  const Architecture arch = automotive::load_architecture_file(options.file);

  automotive::TransformOptions transform_options;
  transform_options.message = options.message;
  transform_options.category = options.categories.front();
  transform_options.nmax = options.analysis.nmax;
  transform_options.literal_patch_guard = options.analysis.literal_patch_guard;
  transform_options.include_reliability = options.analysis.include_reliability;
  const std::string text =
      symbolic::write_model(automotive::transform(arch, transform_options));

  if (options.output.empty()) {
    out << text;
  } else {
    std::ofstream file(options.output);
    if (!file) throw UsageError("cannot write '" + options.output + "'");
    file << text;
    out << "wrote " << options.output << " (" << text.size() << " bytes)\n";
  }
  return 0;
}

int command_sweep(Args& args, std::ostream& out) {
  const ModelOptions options = parse_model_options(args, "sweep");
  if (options.message.empty()) throw UsageError("sweep needs --message");
  if (options.constant.empty()) throw UsageError("sweep needs --constant");
  if (!(options.from > 0.0) && options.logarithmic) {
    throw UsageError("logarithmic sweep needs --from > 0 (or use --linear)");
  }
  if (options.to <= options.from) throw UsageError("sweep needs --to > --from");
  const Architecture arch = automotive::load_architecture_file(options.file);

  // One session answers every point: each grid value is one override set
  // (the swept constant after the --set overrides), and check_points solves
  // only the exposure at each, fanning the points across the thread pool.
  // The session is used once, so each point's stages go once it is solved.
  const size_t points = static_cast<size_t>(options.points);
  std::vector<double> point_values(points, 0.0);
  std::vector<csl::OverrideSet> point_overrides(points);
  for (size_t i = 0; i < points; ++i) {
    const double t = static_cast<double>(i) / (options.points - 1);
    point_values[i] = options.logarithmic
                          ? options.from * std::pow(options.to / options.from, t)
                          : options.from + (options.to - options.from) * t;
    point_overrides[i] = options.analysis.constant_overrides;
    point_overrides[i].emplace_back(options.constant,
                                    symbolic::Value::of(point_values[i]));
  }
  const double horizon = options.analysis.horizon_years;
  csl::EngineSession session(
      automotive::pair_model(arch, options.message, options.categories.front(),
                             options.analysis),
      automotive::session_options(options.analysis));
  const std::vector<csl::PointValue> exposures =
      session.check_points(automotive::exposure_property(horizon), point_overrides,
                           csl::PointStages::kRelease);

  util::TextTable table({options.constant, "exploitable time"});
  for (size_t i = 0; i < points; ++i) {
    table.add_row({util::format_sig(point_values[i], 5),
                   util::format_percent(exposures[i].value / horizon)});
  }
  out << (options.csv ? table.to_csv() : table.to_string());
  return 0;
}

int command_diagnose(Args& args, std::ostream& out) {
  const ModelOptions options = parse_model_options(args, "diagnose");
  if (options.message.empty()) throw UsageError("diagnose needs --message");
  const Architecture arch = automotive::load_architecture_file(options.file);
  const SecurityCategory category = options.categories.front();

  out << "== criticality: exposure elasticity per rate constant ==\n";
  out << "(positive: raising the rate raises exposure; negative: lowers it)\n\n";
  automotive::CriticalityOptions criticality_options;
  criticality_options.analysis = options.analysis;
  const auto criticalities =
      automotive::criticality_analysis(arch, options.message, category,
                                       criticality_options);
  util::TextTable criticality_table({"constant", "value", "elasticity"});
  for (const automotive::Criticality& c : criticalities) {
    criticality_table.add_row({c.constant, util::format_sig(c.base_value, 4),
                               util::format_sig(c.elasticity, 3)});
  }
  out << (options.csv ? criticality_table.to_csv() : criticality_table.to_string());

  out << "\n== first-breach attribution ==\n";
  out << "(which components are exploited when the first violation occurs)\n\n";
  const auto attribution = automotive::first_breach_attribution(
      arch, options.message, category, options.analysis);
  util::TextTable attribution_table({"component", "P[first breach involves it]",
                                     "share"});
  for (const automotive::BreachAttribution& a : attribution.attributions) {
    attribution_table.add_row(
        {a.component, util::format_sig(a.probability, 3),
         util::format_percent(a.probability /
                              std::max(attribution.total_breach_probability, 1e-300))});
  }
  out << (options.csv ? attribution_table.to_csv() : attribution_table.to_string());
  out << "\ntotal breach probability within "
      << util::format_sig(options.analysis.horizon_years, 4)
      << " year(s): " << util::format_sig(attribution.total_breach_probability, 3)
      << "\n";

  out << "\n== breach-time quantiles ==\n";
  const automotive::SecurityAnalysis analysis(arch, options.message, category,
                                              options.analysis);
  util::TextTable quantile_table({"quantile", "breached by (years)"});
  for (const double q : {0.05, 0.25, 0.5, 0.95}) {
    const double t = automotive::breach_time_quantile(analysis, q);
    quantile_table.add_row({util::format_percent(q, 2),
                            std::isfinite(t) ? util::format_sig(t, 3) : ">100"});
  }
  out << (options.csv ? quantile_table.to_csv() : quantile_table.to_string());
  return 0;
}

int command_export_dot(Args& args, std::ostream& out) {
  const ModelOptions options = parse_model_options(args, "export-dot");
  if (options.message.empty()) throw UsageError("export-dot needs --message");
  const Architecture arch = automotive::load_architecture_file(options.file);

  const automotive::SecurityAnalysis analysis(arch, options.message,
                                              options.categories.front(),
                                              options.analysis);
  symbolic::DotOptions dot;
  dot.highlight_label = automotive::kViolatedLabel;
  const std::string text = symbolic::write_dot(analysis.space(), dot);
  if (options.output.empty()) {
    out << text;
  } else {
    std::ofstream file(options.output);
    if (!file) throw UsageError("cannot write '" + options.output + "'");
    file << text;
    out << "wrote " << options.output << " (" << text.size() << " bytes)\n";
  }
  return 0;
}

int command_compare(Args& args, std::ostream& out) {
  // compare <file1> <file2> [...] [shared options]; files first.
  std::vector<std::string> files;
  std::vector<std::string> rest;
  bool in_flags = false;
  while (auto token = args.try_next()) {
    if (util::starts_with(*token, "--")) in_flags = true;
    if (in_flags) {
      rest.push_back(*token);
    } else {
      files.push_back(*token);
    }
  }
  if (files.size() < 2) throw UsageError("compare needs at least two .arch files");
  // The first "file" doubles as the positional argument parse_model_options
  // expects; re-run option parsing on a synthetic argument list.
  rest.insert(rest.begin(), files[0]);
  Args option_args(rest);
  const ModelOptions options = parse_model_options(option_args, "compare");

  // Each file is a job of its own, with its own checkpoint ledger: files
  // that differ only in a rate share their state counts, so one shared
  // ledger would replay the first file's values for the second.
  std::vector<Architecture> architectures;
  std::vector<automotive::AnalysisOptions> file_options;
  for (const std::string& file : files) {
    architectures.push_back(automotive::load_architecture_file(file));
    ModelOptions job = options;
    if (!file_options.empty()) {
      job.file = file;
      attach_checkpoint(job, "compare");
    }
    file_options.push_back(job.analysis);
  }
  const std::string message =
      options.message.empty() ? architectures.front().messages.at(0).name
                              : options.message;

  // Each cell is its own model; it solves only the exposure it prints.
  const double horizon = options.analysis.horizon_years;
  const std::string exposure = automotive::exposure_property(horizon);
  std::vector<std::string> header{"Category"};
  for (const Architecture& arch : architectures) header.push_back(arch.name);
  util::TextTable table(header);
  for (const SecurityCategory category : options.categories) {
    std::vector<std::string> row{std::string(category_name(category))};
    for (size_t i = 0; i < architectures.size(); ++i) {
      const Architecture& arch = architectures[i];
      if (arch.find_message(message) == nullptr) {
        throw UsageError("architecture '" + arch.name + "' has no message '" +
                         message + "'");
      }
      csl::EngineSession session(
          automotive::pair_model(arch, message, category, file_options[i]),
          automotive::session_options(file_options[i]));
      row.push_back(util::format_percent(session.check(exposure) / horizon));
    }
    table.add_row(row);
  }
  out << "message " << message << ", exploitable share of "
      << util::format_sig(options.analysis.horizon_years, 4) << " year(s):\n\n";
  out << (options.csv ? table.to_csv() : table.to_string());
  return 0;
}

int command_assess(Args& args, std::ostream& out) {
  const std::string kind = args.next("assessment kind (cvss|asil)");
  if (kind == "cvss") {
    const std::string vector_text = args.next("CVSS vector");
    const assess::CvssVector vector = assess::parse_cvss_vector(vector_text);
    out << "vector: " << vector.to_string() << "\n";
    out << "exploitability score sigma = "
        << util::format_sig(vector.exploitability_score(), 6) << "\n";
    out << "exploitability rate eta    = "
        << util::format_sig(vector.exploitability_rate(), 6) << " / year\n";
    return 0;
  }
  if (kind == "asil") {
    const assess::Asil level = assess::parse_asil(args.next("ASIL level"));
    out << "ASIL " << assess::asil_name(level)
        << ": patch rate phi = " << util::format_sig(assess::patch_rate(level), 6)
        << " / year\n";
    return 0;
  }
  throw UsageError("assess needs 'cvss' or 'asil'");
}

void print_help(std::ostream& out) {
  out << "autosec - security analysis of automotive architectures (DAC'15)\n"
         "\n"
         "usage: autosec <command> [options]\n"
         "\n"
         "commands:\n"
         "  analyze <file.arch> [--message M] [--category C|all] [--nmax N]\n"
         "          [--horizon YEARS] [--set CONST=VALUE] [--no-reliability]\n"
         "          [--threads N]\n"
         "  check <file.arch> --message M (--property \"P=? [...]\" | --props FILE)\n"
         "        [--model-type ctmc|mdp] [--strategy-json FILE]\n"
         "  simulate <file.arch> --message M [--samples N] [--seed S]\n"
         "  export-prism <file.arch> --message M [--category C] [-o FILE]\n"
         "  export-dot <file.arch> --message M [--category C] [-o FILE]\n"
         "  compare <a.arch> <b.arch> [...] [--message M] [--category C|all]\n"
         "  diagnose <file.arch> --message M [--category C]   (criticality +\n"
         "           first-breach attribution)\n"
         "  sweep <file.arch> --message M --constant NAME --from A --to B\n"
         "        [--points N] [--linear] [--csv]   (exploitable time per\n"
         "        point: one engine session solves only the exposure at\n"
         "        each point, the points in parallel; see docs/engine.md)\n"
         "  assess cvss <AV:x/AC:y/Au:z>   |   assess asil <QM|A|B|C|D>\n"
         "  serve [--input FILE | --socket PATH | --tcp [HOST:]PORT]\n"
         "        [--workers N] [--max-connections N] [--max-inflight N]\n"
         "        [--max-load-mb N] [--disk-cache DIR] [--disk-cache-mb N]\n"
         "        [--cache-capacity N] [--default-timeout-ms N] [--max-batch N]\n"
         "        [--checkpoint DIR] [--checkpoint-interval-ms N]\n"
         "        [--watchdog-ms N] [--config FILE] [--threads N]\n"
         "        [--deterministic]   (NDJSON batch service, docs/serving.md;\n"
         "        --workers pre-forks digest-sharded engine workers,\n"
         "        --max-inflight/--max-load-mb shed with a structured\n"
         "        overloaded error, --disk-cache makes restarts start warm,\n"
         "        --watchdog-ms respawns hung workers, --config hot-reloads\n"
         "        limits on SIGHUP)\n"
         "  help\n"
         "\n"
         "--threads N sets the engine's worker-thread count for every command\n"
         "(default: AUTOSEC_THREADS or the hardware concurrency); results are\n"
         "identical at any thread count.\n"
         "\n"
         "--max-states N / --max-memory-mb N bound a model-building command's\n"
         "state count and tracked engine allocations; exceeding a ceiling exits\n"
         "1 with a typed error and the partial progress made (docs/robustness.md).\n"
         "\n"
         "--checkpoint DIR snapshots every finished per-property solve under\n"
         "DIR at engine safepoints (atomic temp+rename writes); a rerun of the\n"
         "same command on the same file resumes from the snapshot and produces\n"
         "bit-identical results (docs/robustness.md). --checkpoint-interval-ms\n"
         "N rate-limits persists (default 250; 0 = persist on every record;\n"
         "completed runs always flush). Works with analyze, check, sweep,\n"
         "and compare.\n"
         "\n"
         "Exploration keeps every state bit-packed in one interning store\n"
         "(docs/engine.md). --engine auto|classic|compact is accepted for one\n"
         "more release: auto (the default) and classic are the same, and\n"
         "compact enables symmetry reduction over interchangeable ECU modules\n"
         "of ctmc models. --reduction auto|on|off overrides when the symmetry\n"
         "reduction runs (auto: only with --engine compact). Reduced spaces\n"
         "answer symmetric properties exactly and reject asymmetric ones with\n"
         "a typed error.\n"
         "\n"
         "The solve kernels (CSR or SELL-C-sigma products, direct or colored\n"
         "Gauss-Seidel sweeps) are chosen from the matrix alone (docs/\n"
         "engine.md#solver-kernels). --no-steady-detect disables steady-state\n"
         "truncation of long transient horizons.\n"
         "\n"
         "--model-type ctmc|mdp picks the generated model family (docs/\n"
         "engine.md#model-types): ctmc is the paper's exploit-vs-patch race,\n"
         "mdp a worst-case nondeterministic attacker checked with Pmax/Pmin\n"
         "(time bounds count attack attempts). With mdp, check --strategy-json\n"
         "FILE also exports the optimizing scheduler — the attack path — and\n"
         "re-verifies it by solving the Markov chain it induces (exit 3 if the\n"
         "round trip disagrees beyond 1e-8).\n"
         "\n"
         "--metrics-json FILE records engine metrics for the whole run (stage\n"
         "spans, solver iterations, Poisson cache and thread-pool stats) and\n"
         "writes them as JSON on exit; works with every command.\n";
}

}  // namespace

int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  // --metrics-json PATH is a global flag of every command: strip it before
  // command parsing, record the whole run, and serialize the registry on the
  // way out (also after errors — a failed run's partial metrics still tell
  // where it stopped).
  std::string metrics_path;
  std::vector<std::string> remaining;
  remaining.reserve(args.size());
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--metrics-json") {
      if (i + 1 >= args.size()) {
        err << "error: missing --metrics-json value\n";
        return 1;
      }
      metrics_path = args[++i];
    } else {
      remaining.push_back(args[i]);
    }
  }
  util::metrics::Registry& metrics = util::metrics::registry();
  if (!metrics_path.empty()) {
    metrics.reset();
    metrics.set_enabled(true);
  }
  const auto write_metrics = [&](int exit_code) {
    if (metrics_path.empty()) return;
    metrics.gauge("cli.exit_code", exit_code);
    metrics.gauge("cli.threads", static_cast<double>(util::thread_count()));
    const ctmc::PoissonCacheStats poisson = ctmc::poisson_cache_stats();
    metrics.gauge("poisson.cache_entries", static_cast<double>(poisson.entries));
    metrics.set_enabled(false);
    try {
      metrics.write_json(metrics_path);
    } catch (const std::exception& e) {
      err << "error: " << e.what() << "\n";
    }
  };

  Args cursor(remaining);
  try {
    const auto command = cursor.try_next();
    if (!command || *command == "help" || *command == "--help") {
      print_help(out);
      const int code = command ? 0 : 1;
      write_metrics(code);
      return code;
    }
    int code = 1;
    if (*command == "analyze") code = command_analyze(cursor, out);
    else if (*command == "check") code = command_check(cursor, out);
    else if (*command == "simulate") code = command_simulate(cursor, out);
    else if (*command == "export-prism") code = command_export_prism(cursor, out);
    else if (*command == "export-dot") code = command_export_dot(cursor, out);
    else if (*command == "diagnose") code = command_diagnose(cursor, out);
    else if (*command == "compare") code = command_compare(cursor, out);
    else if (*command == "sweep") code = command_sweep(cursor, out);
    else if (*command == "assess") code = command_assess(cursor, out);
    else if (*command == "serve") {
      std::vector<std::string> serve_args;
      while (auto token = cursor.try_next()) serve_args.push_back(*token);
      code = service::run_serve(serve_args, out, err);
    }
    else throw UsageError("unknown command '" + *command + "'; see 'autosec help'");
    write_metrics(code);
    return code;
  } catch (const util::EngineFailure& failure) {
    // Typed engine failure: show the stable code and stage, then whatever
    // partial progress the failing stage reported.
    err << "error [" << failure.code_name() << "/" << failure.stage()
        << "]: " << failure.what() << "\n";
    const util::FailureProgress& progress = failure.progress();
    if (progress.states_explored) {
      err << "  states explored: " << *progress.states_explored << "\n";
    }
    if (progress.frontier_size) {
      err << "  frontier size:   " << *progress.frontier_size << "\n";
    }
    if (progress.last_command) {
      err << "  last command:    " << *progress.last_command << "\n";
    }
    if (progress.iterations) {
      err << "  iterations:      " << *progress.iterations << "\n";
    }
    if (progress.residual) {
      err << "  residual:        " << util::format_sig(*progress.residual, 6)
          << "\n";
    }
    if (progress.limit) err << "  limit:           " << *progress.limit << "\n";
    if (progress.charged_bytes) {
      err << "  charged bytes:   " << *progress.charged_bytes << "\n";
    }
    write_metrics(1);
    return 1;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    write_metrics(1);
    return 1;
  }
}

}  // namespace autosec::cli
