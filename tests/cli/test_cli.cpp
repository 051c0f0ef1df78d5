#include "cli/cli.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "automotive/analyzer.hpp"
#include "automotive/archfile.hpp"
#include "automotive/casestudy.hpp"
#include "util/fault.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace autosec::cli {
namespace {

/// Per-process temp path: ctest -j runs each discovered test in its own
/// process, and fixed names race (one process rewrites the file while
/// another parses it).
std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name;
}

/// Writes the case-study Architecture 1 to a temp .arch file once.
class CliFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    path_ = new std::string(temp_path("cli_arch1.arch"));
    automotive::save_architecture_file(
        automotive::casestudy::architecture(1, automotive::Protection::kUnencrypted),
        *path_);
  }
  static void TearDownTestSuite() {
    delete path_;
    path_ = nullptr;
  }

  static std::string* path_;

  struct Result {
    int exit_code;
    std::string out;
    std::string err;
  };

  static Result run(std::vector<std::string> args) {
    std::ostringstream out, err;
    const int code = run_cli(args, out, err);
    return {code, out.str(), err.str()};
  }
};

std::string* CliFixture::path_ = nullptr;

TEST_F(CliFixture, HelpPrintsUsage) {
  const Result result = run({"help"});
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("usage: autosec"), std::string::npos);
}

TEST_F(CliFixture, NoArgumentsIsAnError) {
  const Result result = run({});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.out.find("usage"), std::string::npos);
}

TEST_F(CliFixture, UnknownCommandFails) {
  const Result result = run({"frobnicate"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("unknown command"), std::string::npos);
}

TEST_F(CliFixture, AnalyzeAllCategories) {
  const Result result = run({"analyze", *path_, "--nmax", "1"});
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("confidentiality"), std::string::npos);
  EXPECT_NE(result.out.find("integrity"), std::string::npos);
  EXPECT_NE(result.out.find("availability"), std::string::npos);
  EXPECT_NE(result.out.find("Architecture 1"), std::string::npos);
}

TEST_F(CliFixture, AnalyzeSingleCategoryAndMessage) {
  const Result result = run({"analyze", *path_, "--message", "m", "--category",
                             "confidentiality", "--nmax", "1"});
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("confidentiality"), std::string::npos);
  EXPECT_EQ(result.out.find("integrity"), std::string::npos);
}

TEST_F(CliFixture, AnalyzeUnknownMessageFails) {
  const Result result = run({"analyze", *path_, "--message", "ghost"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("ghost"), std::string::npos);
}

TEST_F(CliFixture, AnalyzeMissingFileFails) {
  const Result result = run({"analyze", "/no/such/file.arch"});
  EXPECT_EQ(result.exit_code, 1);
}

TEST_F(CliFixture, CheckQuantitativeProperty) {
  const Result result = run({"check", *path_, "--message", "m", "--nmax", "1",
                             "--property", "P=? [ F<=1 \"violated\" ]"});
  EXPECT_EQ(result.exit_code, 0);
  const double value = std::stod(result.out);
  EXPECT_GT(value, 0.5);
  EXPECT_LE(value, 1.0);
}

TEST_F(CliFixture, CheckBoundedPropertyExitCodes) {
  const Result satisfied = run({"check", *path_, "--message", "m", "--nmax", "1",
                                "--property", "P>=0.5 [ F<=1 \"violated\" ]"});
  EXPECT_EQ(satisfied.exit_code, 0);
  EXPECT_NE(satisfied.out.find("true"), std::string::npos);

  const Result violated = run({"check", *path_, "--message", "m", "--nmax", "1",
                               "--property", "P<=0.01 [ F<=1 \"violated\" ]"});
  EXPECT_EQ(violated.exit_code, 2);
  EXPECT_NE(violated.out.find("false"), std::string::npos);
}

TEST_F(CliFixture, CheckWithoutPropertyFails) {
  const Result result = run({"check", *path_, "--message", "m"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("--property"), std::string::npos);
}

TEST_F(CliFixture, CheckPropertyFile) {
  const std::string props_path = temp_path("reqs.props");
  std::ofstream(props_path) << R"(# requirements
P=? [ F<=1 "violated" ]     # quantitative
P>=0.5 [ F<=1 "violated" ]  # holds for arch 1
P<=0.01 [ F<=1 "violated" ] # violated
)";
  const Result result =
      run({"check", *path_, "--message", "m", "--nmax", "1", "--props", props_path});
  EXPECT_EQ(result.exit_code, 2);  // one bounded property violated
  EXPECT_NE(result.out.find("true"), std::string::npos);
  EXPECT_NE(result.out.find("FALSE"), std::string::npos);
}

TEST_F(CliFixture, CheckPropertyFileMissing) {
  EXPECT_EQ(run({"check", *path_, "--message", "m", "--props", "/no/file.props"})
                .exit_code,
            1);
}

TEST_F(CliFixture, SetOverridesConstants) {
  const Result base = run({"check", *path_, "--message", "m", "--nmax", "1",
                           "--property", "R{\"exposure\"}=? [ C<=1 ]"});
  const Result hardened = run({"check", *path_, "--message", "m", "--nmax", "1",
                               "--set", "phi_3g=500", "--property",
                               "R{\"exposure\"}=? [ C<=1 ]"});
  EXPECT_LT(std::stod(hardened.out), std::stod(base.out));
}

TEST_F(CliFixture, SimulateReportsBothEstimates) {
  const Result result = run({"simulate", *path_, "--message", "m", "--nmax", "1",
                             "--samples", "500", "--seed", "7"});
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("statistical:"), std::string::npos);
  EXPECT_NE(result.out.find("numerical:"), std::string::npos);
  EXPECT_NE(result.out.find("95% CI"), std::string::npos);
}

TEST_F(CliFixture, ExportPrismToStdout) {
  const Result result = run({"export-prism", *path_, "--message", "m", "--nmax", "1"});
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("ctmc"), std::string::npos);
  EXPECT_NE(result.out.find("module"), std::string::npos);
  EXPECT_NE(result.out.find("label \"violated\""), std::string::npos);
}

TEST_F(CliFixture, ExportPrismToFile) {
  const std::string out_path = temp_path("cli_model.sm");
  const Result result = run({"export-prism", *path_, "--message", "m", "-o", out_path});
  EXPECT_EQ(result.exit_code, 0);
  std::ifstream file(out_path);
  ASSERT_TRUE(file.good());
  std::stringstream buffer;
  buffer << file.rdbuf();
  EXPECT_NE(buffer.str().find("endmodule"), std::string::npos);
}

TEST_F(CliFixture, SweepProducesMonotoneTable) {
  const Result result = run({"sweep", *path_, "--message", "m", "--nmax", "1",
                             "--constant", "phi_3g", "--from", "1", "--to", "100",
                             "--points", "4"});
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("phi_3g"), std::string::npos);
  // four data rows + header + rule
  int lines = 0;
  for (char c : result.out) lines += c == '\n';
  EXPECT_EQ(lines, 6);
}

std::string slurp(const std::string& path) {
  std::ifstream stream(path);
  std::ostringstream content;
  content << stream.rdbuf();
  return content.str();
}

/// The value of `"name": N` in a metrics document, or -1 when absent.
long metric(const std::string& json, const std::string& name) {
  const std::string needle = "\"" + name + "\": ";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return -1;
  return std::stol(json.substr(at + needle.size()));
}

TEST_F(CliFixture, SweepSolvesOnlyTheExposureOncePerPoint) {
  const std::string metrics_path = temp_path("cli_sweep_metrics.json");
  const Result result = run({"sweep", *path_, "--message", "m", "--nmax", "1",
                             "--constant", "phi_3g", "--from", "1", "--to", "100",
                             "--points", "4", "--metrics-json", metrics_path});
  ASSERT_EQ(result.exit_code, 0) << result.err;
  const std::string json = slurp(metrics_path);
  EXPECT_EQ(metric(json, "session.properties"), 4);
  EXPECT_EQ(metric(json, "session.explores"), 4);
  // No steady state, no fixpoint: only the cumulative exposure is solved.
  EXPECT_EQ(metric(json, "steady_state.solves"), -1);
  EXPECT_EQ(metric(json, "solver.fixpoint_solves"), -1);
}

TEST_F(CliFixture, SweepCheckpointFreshResumedAndInterruptedPrintTheSameTable) {
  // A rate-only sweep: every point has the same state and transition counts,
  // so only per-point override keys tell the points' records apart.
  const std::vector<std::string> sweep = {"sweep", *path_, "--message", "m",
                                          "--nmax", "1", "--constant", "phi_3g",
                                          "--from", "1", "--to", "100",
                                          "--points", "5"};
  const Result plain = run(sweep);
  ASSERT_EQ(plain.exit_code, 0) << plain.err;

  const auto with_checkpoint = [&](const std::string& dir,
                                   const std::string& metrics_path) {
    std::vector<std::string> args = sweep;
    for (const std::string& extra :
         {std::string("--checkpoint"), dir, std::string("--checkpoint-interval-ms"),
          std::string("0"), std::string("--metrics-json"), metrics_path}) {
      args.push_back(extra);
    }
    return run(args);
  };
  const std::string dir = temp_path("cli_sweep_ckpt");
  const std::string metrics_path = temp_path("cli_sweep_ckpt.json");
  std::filesystem::remove_all(dir);
  const Result fresh = with_checkpoint(dir, metrics_path);
  EXPECT_EQ(fresh.out, plain.out);
  const Result resumed = with_checkpoint(dir, metrics_path);
  EXPECT_EQ(resumed.out, plain.out);
  EXPECT_EQ(metric(slurp(metrics_path), "session.checkpoint_hits"), 5);

  // Interrupt at the third solve, then resume from what was recorded.
  const std::string interrupted_dir = temp_path("cli_sweep_ckpt_interrupted");
  std::filesystem::remove_all(interrupted_dir);
  util::fault::arm_site("solve.cancel", 3);
  const Result interrupted = with_checkpoint(interrupted_dir, metrics_path);
  util::fault::disarm_all();
  EXPECT_EQ(interrupted.exit_code, 1);
  const Result after = with_checkpoint(interrupted_dir, metrics_path);
  EXPECT_EQ(after.out, plain.out);
  EXPECT_GE(metric(slurp(metrics_path), "session.checkpoint_hits"), 2);
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(interrupted_dir);
}

TEST_F(CliFixture, SweepValidatesRange) {
  EXPECT_EQ(run({"sweep", *path_, "--message", "m", "--constant", "phi_3g",
                 "--from", "10", "--to", "1"})
                .exit_code,
            1);
  EXPECT_EQ(run({"sweep", *path_, "--message", "m", "--constant", "phi_3g",
                 "--from", "0", "--to", "1"})
                .exit_code,
            1);  // log sweep from 0
}

TEST_F(CliFixture, AssessCvss) {
  const Result result = run({"assess", "cvss", "AV:N/AC:H/Au:M"});
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("3.15"), std::string::npos);
  EXPECT_NE(result.out.find("1.85"), std::string::npos);
}

TEST_F(CliFixture, AssessAsil) {
  const Result result = run({"assess", "asil", "C"});
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("12"), std::string::npos);
}

TEST_F(CliFixture, AssessRejectsGarbage) {
  EXPECT_EQ(run({"assess", "cvss", "AV:Z/AC:H/Au:M"}).exit_code, 1);
  EXPECT_EQ(run({"assess", "asil", "E"}).exit_code, 1);
  EXPECT_EQ(run({"assess", "nonsense"}).exit_code, 1);
}

TEST_F(CliFixture, CompareMultipleArchitectures) {
  const std::string path3 = temp_path("cli_arch3.arch");
  automotive::save_architecture_file(
      automotive::casestudy::architecture(3, automotive::Protection::kUnencrypted),
      path3);
  const Result result =
      run({"compare", *path_, path3, "--message", "m", "--nmax", "1"});
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("Architecture 1"), std::string::npos);
  EXPECT_NE(result.out.find("Architecture 3"), std::string::npos);
  EXPECT_NE(result.out.find("confidentiality"), std::string::npos);
}

TEST_F(CliFixture, CompareSolvesOnlyTheExposurePerCell) {
  const std::string path3 = temp_path("cli_arch3_exposure.arch");
  const automotive::Architecture arch1 =
      automotive::casestudy::architecture(1, automotive::Protection::kUnencrypted);
  const automotive::Architecture arch3 =
      automotive::casestudy::architecture(3, automotive::Protection::kUnencrypted);
  automotive::save_architecture_file(arch3, path3);
  const std::string metrics_path = temp_path("cli_compare_metrics.json");
  const Result result = run({"compare", *path_, path3, "--message", "m", "--nmax", "1",
                             "--metrics-json", metrics_path});
  ASSERT_EQ(result.exit_code, 0) << result.err;
  // 3 categories x 2 architectures, one property each.
  EXPECT_EQ(metric(slurp(metrics_path), "session.properties"), 6);

  // The printed shares are the full analysis' exploitable fractions.
  automotive::AnalysisOptions options;
  options.nmax = 1;
  util::TextTable table({"Category", arch1.name, arch3.name});
  for (const automotive::SecurityCategory category :
       {automotive::SecurityCategory::kConfidentiality,
        automotive::SecurityCategory::kIntegrity,
        automotive::SecurityCategory::kAvailability}) {
    std::vector<std::string> row{std::string(automotive::category_name(category))};
    for (const automotive::Architecture* arch : {&arch1, &arch3}) {
      row.push_back(util::format_percent(
          automotive::analyze_message(*arch, "m", category, options).exploitable_fraction));
    }
    table.add_row(row);
  }
  EXPECT_EQ(result.out, "message m, exploitable share of 1 year(s):\n\n" + table.to_string());
}

TEST_F(CliFixture, CompareNeedsTwoFiles) {
  EXPECT_EQ(run({"compare", *path_}).exit_code, 1);
}

TEST_F(CliFixture, ExportDot) {
  const Result result = run({"export-dot", *path_, "--message", "m", "--nmax", "1"});
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("digraph ctmc"), std::string::npos);
  EXPECT_NE(result.out.find("->"), std::string::npos);
}

TEST_F(CliFixture, DiagnoseShowsCriticalityAndAttribution) {
  const Result result = run({"diagnose", *path_, "--message", "m", "--nmax", "1"});
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("criticality"), std::string::npos);
  EXPECT_NE(result.out.find("eta_3g_net"), std::string::npos);
  EXPECT_NE(result.out.find("first-breach attribution"), std::string::npos);
  EXPECT_NE(result.out.find("3G"), std::string::npos);
}

TEST_F(CliFixture, DiagnoseNeedsMessage) {
  EXPECT_EQ(run({"diagnose", *path_}).exit_code, 1);
}

TEST_F(CliFixture, CsvOutputIsMachineReadable) {
  const Result result = run({"analyze", *path_, "--nmax", "1", "--category",
                             "confidentiality", "--csv"});
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("Message,Category,"), std::string::npos);
  EXPECT_NE(result.out.find("m,confidentiality,"), std::string::npos);
  // No decorative rule lines in CSV mode.
  EXPECT_EQ(result.out.find("---"), std::string::npos);
}

TEST_F(CliFixture, SweepCsv) {
  const Result result = run({"sweep", *path_, "--message", "m", "--nmax", "1",
                             "--constant", "phi_3g", "--from", "1", "--to", "10",
                             "--points", "3", "--csv"});
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("phi_3g,exploitable time"), std::string::npos);
}

TEST_F(CliFixture, AnalyzeReportsMeanTimeToBreach) {
  const Result result = run({"analyze", *path_, "--nmax", "1", "--category",
                             "availability"});
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("mean time to breach"), std::string::npos);
}

TEST_F(CliFixture, BadFlagValueFails) {
  EXPECT_EQ(run({"analyze", *path_, "--nmax", "zero"}).exit_code, 1);
  EXPECT_EQ(run({"analyze", *path_, "--nmax", "0"}).exit_code, 1);
  EXPECT_EQ(run({"analyze", *path_, "--horizon", "-1"}).exit_code, 1);
  EXPECT_EQ(run({"analyze", *path_, "--set", "novalue"}).exit_code, 1);
  EXPECT_EQ(run({"analyze", *path_, "--bogus"}).exit_code, 1);
}

TEST_F(CliFixture, MetricsJsonRecordsEngineStages) {
  const std::string metrics_path = temp_path("cli_metrics.json");
  const Result result = run({"analyze", *path_, "--message", "m", "--category",
                             "confidentiality", "--nmax", "1", "--metrics-json",
                             metrics_path});
  ASSERT_EQ(result.exit_code, 0) << result.err;

  const std::string json = slurp(metrics_path);
  ASSERT_FALSE(json.empty());
  EXPECT_NE(json.find("\"schema\": \"autosec-metrics-v1\""), std::string::npos);
  // Stage spans of the analysis pipeline (nested under the analyze span).
  EXPECT_NE(json.find("\"analyze\""), std::string::npos);
  EXPECT_NE(json.find("compile\""), std::string::npos);
  EXPECT_NE(json.find("explore\""), std::string::npos);
  EXPECT_NE(json.find("uniformize\""), std::string::npos);
  EXPECT_NE(json.find("solve\""), std::string::npos);
  // Engine-layer counters and gauges.
  EXPECT_NE(json.find("\"explore.states\""), std::string::npos);
  EXPECT_NE(json.find("\"solver.fixpoint_solves\""), std::string::npos);
  EXPECT_NE(json.find("\"poisson.cache_"), std::string::npos);
  EXPECT_NE(json.find("\"cli.exit_code\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"cli.threads\""), std::string::npos);
}

TEST_F(CliFixture, MetricsJsonWrittenOnFailureToo) {
  const std::string metrics_path = temp_path("cli_metrics_fail.json");
  const Result result =
      run({"analyze", "/nonexistent.arch", "--metrics-json", metrics_path});
  EXPECT_EQ(result.exit_code, 1);
  const std::string json = slurp(metrics_path);
  EXPECT_NE(json.find("\"cli.exit_code\": 1"), std::string::npos);
}

TEST_F(CliFixture, MetricsJsonFlagNeedsValue) {
  const Result result = run({"analyze", *path_, "--metrics-json"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("--metrics-json"), std::string::npos);
}

TEST_F(CliFixture, CheckMdpStrategyJsonRoundTrips) {
  const std::string strategy_path = temp_path("cli_strategy.json");
  const Result result =
      run({"check", *path_, "--message", "m", "--category", "integrity",
           "--model-type", "mdp", "--property", "Pmax=? [ F<=5 \"violated\" ]",
           "--strategy-json", strategy_path});
  ASSERT_EQ(result.exit_code, 0) << result.err;
  // The command re-parses its own file and re-checks the induced chain; both
  // values print and must agree.
  EXPECT_NE(result.out.find("value:"), std::string::npos);
  EXPECT_NE(result.out.find("induced:"), std::string::npos);
  EXPECT_NE(result.out.find("strategy roundtrip ok"), std::string::npos);
  const std::string json = slurp(strategy_path);
  EXPECT_NE(json.find("\"version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"model_type\": \"mdp\""), std::string::npos);
  EXPECT_NE(json.find("\"attack_path\""), std::string::npos);
}

TEST_F(CliFixture, StrategyJsonRequiresASingleProperty) {
  const Result result =
      run({"check", *path_, "--message", "m", "--category", "integrity",
           "--model-type", "mdp", "--strategy-json", temp_path("unused.json")});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("--property"), std::string::npos);
}

TEST_F(CliFixture, RemovedKernelFlagsAreUsageErrors) {
  // Layout, Gauss-Seidel ordering and reordering are no longer flags: the
  // solve kernels resolve from the matrix alone.
  for (const auto& [flag, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"--layout", "csr"}, {"--gs-ordering", "direct"}, {"--reorder", "off"}}) {
    const Result result = run({"analyze", *path_, "--nmax", "1", flag, value});
    EXPECT_EQ(result.exit_code, 1) << flag;
    EXPECT_NE(result.err.find("unknown option '" + flag + "'"), std::string::npos)
        << result.err;
  }
  const Result help = run({"help"});
  for (const char* flag : {"--layout", "--gs-ordering", "--reorder"}) {
    EXPECT_EQ(help.out.find(flag), std::string::npos) << flag;
  }
}

TEST_F(CliFixture, ModelTypeFlagRejectsUnknownTokens) {
  const Result result = run({"check", *path_, "--message", "m", "--category",
                             "integrity", "--model-type", "dtmc"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("ctmc|mdp"), std::string::npos);
}

}  // namespace
}  // namespace autosec::cli
