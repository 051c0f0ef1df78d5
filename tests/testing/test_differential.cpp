// The differential harness run end-to-end at test-suite scale: a short
// all-families sweep must come back clean, deterministic in its seed, and
// with every check family actually exercised. (The CI-scale sweeps live in
// tools/autosec-verify and the soak-labeled ctest entry.)
#include "testing/differential.hpp"

#include <gtest/gtest.h>

namespace autosec::testing {
namespace {

DifferentialOptions short_run() {
  DifferentialOptions options;
  options.seed = 1;
  options.iterations = 10;
  return options;
}

TEST(Differential, ShortSweepIsClean) {
  const DifferentialReport report = run_differential(short_run());
  EXPECT_TRUE(report.ok()) << report.summary();
  for (const std::string& failure : report.failures) ADD_FAILURE() << failure;
  EXPECT_EQ(report.iterations, 10u);
  // Each iteration checks the random model and the transformed architecture.
  EXPECT_EQ(report.models_checked, 20u);
}

TEST(Differential, AllCheckFamiliesRun) {
  const DifferentialReport report = run_differential(short_run());
  for (const char* family :
       {"oracle.transient", "oracle.steady_state", "oracle.cumulative_reward",
        "oracle.instantaneous_reward", "oracle.bounded_reachability",
        "solver.krylov_vs_gauss_seidel", "solver.blocked_vs_csr",
        "lumping.quotient_vs_full",
        "parallel.determinism", "parallel.concurrent_callers",
        "batch.shared_vs_single",
        "roundtrip.model_text_fixpoint",
        "roundtrip.model_state_space", "roundtrip.arch_text_fixpoint",
        "engine.reduced_vs_full", "explore.refill_vs_explore",
        "model.program_vs_tree"}) {
    const auto it = report.checks.find(family);
    ASSERT_NE(it, report.checks.end()) << family << " never ran";
    EXPECT_GT(it->second.runs, 0u) << family;
    EXPECT_EQ(it->second.failures, 0u) << family;
  }
  // The blocked kernel sums every row exactly as the CSR kernel does, a
  // refill sums every entry exactly as exploration does, and the compiled
  // model program evaluates every expression exactly as the tree does.
  EXPECT_EQ(report.checks.at("solver.blocked_vs_csr").max_error, 0.0);
  EXPECT_EQ(report.checks.at("explore.refill_vs_explore").max_error, 0.0);
  EXPECT_EQ(report.checks.at("model.program_vs_tree").max_error, 0.0);
}

TEST(Differential, DeterministicInTheSeed) {
  const DifferentialReport first = run_differential(short_run());
  const DifferentialReport second = run_differential(short_run());
  EXPECT_EQ(first.summary(), second.summary());
  EXPECT_EQ(first.failures, second.failures);
}

TEST(Differential, FamiliesCanBeDisabled) {
  DifferentialOptions options = short_run();
  options.iterations = 2;
  options.check_oracle = false;
  options.check_solvers = false;
  options.check_kernels = false;
  options.check_lumping = false;
  options.check_parallel = false;
  options.check_engine = false;
  options.check_mdp = false;
  options.check_checkpoint = false;
  options.check_explore = false;
  options.check_program = false;
  const DifferentialReport report = run_differential(options);
  EXPECT_TRUE(report.ok()) << report.summary();
  for (const auto& [name, outcome] : report.checks) {
    EXPECT_EQ(name.rfind("roundtrip.", 0), 0u)
        << name << " ran despite being disabled";
  }
}

TEST(Differential, SummaryNamesTheRun) {
  DifferentialOptions options = short_run();
  options.iterations = 1;
  const std::string summary = run_differential(options).summary();
  EXPECT_NE(summary.find("differential report: 1 iterations"), std::string::npos)
      << summary;
  EXPECT_NE(summary.find("total"), std::string::npos) << summary;
}

}  // namespace
}  // namespace autosec::testing
