// google-benchmark microbenchmarks for the model-checking engine itself:
// state-space exploration, uniformization-based transient analysis,
// cumulative rewards, steady state, and Poisson weight generation. These are
// ours (not a paper artifact) and exist to track engine regressions.
#include <benchmark/benchmark.h>

#include <memory>

#include "automotive/casestudy.hpp"
#include "automotive/transform.hpp"
#include "csl/session.hpp"
#include "ctmc/lumping.hpp"
#include "ctmc/poisson.hpp"
#include "ctmc/rewards.hpp"
#include "ctmc/simulation.hpp"
#include "ctmc/steady_state.hpp"
#include "ctmc/transient.hpp"
#include "symbolic/explorer.hpp"

namespace {

using namespace autosec;
namespace cs = automotive::casestudy;

symbolic::CompiledModel case_study_model(int nmax) {
  automotive::TransformOptions options;
  options.message = cs::kMessage;
  options.category = automotive::SecurityCategory::kConfidentiality;
  options.nmax = nmax;
  return symbolic::compile(automotive::transform(
      cs::architecture(1, automotive::Protection::kAes128), options));
}

void BM_Exploration(benchmark::State& state) {
  const symbolic::CompiledModel compiled = case_study_model(
      static_cast<int>(state.range(0)));
  size_t states = 0;
  for (auto _ : state) {
    const symbolic::StateSpace space = symbolic::explore(compiled);
    states = space.state_count();
    benchmark::DoNotOptimize(states);
  }
  state.counters["states"] = static_cast<double>(states);
}
BENCHMARK(BM_Exploration)->Arg(1)->Arg(2)->Arg(3);

void BM_TransientDistribution(benchmark::State& state) {
  const symbolic::StateSpace space =
      symbolic::explore(case_study_model(static_cast<int>(state.range(0))));
  const ctmc::Ctmc& chain = space.chain();
  const std::vector<double> initial = space.initial_distribution();
  for (auto _ : state) {
    const auto dist = ctmc::transient_distribution(chain, initial, 1.0);
    benchmark::DoNotOptimize(dist.data());
  }
  state.counters["states"] = static_cast<double>(chain.state_count());
}
BENCHMARK(BM_TransientDistribution)->Arg(1)->Arg(2)->Arg(3);

void BM_CumulativeReward(benchmark::State& state) {
  const symbolic::StateSpace space =
      symbolic::explore(case_study_model(static_cast<int>(state.range(0))));
  const ctmc::Ctmc& chain = space.chain();
  const std::vector<double> initial = space.initial_distribution();
  const std::vector<double> rewards =
      space.reward_vector(automotive::kExposureReward);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ctmc::expected_cumulative_reward(chain, initial, rewards, 1.0));
  }
}
BENCHMARK(BM_CumulativeReward)->Arg(1)->Arg(2);

void BM_SteadyState(benchmark::State& state) {
  const symbolic::StateSpace space =
      symbolic::explore(case_study_model(static_cast<int>(state.range(0))));
  const ctmc::Ctmc& chain = space.chain();
  const std::vector<double> initial = space.initial_distribution();
  for (auto _ : state) {
    const auto result = ctmc::steady_state(chain, initial);
    benchmark::DoNotOptimize(result.distribution.data());
  }
}
BENCHMARK(BM_SteadyState)->Arg(1)->Arg(2);

void BM_FullPropertyCheck(benchmark::State& state) {
  const symbolic::StateSpace space = symbolic::explore(case_study_model(2));
  csl::EngineSession session(std::make_shared<const symbolic::StateSpace>(space));
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.check("R{\"exposure\"}=? [ C<=1 ]"));
  }
}
BENCHMARK(BM_FullPropertyCheck);

void BM_Lumping(benchmark::State& state) {
  const symbolic::StateSpace space =
      symbolic::explore(case_study_model(static_cast<int>(state.range(0))));
  const ctmc::Ctmc& chain = space.chain();
  const std::vector<std::vector<bool>> masks = {
      space.label_mask(automotive::kViolatedLabel)};
  const std::vector<std::vector<double>> rewards = {
      space.reward_vector(automotive::kExposureReward)};
  const std::vector<double> initial = space.initial_distribution();
  size_t blocks = 0;
  for (auto _ : state) {
    const auto result = ctmc::lump_preserving(chain, masks, rewards, &initial);
    blocks = result.block_count;
    benchmark::DoNotOptimize(blocks);
  }
  state.counters["blocks"] = static_cast<double>(blocks);
}
BENCHMARK(BM_Lumping)->Arg(1)->Arg(2);

void BM_SimulationTrajectories(benchmark::State& state) {
  const symbolic::StateSpace space = symbolic::explore(case_study_model(2));
  const ctmc::Ctmc& chain = space.chain();
  const std::vector<bool> violated = space.label_mask(automotive::kViolatedLabel);
  ctmc::SimulationOptions options;
  options.samples = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctmc::estimate_time_fraction(
        chain, static_cast<uint32_t>(space.initial_state()), violated, 1.0, options));
  }
}
BENCHMARK(BM_SimulationTrajectories)->Arg(100)->Arg(1000);

void BM_PoissonWeights(benchmark::State& state) {
  const double lambda = static_cast<double>(state.range(0));
  for (auto _ : state) {
    const auto weights = ctmc::poisson_weights(lambda);
    benchmark::DoNotOptimize(weights.weights.data());
  }
}
BENCHMARK(BM_PoissonWeights)->Arg(10)->Arg(1000)->Arg(100000);

}  // namespace
