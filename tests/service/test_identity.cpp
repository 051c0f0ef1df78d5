// The one job identity (service/identity.hpp): every keyed option changes
// the job identity, every option but horizon and overrides changes the
// session key too, and check and sweep on one pair share a session.
#include "service/identity.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace autosec::service {
namespace {

using automotive::AnalysisOptions;
using automotive::SecurityCategory;

struct Job {
  std::string op = "check";
  SessionScope scope = SessionScope::kPair;
  uint64_t digest = 0x1234;
  AnalysisOptions options;
  std::vector<std::string> messages = {"m"};
  std::vector<SecurityCategory> categories = {SecurityCategory::kIntegrity};
  std::string payload = "properties=\"P=? [ F<=1 \\\"violated\\\" ]\",";

  JobIdentity identity() const {
    return job_identity(op, scope, digest, options, messages, categories, payload);
  }
};

struct Flip {
  std::string name;
  std::function<void(Job&)> apply;
  bool changes_session;
};

TEST(JobIdentityTest, EveryKeyedOptionChangesTheIdentity) {
  using linalg::FixpointMethod;
  using symbolic::ExplorationEngine;
  using symbolic::ModelType;
  using symbolic::SymmetryReduction;
  const std::vector<Flip> flips = {
      {"op", [](Job& j) { j.op = "sweep"; }, false},
      {"scope", [](Job& j) { j.scope = SessionScope::kBatch; }, true},
      {"architecture digest", [](Job& j) { j.digest = 0x1235; }, true},
      {"messages", [](Job& j) { j.messages = {"n"}; }, true},
      {"categories",
       [](Job& j) { j.categories = {SecurityCategory::kAvailability}; }, true},
      {"payload", [](Job& j) { j.payload += "|strategy"; }, false},
      {"model_type", [](Job& j) { j.options.model_type = ModelType::kMdp; }, true},
      {"nmax", [](Job& j) { j.options.nmax = 2; }, true},
      {"plan.engine",
       [](Job& j) { j.options.plan.engine = ExplorationEngine::kCompact; }, true},
      {"plan.reduction",
       [](Job& j) { j.options.plan.reduction = SymmetryReduction::kOff; }, true},
      {"plan.method",
       [](Job& j) { j.options.plan.method = FixpointMethod::kKrylov; }, true},
      {"plan.steady_state_detection",
       [](Job& j) { j.options.plan.steady_state_detection = false; }, true},
      {"literal_patch_guard",
       [](Job& j) { j.options.literal_patch_guard = true; }, true},
      {"guardian_requires_foothold",
       [](Job& j) { j.options.guardian_requires_foothold = true; }, true},
      {"include_reliability",
       [](Job& j) { j.options.include_reliability = false; }, true},
      {"batch_model", [](Job& j) { j.options.batch_model = false; }, true},
      {"horizon_years", [](Job& j) { j.options.horizon_years = 2.0; }, false},
      {"constant_overrides",
       [](Job& j) {
         j.options.constant_overrides = {{"phi_gw", symbolic::Value::of(8.0)}};
       },
       false},
  };
  const JobIdentity base = Job{}.identity();
  for (const Flip& flip : flips) {
    Job job;
    flip.apply(job);
    const JobIdentity flipped = job.identity();
    EXPECT_NE(flipped.job, base.job) << flip.name;
    if (flip.changes_session) {
      EXPECT_NE(flipped.session_key, base.session_key) << flip.name;
    } else {
      EXPECT_EQ(flipped.session_key, base.session_key) << flip.name;
    }
  }
}

TEST(JobIdentityTest, KnobsThatDoNotChangeResultsAreNotKeyed) {
  const JobIdentity base = Job{}.identity();
  Job job;
  job.options.threads = 8;
  job.options.parallel_solves = false;
  job.options.cancel = std::make_shared<util::CancelToken>();
  EXPECT_EQ(job.identity().job, base.job);
}

TEST(JobIdentityTest, CheckAndSweepOfOnePairShareASession) {
  Request check;
  check.op = Op::kCheck;
  check.message = "m";
  check.category = SecurityCategory::kIntegrity;
  check.properties = {"P=? [ F<=1 \"violated\" ]"};
  Request sweep = check;
  sweep.op = Op::kSweep;
  sweep.properties.clear();
  sweep.constant = "phi_gw";
  sweep.values = {1.0, 2.0};
  sweep.horizon_years = 3.0;
  sweep.overrides = {{"phi_3g", symbolic::Value::of(20.0)}};

  const JobIdentity check_identity = request_identity(check, 0xabc);
  const JobIdentity sweep_identity = request_identity(sweep, 0xabc);
  EXPECT_EQ(check_identity.session_key, sweep_identity.session_key);
  EXPECT_NE(check_identity.job, sweep_identity.job);

  // Another architecture content is another session.
  EXPECT_NE(request_identity(check, 0xabd).session_key, check_identity.session_key);
}

TEST(JobIdentityTest, SweepValuesAndStrategyAreKeyedExactly) {
  Request sweep;
  sweep.op = Op::kSweep;
  sweep.message = "m";
  sweep.constant = "phi_gw";
  sweep.values = {0.1};
  Request nearby = sweep;
  nearby.values = {std::nextafter(0.1, 1.0)};  // one ulp away
  EXPECT_NE(request_identity(sweep, 1).job, request_identity(nearby, 1).job);

  Request check;
  check.op = Op::kCheck;
  check.message = "m";
  check.properties = {"Pmax=? [ F<=10 \"violated\" ]"};
  Request with_strategy = check;
  with_strategy.strategy = true;
  EXPECT_NE(request_identity(check, 1).job, request_identity(with_strategy, 1).job);
  EXPECT_EQ(request_identity(check, 1).session_key,
            request_identity(with_strategy, 1).session_key);
}

}  // namespace
}  // namespace autosec::service
