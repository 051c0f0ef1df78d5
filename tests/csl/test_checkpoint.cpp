// Crash-durable solves (csl/checkpoint.hpp): the ledger round-trips doubles
// bit-exactly through its snapshot store entry, every fault-safepoint interruption
// resumes to results bit-identical with an uninterrupted run (ctmc and mdp),
// corruption degrades to cold recomputation (never a wrong answer), and a
// changed job identity or changed stage identity misses instead of replaying
// stale values.
#include "csl/checkpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "csl/session.hpp"
#include "symbolic/builder.hpp"
#include "symbolic/parser.hpp"
#include "util/cancel.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"

namespace autosec::csl {
namespace {

namespace fs = std::filesystem;
using symbolic::Expr;

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::fault::disarm_all();
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("autosec_checkpoint_") + info->name());
    fs::remove_all(dir_);
  }
  void TearDown() override {
    util::fault::disarm_all();
    fs::remove_all(dir_);
  }

  /// A ledger's options on a freshly opened store: each call models a
  /// process restart over the same directory.
  CheckpointOptions options(const std::string& identity = "job-1") const {
    CheckpointOptions out;
    out.store =
        std::make_shared<util::DurableStore>(dir_.string(), util::kCheckpointStore);
    out.identity = identity;
    out.interval_ms = 0;  // persist on every record — what resume tests need
    return out;
  }

  /// The snapshot file of `identity`.
  std::string snapshot_path(const std::string& identity = "job-1") const {
    return options(identity).store->entry_path(identity);
  }

  fs::path dir_;
};

symbolic::Model repair_model() {
  symbolic::ModelBuilder builder;
  auto& m = builder.module("unit");
  m.variable("x", 0, 1, 0);
  m.command(Expr::ident("x") == Expr::literal(0), Expr::literal(2.0),
            {{"x", Expr::literal(1)}});
  m.command(Expr::ident("x") == Expr::literal(1), Expr::literal(6.0),
            {{"x", Expr::literal(0)}});
  builder.label("broken", Expr::ident("x") == Expr::literal(1));
  builder.state_reward("downtime", Expr::ident("x") == Expr::literal(1),
                       Expr::literal(1.0));
  return builder.build();
}

const std::vector<std::string> kCtmcProperties = {
    "P=? [ F<=0.5 \"broken\" ]",
    "P=? [ F \"broken\" ]",
    "S=? [ \"broken\" ]",
    "R{\"downtime\"}=? [ C<=1 ]",
};

constexpr const char* kMdpModel = R"(mdp

module coin
  x : [0..2] init 0;
  [safe] x=0 -> 1:(x'=0);
  [risky] x=0 -> 0.5:(x'=1) + 0.5:(x'=2);
  [go] x=1 -> 1:(x'=2);
endmodule

label "done" = x=2;
)";

const std::vector<std::string> kMdpProperties = {
    "Pmax=? [ F \"done\" ]",
    "Pmin=? [ F \"done\" ]",
};

TEST_F(CheckpointTest, LedgerRoundTripsDoublesBitExactly) {
  const std::vector<double> values = {
      0.1, -0.0, 1.0 / 3.0, std::numeric_limits<double>::denorm_min(),
      std::nextafter(1.0, 2.0)};
  {
    CheckpointLedger ledger(options());
    for (size_t i = 0; i < values.size(); ++i) {
      ledger.record("k" + std::to_string(i), values[i]);
    }
    ledger.flush();
  }
  CheckpointLedger resumed(options());
  EXPECT_EQ(resumed.load(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    double recovered = 0.0;
    ASSERT_TRUE(resumed.lookup("k" + std::to_string(i), &recovered));
    // Bitwise, not approximate: signed zeros and denormals must survive.
    uint64_t a, b;
    std::memcpy(&a, &values[i], sizeof(a));
    std::memcpy(&b, &recovered, sizeof(b));
    EXPECT_EQ(a, b) << "k" << i;
  }
  EXPECT_FALSE(resumed.lookup("absent", nullptr));
  EXPECT_EQ(resumed.resumed_hits(), values.size());
}

TEST_F(CheckpointTest, DifferentIdentitiesKeepSeparateSnapshots) {
  {
    CheckpointLedger ledger(options("job-a"));
    ledger.record("k", 1.0);
    ledger.flush();
  }
  CheckpointLedger other(options("job-b"));
  EXPECT_EQ(other.load(), 0u) << "a different job identity must resume cold";
}

TEST_F(CheckpointTest, CorruptSnapshotResumesColdAndIsUnlinked) {
  {
    CheckpointLedger ledger(options());
    ledger.record("k", 0.25);
    ledger.flush();
  }
  const std::string path = snapshot_path();
  ASSERT_TRUE(fs::exists(path));
  std::ofstream(path, std::ios::trunc) << "garbage, not a snapshot\n";
  CheckpointLedger resumed(options());
  EXPECT_EQ(resumed.load(), 0u);
  EXPECT_FALSE(fs::exists(path)) << "invalid snapshots are unlinked";
}

TEST_F(CheckpointTest, TamperedPayloadFailsTheDigestAndResumesCold) {
  {
    CheckpointLedger ledger(options());
    ledger.record("k", 0.25);
    ledger.flush();
  }
  const std::string path = snapshot_path();
  std::ifstream in(path, std::ios::binary);
  std::string header, identity, payload_digest, payload;
  std::getline(in, header);
  std::getline(in, identity);
  std::getline(in, payload_digest);
  std::getline(in, payload);  // the rest: the payload has no trailing newline
  in.close();
  // Flip a recorded bit but keep the format shape and the payload length:
  // the payload digest mismatch must reject the whole snapshot.
  payload[payload.find(':') + 2] ^= 1;
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << header << "\n" << identity << "\n" << payload_digest << "\n" << payload;
  CheckpointLedger resumed(options());
  EXPECT_EQ(resumed.load(), 0u);
  EXPECT_FALSE(fs::exists(path)) << "a snapshot failing its digest is unlinked";
}

/// Interrupt a ctmc batch at every solve-stage safepoint, then resume: the
/// resumed run must replay the already-recorded solves and produce values
/// bit-identical with an uninterrupted run.
TEST_F(CheckpointTest, CtmcResumeAfterSolveCancelIsBitIdentical) {
  EngineSession reference(repair_model());
  const std::vector<double> fresh = reference.check_all(kCtmcProperties);

  for (uint64_t interrupt_at = 1; interrupt_at <= kCtmcProperties.size();
       ++interrupt_at) {
    const std::string identity = "ctmc-" + std::to_string(interrupt_at);
    {
      auto ledger = std::make_shared<CheckpointLedger>(options(identity));
      ledger->load();
      SessionOptions session_options;
      session_options.parallel_properties = false;  // deterministic interrupt
      EngineSession session(repair_model(), session_options);
      session.set_checkpoint(ledger);
      util::fault::arm_site("solve.cancel", interrupt_at);
      EXPECT_THROW(session.check_all(kCtmcProperties), util::Cancelled);
      util::fault::disarm_all();
    }
    auto resumed = std::make_shared<CheckpointLedger>(options(identity));
    EXPECT_EQ(resumed->load(), interrupt_at - 1)
        << "solves finished before the interrupt were persisted";
    EngineSession session(repair_model());
    session.set_checkpoint(resumed);
    const std::vector<double> values = session.check_all(kCtmcProperties);
    ASSERT_EQ(values.size(), fresh.size());
    for (size_t i = 0; i < fresh.size(); ++i) {
      EXPECT_EQ(values[i], fresh[i]) << kCtmcProperties[i];
    }
    EXPECT_EQ(resumed->resumed_hits(), interrupt_at - 1);
  }
}

/// Same resume contract for the mdp model family (value iteration).
TEST_F(CheckpointTest, MdpResumeAfterSolveCancelIsBitIdentical) {
  EngineSession reference(symbolic::parse_model(kMdpModel));
  const std::vector<double> fresh = reference.check_all(kMdpProperties);

  const std::string identity = "mdp-resume";
  {
    auto ledger = std::make_shared<CheckpointLedger>(options(identity));
    ledger->load();
    SessionOptions session_options;
    session_options.parallel_properties = false;
    EngineSession session(symbolic::parse_model(kMdpModel), session_options);
    session.set_checkpoint(ledger);
    util::fault::arm_site("solve.cancel", 2);  // first property lands
    EXPECT_THROW(session.check_all(kMdpProperties), util::Cancelled);
    util::fault::disarm_all();
  }
  auto resumed = std::make_shared<CheckpointLedger>(options(identity));
  EXPECT_EQ(resumed->load(), 1u);
  EngineSession session(symbolic::parse_model(kMdpModel));
  session.set_checkpoint(resumed);
  const std::vector<double> values = session.check_all(kMdpProperties);
  ASSERT_EQ(values.size(), fresh.size());
  for (size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(values[i], fresh[i]) << kMdpProperties[i];
  }
  EXPECT_EQ(resumed->resumed_hits(), 1u);
}

/// Interrupts below the solve stage (exploration, uniformization) leave no
/// records — nothing was solved — and the resume recomputes everything to
/// the same values.
TEST_F(CheckpointTest, StageFailuresBeforeAnySolveResumeCold) {
  EngineSession reference(repair_model());
  const std::vector<double> fresh = reference.check_all(kCtmcProperties);

  for (const char* site : {"explore.alloc", "uniformize.alloc"}) {
    const std::string identity = std::string("stage-") + site;
    {
      auto ledger = std::make_shared<CheckpointLedger>(options(identity));
      ledger->load();
      EngineSession session(repair_model());
      session.set_checkpoint(ledger);
      util::fault::arm_site(site);
      EXPECT_THROW(session.check_all(kCtmcProperties), std::exception) << site;
      util::fault::disarm_all();
    }
    auto resumed = std::make_shared<CheckpointLedger>(options(identity));
    EXPECT_EQ(resumed->load(), 0u) << site;
    EngineSession session(repair_model());
    session.set_checkpoint(resumed);
    const std::vector<double> values = session.check_all(kCtmcProperties);
    for (size_t i = 0; i < fresh.size(); ++i) {
      EXPECT_EQ(values[i], fresh[i]) << site << ": " << kCtmcProperties[i];
    }
  }
}

/// The record key folds in the stage identity (state/transition counts), so
/// a snapshot taken against a different model misses instead of replaying a
/// wrong answer — even under the same job identity.
TEST_F(CheckpointTest, ChangedStateSpaceMissesInsteadOfReplayingStaleValues) {
  {
    auto ledger = std::make_shared<CheckpointLedger>(options("shared"));
    ledger->load();
    EngineSession session(repair_model());
    session.set_checkpoint(ledger);
    session.check_all(kCtmcProperties);
  }

  // A 3-state variant: same property texts, different state space.
  symbolic::ModelBuilder builder;
  auto& m = builder.module("unit");
  m.variable("x", 0, 2, 0);
  m.command(Expr::ident("x") == Expr::literal(0), Expr::literal(2.0),
            {{"x", Expr::literal(1)}});
  m.command(Expr::ident("x") == Expr::literal(1), Expr::literal(1.0),
            {{"x", Expr::literal(2)}});
  m.command(Expr::ident("x") == Expr::literal(2), Expr::literal(6.0),
            {{"x", Expr::literal(0)}});
  builder.label("broken", Expr::ident("x") == Expr::literal(2));
  builder.state_reward("downtime", Expr::ident("x") == Expr::literal(2),
                       Expr::literal(1.0));

  const symbolic::Model variant = builder.build();
  EngineSession plain(variant);
  const std::vector<double> expected = plain.check_all(kCtmcProperties);

  auto resumed = std::make_shared<CheckpointLedger>(options("shared"));
  EXPECT_GT(resumed->load(), 0u);
  EngineSession session(variant);
  session.set_checkpoint(resumed);
  const std::vector<double> values = session.check_all(kCtmcProperties);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(values[i], expected[i]) << kCtmcProperties[i];
  }
  EXPECT_EQ(resumed->resumed_hits(), 0u)
      << "stale records must never replay against a changed state space";
}

/// check_all's C<=t properties share one transient pass, but each member
/// still checkpoints on its own: a fully recorded group replays without the
/// pass, and a partly recorded one replays the recorded members and solves
/// the rest.
const std::vector<std::string> kCumulativeGroup = {
    "R{\"downtime\"}=? [ C<=1 ]",
    "R{\"downtime\"}=? [ C<=0.5 ]",
    "P=? [ F<=0.5 \"broken\" ]",
    "R{\"downtime\"}=? [ C<=2 ]",
    "R{\"downtime\"}=? [ C<=4 ]",
};

TEST_F(CheckpointTest, FullyRecordedCumulativeGroupReplaysWithoutAPass) {
  std::vector<double> fresh;
  {
    auto ledger = std::make_shared<CheckpointLedger>(options("group-full"));
    ledger->load();
    EngineSession session(repair_model());
    session.set_checkpoint(ledger);
    fresh = session.check_all(kCumulativeGroup);
  }
  auto resumed = std::make_shared<CheckpointLedger>(options("group-full"));
  EXPECT_EQ(resumed->load(), kCumulativeGroup.size());
  EngineSession session(repair_model());
  session.set_checkpoint(resumed);
  util::metrics::registry().set_enabled(true);
  util::metrics::registry().reset();
  const std::vector<double> values = session.check_all(kCumulativeGroup);
  const uint64_t products =
      util::metrics::registry().counter_value("ctmc.matrix_vector_products");
  const uint64_t passes =
      util::metrics::registry().counter_value("ctmc.cumulative_reward_passes");
  util::metrics::registry().set_enabled(false);
  for (size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(values[i], fresh[i]) << kCumulativeGroup[i];
  }
  EXPECT_EQ(resumed->resumed_hits(), kCumulativeGroup.size());
  EXPECT_EQ(products, 0u);
  EXPECT_EQ(passes, 0u);
}

TEST_F(CheckpointTest, PartlyRecordedCumulativeGroupRecomputesOnlyTheRest) {
  EngineSession reference(repair_model());
  const std::vector<double> fresh = reference.check_all(kCumulativeGroup);
  {
    auto ledger = std::make_shared<CheckpointLedger>(options("group-part"));
    ledger->load();
    SessionOptions session_options;
    session_options.parallel_properties = false;  // deterministic interrupt
    EngineSession session(repair_model(), session_options);
    session.set_checkpoint(ledger);
    // The group runs first, its members in batch order: the two C<=t before
    // the third member land, then its safepoint cancels.
    util::fault::arm_site("solve.cancel", 3);
    EXPECT_THROW(session.check_all(kCumulativeGroup), util::Cancelled);
    util::fault::disarm_all();
  }
  auto resumed = std::make_shared<CheckpointLedger>(options("group-part"));
  EXPECT_EQ(resumed->load(), 2u);
  EngineSession session(repair_model());
  session.set_checkpoint(resumed);
  util::metrics::registry().set_enabled(true);
  util::metrics::registry().reset();
  const std::vector<double> values = session.check_all(kCumulativeGroup);
  const uint64_t passes =
      util::metrics::registry().counter_value("ctmc.cumulative_reward_passes");
  util::metrics::registry().set_enabled(false);
  for (size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(values[i], fresh[i]) << kCumulativeGroup[i];
  }
  EXPECT_EQ(resumed->resumed_hits(), 2u);
  EXPECT_EQ(passes, 1u) << "the two unrecorded members share one pass";
  EXPECT_EQ(resumed->size(), kCumulativeGroup.size());
}

/// Rate-only sweep points share the session's active key and their state
/// and transition counts; each point's records must still be keyed by its
/// own override set, or a resumed sweep would replay one point's value for
/// every point.
TEST_F(CheckpointTest, CheckPointsKeepsOneRecordPerPointAndResumesEachPoint) {
  symbolic::ModelBuilder builder;
  builder.constant_double("fail", 2.0);
  auto& m = builder.module("unit");
  m.variable("x", 0, 1, 0);
  m.command(Expr::ident("x") == Expr::literal(0), Expr::ident("fail"),
            {{"x", Expr::literal(1)}});
  m.command(Expr::ident("x") == Expr::literal(1), Expr::literal(6.0),
            {{"x", Expr::literal(0)}});
  builder.label("broken", Expr::ident("x") == Expr::literal(1));
  const symbolic::Model model = builder.build();
  const std::string property = "P=? [ F<=0.5 \"broken\" ]";
  const std::vector<OverrideSet> points = {{{"fail", symbolic::Value::of(1.0)}},
                                          {{"fail", symbolic::Value::of(2.0)}},
                                          {{"fail", symbolic::Value::of(4.0)}}};

  EngineSession reference(model);
  const std::vector<PointValue> fresh = reference.check_points(property, points);
  ASSERT_NE(fresh[0].value, fresh[1].value);

  for (uint64_t interrupt_at = 1; interrupt_at <= points.size() + 1; ++interrupt_at) {
    const std::string identity = "sweep-" + std::to_string(interrupt_at);
    const uint64_t finished = std::min<uint64_t>(interrupt_at - 1, points.size());
    {
      auto ledger = std::make_shared<CheckpointLedger>(options(identity));
      ledger->load();
      SessionOptions session_options;
      session_options.parallel_properties = false;  // deterministic interrupt
      EngineSession session(model, session_options);
      session.set_checkpoint(ledger);
      util::fault::arm_site("solve.cancel", interrupt_at);
      if (finished < points.size()) {
        EXPECT_THROW(session.check_points(property, points), util::Cancelled);
      } else {
        session.check_points(property, points);
      }
      util::fault::disarm_all();
    }
    auto resumed = std::make_shared<CheckpointLedger>(options(identity));
    EXPECT_EQ(resumed->load(), finished);
    EngineSession session(model);
    session.set_checkpoint(resumed);
    const std::vector<PointValue> values = session.check_points(property, points);
    for (size_t i = 0; i < points.size(); ++i) {
      EXPECT_EQ(values[i].value, fresh[i].value) << "point " << i;
    }
    EXPECT_EQ(resumed->resumed_hits(), finished);
  }
}

}  // namespace
}  // namespace autosec::csl
