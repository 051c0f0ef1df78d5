#include "csl/session.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "csl/checker.hpp"
#include "symbolic/builder.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"

namespace autosec::csl {
namespace {

using symbolic::Expr;

/// Two-state repair model with overridable rates (x=0 healthy, x=1 broken).
symbolic::Model repair_model(double a, double b) {
  symbolic::ModelBuilder builder;
  builder.constant_double("a", a);
  builder.constant_double("b", b);
  auto& m = builder.module("unit");
  m.variable("x", 0, 1, 0);
  m.command(Expr::ident("x") == Expr::literal(0), Expr::ident("a"),
            {{"x", Expr::literal(1)}});
  m.command(Expr::ident("x") == Expr::literal(1), Expr::ident("b"),
            {{"x", Expr::literal(0)}});
  builder.label("broken", Expr::ident("x") == Expr::literal(1));
  builder.state_reward("downtime", Expr::ident("x") == Expr::literal(1),
                       Expr::literal(1.0));
  return builder.build();
}

const std::vector<std::string> kProperties = {
    "P=? [ F<=0.5 \"broken\" ]",
    "P=? [ F \"broken\" ]",
    "S=? [ \"broken\" ]",
    "R{\"downtime\"}=? [ C<=1 ]",
    "R{\"downtime\"}=? [ F \"broken\" ]",
};

TEST(EngineSession, OneExplorationServesManyProperties) {
  EngineSession session(repair_model(2.0, 6.0));
  for (const std::string& property : kProperties) session.check(property);
  // The acceptance counter: however many properties ran, the model was
  // compiled and the state space explored exactly once.
  EXPECT_EQ(session.stats().compile_count, 1u);
  EXPECT_EQ(session.stats().explore_count, 1u);
  EXPECT_EQ(session.stats().check_count, kProperties.size());
}

TEST(EngineSession, SteadyAndUniformizedStagesAreSharedAcrossProperties) {
  EngineSession session(repair_model(2.0, 6.0));
  session.check("S=? [ \"broken\" ]");
  session.check("S=? [ x=0 ]");
  session.check("R{\"downtime\"}=? [ C<=1 ]");
  session.check("R{\"downtime\"}=? [ C<=2 ]");
  EXPECT_EQ(session.stats().steady_state_count, 1u);
  EXPECT_EQ(session.stats().uniformize_count, 1u);
}

TEST(EngineSession, CheckAllAgreesWithSequentialChecks) {
  EngineSession sequential(repair_model(2.0, 6.0));
  std::vector<double> expected;
  for (const std::string& property : kProperties) {
    expected.push_back(sequential.check(property));
  }

  for (const bool parallel : {false, true}) {
    SessionOptions options;
    options.parallel_properties = parallel;
    EngineSession session(repair_model(2.0, 6.0), options);
    const std::vector<double> values = session.check_all(kProperties);
    ASSERT_EQ(values.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_DOUBLE_EQ(values[i], expected[i]) << kProperties[i];
    }
    EXPECT_EQ(session.stats().explore_count, 1u);
  }
}

TEST(EngineSession, OverrideRekeyingKeepsEarlierStagesCached) {
  EngineSession session(repair_model(2.0, 6.0));
  const double p_base = session.check("S=? [ \"broken\" ]");
  EXPECT_NEAR(p_base, 2.0 / 8.0, 1e-9);

  session.set_constant_overrides({{"a", symbolic::Value::of(6.0)}});
  const double p_override = session.check("S=? [ \"broken\" ]");
  EXPECT_NEAR(p_override, 6.0 / 12.0, 1e-9);
  EXPECT_EQ(session.stats().explore_count, 2u);

  // Returning to the original key must reuse the cached stage set: the
  // explore counter stays at two.
  session.set_constant_overrides({});
  EXPECT_NEAR(session.check("S=? [ \"broken\" ]"), p_base, 1e-15);
  EXPECT_EQ(session.stats().explore_count, 2u);
}

TEST(EngineSession, OverrideCacheKeyIsOrderInsensitive) {
  const std::vector<std::pair<std::string, symbolic::Value>> ab = {
      {"a", symbolic::Value::of(1.0)}, {"b", symbolic::Value::of(2.0)}};
  const std::vector<std::pair<std::string, symbolic::Value>> ba = {
      {"b", symbolic::Value::of(2.0)}, {"a", symbolic::Value::of(1.0)}};
  EXPECT_EQ(override_cache_key(ab), override_cache_key(ba));
  EXPECT_NE(override_cache_key(ab), override_cache_key({}));
}

TEST(EngineSession, CheckerFacadeDelegatesToSession) {
  auto session = std::make_shared<EngineSession>(repair_model(2.0, 6.0));
  Checker checker(session);
  const double via_facade = checker.check("S=? [ \"broken\" ]");
  const double direct = session->check("S=? [ \"broken\" ]");
  EXPECT_DOUBLE_EQ(via_facade, direct);
  // Both calls hit the same cached pipeline.
  EXPECT_EQ(session->stats().explore_count, 1u);
  EXPECT_EQ(session->stats().steady_state_count, 1u);
}

TEST(EngineSession, SpaceAdoptingSessionRejectsOverrides) {
  const auto compiled = symbolic::compile(repair_model(2.0, 6.0));
  auto space =
      std::make_shared<const symbolic::StateSpace>(symbolic::explore(compiled));
  EngineSession session(space);
  EXPECT_NEAR(session.check("S=? [ \"broken\" ]"), 0.25, 1e-9);
  EXPECT_THROW(session.set_constant_overrides({{"a", symbolic::Value::of(1.0)}}),
               PropertyError);
  const std::vector<OverrideSet> points = {{{"a", symbolic::Value::of(1.0)}}};
  EXPECT_THROW(session.check_points("S=? [ \"broken\" ]", points), PropertyError);
}

/// Birth-death repair model x = 0..top whose rates (a, b) and size (top) are
/// overridable, so a sweep can mix rate-only points (same space) with a
/// structural one.
symbolic::Model sized_repair_model() {
  symbolic::ModelBuilder builder;
  builder.constant_double("a", 2.0);
  builder.constant_double("b", 6.0);
  builder.constant_int("top", 1);
  auto& m = builder.module("unit");
  m.variable("x", Expr::literal(0), Expr::ident("top"), Expr::literal(0));
  m.command(Expr::ident("x") < Expr::ident("top"), Expr::ident("a"),
            {{"x", Expr::ident("x") + Expr::literal(1)}});
  m.command(Expr::ident("x") > Expr::literal(0), Expr::ident("b"),
            {{"x", Expr::ident("x") - Expr::literal(1)}});
  builder.label("broken", Expr::ident("x") == Expr::ident("top"));
  builder.state_reward("downtime", Expr::ident("x") == Expr::ident("top"),
                       Expr::literal(1.0));
  return builder.build();
}

TEST(EngineSession, CheckAllSharesOneCumulativePassAndEqualsSingleChecks) {
  // Several C<=t at two horizons (one repeated) among mixed properties.
  const std::vector<std::string> properties = {
      "R{\"downtime\"}=? [ C<=1.5 ]",
      "P=? [ F<=0.5 \"broken\" ]",
      "R{\"downtime\"}=? [ C<=4 ]",
      "S=? [ \"broken\" ]",
      "R{\"downtime\"}=? [ I=1 ]",
      "R{\"downtime\"}=? [ C<=1.5 ]",
      "R{\"downtime\"}=? [ F \"broken\" ]",
  };
  const OverrideSet larger = {{"top", symbolic::Value::of(int64_t{3})}};
  SessionOptions reference_options;
  reference_options.constant_overrides = larger;
  EngineSession reference(sized_repair_model(), reference_options);
  std::vector<double> expected;
  for (const std::string& property : properties) {
    expected.push_back(reference.check(property));
  }

  for (const size_t threads : {size_t{1}, size_t{4}}) {
    for (const bool parallel : {true, false}) {
      util::set_thread_count(threads);
      SessionOptions options;
      options.constant_overrides = larger;
      options.parallel_properties = parallel;
      EngineSession session(sized_repair_model(), options);
      util::metrics::registry().set_enabled(true);
      util::metrics::registry().reset();
      const std::vector<double> values = session.check_all(properties);
      const uint64_t passes =
          util::metrics::registry().counter_value("ctmc.cumulative_reward_passes");
      util::metrics::registry().set_enabled(false);
      ASSERT_EQ(values.size(), expected.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(std::bit_cast<uint64_t>(values[i]), std::bit_cast<uint64_t>(expected[i]))
            << properties[i] << ", " << threads << " threads, parallel " << parallel;
      }
      EXPECT_EQ(passes, 1u) << "the three C<=t share one pass";
      EXPECT_EQ(session.stats().check_count, properties.size());
    }
  }
  util::set_thread_count(0);
}

TEST(EngineSession, CheckPointsEqualsPerPointRekeyedChecksAtOneAndFourThreads) {
  const std::string property = "R{\"downtime\"}=? [ C<=1.5 ]";
  const OverrideSet active = {{"a", symbolic::Value::of(2.0)}};
  const std::vector<OverrideSet> points = {
      {{"a", symbolic::Value::of(1.0)}},
      {{"a", symbolic::Value::of(4.0)}, {"b", symbolic::Value::of(3.0)}},
      active,                               // the session's active key
      {{"a", symbolic::Value::of(1.0)}},   // a duplicate of the first point
      {{"top", symbolic::Value::of(int64_t{3})}},  // a larger space
  };
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    util::set_thread_count(threads);
    // Reference: re-key one session per point and check.
    std::vector<double> expected;
    std::vector<size_t> expected_states;
    EngineSession reference(sized_repair_model());
    for (const OverrideSet& point : points) {
      reference.set_constant_overrides(point);
      expected.push_back(reference.check(property));
      expected_states.push_back(reference.space().state_count());
    }

    SessionOptions options;
    options.constant_overrides = active;
    EngineSession session(sized_repair_model(), options);
    const size_t active_states = session.space().state_count();
    EXPECT_EQ(session.stats().explore_count, 1u);

    const std::vector<PointValue> values = session.check_points(property, points);
    ASSERT_EQ(values.size(), points.size());
    for (size_t i = 0; i < points.size(); ++i) {
      EXPECT_EQ(values[i].value, expected[i]) << "point " << i << ", " << threads
                                              << " threads";
      EXPECT_EQ(values[i].state_count, expected_states[i]) << "point " << i;
    }
    // Only the three keys the session had not built were explored; the
    // active key and its space are untouched.
    EXPECT_EQ(session.stats().explore_count, 4u);
    EXPECT_EQ(session.stats().check_count, points.size());
    EXPECT_EQ(override_cache_key(session.options().constant_overrides),
              override_cache_key(active));
    EXPECT_EQ(session.space().state_count(), active_states);
    EXPECT_EQ(session.stats().explore_count, 4u);

    // A repeat explores nothing and answers bit-identically.
    const std::vector<PointValue> again = session.check_points(property, points);
    for (size_t i = 0; i < points.size(); ++i) {
      EXPECT_EQ(again[i].value, values[i].value);
    }
    EXPECT_EQ(session.stats().explore_count, 4u);
  }
  util::set_thread_count(0);
}

TEST(EngineSession, CheckPointsReleasesOnlyTheStageSetsItBuilt) {
  const std::string property = "R{\"downtime\"}=? [ C<=1.5 ]";
  const std::vector<OverrideSet> points = {{{"a", symbolic::Value::of(1.0)}},
                                          {{"a", symbolic::Value::of(2.0)}},
                                          {{"a", symbolic::Value::of(4.0)}}};
  EngineSession kept(sized_repair_model());
  const std::vector<PointValue> expected = kept.check_points(property, points);

  SessionOptions options;
  options.constant_overrides = points[1];
  EngineSession session(sized_repair_model(), options);
  session.space();  // the active key's stage set exists before the call
  const std::vector<PointValue> values =
      session.check_points(property, points, PointStages::kRelease);
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(values[i].value, expected[i].value) << "point " << i;
  }
  EXPECT_EQ(session.stats().explore_count, 3u);
  // The two sets the call built are gone, the active key's set stays.
  session.check_points(property, points);
  EXPECT_EQ(session.stats().explore_count, 5u);
  session.space();
  EXPECT_EQ(session.stats().explore_count, 5u);
}

TEST(EngineSession, CheckPointsWithoutParallelPropertiesAgrees) {
  const std::vector<OverrideSet> points = {{{"a", symbolic::Value::of(1.0)}},
                                          {{"a", symbolic::Value::of(3.0)}}};
  EngineSession parallel(repair_model(2.0, 6.0));
  SessionOptions serial_options;
  serial_options.parallel_properties = false;
  EngineSession serial(repair_model(2.0, 6.0), serial_options);
  const auto a = parallel.check_points("S=? [ \"broken\" ]", points);
  const auto b = serial.check_points("S=? [ \"broken\" ]", points);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_NEAR(a[0].value, 1.0 / 7.0, 1e-12);
  EXPECT_NEAR(a[1].value, 3.0 / 9.0, 1e-12);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].value, b[i].value);
}

}  // namespace
}  // namespace autosec::csl
