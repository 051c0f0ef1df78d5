#include "csl/session.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "symbolic/builder.hpp"
#include "util/budget.hpp"
#include "util/cancel.hpp"
#include "util/failure.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"

namespace autosec::csl {
namespace {

using symbolic::Expr;

/// Restores the automatic thread count when a test that pins one ends,
/// whether or not its assertions held.
class ThreadCountGuard {
 public:
  ThreadCountGuard() = default;
  ~ThreadCountGuard() { util::set_thread_count(0); }
  ThreadCountGuard(const ThreadCountGuard&) = delete;
  ThreadCountGuard& operator=(const ThreadCountGuard&) = delete;
};

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

  // One thread solves the batch in order; four fan it across the pool.
  ThreadCountGuard guard;
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    util::set_thread_count(threads);
    EngineSession session(repair_model(2.0, 6.0));
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

TEST(EngineSession, ChainIsTheExploredSpacesChain) {
  SessionOptions options;
  options.budget = std::make_shared<util::ResourceBudget>();
  EngineSession session(repair_model(2.0, 6.0), options);
  const symbolic::StateSpace& space = session.space();
  const size_t charged = options.budget->charged_bytes();
  EXPECT_GT(charged, 0u);
  // One copy of the chain: the session hands out the space's own, so asking
  // for it neither copies nor charges anything.
  EXPECT_EQ(&session.chain(), &space.chain());
  EXPECT_EQ(options.budget->charged_bytes(), charged);

  symbolic::ModelBuilder builder;
  builder.type(symbolic::ModelType::kMdp);
  auto& m = builder.module("walk");
  m.variable("x", 0, 1, 0);
  m.choice("up", Expr::ident("x") == Expr::literal(0),
           {{Expr::literal(1.0), {{"x", Expr::literal(1)}}}});
  EngineSession mdp(builder.build());
  EXPECT_THROW(mdp.chain(), PropertyError);
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

  ThreadCountGuard guard;
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    util::set_thread_count(threads);
    SessionOptions options;
    options.constant_overrides = larger;
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
          << properties[i] << ", " << threads << " threads";
    }
    EXPECT_EQ(passes, 1u) << "the three C<=t share one pass";
    EXPECT_EQ(session.stats().check_count, properties.size());
  }
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
    // Only the three keys the session had not built were built: the first
    // explored and recorded the rate-only family, {a=4, b=3} refilled from
    // it, and top=3 (a larger space, not a rate variant) explored. The active
    // key and its space are untouched.
    EXPECT_EQ(session.stats().explore_count, 3u);
    EXPECT_EQ(session.stats().refill_count, 1u);
    EXPECT_EQ(session.stats().check_count, points.size());
    EXPECT_EQ(override_cache_key(session.options().constant_overrides),
              override_cache_key(active));
    EXPECT_EQ(session.space().state_count(), active_states);
    EXPECT_EQ(session.stats().explore_count, 3u);

    // A repeat builds and solves nothing and answers bit-identically.
    const size_t hits = session.stats().value_hit_count;
    const std::vector<PointValue> again = session.check_points(property, points);
    for (size_t i = 0; i < points.size(); ++i) {
      EXPECT_EQ(again[i].value, values[i].value);
    }
    EXPECT_EQ(session.stats().explore_count, 3u);
    EXPECT_EQ(session.stats().refill_count, 1u);
    EXPECT_EQ(session.stats().value_hit_count, hits + points.size());
  }
  util::set_thread_count(0);
}

TEST(EngineSession, ConcurrentSessionsMatchSerialBitForBit) {
  // Two sessions fan their tasks across one 4-lane pool at the same time:
  // one thread's check_all, another's check_points. Each answers exactly
  // what it answers alone on one lane.
  const std::vector<std::string> properties = {
      "R{\"downtime\"}=? [ C<=1.5 ]", "P=? [ F<=0.5 \"broken\" ]",
      "R{\"downtime\"}=? [ C<=4 ]",   "S=? [ \"broken\" ]",
      "R{\"downtime\"}=? [ I=1 ]",    "P=? [ F \"broken\" ]",
      "R{\"downtime\"}=? [ F \"broken\" ]",
  };
  const std::string point_property = "P=? [ F<=2 \"broken\" ]";
  std::vector<OverrideSet> points;
  for (const int64_t top : {40, 150, 300}) {
    for (const double a : {0.5, 2.0, 7.0}) {
      points.push_back({{"top", symbolic::Value::of(top)}, {"a", symbolic::Value::of(a)}});
    }
  }
  const auto run_all = [&] {
    SessionOptions options;
    options.constant_overrides = {{"top", symbolic::Value::of(int64_t{400})}};
    EngineSession session(sized_repair_model(), options);
    return session.check_all(properties);
  };
  const auto run_points = [&] {
    EngineSession session(sized_repair_model());
    std::vector<double> values;
    for (const PointValue& point : session.check_points(point_property, points)) {
      values.push_back(point.value);
    }
    return values;
  };

  util::set_thread_count(1);
  const std::vector<double> serial_all = run_all();
  const std::vector<double> serial_points = run_points();

  util::set_thread_count(4);
  constexpr int kRounds = 10;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<double> concurrent_points;
    std::string points_error;
    std::thread other([&] {
      try {
        concurrent_points = run_points();
      } catch (const std::exception& error) {
        points_error = error.what();
      }
    });
    const std::vector<double> concurrent_all = run_all();
    other.join();
    ASSERT_EQ(points_error, "");
    ASSERT_EQ(concurrent_all.size(), serial_all.size());
    ASSERT_EQ(concurrent_points.size(), serial_points.size());
    for (size_t i = 0; i < serial_all.size(); ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>(concurrent_all[i]),
                std::bit_cast<uint64_t>(serial_all[i]))
          << properties[i] << ", round " << round;
    }
    for (size_t i = 0; i < serial_points.size(); ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>(concurrent_points[i]),
                std::bit_cast<uint64_t>(serial_points[i]))
          << "point " << i << ", round " << round;
    }
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
  // a=1 explored and recorded the rate-only family, a=4 refilled from it.
  EXPECT_EQ(session.stats().explore_count, 2u);
  EXPECT_EQ(session.stats().refill_count, 1u);
  // The two sets the call built are gone (both refill again from the
  // family the session keeps), the active key's set stays.
  session.check_points(property, points);
  EXPECT_EQ(session.stats().explore_count, 2u);
  EXPECT_EQ(session.stats().refill_count, 3u);
  session.space();
  EXPECT_EQ(session.stats().explore_count, 2u);
}

TEST(EngineSession, CheckPointsWithoutParallelPropertiesAgrees) {
  // Four threads fan the points across the pool; one solves them in order.
  const std::vector<OverrideSet> points = {{{"a", symbolic::Value::of(1.0)}},
                                          {{"a", symbolic::Value::of(3.0)}}};
  ThreadCountGuard guard;
  util::set_thread_count(4);
  EngineSession parallel(repair_model(2.0, 6.0));
  const auto a = parallel.check_points("S=? [ \"broken\" ]", points);
  util::set_thread_count(1);
  EngineSession serial(repair_model(2.0, 6.0));
  const auto b = serial.check_points("S=? [ \"broken\" ]", points);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_NEAR(a[0].value, 1.0 / 7.0, 1e-12);
  EXPECT_NEAR(a[1].value, 3.0 / 9.0, 1e-12);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].value, b[i].value);
}

uint64_t bits(double value) { return std::bit_cast<uint64_t>(value); }

TEST(EngineSession, RepeatedChecksAndPointsAnswerFromTheSolvedValues) {
  util::metrics::Registry& metrics = util::metrics::registry();
  metrics.reset();
  metrics.set_enabled(true);
  const std::string property = "R{\"downtime\"}=? [ C<=1.5 ]";
  EngineSession session(sized_repair_model());
  const double first = session.check(property);
  const uint64_t products = metrics.counter_value("ctmc.matrix_vector_products");
  EXPECT_GT(products, 0u);
  EXPECT_EQ(bits(session.check(property)), bits(first));
  EXPECT_EQ(metrics.counter_value("ctmc.matrix_vector_products"), products);

  const std::vector<OverrideSet> points = {{{"a", symbolic::Value::of(1.0)}},
                                          {{"a", symbolic::Value::of(3.0)}}};
  const std::vector<PointValue> values = session.check_points(property, points);
  const uint64_t after_points = metrics.counter_value("ctmc.matrix_vector_products");
  EXPECT_GT(after_points, products);
  const std::vector<PointValue> again = session.check_points(property, points);
  EXPECT_EQ(metrics.counter_value("ctmc.matrix_vector_products"), after_points);
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(bits(again[i].value), bits(values[i].value)) << "point " << i;
  }
  EXPECT_EQ(metrics.counter_value("session.value_hits"), 3u);
  EXPECT_EQ(session.stats().value_hit_count, 3u);
  EXPECT_EQ(session.stats().check_count, 6u);
  metrics.set_enabled(false);
  metrics.reset();
}

TEST(EngineSession, CheckAllWithHeldGroupMembersEqualsOneCheckPerMember) {
  const std::vector<std::string> properties = {
      "R{\"downtime\"}=? [ C<=1 ]", "P=? [ F<=0.5 \"broken\" ]",
      "R{\"downtime\"}=? [ C<=2.5 ]", "S=? [ \"broken\" ]",
      "R{\"downtime\"}=? [ C<=4 ]",
  };
  const OverrideSet larger = {{"top", symbolic::Value::of(int64_t{3})}};
  SessionOptions options;
  options.constant_overrides = larger;
  std::vector<double> expected;
  for (const std::string& property : properties) {
    expected.push_back(EngineSession(sized_repair_model(), options).check(property));
  }
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    util::set_thread_count(threads);
    // The group's first member held, then a middle one.
    for (const size_t held : {size_t{0}, size_t{2}}) {
      EngineSession session(sized_repair_model(), options);
      session.check(properties[held]);
      const std::vector<double> values = session.check_all(properties);
      for (size_t i = 0; i < properties.size(); ++i) {
        EXPECT_EQ(bits(values[i]), bits(expected[i]))
            << properties[i] << ", held " << held << ", " << threads << " threads";
      }
      EXPECT_EQ(session.stats().value_hit_count, 1u);
    }
  }
  util::set_thread_count(0);
}

TEST(EngineSession, CancelledAndBudgetFailedSolvesStoreNothing) {
  const std::string property = "R{\"downtime\"}=? [ C<=1.5 ]";
  const double expected = EngineSession(repair_model(2.0, 6.0)).check(property);

  bool cancel = false;
  SessionOptions options;
  options.transient.cancelled = [&] { return cancel; };
  EngineSession session(repair_model(2.0, 6.0), options);
  session.space();
  cancel = true;
  EXPECT_THROW(session.check(property), util::Cancelled);
  cancel = false;
  EXPECT_EQ(bits(session.check(property)), bits(expected));
  EXPECT_EQ(session.stats().value_hit_count, 0u);

  EngineSession budgeted(repair_model(2.0, 6.0));
  budgeted.space();
  budgeted.set_resource_budget(std::make_shared<util::ResourceBudget>(0, 1));
  EXPECT_THROW(budgeted.check(property), util::EngineFailure);
  budgeted.set_resource_budget(nullptr);
  EXPECT_EQ(bits(budgeted.check(property)), bits(expected));
  EXPECT_EQ(budgeted.stats().value_hit_count, 0u);
}

TEST(EngineSession, ConcurrentCheckPointsOnOneSessionMatchSerialBitForBit) {
  const std::string property = "R{\"downtime\"}=? [ C<=2 ]";
  std::vector<OverrideSet> points;
  for (const int64_t top : {20, 60}) {
    for (const double a : {0.5, 2.0, 7.0}) {
      points.push_back({{"top", symbolic::Value::of(top)}, {"a", symbolic::Value::of(a)}});
    }
  }
  std::vector<OverrideSet> reversed(points.rbegin(), points.rend());
  util::set_thread_count(1);
  EngineSession reference(sized_repair_model());
  const std::vector<PointValue> serial = reference.check_points(property, points);

  util::set_thread_count(4);
  for (int round = 0; round < 5; ++round) {
    for (const PointStages keep : {PointStages::kKeep, PointStages::kRelease}) {
      EngineSession session(sized_repair_model());
      std::vector<PointValue> backward;
      std::string error;
      std::thread other([&] {
        try {
          backward = session.check_points(property, reversed, keep);
        } catch (const std::exception& e) {
          error = e.what();
        }
      });
      const std::vector<PointValue> forward = session.check_points(property, points, keep);
      other.join();
      ASSERT_EQ(error, "");
      ASSERT_EQ(backward.size(), points.size());
      for (size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(bits(forward[i].value), bits(serial[i].value)) << "point " << i;
        EXPECT_EQ(bits(backward[points.size() - 1 - i].value), bits(serial[i].value))
            << "point " << i;
      }
    }
  }
  util::set_thread_count(0);
}

TEST(EngineSession, ReleasedPointsReturnTheirBytesToTheBudget) {
  const std::string property = "R{\"downtime\"}=? [ C<=1.5 ]";
  const OverrideSet larger = {{"top", symbolic::Value::of(int64_t{40})}};
  const auto point = [&](double a) {
    OverrideSet set = larger;
    set.emplace_back("a", symbolic::Value::of(a));
    return set;
  };
  const std::vector<OverrideSet> points = {point(1.0), point(2.5), point(4.0)};
  const auto budget = std::make_shared<util::ResourceBudget>();
  SessionOptions options;
  options.constant_overrides = larger;
  EngineSession session(sized_repair_model(), options);
  session.set_resource_budget(budget);
  session.space();  // the active key's set stays, and stays charged
  const size_t before = budget->charged_bytes();

  // The session still holds the rate-only family the first point recorded:
  // its store, row structure and rate terms.
  const symbolic::FamilyExplore recorded = symbolic::explore_family(
      std::make_shared<const symbolic::CompiledModel>(
          symbolic::compile(sized_repair_model(), points[0])));
  ASSERT_NE(recorded.family, nullptr);
  session.check_points(property, points, PointStages::kRelease);
  EXPECT_EQ(budget->charged_bytes(), before + recorded.family->bytes());
  // Later points refill from that family and give everything back.
  session.check_points(property, std::vector<OverrideSet>{point(8.0), point(9.0)},
                       PointStages::kRelease);
  EXPECT_EQ(budget->charged_bytes(), before + recorded.family->bytes());
  EXPECT_EQ(session.stats().explore_count, 2u);
  EXPECT_EQ(session.stats().refill_count, 4u);

  // Points that are not rate variants of each other explore their own
  // stores; released, those come back too.
  const auto plain_budget = std::make_shared<util::ResourceBudget>();
  EngineSession sizes(sized_repair_model());
  sizes.set_resource_budget(plain_budget);
  std::vector<OverrideSet> tops;
  for (const int64_t top : {10, 20, 30}) tops.push_back({{"top", symbolic::Value::of(top)}});
  sizes.check_points(property, tops, PointStages::kRelease);
  const symbolic::FamilyExplore first = symbolic::explore_family(
      std::make_shared<const symbolic::CompiledModel>(
          symbolic::compile(sized_repair_model(), tops[0])));
  EXPECT_EQ(plain_budget->charged_bytes(), first.family->bytes());
  EXPECT_EQ(sizes.stats().explore_count, 3u);
  EXPECT_EQ(sizes.stats().refill_count, 0u);
}

TEST(EngineSession, BoundedUntilSolvesReturnTheirUniformizationToTheBudget) {
  // Each P=? [ F<=t ] uniformizes its own absorbing copy of the chain and
  // frees it with the solve; the budget must give that charge back, so it
  // bounds what the session holds, not what it has ever built.
  SessionOptions options;
  options.constant_overrides = {{"top", symbolic::Value::of(int64_t{50})}};
  EngineSession session(sized_repair_model(), options);
  const auto budget = std::make_shared<util::ResourceBudget>();
  session.set_resource_budget(budget);
  ASSERT_EQ(session.space().state_count(), 51u);
  session.check("P=? [ F<=0.5 \"broken\" ]");
  const size_t after_first = budget->charged_bytes();
  for (const char* bound : {"1", "2", "4"}) {
    session.check(std::string("P=? [ F<=") + bound + " \"broken\" ]");
    EXPECT_EQ(budget->charged_bytes(), after_first) << "after F<=" << bound;
  }
}

TEST(EngineSession, ReachabilityRewardChargesItsBlockWhileItSolves) {
  // R=? [ F ] solves one restricted system over the non-target states: the
  // budget's peak over the check is the charge before it plus that block's
  // CSR bytes, and the charge is back where it was once the check returns.
  SessionOptions options;
  options.constant_overrides = {{"top", symbolic::Value::of(int64_t{50})}};
  EngineSession session(sized_repair_model(), options);
  const ctmc::Ctmc& chain = session.chain();
  const std::vector<bool> broken = session.satisfying(Expr::ident("x") == Expr::literal(50));
  size_t members = 0;
  size_t entries = 0;
  for (size_t i = 0; i < chain.state_count(); ++i) {
    if (broken[i]) continue;
    ++members;
    for (const uint32_t c : chain.rates().row_columns(i)) entries += broken[c] ? 0 : 1;
  }
  ASSERT_EQ(members, 50u);

  const auto budget = std::make_shared<util::ResourceBudget>();
  budget->charge_bytes(4096, "test");
  session.set_resource_budget(budget);
  session.check("R{\"downtime\"}=? [ F \"broken\" ]");
  EXPECT_EQ(budget->peak_bytes(), 4096 + linalg::CsrMatrix::bytes_for(entries, members));
  EXPECT_EQ(budget->charged_bytes(), 4096u);
}

TEST(EngineSession, PointsThatCannotRefillExploreWithExploresOwnErrors) {
  const std::string property = "R{\"downtime\"}=? [ C<=1.5 ]";
  const symbolic::Model model = sized_repair_model();
  const OverrideSet base = {{"top", symbolic::Value::of(int64_t{5})}};
  const auto with = [&](const char* name, symbolic::Value value) {
    OverrideSet set = base;
    set.emplace_back(name, value);
    return set;
  };
  EngineSession session(model);
  session.check_points(property, std::vector<OverrideSet>{with("a", symbolic::Value::of(1.0))});
  EXPECT_EQ(session.stats().explore_count, 1u);

  // A negative rate: the point explores, and fails as explore does.
  const OverrideSet negative = with("b", symbolic::Value::of(-1.0));
  std::string direct;
  try {
    symbolic::explore(symbolic::compile(model, negative));
  } catch (const symbolic::ModelError& error) {
    direct = error.what();
  }
  ASSERT_FALSE(direct.empty());
  try {
    session.check_points(property, std::vector<OverrideSet>{negative});
    FAIL() << "expected a ModelError";
  } catch (const symbolic::ModelError& error) {
    EXPECT_EQ(std::string(error.what()), direct);
  }

  // A zero rate drops its command: a different graph, explored.
  const OverrideSet zero = with("b", symbolic::Value::of(0.0));
  SessionOptions zero_options;
  zero_options.constant_overrides = zero;
  const double expected = EngineSession(model, zero_options).check(property);
  const size_t explores = session.stats().explore_count;
  EXPECT_EQ(bits(session.check_points(property, std::vector<OverrideSet>{zero})[0].value),
            bits(expected));
  EXPECT_EQ(session.stats().explore_count, explores + 1);

  // A state ceiling below the family's size: explore's typed failure, with
  // its progress.
  session.set_resource_budget(std::make_shared<util::ResourceBudget>(3, 0));
  try {
    session.check_points(property, std::vector<OverrideSet>{with("a", symbolic::Value::of(9.0))});
    FAIL() << "expected state_budget_exceeded";
  } catch (const util::EngineFailure& failure) {
    EXPECT_EQ(failure.code(), util::FailureCode::kStateBudgetExceeded);
    ASSERT_TRUE(failure.progress().states_explored.has_value());
    EXPECT_EQ(*failure.progress().states_explored, 3u);
  }
  session.set_resource_budget(nullptr);
  const size_t refills = session.stats().refill_count;

  // Symmetry reduction asked for: every point explores.
  SessionOptions reduced;
  reduced.plan.reduction = symbolic::SymmetryReduction::kOn;
  EngineSession reducing(model, reduced);
  reducing.check_points(property, std::vector<OverrideSet>{with("a", symbolic::Value::of(1.0)),
                                                           with("a", symbolic::Value::of(2.0))});
  EXPECT_EQ(reducing.stats().explore_count, 2u);
  EXPECT_EQ(reducing.stats().refill_count, 0u);
  EXPECT_EQ(session.stats().refill_count, refills);
}

}  // namespace
}  // namespace autosec::csl
