#include "testing/differential.hpp"

#include <unistd.h>

#include <bit>
#include <cmath>
#include <exception>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "automotive/archfile.hpp"
#include "automotive/transform.hpp"
#include "csl/checkpoint.hpp"
#include "csl/lumped.hpp"
#include "csl/session.hpp"
#include "ctmc/rewards.hpp"
#include "ctmc/steady_state.hpp"
#include "ctmc/transient.hpp"
#include "linalg/gauss_seidel.hpp"
#include "linalg/sell_matrix.hpp"
#include "mdp/value_iteration.hpp"
#include "symbolic/parser.hpp"
#include "symbolic/writer.hpp"
#include "testing/oracle.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"

namespace autosec::testing {

namespace {

using automotive::Architecture;
using symbolic::Expr;
using symbolic::Model;
using symbolic::StateSpace;

/// Per-iteration fixed context plus the failure-recording plumbing.
class Harness {
 public:
  Harness(const DifferentialOptions& options, DifferentialReport& report)
      : options_(options), report_(report) {}

  bool overflowed() const { return report_.failures.size() >= options_.max_failures; }

  void record(const std::string& check, uint64_t seed, const std::string& what,
              double error) {
    record(check, seed, what, error, options_.tolerance);
  }

  void record(const std::string& check, uint64_t seed, const std::string& what,
              double error, double tolerance) {
    CheckOutcome& outcome = report_.checks[check];
    ++outcome.runs;
    outcome.max_error = std::max(outcome.max_error, error);
    if (error > tolerance || std::isnan(error)) {
      ++outcome.failures;
      if (!overflowed()) {
        std::ostringstream os;
        os << "[seed " << seed << "] " << check << ": " << what << " (error "
           << error << " > " << tolerance << ")";
        report_.failures.push_back(os.str());
      }
    }
  }

  /// A comparison that could not be performed because a solver honestly
  /// reported non-convergence: counted, never a failure.
  void record_skip(const std::string& check) { ++report_.checks[check].skips; }

  /// Compare two scalars; +inf agreeing with +inf is a pass. The recorded
  /// error is |a−b| / max(1, |a|, |b|): absolute for probability-sized
  /// values, relative for large expected rewards (where 1e-12-per-sweep
  /// solver stops legitimately leave absolute residues above the tolerance).
  void compare(const std::string& check, uint64_t seed, const std::string& what,
               double engine, double reference, double tolerance) {
    if (std::isinf(engine) && std::isinf(reference) && engine == reference) {
      record(check, seed, what, 0.0, tolerance);
      return;
    }
    std::ostringstream os;
    os << what << ": " << engine << " vs " << reference;
    const double scale =
        std::max(1.0, std::max(std::fabs(engine), std::fabs(reference)));
    record(check, seed, os.str(), std::fabs(engine - reference) / scale, tolerance);
  }

  void compare(const std::string& check, uint64_t seed, const std::string& what,
               double engine, double reference) {
    compare(check, seed, what, engine, reference, options_.tolerance);
  }

  /// Exact (bitwise) agreement: any difference is reported as error 1.
  void compare_exact(const std::string& check, uint64_t seed, const std::string& what,
                     double a, double b) {
    const bool equal = (a == b) || (std::isnan(a) && std::isnan(b));
    std::ostringstream os;
    os << what << ": " << a << " vs " << b;
    record(check, seed, os.str(), equal ? 0.0 : 1.0);
  }

  void record_pass_fail(const std::string& check, uint64_t seed,
                        const std::string& what, bool passed) {
    record(check, seed, what, passed ? 0.0 : 1.0);
  }

  const DifferentialOptions& options_;
  DifferentialReport& report_;
};

double infinity_norm_difference(const std::vector<double>& a,
                                const std::vector<double>& b) {
  double max_diff = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    max_diff = std::max(max_diff, std::fabs(a[i] - b[i]));
  }
  return max_diff;
}

bool csr_equal(const linalg::CsrMatrix& a, const linalg::CsrMatrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols() || a.nonzeros() != b.nonzeros()) {
    return false;
  }
  for (size_t r = 0; r < a.rows(); ++r) {
    const auto ac = a.row_columns(r), bc = b.row_columns(r);
    const auto av = a.row_values(r), bv = b.row_values(r);
    if (ac.size() != bc.size()) return false;
    for (size_t k = 0; k < ac.size(); ++k) {
      if (ac[k] != bc[k] || av[k] != bv[k]) return false;
    }
  }
  return true;
}

/// The horizon of this iteration's time-bounded checks, as a number and as
/// exact property-source text.
std::pair<double, std::string> pick_horizon(uint64_t seed) {
  switch (seed % 3) {
    case 0: return {0.25, "0.25"};
    case 1: return {1.0, "1"};
    default: return {3.0, "3"};
  }
}

/// Pr[F target] = 1 from the initial distribution iff, with target made
/// absorbing, every state reachable from the initial mass can still reach a
/// target state (finite-chain almost-sure reachability). This is an
/// independent reimplementation of the engine's Prob1 precomputation — a
/// forward walk from the initial mass rather than two backward closures —
/// used to differentially check the engine's finite/infinite classification
/// of R{..}=?[F ..].
bool almost_surely_reaches(const ctmc::Ctmc& chain, const std::vector<double>& initial,
                           const std::vector<bool>& target) {
  const size_t n = chain.state_count();
  const linalg::CsrMatrix& rates = chain.rates();
  // Backward reachability of target over the target-absorbed chain.
  std::vector<std::vector<uint32_t>> predecessors(n);
  for (size_t row = 0; row < n; ++row) {
    if (target[row]) continue;  // absorbed: outgoing edges removed
    const auto columns = rates.row_columns(row);
    const auto values = rates.row_values(row);
    for (size_t k = 0; k < columns.size(); ++k) {
      if (values[k] > 0.0 && columns[k] != row) {
        predecessors[columns[k]].push_back(static_cast<uint32_t>(row));
      }
    }
  }
  std::vector<bool> can_reach(n, false);
  std::vector<uint32_t> stack;
  for (size_t i = 0; i < n; ++i) {
    if (target[i]) {
      can_reach[i] = true;
      stack.push_back(static_cast<uint32_t>(i));
    }
  }
  while (!stack.empty()) {
    const uint32_t state = stack.back();
    stack.pop_back();
    for (const uint32_t pred : predecessors[state]) {
      if (!can_reach[pred]) {
        can_reach[pred] = true;
        stack.push_back(pred);
      }
    }
  }
  // Forward sweep from the initial mass: a state that cannot reach target is
  // a witness that the reach probability is below 1.
  std::vector<bool> visited(n, false);
  for (size_t i = 0; i < n; ++i) {
    if (initial[i] > 0.0 && !visited[i]) {
      visited[i] = true;
      stack.push_back(static_cast<uint32_t>(i));
    }
  }
  while (!stack.empty()) {
    const uint32_t state = stack.back();
    stack.pop_back();
    if (!can_reach[state]) return false;
    if (target[state]) continue;
    const auto columns = rates.row_columns(state);
    const auto values = rates.row_values(state);
    for (size_t k = 0; k < columns.size(); ++k) {
      if (values[k] > 0.0 && !visited[columns[k]]) {
        visited[columns[k]] = true;
        stack.push_back(columns[k]);
      }
    }
  }
  return true;
}

/// What one evaluator made of one expression on one state: a value, or the
/// text of the EvalError it raised. Doubles compare bit for bit, except that
/// any two NaNs are equal (as in Harness::compare_exact): when both operands
/// of + or * are NaN, IEEE 754 leaves the result's sign and payload open,
/// and compilers commute the operands, so neither evaluator fixes them.
struct Evaluation {
  symbolic::Value value;
  std::string error;

  bool operator==(const Evaluation& other) const {
    if (error != other.error) return false;
    if (!error.empty()) return true;
    const symbolic::Value& a = value;
    const symbolic::Value& b = other.value;
    if (a.type() != b.type()) return false;
    switch (a.type()) {
      case symbolic::Value::Type::kBool: return a.as_bool() == b.as_bool();
      case symbolic::Value::Type::kInt: return a.as_int() == b.as_int();
      case symbolic::Value::Type::kDouble: {
        const double x = a.as_number();
        const double y = b.as_number();
        return std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(y) ||
               (std::isnan(x) && std::isnan(y));
      }
    }
    return false;
  }
  std::string text() const { return error.empty() ? value.to_string() : error; }
};

template <typename Fn>
Evaluation evaluation(Fn&& fn) {
  Evaluation out;
  try {
    out.value = fn();
  } catch (const symbolic::EvalError& error) {
    // The same NaN rule for a NaN an error message prints.
    out.error = std::string("EvalError: ") + error.what();
    for (size_t at = out.error.find("-nan"); at != std::string::npos;
         at = out.error.find("-nan", at)) {
      out.error.erase(at, 1);
    }
  }
  return out;
}

/// How a root is used: as a guard or label (bool), a rate, probability or
/// reward (number), or an update (int, or "not an integer").
enum class RootUse { kBool, kNumber, kInt };

/// One expression lowered as root `root` of a program, and its use.
struct ProgramRoot {
  Expr expr;
  uint32_t root;
  RootUse use;
  std::string what;
};

Evaluation program_evaluation(const symbolic::Program& program,
                              symbolic::Program::Frame& frame, uint32_t root,
                              RootUse use) {
  return evaluation([&] {
    switch (use) {
      case RootUse::kBool: return symbolic::Value::of(program.eval_bool(frame, root));
      case RootUse::kNumber: return symbolic::Value::of(program.eval_number(frame, root));
      case RootUse::kInt: {
        int64_t value = 0;
        return program.eval_int(frame, root, value) ? symbolic::Value::of(value)
                                                    : symbolic::Value::of(false);
      }
    }
    return symbolic::Value();
  });
}

Evaluation tree_evaluation(const Expr& expr, const std::vector<int32_t>& state,
                           RootUse use) {
  return evaluation([&] {
    switch (use) {
      case RootUse::kBool: return symbolic::Value::of(expr.evaluate_bool(state));
      case RootUse::kNumber: return symbolic::Value::of(expr.evaluate_number(state));
      case RootUse::kInt: {
        const symbolic::Value value = expr.evaluate(state);
        return value.is_int() ? value : symbolic::Value::of(false);
      }
    }
    return symbolic::Value();
  });
}

/// Every root of `model`'s program with the expression and use it came from.
std::vector<ProgramRoot> model_roots(const symbolic::CompiledModel& model,
                                     const symbolic::ModelProgram& compiled) {
  std::vector<ProgramRoot> roots;
  const auto updates = [&](const std::vector<std::pair<uint32_t, Expr>>& assignments,
                           const std::vector<symbolic::ModelProgram::Update>& lowered,
                           const std::string& where) {
    for (size_t k = 0; k < assignments.size(); ++k) {
      const std::string& variable = model.variables[lowered[k].variable].name;
      roots.push_back({assignments[k].second, lowered[k].root, RootUse::kInt,
                       where + " update of " + variable});
    }
  };
  for (size_t c = 0; c < model.commands.size(); ++c) {
    const symbolic::CompiledCommand& command = model.commands[c];
    const symbolic::ModelProgram::Command& lowered = compiled.commands[c];
    const std::string where = "command " + std::to_string(c);
    roots.push_back({command.guard, lowered.guard, RootUse::kBool, where + " guard"});
    if (model.type == symbolic::ModelType::kMdp) {
      for (size_t b = 0; b < command.branches.size(); ++b) {
        const std::string branch = where + " branch " + std::to_string(b);
        roots.push_back({command.branches[b].probability,
                         lowered.branches[b].probability, RootUse::kNumber,
                         branch + " probability"});
        updates(command.branches[b].assignments, lowered.branches[b].updates, branch);
      }
    } else {
      roots.push_back({command.rate, lowered.rate, RootUse::kNumber, where + " rate"});
      updates(command.assignments, lowered.updates, where);
    }
  }
  for (size_t l = 0; l < model.labels.size(); ++l) {
    roots.push_back({model.labels[l].condition, compiled.labels[l], RootUse::kBool,
                     "label \"" + model.labels[l].name + "\""});
  }
  for (size_t r = 0; r < model.rewards.size(); ++r) {
    for (size_t k = 0; k < model.rewards[r].items.size(); ++k) {
      const std::string item =
          "rewards \"" + model.rewards[r].name + "\" item " + std::to_string(k);
      roots.push_back({model.rewards[r].items[k].guard, compiled.rewards[r][k].guard,
                       RootUse::kBool, item + " guard"});
      roots.push_back({model.rewards[r].items[k].value, compiled.rewards[r][k].value,
                       RootUse::kNumber, item + " value"});
    }
  }
  return roots;
}

/// Evaluate every root of `program` on every stored state of `space`, by the
/// program (all roots of a state on one frame, as the explorer does) and by
/// the tree; one recorded comparison per root.
void compare_program(Harness& harness, uint64_t seed, const std::string& tag,
                     const StateSpace& space, const symbolic::Program& program,
                     const std::vector<ProgramRoot>& roots) {
  std::vector<std::vector<std::string>> mismatches(roots.size());
  symbolic::Program::Frame frame(program);
  for (size_t s = 0; s < space.state_count(); ++s) {
    const std::vector<int32_t> state = space.state_values(s);
    frame.begin(space.store()->packed(s));
    for (size_t r = 0; r < roots.size(); ++r) {
      const ProgramRoot& root = roots[r];
      const Evaluation compiled = program_evaluation(program, frame, root.root, root.use);
      const Evaluation tree = tree_evaluation(root.expr, state, root.use);
      if (!(compiled == tree) && mismatches[r].empty()) {
        mismatches[r].push_back(space.state_to_string(s) + ": program " +
                                compiled.text() + ", tree " + tree.text());
      }
    }
  }
  for (size_t r = 0; r < roots.size(); ++r) {
    harness.record_pass_fail(
        "model.program_vs_tree", seed,
        tag + roots[r].what + " " + roots[r].expr.to_string() +
            (mismatches[r].empty() ? "" : " at " + mismatches[r].front()),
        mismatches[r].empty());
  }
}

/// The program family on one model: its own program's roots and a batch of
/// random expressions, over the full space and (ctmc) the symmetry-reduced
/// one.
void check_program(Harness& harness, uint64_t seed, const std::string& tag,
                   const std::shared_ptr<const symbolic::CompiledModel>& compiled) {
  std::vector<std::shared_ptr<const StateSpace>> spaces = {
      std::make_shared<const StateSpace>(symbolic::explore(compiled))};
  if (compiled->type == symbolic::ModelType::kCtmc) {
    symbolic::ExploreOptions reduced;
    reduced.reduction = symbolic::SymmetryReduction::kOn;
    spaces.push_back(
        std::make_shared<const StateSpace>(symbolic::explore(compiled, reduced)));
  }
  const std::vector<Expr> extra = random_expressions(seed, *compiled, 12);
  for (const auto& space : spaces) {
    const std::string where = tag + (space->reduced() ? "reduced " : "");
    const symbolic::ModelProgram& lowered = *space->program();
    compare_program(harness, seed, where, *space, lowered.program,
                    model_roots(*compiled, lowered));
    const symbolic::Program program(extra, space->store()->layout());
    std::vector<ProgramRoot> roots;
    for (size_t e = 0; e < extra.size(); ++e) {
      for (const RootUse use : {RootUse::kBool, RootUse::kNumber, RootUse::kInt}) {
        roots.push_back({extra[e], static_cast<uint32_t>(e), use,
                         "random expression " + std::to_string(e)});
      }
    }
    compare_program(harness, seed, where, *space, program, roots);
  }
}

/// Property texts exercised on a model: unbounded (the solver-differential
/// set) and bounded (oracle/lumping/determinism sets) variants over its
/// labels and reward structures.
struct PropertySet {
  std::vector<std::string> unbounded;
  std::vector<std::string> bounded;
};

PropertySet build_properties(const Model& model, const std::string& t_text) {
  PropertySet set;
  size_t labels = 0;
  for (const symbolic::LabelDecl& label : model.labels) {
    if (++labels > 2) break;
    const std::string quoted = "\"" + label.name + "\"";
    set.unbounded.push_back("P=? [ F " + quoted + " ]");
    set.unbounded.push_back("S=? [ " + quoted + " ]");
    set.bounded.push_back("P=? [ F<=" + t_text + " " + quoted + " ]");
  }
  size_t rewards = 0;
  for (const symbolic::RewardStructDecl& reward : model.rewards) {
    if (++rewards > 1) break;
    const std::string quoted = "\"" + reward.name + "\"";
    set.unbounded.push_back("R{" + quoted + "}=? [ S ]");
    if (!model.labels.empty()) {
      set.unbounded.push_back("R{" + quoted + "}=? [ F \"" + model.labels[0].name +
                              "\" ]");
    }
    set.bounded.push_back("R{" + quoted + "}=? [ C<=" + t_text + " ]");
    set.bounded.push_back("R{" + quoted + "}=? [ I=" + t_text + " ]");
  }
  return set;
}

/// All differential families on one explored model.
void check_model(Harness& harness, uint64_t seed, const std::string& origin,
                 const Model& model) {
  const DifferentialOptions& options = harness.options_;
  auto compiled = std::make_shared<const symbolic::CompiledModel>(symbolic::compile(model));
  auto space = std::make_shared<const StateSpace>(symbolic::explore(compiled));
  ++harness.report_.models_checked;

  const ctmc::Ctmc& chain = space->chain();
  const std::vector<double> initial = space->initial_distribution();
  const auto [t, t_text] = pick_horizon(seed);
  const PropertySet properties = build_properties(model, t_text);
  const std::string tag = origin + " ";

  // --- exact Prob1 cross-check: the engine classifies R{..}=?[F ..] as
  // finite/infinite via a backward graph precomputation; re-derive the same
  // answer with an independent forward walk and insist they agree.
  if (options.check_oracle && !model.labels.empty() && !model.rewards.empty()) {
    const bool well_posed =
        almost_surely_reaches(chain, initial, space->label_mask(model.labels[0].name));
    csl::EngineSession session(space);
    const double value = session.check("R{\"" + model.rewards[0].name + "\"}=? [ F \"" +
                                       model.labels[0].name + "\" ]");
    harness.record_pass_fail(
        "oracle.reward_finiteness", seed,
        tag + "R[F] " + (well_posed ? "finite" : "infinite") + " but engine says " +
            (std::isinf(value) ? "infinite" : "finite"),
        std::isinf(value) == !well_posed);
  }

  // --- (a) engine vs dense oracle.
  if (options.check_oracle) {
    if (space->state_count() <= options.oracle_max_states) {
      OracleOptions oracle_options;
      oracle_options.max_states = options.oracle_max_states;

      harness.record(
          "oracle.transient", seed, tag + "transient distribution at t=" + t_text,
          infinity_norm_difference(ctmc::transient_distribution(chain, initial, t),
                                   oracle_transient(chain, initial, t, oracle_options)));
      harness.record(
          "oracle.steady_state", seed, tag + "long-run distribution",
          infinity_norm_difference(
              ctmc::steady_state(chain, initial).distribution,
              oracle_steady_state(chain, initial, oracle_options)));
      if (!model.rewards.empty()) {
        const std::vector<double> rewards = space->reward_vector(model.rewards[0].name);
        harness.compare(
            "oracle.cumulative_reward", seed, tag + "R[C<=" + t_text + "]",
            ctmc::expected_cumulative_reward(chain, initial, rewards, t),
            oracle_cumulative_reward(chain, initial, rewards, t, oracle_options));
        harness.compare(
            "oracle.instantaneous_reward", seed, tag + "R[I=" + t_text + "]",
            ctmc::expected_instantaneous_reward(chain, initial, rewards, t),
            oracle_instantaneous_reward(chain, initial, rewards, t, oracle_options));
      }
      if (!model.labels.empty()) {
        const std::vector<bool> target = space->label_mask(model.labels[0].name);
        const std::vector<bool> allowed(space->state_count(), true);
        harness.compare(
            "oracle.bounded_reachability", seed,
            tag + "P[F<=" + t_text + " \"" + model.labels[0].name + "\"]",
            ctmc::bounded_reachability(chain, initial, allowed, target, t),
            oracle_bounded_reachability(chain, initial, allowed, target, t,
                                        oracle_options));
      }
    } else {
      ++harness.report_.oracle_skipped_large;
    }
  }

  // --- (b) Krylov-first vs pure Gauss-Seidel on the unbounded properties.
  // The default ladder runs on one side; the other pins the library hook.
  if (options.check_solvers) {
    const csl::SessionOptions krylov;
    csl::SessionOptions gauss_seidel;
    gauss_seidel.steady_state.solver.method = linalg::FixpointMethod::kGaussSeidel;
    csl::EngineSession krylov_session(space, krylov);
    csl::EngineSession gs_session(space, gauss_seidel);
    for (const std::string& text : properties.unbounded) {
      try {
        harness.compare("solver.krylov_vs_gauss_seidel", seed, tag + text,
                        krylov_session.check(text), gs_session.check(text),
                        options.solver_tolerance);
      } catch (const csl::PropertyError& error) {
        // Pure Gauss-Seidel legitimately runs out of sweeps on very stiff
        // systems (escape probability near the roundoff floor). A reported
        // non-convergence is not a silent disagreement — count it as a skip
        // and let anything else propagate.
        if (std::string(error.what()).find("converge") == std::string::npos) throw;
        harness.record_skip("solver.krylov_vs_gauss_seidel");
      }
    }
  }

  // --- (b') blocked vs csr product kernel. The engine picks the layout from
  // the matrix alone; the harness pins both sides through the library-level
  // transient options. Bit-exact: the SELL kernel predicates on true row
  // lengths and sums each row in the same column order.
  if (options.check_kernels) {
    csl::SessionOptions blocked_options;
    blocked_options.transient.layout = linalg::MatrixLayout::kBlocked;
    csl::SessionOptions csr_options;
    csr_options.transient.layout = linalg::MatrixLayout::kCsr;
    csl::EngineSession blocked_session(space, blocked_options);
    csl::EngineSession csr_session(space, csr_options);
    for (const std::string& text : properties.bounded) {
      harness.compare_exact("solver.blocked_vs_csr", seed, tag + text,
                            blocked_session.check(text), csr_session.check(text));
    }
  }

  // --- (c) lumped quotient vs full state space.
  if (options.check_lumping) {
    csl::EngineSession session(space);
    std::vector<std::string> lumping_properties = properties.bounded;
    for (const std::string& text : properties.unbounded) {
      lumping_properties.push_back(text);
    }
    for (const std::string& text : lumping_properties) {
      harness.compare("lumping.quotient_vs_full", seed, tag + text,
                      csl::check_lumped(*space, text).value, session.check(text));
    }
  }

  // --- (d) serial vs parallel determinism (bit-exact by contract).
  if (options.check_parallel) {
    std::vector<std::string> all = properties.bounded;
    for (const std::string& text : properties.unbounded) all.push_back(text);

    util::set_thread_count(1);
    csl::EngineSession serial_session(space);
    const std::vector<double> serial = serial_session.check_all(all);

    util::set_thread_count(options.parallel_threads);
    csl::EngineSession parallel_session(space);
    const std::vector<double> parallel = parallel_session.check_all(all);
    util::set_thread_count(1);

    for (size_t i = 0; i < all.size(); ++i) {
      harness.compare_exact("parallel.determinism", seed, tag + all[i], serial[i],
                            parallel[i]);
    }

    // Concurrent callers (bit-exact by contract): two threads each run the
    // batch on their own session over the same space, so both fan-outs share
    // the N-lane pool at once.
    std::vector<double> concurrent[2];
    std::exception_ptr concurrent_error[2];
    util::set_thread_count(options.parallel_threads);
    {
      std::vector<std::thread> callers;
      for (size_t c = 0; c < 2; ++c) {
        callers.emplace_back([&, c] {
          try {
            csl::EngineSession session(space);
            concurrent[c] = session.check_all(all);
          } catch (...) {
            concurrent_error[c] = std::current_exception();
          }
        });
      }
      for (std::thread& caller : callers) caller.join();
    }
    util::set_thread_count(1);
    for (size_t c = 0; c < 2; ++c) {
      if (concurrent_error[c]) std::rethrow_exception(concurrent_error[c]);
      for (size_t i = 0; i < all.size(); ++i) {
        harness.compare_exact("parallel.concurrent_callers", seed,
                              tag + "caller " + std::to_string(c) + ": " + all[i],
                              serial[i], concurrent[c][i]);
      }
    }

    // Shared vs single cumulative solves (bit-exact by contract): check_all
    // answers every C<=t of a batch from one transient pass, whose members
    // keep their own weights, detection test and accumulator. The batch also
    // carries the other properties, so the pass runs as one task of the
    // pool's fan-out.
    std::vector<std::string> cumulative;
    for (const symbolic::RewardStructDecl& reward : model.rewards) {
      for (const double horizon : {t, t / 2.0, 2.0 * t}) {
        cumulative.push_back("R{\"" + reward.name + "\"}=? [ C<=" +
                             util::json_number(horizon) + " ]");
      }
    }
    if (!cumulative.empty()) {
      std::vector<std::string> batch = cumulative;
      batch.insert(batch.end(), all.begin(), all.end());
      util::set_thread_count(options.parallel_threads);
      csl::EngineSession batch_session(space);
      const std::vector<double> shared = batch_session.check_all(batch);
      util::set_thread_count(1);
      csl::EngineSession single_session(space);
      for (size_t i = 0; i < cumulative.size(); ++i) {
        harness.compare_exact("batch.shared_vs_single", seed, tag + cumulative[i],
                              shared[i], single_session.check(cumulative[i]));
      }
    }
  }

  // --- (g) checkpoint resume vs fresh (csl/checkpoint.hpp). A run that
  // records every solve into a ledger, then a second run resuming from the
  // persisted snapshot, must replay every property bit-for-bit without
  // recomputing — the crash-durability contract behind `--checkpoint` and
  // serve worker respawns. The per-process temp dir keeps concurrent test
  // runs from sharing snapshot files.
  if (options.check_checkpoint) {
    std::vector<std::string> all = properties.bounded;
    for (const std::string& text : properties.unbounded) all.push_back(text);

    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() /
        ("autosec-differential-ckpt-" + std::to_string(static_cast<long>(::getpid())));
    csl::CheckpointOptions checkpoint_options;
    checkpoint_options.store =
        std::make_shared<util::DurableStore>(dir.string(), util::kCheckpointStore);
    checkpoint_options.identity = "diff\x1f" + tag + '\x1f' + std::to_string(seed);
    checkpoint_options.interval_ms = 0;  // strongest durability: every record

    std::vector<double> fresh;
    {
      auto recording = std::make_shared<csl::CheckpointLedger>(checkpoint_options);
      recording->load();
      csl::EngineSession session(space);
      session.set_checkpoint(recording);
      fresh = session.check_all(all);
      recording->flush();
    }

    auto resumed = std::make_shared<csl::CheckpointLedger>(checkpoint_options);
    harness.record_pass_fail("checkpoint.resume_vs_fresh", seed,
                             tag + "snapshot recovers the recorded solves",
                             resumed->load() > 0);
    csl::EngineSession resumed_session(space);
    resumed_session.set_checkpoint(resumed);
    const std::vector<double> replayed = resumed_session.check_all(all);
    for (size_t i = 0; i < all.size(); ++i) {
      harness.compare_exact("checkpoint.resume_vs_fresh", seed, tag + all[i],
                            replayed[i], fresh[i]);
    }
    // Replay, not recompute: every evaluate must have been answered from the
    // loaded snapshot.
    harness.record_pass_fail("checkpoint.resume_vs_fresh", seed,
                             tag + "resumed run replayed every solve",
                             resumed->resumed_hits() >= all.size());
    std::error_code cleanup_error;
    fs::remove(checkpoint_options.store->entry_path(checkpoint_options.identity),
               cleanup_error);
  }

  // --- (f) symmetry-reduced quotient vs the full space. The quotient is an
  // exact lumping, but its rates are summed in a different order, so values
  // are compared within the oracle tolerance (not bitwise). A property whose
  // state formula is not invariant under the detected group is honestly
  // rejected by the engine — counted as a skip.
  if (options.check_engine) {
    std::vector<std::string> all = properties.bounded;
    for (const std::string& text : properties.unbounded) all.push_back(text);
    const std::vector<double> full_values = csl::EngineSession(space).check_all(all);

    symbolic::ExploreOptions reduced_options;
    reduced_options.reduction = symbolic::SymmetryReduction::kOn;
    auto reduced = std::make_shared<const StateSpace>(
        symbolic::explore(compiled, reduced_options));
    harness.record_pass_fail("engine.reduced_vs_full", seed,
                             tag + "quotient is not larger than the full space",
                             reduced->state_count() <= space->state_count());
    csl::EngineSession reduced_session(reduced);
    for (size_t i = 0; i < all.size(); ++i) {
      try {
        harness.compare("engine.reduced_vs_full", seed, tag + all[i],
                        reduced_session.check(all[i]), full_values[i]);
      } catch (const symbolic::ModelError& error) {
        if (std::string(error.what()).find("not invariant") == std::string::npos) {
          throw;
        }
        harness.record_skip("engine.reduced_vs_full");
      }
    }
  }

  // --- (h) refill vs explore (symbolic::refill). Re-key one rate constant:
  // the space refilled from the model's rate-only family must be the one a
  // fresh explore builds — same states, same entries, same bits — and every
  // property must answer the same bits on both. A constant that reaches more
  // than a command rate leaves no rate variant; that is counted as a skip.
  if (options.check_explore) {
    const symbolic::FamilyExplore recorded = symbolic::explore_family(compiled);
    std::vector<std::string> rates;
    for (const auto& [name, value] : compiled->constant_values) {
      if (value.is_numeric() && !value.is_int() && value.as_number() > 0.0) {
        rates.push_back(name);
      }
    }
    if (recorded.family && !rates.empty()) {
      const std::string& name = rates[seed % rates.size()];
      double base = 0.0;
      for (const auto& [constant, value] : compiled->constant_values) {
        if (constant == name) base = value.as_number();
      }
      const double rekeyed = seed % 2 == 0 ? base * 1.37 : base / 1.9;
      auto point = std::make_shared<const symbolic::CompiledModel>(
          symbolic::compile(model, {{name, symbolic::Value::of(rekeyed)}}));
      std::optional<StateSpace> refilled = symbolic::refill(*recorded.family, point);
      if (!refilled) {
        harness.record_skip("explore.refill_vs_explore");
      } else {
        auto explored = std::make_shared<const StateSpace>(symbolic::explore(point));
        bool same = refilled->state_count() == explored->state_count() &&
                    refilled->transition_count() == explored->transition_count() &&
                    refilled->initial_state() == explored->initial_state() &&
                    csr_equal(refilled->rates(), explored->rates()) &&
                    refilled->chain().exit_rates() == explored->chain().exit_rates();
        for (size_t i = 0; same && i < explored->state_count(); ++i) {
          same = refilled->state_values(i) == explored->state_values(i);
        }
        harness.record_pass_fail("explore.refill_vs_explore", seed,
                                 tag + name + " re-keyed: refilled space equals explored",
                                 same);
        std::vector<std::string> all = properties.bounded;
        for (const std::string& text : properties.unbounded) all.push_back(text);
        const std::vector<double> from_refill =
            csl::EngineSession(std::make_shared<const StateSpace>(std::move(*refilled)))
                .check_all(all);
        const std::vector<double> from_explore = csl::EngineSession(explored).check_all(all);
        for (size_t i = 0; i < all.size(); ++i) {
          harness.compare_exact("explore.refill_vs_explore", seed,
                                tag + name + " re-keyed: " + all[i], from_refill[i],
                                from_explore[i]);
        }
      }
    }
  }

  // --- (i) compiled program vs tree interpreter.
  if (options.check_program) check_program(harness, seed, tag, compiled);

  // --- (e) writer → parser round-trip identity.
  if (options.check_roundtrip) {
    const std::string text1 = symbolic::write_model(model);
    const Model reparsed = symbolic::parse_model(text1);
    const std::string text2 = symbolic::write_model(reparsed);
    harness.record_pass_fail("roundtrip.model_text_fixpoint", seed,
                             tag + "write(parse(write(m))) == write(m)", text1 == text2);

    const StateSpace space2 = symbolic::explore(symbolic::compile(reparsed));
    const bool structure_equal = space2.state_count() == space->state_count() &&
                                 space2.transition_count() == space->transition_count() &&
                                 space2.initial_state() == space->initial_state() &&
                                 csr_equal(space2.rates(), space->rates());
    harness.record_pass_fail("roundtrip.model_state_space", seed,
                             tag + "reparsed model explores identically",
                             structure_equal);
    for (const symbolic::LabelDecl& label : model.labels) {
      harness.record_pass_fail(
          "roundtrip.model_labels", seed, tag + "label \"" + label.name + "\"",
          space->label_mask(label.name) == space2.label_mask(label.name));
    }
    for (const symbolic::RewardStructDecl& reward : model.rewards) {
      harness.record_pass_fail(
          "roundtrip.model_rewards", seed, tag + "rewards \"" + reward.name + "\"",
          space->reward_vector(reward.name) == space2.reward_vector(reward.name));
    }
  }
}

/// Architecture-level round-trips, then the transformed model goes through
/// the full model battery.
void check_architecture(Harness& harness, uint64_t seed, const Architecture& arch) {
  automotive::TransformOptions transform_options;
  transform_options.message = arch.messages[seed % arch.messages.size()].name;
  constexpr automotive::SecurityCategory kCategories[] = {
      automotive::SecurityCategory::kConfidentiality,
      automotive::SecurityCategory::kIntegrity,
      automotive::SecurityCategory::kAvailability};
  transform_options.category = kCategories[(seed / 3) % 3];
  transform_options.nmax = 1;

  if (harness.options_.check_roundtrip) {
    const std::string text1 = automotive::write_architecture(arch);
    const Architecture reparsed = automotive::parse_architecture(text1);
    const std::string text2 = automotive::write_architecture(reparsed);
    harness.record_pass_fail("roundtrip.arch_text_fixpoint", seed,
                             "write(parse(write(a))) == write(a)", text1 == text2);
    harness.record_pass_fail(
        "roundtrip.arch_transform", seed,
        "transform(parse(write(a))) writes the identical model",
        symbolic::write_model(automotive::transform(arch, transform_options)) ==
            symbolic::write_model(automotive::transform(reparsed, transform_options)));
  }

  check_model(harness, seed, "arch:" + transform_options.message,
              automotive::transform(arch, transform_options));

  if (harness.options_.check_program) {
    transform_options.model_type = symbolic::ModelType::kMdp;
    check_program(harness, seed, "arch-mdp:" + transform_options.message + " ",
                  std::make_shared<const symbolic::CompiledModel>(
                      symbolic::compile(automotive::transform(arch, transform_options))));
  }
}

/// MDP family: plain value iteration vs the exhaustive strategy-enumeration
/// oracle ("mdp.vi_vs_lp_small"), and interval iteration's sound brackets vs
/// the plain fixpoint ("mdp.interval_vs_plain"). Both directions, whole
/// value vector.
void check_mdp_model(Harness& harness, uint64_t seed, const RandomMdp& random) {
  if (!harness.options_.check_mdp) return;
  const mdp::Mdp& model = random.model;
  for (const bool maximize : {true, false}) {
    const std::string direction = maximize ? "Pmax" : "Pmin";

    mdp::ViOptions plain_options;
    plain_options.epsilon = 1e-12;
    const mdp::ViResult plain =
        mdp::reachability(model, random.target, maximize, plain_options);
    if (!plain.converged) {
      harness.record_skip("mdp.vi_vs_lp_small");
      harness.record_skip("mdp.interval_vs_plain");
      continue;
    }

    const std::vector<double> oracle =
        oracle_mdp_reachability(model, random.target, maximize);
    harness.record("mdp.vi_vs_lp_small", seed,
                   direction + " value iteration vs scheduler enumeration",
                   infinity_norm_difference(plain.values, oracle));

    mdp::ViOptions interval_options = plain_options;
    interval_options.interval = true;
    const mdp::ViResult interval =
        mdp::reachability(model, random.target, maximize, interval_options);
    if (!interval.converged) {
      harness.record_skip("mdp.interval_vs_plain");
      continue;
    }
    double violation = 0.0;
    for (size_t s = 0; s < plain.values.size(); ++s) {
      violation = std::max(violation, interval.lower[s] - plain.values[s]);
      violation = std::max(violation, plain.values[s] - interval.upper[s]);
    }
    harness.record("mdp.interval_vs_plain", seed,
                   direction + " plain fixpoint escapes the interval brackets",
                   violation, 1e-9);
  }
}

}  // namespace

std::string DifferentialReport::summary() const {
  std::ostringstream os;
  os << "differential report: " << iterations << " iterations, " << models_checked
     << " models";
  if (oracle_skipped_large > 0) {
    os << " (" << oracle_skipped_large << " too large for the dense oracle)";
  }
  os << "\n";
  size_t total_runs = 0, total_failures = 0;
  for (const auto& [name, outcome] : checks) {
    std::ostringstream line;
    line << "  " << name;
    while (line.str().size() < 36) line << ' ';
    line << outcome.runs << " runs, " << outcome.failures << " failures, max error "
         << outcome.max_error;
    if (outcome.skips > 0) line << ", " << outcome.skips << " skipped";
    line << "\n";
    os << line.str();
    total_runs += outcome.runs;
    total_failures += outcome.failures;
  }
  os << "  total" << std::string(31, ' ') << total_runs << " runs, " << total_failures
     << " failures\n";
  return os.str();
}

DifferentialReport run_differential(const DifferentialOptions& options) {
  DifferentialReport report;
  Harness harness(options, report);
  for (size_t i = 0; i < options.iterations && !harness.overflowed(); ++i) {
    const uint64_t seed = options.seed + i;
    ++report.iterations;
    try {
      check_model(harness, seed, "model", random_model(seed, options.model));
      check_architecture(harness, seed,
                         random_architecture(seed, options.architecture));
      check_mdp_model(harness, seed, random_mdp(seed, options.mdp));
      if (options.check_program) {
        check_program(harness, seed, "mdp-model ",
                      std::make_shared<const symbolic::CompiledModel>(
                          symbolic::compile(random_mdp_model(seed, options.model))));
      }
    } catch (const std::exception& error) {
      CheckOutcome& outcome = report.checks["exception"];
      ++outcome.runs;
      ++outcome.failures;
      outcome.max_error = 1.0;
      report.failures.push_back("[seed " + std::to_string(seed) +
                                "] exception: " + error.what());
    }
  }
  // The determinism check moves the engine thread count around; hand the
  // process back with the automatic choice.
  if (options.check_parallel) util::set_thread_count(0);
  return report;
}

}  // namespace autosec::testing
