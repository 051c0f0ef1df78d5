// autosec-verify: randomized differential-testing front end. Generates
// seeded random models/architectures and cross-checks the staged engine
// against the dense oracle, the alternate solver, the lumped quotient, the
// parallel backend, and the writer/parser round-trips. Exits nonzero when
// any differential check fails; every failure prints the seed that
// reproduces it via `autosec-verify --seed <N> --iterations 1`.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "testing/differential.hpp"
#include "testing/fault_check.hpp"
#include "util/numeric.hpp"
#include "util/stopwatch.hpp"

namespace {

void print_usage(std::ostream& os) {
  os << "usage: autosec-verify [options]\n"
        "  --iterations N     differential iterations (default 100)\n"
        "  --seed S           base seed; iteration i uses seed S+i (default 1)\n"
        "  --tolerance X      engine-vs-oracle tolerance (default 1e-8)\n"
        "  --max-states N     dense-oracle state limit (default 200)\n"
        "  --threads N        thread count of the parallel leg (default 4)\n"
        "  --skip FAMILY      disable a family: oracle, solvers, kernels,\n"
        "                     lumping, parallel, roundtrip, engine, mdp,\n"
        "                     checkpoint, explore, program (repeatable)\n"
        "  --faults           run the fault-injection checks instead: arm every\n"
        "                     known fault site and prove each yields a structured\n"
        "                     error (and serve keeps serving)\n"
        "  --list             list check families and exit\n"
        "  --help             this text\n";
}

[[noreturn]] void fail_usage(const std::string& message) {
  std::cerr << "autosec-verify: " << message << "\n";
  print_usage(std::cerr);
  std::exit(2);
}

uint64_t parse_count(const std::string& text, const std::string& flag) {
  const std::optional<int64_t> value = autosec::util::parse_int(text);
  if (!value.has_value() || *value < 0) fail_usage("bad value for " + flag);
  return static_cast<uint64_t>(*value);
}

}  // namespace

int main(int argc, char** argv) {
  autosec::testing::DifferentialOptions options;
  bool run_faults = false;
  const std::vector<std::string> args(argv + 1, argv + argc);
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto next = [&](const char* what) -> const std::string& {
      if (i + 1 >= args.size()) fail_usage(std::string("missing ") + what);
      return args[++i];
    };
    if (arg == "--iterations") {
      options.iterations = parse_count(next("--iterations value"), arg);
    } else if (arg == "--seed") {
      options.seed = parse_count(next("--seed value"), arg);
    } else if (arg == "--tolerance") {
      const std::optional<double> value =
          autosec::util::parse_double(next("--tolerance value"));
      if (!value.has_value() || *value <= 0) fail_usage("bad value for --tolerance");
      options.tolerance = *value;
    } else if (arg == "--max-states") {
      options.oracle_max_states = parse_count(next("--max-states value"), arg);
    } else if (arg == "--threads") {
      options.parallel_threads = std::max<uint64_t>(1, parse_count(next("--threads value"), arg));
    } else if (arg == "--skip") {
      const std::string& family = next("--skip family");
      if (family == "oracle") {
        options.check_oracle = false;
      } else if (family == "solvers") {
        options.check_solvers = false;
      } else if (family == "kernels") {
        options.check_kernels = false;
      } else if (family == "lumping") {
        options.check_lumping = false;
      } else if (family == "parallel") {
        options.check_parallel = false;
      } else if (family == "roundtrip") {
        options.check_roundtrip = false;
      } else if (family == "engine") {
        options.check_engine = false;
      } else if (family == "mdp") {
        options.check_mdp = false;
      } else if (family == "checkpoint") {
        options.check_checkpoint = false;
      } else if (family == "explore") {
        options.check_explore = false;
      } else if (family == "program") {
        options.check_program = false;
      } else {
        fail_usage("unknown family '" + family + "'");
      }
    } else if (arg == "--faults") {
      run_faults = true;
    } else if (arg == "--list") {
      std::cout << "oracle     transient/steady/reward/reachability vs dense expm oracle\n"
                   "solvers    Krylov-first vs pure Gauss-Seidel fixpoint solves\n"
                   "kernels    blocked SELL-C-sigma vs CSR transient kernel (bit-exact)\n"
                   "lumping    lumped-quotient checking vs the full state space\n"
                   "parallel   1-thread vs N-thread batch solves (bit-exact), two\n"
                   "           threads' concurrent N-thread batches vs the 1-thread\n"
                   "           batch (bit-exact), and check_all's shared\n"
                   "           cumulative-reward pass vs one check() per property\n"
                   "           (bit-exact)\n"
                   "roundtrip  writer -> parser identity for models and .arch files\n"
                   "engine     symmetry-reduced quotient vs the unreduced space\n"
                   "mdp        MDP value iteration vs the exhaustive scheduler-\n"
                   "           enumeration oracle, and interval-iteration brackets\n"
                   "           vs the plain fixpoint\n"
                   "checkpoint a run recording into a checkpoint ledger vs a second\n"
                   "           run resuming from the persisted snapshot (bit-exact\n"
                   "           replay, no recomputation)\n"
                   "explore    a space refilled from its rate-only family with one\n"
                   "           rate constant re-keyed vs a fresh explore (entry by\n"
                   "           entry, and every property bit-exact)\n"
                   "program    the compiled model program vs the tree interpreter\n"
                   "           on every reachable state of random ctmc and mdp\n"
                   "           models, reduced and full: every guard, rate, update,\n"
                   "           probability, label, reward item and random expression\n"
                   "           (bit-exact values, identical errors)\n";
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      return 0;
    } else {
      fail_usage("unknown argument '" + arg + "'");
    }
  }

  if (run_faults) {
    autosec::util::Stopwatch watch;
    const autosec::testing::FaultCheckReport report =
        autosec::testing::run_fault_checks();
    std::cout << report.summary();
    std::cout << "wall time: " << watch.elapsed_seconds() << " s\n";
    if (!report.ok()) {
      std::cout << "fault-injection verification FAILED\n";
      return 1;
    }
    std::cout << "fault-injection verification OK\n";
    return 0;
  }

  autosec::util::Stopwatch watch;
  const autosec::testing::DifferentialReport report =
      autosec::testing::run_differential(options);
  std::cout << report.summary();
  std::cout << "wall time: " << watch.elapsed_seconds() << " s\n";
  if (!report.ok()) {
    std::cout << "\nFAILURES (reproduce with --seed <N> --iterations 1):\n";
    for (const std::string& failure : report.failures) {
      std::cout << "  " << failure << "\n";
    }
    std::cout << "differential verification FAILED\n";
    return 1;
  }
  std::cout << "differential verification OK\n";
  return 0;
}
