// Randomized differential harness: every iteration generates a seeded random
// model (and a random architecture, transformed through the automotive
// layer), then cross-checks the staged engine along independent axes:
//
//   oracle      transient / steady-state / cumulative / instantaneous reward
//               and bounded reachability against the dense expm oracle
//               (testing/oracle.hpp), on chains small enough to cube;
//   solvers     Krylov (BiCGSTAB) vs pure Gauss-Seidel on every unbounded
//               property (reachability, steady-state, reachability reward);
//   kernels     the blocked SELL-C-σ transient kernel vs the classic CSR
//               kernel (bit-exact by contract), and multicolor Gauss-Seidel
//               vs the direct serial sweep (solver tolerance);
//   lumping     lumped-quotient checking vs the full-space engine;
//   parallel    the whole property batch at 1 thread vs N threads, required
//               to agree bit-for-bit (the engine's determinism contract),
//               the same batch run at once by two threads on their own
//               sessions at N threads ("parallel.concurrent_callers"),
//               and every reward's C<=t, C<=t/2 and C<=2t from check_all's
//               shared transient pass vs one check() each, bit-for-bit too
//               ("batch.shared_vs_single");
//   roundtrip   write_model → parse_model → explore yields the identical
//               state space, and write∘parse∘write is a fixpoint; same for
//               write_architecture/parse_architecture plus the transformed
//               models of both architectures;
//   engine      the symmetry-reduced quotient vs the unreduced space on
//               every group-invariant property ("engine.reduced_vs_full");
//   mdp         value iteration on a tiny random MDP vs the exhaustive
//               strategy-enumeration oracle (every memoryless scheduler's
//               induced DTMC solved densely), for Pmax and Pmin
//               ("mdp.vi_vs_lp_small"), and interval iteration's sound
//               brackets required to contain the plain value-iteration
//               fixpoint ("mdp.interval_vs_plain");
//   checkpoint  a run recording into a checkpoint ledger, then a second run
//               resuming from the persisted snapshot, required to replay
//               every property value bit-for-bit without recomputing
//               ("checkpoint.resume_vs_fresh") — the crash-durability
//               contract behind --checkpoint and serve worker respawns;
//   explore     one rate constant re-keyed: the space refilled from the
//               model's rate-only family vs a fresh explore, entry by entry,
//               and every property on both, bit-for-bit
//               ("explore.refill_vs_explore");
//   program     the compiled model program (symbolic/program.hpp) vs the
//               tree interpreter (Expr::evaluate) on every reachable state of
//               random ctmc and mdp models and transformed architectures,
//               with and without symmetry reduction: every guard, rate,
//               update, branch probability, label and reward item, plus
//               random expressions over every operator, must give the same
//               value bit for bit or the same error word for word
//               ("model.program_vs_tree").
//
// A failure records the iteration's seed; `autosec-verify --seed S
// --iterations 1` reproduces it exactly.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "testing/random_model.hpp"

namespace autosec::testing {

struct DifferentialOptions {
  uint64_t seed = 1;
  size_t iterations = 100;
  /// Engine-vs-oracle and cross-method tolerance on |a−b| / max(1, |a|, |b|).
  double tolerance = 1e-8;
  /// Tolerance of the Krylov-vs-Gauss-Seidel family. Looser than the oracle
  /// tolerance by design: on stiff chains the achievable Gauss-Seidel
  /// accuracy is the sweep tolerance amplified by the system's condition
  /// number (~1/(1−ρ)), which random stiff models push to 1e4 and beyond.
  double solver_tolerance = 1e-6;
  /// Chains above this state count skip the dense-oracle checks (the other
  /// check families still run).
  size_t oracle_max_states = 200;
  /// Thread count of the parallel leg of the determinism check.
  size_t parallel_threads = 4;
  /// Stop after this many recorded failures.
  size_t max_failures = 20;

  bool check_oracle = true;
  bool check_solvers = true;
  bool check_kernels = true;
  bool check_lumping = true;
  bool check_parallel = true;
  bool check_roundtrip = true;
  bool check_engine = true;
  bool check_mdp = true;
  bool check_checkpoint = true;
  bool check_explore = true;
  bool check_program = true;

  RandomModelOptions model;
  RandomArchitectureOptions architecture;
  RandomMdpOptions mdp;
};

/// Aggregate outcome of one check family.
struct CheckOutcome {
  size_t runs = 0;      ///< individual comparisons performed
  size_t failures = 0;  ///< comparisons beyond tolerance
  size_t skips = 0;     ///< comparisons skipped on an honestly reported
                        ///< solver non-convergence (not silent disagreement)
  double max_error = 0.0;
};

struct DifferentialReport {
  size_t iterations = 0;
  size_t models_checked = 0;
  size_t oracle_skipped_large = 0;  ///< models too large for the dense oracle
  std::map<std::string, CheckOutcome> checks;
  /// Human-readable failure descriptions (seed, check, values), capped at
  /// DifferentialOptions::max_failures.
  std::vector<std::string> failures;

  bool ok() const { return failures.empty(); }
  /// Multi-line summary table (per-check runs / failures / max error).
  std::string summary() const;
};

/// Run the harness. Deterministic in (options.seed, options.iterations);
/// iteration i uses seed options.seed + i for both generators.
DifferentialReport run_differential(const DifferentialOptions& options);

}  // namespace autosec::testing
