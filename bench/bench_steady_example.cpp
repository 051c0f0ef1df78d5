// Regenerates the paper's worked example (Section 3.3, Eqs. 13-15): the
// transition-rate matrix Q of the Fig. 3 model and its stationary
// distribution pi = (0.96296, 0.036338, 0.000699), plus the reward-based
// property the paper contrasts it with (R{s2}=?[F<1]-style cumulated time).
#include <cstdio>
#include <memory>
#include <iostream>

#include "automotive/casestudy.hpp"
#include "csl/session.hpp"
#include "symbolic/explorer.hpp"

using namespace autosec;

int main() {
  std::cout << "== Worked example: Fig. 3 model, Eqs. 13-15 ==\n\n";

  const symbolic::Model model =
      automotive::casestudy::figure3_example(/*eta3g=*/2.0, /*etamc=*/2.0,
                                             /*phi3g=*/52.0, /*phimc=*/52.0);
  const symbolic::StateSpace space = symbolic::explore(symbolic::compile(model));
  std::printf("states: %zu (s0, s1, s2), transitions: %zu\n\n", space.state_count(),
              space.transition_count());

  const ctmc::Ctmc& chain = space.chain();
  std::cout << "Transition rate matrix Q (paper Eq. 14):\n"
            << chain.generator().to_dense_string(4)
            << "paper:  -2 2 0 / 52 -54 2 / 52 52 -104\n\n";

  csl::EngineSession session(std::make_shared<const symbolic::StateSpace>(space));
  const double s0 = session.check("S=? [ \"s0\" ]");
  const double s1 = session.check("S=? [ \"s1\" ]");
  const double s2 = session.check("S=? [ \"s2\" ]");
  std::cout << "Stationary distribution pi (paper Eq. 15):\n";
  std::printf("  pi(s0) = %.6f   (paper 0.96296)\n", s0);
  std::printf("  pi(s1) = %.6f   (paper 0.036338)\n", s1);
  std::printf("  pi(s2) = %.8f (paper 0.000699)\n\n", s2);

  std::cout << "Reward-based property (Section 3.3): expected cumulated time in s2\n"
               "within one year, starting secure (the paper's R{s2}=?[F<1] reward):\n";
  const double cumulated = session.check("R{\"in_s2\"}=? [ C<=1 ]");
  std::printf("  R{\"in_s2\"}=?[C<=1] = %.3e years (%.5f%% of the year)\n", cumulated,
              cumulated * 100.0);
  const double breach = session.check("P=? [ F<=1 \"s2\" ]");
  std::printf("  P=?[F<=1 \"s2\"]     = %.5f (probability s2 is ever reached in year 1)\n",
              breach);
  std::cout << "\nAs the paper argues, the transient reward view differs from the\n"
               "stationary probability (" << s2 << ") because the system starts secure.\n";
  return 0;
}
