// Cross-validation of the numerical engine against the statistical
// (simulation) engine: for a sample of Fig. 5 cells, the numerical
// exploitability must fall inside the simulator's 95% confidence interval
// (allowing the usual ~5% of misses, we use 3 sigma bands for the check).
// Two independent implementation paths agreeing is the strongest internal
// evidence that the reproduced Fig. 5 numbers are not an artifact of either
// engine.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "automotive/analyzer.hpp"
#include "automotive/casestudy.hpp"
#include "ctmc/simulation.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace autosec;
using namespace autosec::automotive;
namespace cs = casestudy;

int main() {
  std::cout << "== Statistical vs numerical engine (Fig. 5 cells, nmax = 2) ==\n\n";
  util::TextTable table({"Architecture", "Protection", "numerical", "statistical",
                         "95% CI half-width", "inside 3-sigma"});
  int misses = 0;
  for (int which = 1; which <= 3; ++which) {
    for (const Protection protection :
         {Protection::kUnencrypted, Protection::kAes128}) {
      AnalysisOptions options;
      options.nmax = 2;
      const SecurityAnalysis analysis(cs::architecture(which, protection),
                                      cs::kMessage,
                                      SecurityCategory::kConfidentiality, options);
      const double numeric = analysis.check("R{\"exposure\"}=? [ C<=1 ]");

      ctmc::SimulationOptions simulation;
      simulation.samples = 20000;
      simulation.seed = 20150607 + static_cast<uint64_t>(which);
      const ctmc::Ctmc& chain = analysis.space().chain();
      const auto estimate = ctmc::estimate_time_fraction(
          chain, static_cast<uint32_t>(analysis.space().initial_state()),
          analysis.space().label_mask(kViolatedLabel), 1.0, simulation);

      const bool inside =
          std::abs(estimate.mean - numeric) <= 3.0 / 1.96 * estimate.half_width + 1e-9;
      misses += inside ? 0 : 1;
      table.add_row({"Architecture " + std::to_string(which),
                     std::string(protection_name(protection)),
                     util::format_percent(numeric), util::format_percent(estimate.mean),
                     util::format_percent(estimate.half_width),
                     inside ? "yes" : "NO"});
    }
  }
  std::cout << table << "\n";
  std::printf("cells outside the 3-sigma band: %d of 6\n", misses);
  return misses > 1 ? 1 : 0;
}
