// Scaling to bigger architectures — the paper's Section 4.3 concern — using
// the two levers this library provides beyond brute force:
//
//   * ordinary lumping ("targeted model checking", Section 5 future work):
//     symmetric substructures — k identical zone ECUs — collapse from 3^k
//     interface combinations to k+1 counts, exactly;
//   * statistical model checking: a Gillespie simulator whose cost grows
//     with trajectory length, not state count.
//
// Both are run against the direct numerical engine on a zonal architecture
// with a growing number of identical zone controllers, printing agreement
// and runtimes.
#include <cstdio>
#include <iostream>

#include "autosec.hpp"
#include "csl/lumped.hpp"
#include "ctmc/simulation.hpp"

using namespace autosec;
using namespace autosec::automotive;

namespace {

Architecture zonal_platform(int zones) {
  Architecture arch;
  arch.name = "zonal platform, " + std::to_string(zones) + " zones";
  arch.buses.push_back({"NET", BusKind::kInternet, std::nullopt, std::nullopt});
  arch.buses.push_back({"BB", BusKind::kCan, std::nullopt, std::nullopt});

  Ecu connectivity{"CONN", 52.0, assess::Asil::kA,
                   {{"NET", 1.9, std::nullopt}, {"BB", 3.8, std::nullopt}},
                   std::nullopt};
  arch.ecus.push_back(connectivity);
  Ecu central{"CENTRAL", 12.0, assess::Asil::kC, {{"BB", 1.2, std::nullopt}},
              std::nullopt};
  arch.ecus.push_back(central);
  for (int z = 0; z < zones; ++z) {
    Ecu zone{"ZONE" + std::to_string(z), 12.0, assess::Asil::kC,
             {{"BB", 1.2, std::nullopt}}, std::nullopt};
    arch.ecus.push_back(zone);
  }

  Message command;
  command.name = "zone_cmd";
  command.sender = "CENTRAL";
  command.receivers = {"ZONE0"};
  command.buses = {"BB"};
  command.protection = Protection::kCmac128;
  arch.messages.push_back(command);
  arch.validate();
  return arch;
}

}  // namespace

int main() {
  std::cout << "Integrity of zone_cmd (CMAC-128) on growing zonal platforms,\n"
               "checked three ways: direct numerics, lumped numerics, simulation.\n\n";
  util::TextTable table({"zones", "states", "lumped", "direct", "lumped value",
                         "simulated (95% CI)", "direct s", "lumped s"});

  for (int zones : {2, 4, 6, 8}) {
    const Architecture arch = zonal_platform(zones);
    AnalysisOptions options;
    options.nmax = 2;
    const SecurityAnalysis analysis(arch, "zone_cmd", SecurityCategory::kIntegrity,
                                    options);
    const char* property = "R{\"exposure\"}=? [ C<=1 ]";

    util::Stopwatch direct_watch;
    const double direct = analysis.check(property);
    const double direct_seconds = direct_watch.elapsed_seconds();

    util::Stopwatch lumped_watch;
    const csl::LumpedCheckResult lumped = csl::check_lumped(analysis.space(), property);
    const double lumped_seconds = lumped_watch.elapsed_seconds();

    ctmc::SimulationOptions simulation;
    simulation.samples = 4000;
    simulation.seed = 11;
    const ctmc::Ctmc& chain = analysis.space().chain();
    const auto estimate = ctmc::estimate_time_fraction(
        chain, static_cast<uint32_t>(analysis.space().initial_state()),
        analysis.space().label_mask(kViolatedLabel), 1.0, simulation);

    table.add_row({std::to_string(zones), std::to_string(lumped.original_states),
                   std::to_string(lumped.lumped_states), util::format_percent(direct),
                   util::format_percent(lumped.value),
                   util::format_percent(estimate.mean) + " +/- " +
                       util::format_percent(estimate.half_width),
                   util::format_sig(direct_seconds, 3),
                   util::format_sig(lumped_seconds, 3)});
  }
  std::cout << table << "\n";
  std::cout << "All three paths agree; the lumped state count grows polynomially in the\n"
               "zone count while the direct product grows geometrically — the exact\n"
               "reduction the paper's future-work checker aims for.\n";
  return 0;
}
