// Interchange with the paper's toolchain: the architecture-to-CTMC
// transformation emits a model in the PRISM language, so the exact model this
// library checks can be dumped to a .prism/.sm file, inspected, and run
// through PRISM itself (the tool used in the paper) — and PRISM-subset files
// can be loaded back into this engine.
//
// Writes the generated model of Architecture 1 (confidentiality, AES-128) to
// arch1_confidentiality.sm in the current directory, re-parses it, and shows
// both copies agree on every reported measure.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "autosec.hpp"

using namespace autosec;
using namespace autosec::automotive;
namespace cs = casestudy;

int main() {
  TransformOptions options;
  options.message = cs::kMessage;
  options.category = SecurityCategory::kConfidentiality;
  options.nmax = 2;
  const symbolic::Model generated =
      transform(cs::architecture(1, Protection::kAes128), options);

  const std::string text = symbolic::write_model(generated);
  const char* path = "arch1_confidentiality.sm";
  std::ofstream(path) << text;
  std::printf("wrote %s (%zu bytes)\n\n", path, text.size());

  // Show the head of the generated PRISM source.
  std::istringstream lines(text);
  std::string line;
  int shown = 0;
  while (std::getline(lines, line) && shown++ < 18) std::cout << "  " << line << "\n";
  std::cout << "  ...\n\n";

  // Load it back and verify agreement.
  std::ifstream input(path);
  std::stringstream buffer;
  buffer << input.rdbuf();
  const symbolic::Model reparsed = symbolic::parse_model(buffer.str());

  const symbolic::StateSpace original_space =
      symbolic::explore(symbolic::compile(generated));
  const symbolic::StateSpace reparsed_space =
      symbolic::explore(symbolic::compile(reparsed));
  csl::EngineSession original(
      std::make_shared<const symbolic::StateSpace>(original_space));
  csl::EngineSession roundtripped(
      std::make_shared<const symbolic::StateSpace>(reparsed_space));

  util::TextTable table({"Property", "generated", "reparsed"});
  for (const char* property :
       {"R{\"exposure\"}=? [ C<=1 ]", "P=? [ F<=1 \"violated\" ]",
        "S=? [ \"violated\" ]", "P=? [ F<=1 \"ecu_3g_exploited\" ]"}) {
    table.add_row({property, util::format_sig(original.check(property), 6),
                   util::format_sig(roundtripped.check(property), 6)});
  }
  std::cout << table << "\n";
  std::printf("states: generated %zu, reparsed %zu\n", original_space.state_count(),
              reparsed_space.state_count());
  std::cout << "The .sm file is directly loadable by PRISM 4.x for cross-validation.\n";
  return 0;
}
