// Umbrella header: the full public API of the autosec library.
//
// Layering (bottom-up):
//   linalg     sparse matrices + iterative solvers
//   ctmc       CTMC engine: transient / steady-state / reward analysis
//   symbolic   PRISM-subset modeling language (AST, parser, writer, explorer)
//   csl        CSL properties and the model checker: EngineSession, which
//              solves every property, and lumped (quotient) checking
//   assess     CVSS exploitability and ASIL patch-rate assessment
//   automotive architecture description, transformation, analysis driver,
//              and the DAC'15 case study
#pragma once

#include "assess/asil.hpp"
#include "assess/cvss.hpp"
#include "automotive/analyzer.hpp"
#include "automotive/architecture.hpp"
#include "automotive/casestudy.hpp"
#include "automotive/transform.hpp"
#include "csl/lumped.hpp"
#include "csl/session.hpp"
#include "csl/property.hpp"
#include "csl/property_parser.hpp"
#include "ctmc/ctmc.hpp"
#include "ctmc/poisson.hpp"
#include "ctmc/rewards.hpp"
#include "ctmc/scc.hpp"
#include "ctmc/steady_state.hpp"
#include "ctmc/transient.hpp"
#include "linalg/csr_matrix.hpp"
#include "linalg/gauss_seidel.hpp"
#include "linalg/krylov.hpp"
#include "linalg/power_iteration.hpp"
#include "linalg/vector_ops.hpp"
#include "symbolic/builder.hpp"
#include "symbolic/explorer.hpp"
#include "symbolic/expr.hpp"
#include "symbolic/model.hpp"
#include "symbolic/parser.hpp"
#include "symbolic/writer.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
