// The paper's experiment catalog: every figure/table cell of "Comparison
// and tuning of MPI implementations in a grid context" (and this repo's
// ablation/extension studies) registered as a ScenarioSpec in one
// ScenarioRegistry. Consumers — `gridsim campaign` (whose --render prints
// each group's figure/table), perfbench, the tests — select from this
// registry by glob instead of hand-rolling experiment mains.
#pragma once

#include "harness/scenario.hpp"

namespace gridsim::scenarios {

/// The process-wide catalog, built on first use. Groups are registered in
/// the paper's order: fig3, fig5, fig6, fig7, table4, table5, fig9,
/// table2, fig10..fig13, table6, table7, then the ablation_* and ext_*
/// studies.
const harness::ScenarioRegistry& paper_registry();

}  // namespace gridsim::scenarios
