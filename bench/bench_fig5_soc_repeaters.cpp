// Reproduces Figure 5: optimal repeater insertion on the critical channels
// of a multi-processor MPEG-4 decoder (0.18u, l_crit = 0.6 mm, Manhattan
// distance, cost per arc = floor((|dx| + |dy|) / l_crit)). Paper result: a
// total of 55 repeaters.
//
// The floorplan is a documented substitution (DESIGN.md #5.1): the paper's
// is proprietary, so a canonical MPEG-4 decoder floorplan with the same
// total segmentation demand drives the identical code path.
#include <cmath>
#include <cstdio>

#include "commlib/standard_libraries.hpp"
#include "synth/synthesizer.hpp"
#include "workloads/mpeg4_soc.hpp"

int main() {
  using namespace cdcs;
  const double l_crit = workloads::kMpeg4CritLengthMm;
  const model::ConstraintGraph cg = workloads::mpeg4_soc();
  const commlib::Library lib = commlib::soc_library(l_crit);

  const synth::SynthesisResult result = synth::synthesize(cg, lib).value();

  std::puts("=== Figure 5: MPEG-4 decoder repeater insertion ===");
  std::printf("%-22s %10s %12s %12s\n", "channel", "d [mm]", "paper-cost",
              "repeaters");
  int failures = 0;
  std::size_t total = 0;
  for (const synth::Candidate* c : result.selected()) {
    const auto* p = std::get_if<synth::PtpPlan>(&c->plan);
    if (p == nullptr) {
      std::puts("FAIL: a merging was selected; Fig. 5 is pure segmentation");
      ++failures;
      continue;
    }
    const double d = p->span;
    // The paper's closed-form arc cost.
    const int paper_cost = static_cast<int>(std::floor(d / l_crit));
    const int repeaters = (p->segments - 1) * p->parallel;
    total += repeaters;
    std::printf("%-22s %10.2f %12d %12d\n",
                cg.channel(c->arcs.front()).name.c_str(), d, paper_cost,
                repeaters);
    if (repeaters != paper_cost) {
      std::printf("FAIL: %s disagrees with the closed-form cost\n",
                  cg.channel(c->arcs.front()).name.c_str());
      ++failures;
    }
  }
  const std::size_t inserted =
      result.implementation->count_nodes(commlib::NodeKind::kRepeater);
  std::printf("%-22s %10s %12s %12zu\n", "TOTAL", "", "", total);
  std::printf("\nInserted repeater vertices: %zu;  paper total: 55\n", inserted);
  if (inserted != 55 || total != 55) {
    std::puts("FAIL: repeater total does not match the paper");
    ++failures;
  }
  if (!result.validation.ok()) {
    std::puts("FAIL: implementation does not validate");
    ++failures;
  }
  std::puts(failures == 0 ? "\nFigure 5 result: REPRODUCED"
                          : "\nFigure 5 result: FAILED");
  return failures == 0 ? 0 : 1;
}
