// The paper's second Section 4 example (Fig. 5): optimal repeater insertion
// on the critical channels of a multi-processor MPEG-4 decoder in a 0.18u
// process. Library: one metal wire of critical length l_crit = 0.6 mm plus
// optimally-sized inverter/mux/demux; cost = number of inserted repeaters;
// Manhattan distance. The paper's result: 55 repeaters in total.
#include <cstdio>

#include "commlib/standard_libraries.hpp"
#include "io/report.hpp"
#include "synth/synthesizer.hpp"
#include "workloads/mpeg4_soc.hpp"

int main() {
  using namespace cdcs;
  const model::ConstraintGraph cg = workloads::mpeg4_soc();
  const commlib::Library lib =
      commlib::soc_library(workloads::kMpeg4CritLengthMm);

  const synth::SynthesisResult result = synth::synthesize(cg, lib).value();

  std::puts("Per-channel segmentation (repeaters = floor(manhattan/l_crit)):");
  std::size_t repeaters = 0;
  for (const synth::Candidate* c : result.selected()) {
    if (const auto* p = std::get_if<synth::PtpPlan>(&c->plan)) {
      const int r = p->segments - 1;
      repeaters += r * p->parallel;
      std::printf("  %-22s d=%5.2f mm  -> %d repeaters\n",
                  cg.channel(c->arcs.front()).name.c_str(), p->span, r);
    } else {
      std::printf("  (merging selected: %s)\n",
                  io::describe_candidate(*c, cg, lib).c_str());
    }
  }
  const std::size_t inserted =
      result.implementation->count_nodes(commlib::NodeKind::kRepeater);
  std::printf("\nTotal repeaters inserted: %zu (paper: 55, l_crit = %.1f mm)\n",
              inserted, workloads::kMpeg4CritLengthMm);
  std::printf("Implementation cost (Def 2.5): %.0f\n", result.total_cost);
  std::printf("Validation: %s\n", result.validation.ok() ? "PASS" : "FAIL");
  return result.validation.ok() && inserted == 55 ? 0 : 1;
}
