// Full SoC flow: netlist -> analytical placement -> constraint graph ->
// communication synthesis. The paper assumes port positions are given; this
// example produces them with the quadratic placer (src/place), then runs
// the repeater-insertion synthesis of the paper's second example on the
// resulting floorplan -- the complete path from a connectivity netlist to a
// repeater-annotated communication architecture.
#include <cstdio>

#include "commlib/standard_libraries.hpp"
#include "place/placement.hpp"
#include "synth/synthesizer.hpp"

int main() {
  using namespace cdcs;

  // --- 1. Netlist: blocks, I/O pads on the die boundary (5 x 5 mm), and
  //        weighted nets (weight = relative bandwidth demand). ---
  place::PlacementProblem netlist;
  const auto pad_mem = netlist.add_fixed("pad_sdram", {2.5, 5.0});
  const auto pad_vid = netlist.add_fixed("pad_video", {5.0, 0.5});
  const auto pad_aud = netlist.add_fixed("pad_audio", {0.0, 0.5});
  const auto pad_host = netlist.add_fixed("pad_host", {0.0, 4.5});

  const auto risc = netlist.add_module("risc_cpu");
  const auto sdram = netlist.add_module("sdram_ctrl");
  const auto vld = netlist.add_module("vld");
  const auto idct = netlist.add_module("idct");
  const auto mc = netlist.add_module("motion_comp");
  const auto dma = netlist.add_module("dma");
  const auto vout = netlist.add_module("video_out");
  const auto audio = netlist.add_module("audio_if");

  netlist.connect(pad_host, risc, 2.0);
  netlist.connect(pad_mem, sdram, 8.0);
  netlist.connect(pad_vid, vout, 4.0);
  netlist.connect(pad_aud, audio, 1.0);
  netlist.connect(risc, sdram, 2.0);
  netlist.connect(sdram, dma, 6.0);
  netlist.connect(dma, vld, 3.0);
  netlist.connect(vld, idct, 3.0);
  netlist.connect(idct, mc, 3.0);
  netlist.connect(mc, vout, 4.0);
  netlist.connect(dma, mc, 2.0);
  netlist.connect(dma, audio, 1.0);

  const place::PlacementResult placed = place::place(netlist);
  std::printf("Placement: %s after %d CG iterations, Phi = %.3f\n\n",
              placed.converged ? "converged" : "NOT converged",
              placed.iterations, placed.quadratic_wirelength);
  for (std::size_t i = 0; i < netlist.modules.size(); ++i) {
    std::printf("  %-12s at (%.2f, %.2f)%s\n",
                netlist.modules[i].name.c_str(), placed.positions[i].x,
                placed.positions[i].y,
                netlist.modules[i].fixed ? "  [pad]" : "");
  }

  // --- 2. Constraint graph from the placed netlist: one channel per
  //        inter-block net (pads excluded), Manhattan distances. ---
  model::ConstraintGraph cg(geom::Norm::kManhattan);
  std::vector<model::VertexId> port(netlist.modules.size());
  for (std::size_t i = 0; i < netlist.modules.size(); ++i) {
    if (!netlist.modules[i].fixed) {
      port[i] = cg.add_port(netlist.modules[i].name, placed.positions[i]);
    }
  }
  std::size_t skipped_short = 0;
  for (const place::Net& n : netlist.nets) {
    if (netlist.modules[n.a].fixed || netlist.modules[n.b].fixed) continue;
    // Quadratic placement pulls tightly-coupled blocks together; channels
    // shorter than the critical length need no synthesis.
    const double d = geom::distance(placed.positions[n.a],
                                    placed.positions[n.b],
                                    geom::Norm::kManhattan);
    if (d < 0.05) {
      ++skipped_short;
      continue;
    }
    cg.add_channel(port[n.a], port[n.b], /*bandwidth=*/1.0,
                   netlist.modules[n.a].name + "->" +
                       netlist.modules[n.b].name);
  }
  std::printf("\nConstraint graph: %zu channels (%zu sub-50um nets skipped)\n",
              cg.num_channels(), skipped_short);

  // --- 3. Synthesis with the paper's 0.18u repeater library. ---
  const commlib::Library lib = commlib::soc_library(0.6);
  const synth::SynthesisResult result = synth::synthesize(cg, lib).value();
  std::printf("Synthesized repeaters: %zu (cost %.0f), validation %s\n",
              result.implementation->count_nodes(commlib::NodeKind::kRepeater),
              result.total_cost, result.validation.ok() ? "PASS" : "FAIL");
  for (const synth::Candidate* c : result.selected()) {
    const auto* p = std::get_if<synth::PtpPlan>(&c->plan);
    if (p != nullptr && p->segments > 1) {
      std::printf("  %-24s %.2f mm -> %d repeaters\n",
                  cg.channel(c->arcs.front()).name.c_str(), p->span,
                  p->segments - 1);
    }
  }
  return result.validation.ok() ? 0 : 1;
}
