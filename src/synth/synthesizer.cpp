#include "synth/synthesizer.hpp"

#include <exception>
#include <string>
#include <utility>

#include "model/sanitize.hpp"
#include "support/metrics.hpp"
#include "synth/partitioned_synthesizer.hpp"
#include "synth/pipeline.hpp"

namespace cdcs::synth {

// A one-shot session: the same staged pipeline the incremental Engine
// drives (synth/pipeline.hpp), run with no session state, wrapped in the
// input gate and the catch-all so no exception escapes the API boundary.
support::Expected<SynthesisResult> synthesize(
    const model::ConstraintGraph& cg, const commlib::Library& library,
    const SynthesisOptions& options) {
  support::ScopedTimer run_span(
      "synthesize", "pipeline",
      &support::MetricsRegistry::global().histogram("synth.run.us"));
  support::Status gate = model::check_inputs(cg, library);
  if (!gate.ok()) return std::move(gate).with_context("synthesize");
  try {
    // Large instances take the hierarchical partitioned path when enabled
    // (synth/partitioned_synthesizer.hpp); below the arc threshold the
    // plain pipeline runs untouched -- the exact fallback that keeps every
    // pinned corpus cost and node count bit-identical.
    support::Expected<SynthesisResult> result =
        partitioning_applies(cg, options)
            ? synthesize_partitioned(cg, library, options)
            : run_pipeline(cg, library, options, nullptr);
    if (!result.ok()) {
      return std::move(result).take_status().with_context("synthesize");
    }
    return result;
  } catch (const std::exception& e) {
    return support::Status::Internal(std::string("unexpected exception: ") +
                                     e.what())
        .with_context("synthesize");
  }
}

}  // namespace cdcs::synth
