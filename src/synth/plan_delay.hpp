// Delay figures of candidate plans, computed before materialization.
//
// The paper's on-chip result holds "as long as all links have a delay
// smaller than the clock period"; more generally a synthesized channel may
// have a latency budget. These helpers evaluate the worst-case end-to-end
// delay each plan would impose on each of its channels (wire/medium delay
// per unit length plus a processing delay per communication node), so
// candidate generation can filter structures that violate a budget BEFORE
// the covering step -- delay-constrained synthesis (see
// SynthesisOptions::delay_budget).
//
// The figures equal what sim::analyze_delays reports on the materialized
// graph (same model; repeaters sit on the paths, bundle mux/demux are
// off-path accounting nodes).
#pragma once

#include "sim/delay.hpp"
#include "synth/candidate.hpp"

namespace cdcs::synth {

/// Delay of one chain of a point-to-point plan: span * wire-delay plus a
/// node delay per interior repeater.
double ptp_plan_delay(const PtpPlan& plan, const sim::DelayModel& model);

/// Worst per-channel delay the star merging imposes (ingress + hub + trunk
/// + split + egress for its slowest member).
double worst_arc_delay(const MergingPlan& plan, const sim::DelayModel& model);

/// Worst per-channel delay of the daisy chain (the terminus channel rides
/// the whole trunk; earlier drops pay the upstream segments plus their own
/// leg and every drop node they pass).
double worst_arc_delay(const ChainPlan& plan, const sim::DelayModel& model);

/// Worst per-channel delay of the Steiner tree (root-to-spoke path edges
/// plus the junction nodes along it, plus the drop link where present).
double worst_arc_delay(const TreePlan& plan, const sim::DelayModel& model);

/// Worst per-channel delay of any plan: ptp_plan_delay for a point-to-point
/// plan, worst_arc_delay for a merging.
double worst_plan_delay(const Plan& plan, const sim::DelayModel& model);

}  // namespace cdcs::synth
