// Content fingerprint of a constraint graph, for pinning generator outputs.
//
// Every workload generator in this directory is documented as deterministic;
// the tests pin each generator's fingerprint so that ANY drift in the
// emitted graph -- a port moved, a bandwidth nudged, an arc reordered, a
// name changed -- fails loudly instead of silently shifting benchmark
// baselines (the partitioned geo-WAN costs pinned in
// tests/test_kernel_identity.cpp are compared exactly across machines,
// which is only sound while the inputs are bit-stable).
//
// The hash is FNV-1a 64 over the full construction-visible content: norm,
// port names and position bit patterns, arc endpoints, channel names and
// bandwidth bit patterns, all in insertion order. Positions/bandwidths are
// hashed as their IEEE-754 bit patterns, so two graphs fingerprint equal
// iff they are bit-identical inputs to the synthesizer.
#pragma once

#include <cstdint>

#include "model/constraint_graph.hpp"

namespace cdcs::workloads {

std::uint64_t fingerprint(const model::ConstraintGraph& cg);

}  // namespace cdcs::workloads
