// Trace-digest primitives.
//
// The paper's every figure and table assumes the simulator is a
// deterministic function of its inputs: events at equal timestamps fire in
// FIFO order, so two runs of the same scenario must produce bit-identical
// event traces. The campaign runner (harness/campaign.hpp) makes that
// promise checkable by folding every trace event of every scenario into a
// 64-bit FNV-1a digest as it is recorded; these are the fold steps it uses.
// Iteration-order nondeterminism, uninitialised reads or dangling-coroutine
// resumption corrupting the schedule all show up as a changed digest.
#pragma once

#include <cstdint>

#include "simcore/trace.hpp"

namespace gridsim::harness {

/// Fold one 64-bit value into a running FNV-1a hash.
void fold_digest(std::uint64_t& h, std::uint64_t v);

/// Fold one trace event into a running FNV-1a hash. Every field contributes:
/// timestamp, kind, subject, value bit pattern (one ulp of drift changes the
/// digest) and detail string.
void fold_trace_event(std::uint64_t& h, const TraceEvent& e);

}  // namespace gridsim::harness
