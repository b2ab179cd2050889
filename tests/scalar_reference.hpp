#pragma once
// Independent scalar reference model for the lane-equivalence tests.
//
// The production LPs (src/logicsim/netlist_lps.hpp) evaluate whole lane
// words and track DFF clock arming per lane.  This is a one-scenario model
// written apart from them, in the scalar state layout that
// logicsim::extract_lane_states projects onto:
//
//   gate   a = fanin bits (bit p = fanin p), b = output bit
//   DFF    a = latched D bit, b = Q bit
//   input  b = stimulus bit
//
// with LpState::w always empty.  It shares with production code only the
// pure definitions of the model — the stimulus hash
// (logicsim::InputLp::vector_bit), the gate truth function
// (logicsim::eval_gate, checked against truth tables in logicsim_test) and
// the sequential event-list engine — not the automata: emit on change,
// DFF clock suppression and drifting stimulus are re-implemented here, so
// lane j of any run (1-lane runs included) is checked against code that
// does not share their logic.

#include "circuit/circuit.hpp"
#include "logicsim/netlist_lps.hpp"
#include "logicsim/sequential.hpp"

namespace pls::testref {

/// Simulate one fault-free scenario of `c` with stimulus seed
/// opt.stim_seed to `end_time` on the sequential engine.  opt.lanes,
/// opt.faults and opt.uniform_stimulus are ignored; the timing options
/// (delays, clock, stimulus period and drift) apply as in build_model.
logicsim::SeqStats run_scalar_reference(const circuit::Circuit& c,
                                        const logicsim::ModelOptions& opt,
                                        warped::SimTime end_time);

}  // namespace pls::testref
