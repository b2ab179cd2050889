#include "logicsim/equivalence.hpp"

#include <sstream>

namespace pls::logicsim {

EquivalenceReport check_equivalence(const warped::RunStats& parallel,
                                    const SeqStats& sequential) {
  EquivalenceReport rep;
  rep.parallel_committed = parallel.totals.events_committed;
  rep.sequential_processed = sequential.events_processed;
  rep.counts_equal = rep.parallel_committed == rep.sequential_processed;

  rep.states_equal =
      parallel.final_states.size() == sequential.final_states.size();
  if (rep.states_equal) {
    for (std::size_t i = 0; i < parallel.final_states.size(); ++i) {
      if (!(parallel.final_states[i] == sequential.final_states[i])) {
        rep.states_equal = false;
        rep.first_mismatch_lp = i;
        break;
      }
    }
  }
  return rep;
}

EquivalenceReport check_lane_equivalence(
    const circuit::Circuit& c,
    const std::vector<warped::LpState>& lane_finals, unsigned lane,
    unsigned lanes, const std::vector<warped::LpState>& scalar_finals) {
  EquivalenceReport rep;
  rep.counts_equal = true;  // counts intentionally differ across widths
  const std::vector<warped::LpState> projected =
      extract_lane_states(c, lane_finals, lane, lanes);
  const std::vector<warped::LpState> reference =
      extract_lane_states(c, scalar_finals, 0, 1);
  rep.states_equal = projected.size() == reference.size();
  if (rep.states_equal) {
    for (std::size_t i = 0; i < projected.size(); ++i) {
      if (!(projected[i] == reference[i])) {
        rep.states_equal = false;
        rep.first_mismatch_lp = i;
        break;
      }
    }
  }
  return rep;
}

std::string EquivalenceReport::describe() const {
  std::ostringstream os;
  if (ok()) {
    os << "equivalent (" << parallel_committed << " committed events)";
    return os.str();
  }
  if (!states_equal) {
    os << "state mismatch at LP " << first_mismatch_lp << "; ";
  }
  if (!counts_equal) {
    os << "committed " << parallel_committed << " != sequential "
       << sequential_processed;
  }
  return os.str();
}

}  // namespace pls::logicsim
