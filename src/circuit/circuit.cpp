#include "circuit/circuit.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace pls::circuit {

void Circuit::check_unfrozen() const {
  PLS_CHECK_MSG(!frozen_, "circuit '" << name_ << "' is frozen");
}

void Circuit::reserve(std::size_t gates, std::size_t edges) {
  types_.reserve(gates);
  names_.reserve(gates);
  is_output_.reserve(gates);
  by_name_.reserve(gates);
  edges_.reserve(edges);
}

GateId Circuit::add_input(std::string_view name) {
  return add_gate(name, GateType::kInput);
}

GateId Circuit::add_gate(std::string_view name, GateType type,
                         const std::vector<GateId>& fanins) {
  check_unfrozen();
  for (GateId f : fanins) {
    PLS_CHECK_MSG(f < types_.size(),
                  "fanin id " << f << " of '" << name << "' out of range");
  }
  const auto id = static_cast<GateId>(types_.size());
  names_.emplace_back(name);
  const bool fresh = by_name_.insert(id, name_of()) == id;
  if (!fresh) names_.pop_back();
  PLS_CHECK_MSG(fresh, "duplicate gate name '" << name << "'");
  types_.push_back(type);
  is_output_.push_back(0);
  for (GateId f : fanins) edges_.push_back({id, f});
  if (type == GateType::kInput) inputs_.push_back(id);
  if (type == GateType::kDff) dffs_.push_back(id);
  return id;
}

void Circuit::connect(GateId gate, GateId fanin) {
  check_unfrozen();
  PLS_CHECK(gate < types_.size());
  PLS_CHECK(fanin < types_.size());
  PLS_CHECK_MSG(types_[gate] != GateType::kInput,
                "primary input '" << names_[gate] << "' cannot have fanin");
  edges_.push_back({gate, fanin});
}

void Circuit::mark_output(GateId gate) {
  PLS_CHECK(gate < types_.size());
  if (!is_output_[gate]) {
    is_output_[gate] = 1;
    outputs_.push_back(gate);
  }
}

void Circuit::mark_output(std::string_view name) {
  const GateId g = find(name);
  PLS_CHECK_MSG(g != kInvalidGate, "mark_output: unknown gate '" << name
                                                                 << "'");
  mark_output(g);
}

GateId Circuit::find(std::string_view name) const {
  // NameIndex::kNone and kInvalidGate are the same all-ones id.
  return by_name_.find(name, name_of());
}

std::span<const GateId> Circuit::fanouts(GateId g) const {
  PLS_CHECK_MSG(frozen_, "fanouts() requires freeze()");
  return {fanout_flat_.data() + fanout_off_.at(g),
          fanout_off_.at(g + 1) - fanout_off_.at(g)};
}

void Circuit::check_arities() const {
  for (GateId g = 0; g < types_.size(); ++g) {
    const auto n = static_cast<int>(fanin_off_[g + 1] - fanin_off_[g]);
    PLS_CHECK_MSG(n >= min_arity(types_[g]) && n <= max_arity(types_[g]),
                  "gate '" << names_[g] << "' (" << to_string(types_[g])
                           << ") has illegal fanin count " << n);
  }
}

void Circuit::check_combinational_acyclic() const {
  // Iterative three-color DFS over combinational edges only.  Edges into a
  // DFF's D pin terminate a combinational path (the DFF output is a new
  // sequential source), so cycles through flip-flops are legal — they are
  // exactly the sequential feedback loops of ISCAS'89 circuits.
  enum : std::uint8_t { kWhite, kGray, kBlack };
  std::vector<std::uint8_t> color(types_.size(), kWhite);
  std::vector<std::pair<GateId, std::size_t>> stack;

  for (GateId root = 0; root < types_.size(); ++root) {
    if (color[root] != kWhite || types_[root] == GateType::kDff) continue;
    stack.emplace_back(root, 0);
    color[root] = kGray;
    while (!stack.empty()) {
      auto& [g, idx] = stack.back();
      const auto fin = fanins(g);
      if (idx == fin.size()) {
        color[g] = kBlack;
        stack.pop_back();
        continue;
      }
      const GateId next = fin[idx++];
      if (types_[next] == GateType::kDff) continue;  // sequential boundary
      if (color[next] == kGray) {
        ::pls::util::check_failed(
            "combinational cycle", __FILE__, __LINE__,
            "cycle through gate '" + names_[next] +
                "' not broken by a flip-flop");
      }
      if (color[next] == kWhite) {
        color[next] = kGray;
        stack.emplace_back(next, 0);
      }
    }
  }
}

void Circuit::build_fanin_csr() {
  // Stable counting sort of the edge list by gate: a gate's fanins keep
  // the order they were connected in.
  fanin_off_.assign(types_.size() + 1, 0);
  for (const Edge& e : edges_) ++fanin_off_[e.gate + 1];
  for (std::size_t i = 1; i < fanin_off_.size(); ++i) {
    fanin_off_[i] += fanin_off_[i - 1];
  }
  fanin_flat_.assign(edges_.size(), kInvalidGate);
  std::vector<std::uint32_t> cursor(fanin_off_.begin(), fanin_off_.end() - 1);
  for (const Edge& e : edges_) fanin_flat_[cursor[e.gate]++] = e.fanin;
}

void Circuit::build_fanouts() {
  // Counting sort into fanout CSR.
  const std::size_t total = fanin_flat_.size();
  fanout_off_.assign(types_.size() + 1, 0);
  for (GateId f : fanin_flat_) ++fanout_off_[f + 1];
  for (std::size_t i = 1; i < fanout_off_.size(); ++i) {
    fanout_off_[i] += fanout_off_[i - 1];
  }
  fanout_flat_.assign(total, kInvalidGate);
  std::vector<std::uint32_t> cursor(fanout_off_.begin(),
                                    fanout_off_.end() - 1);
  for (GateId g = 0; g < types_.size(); ++g) {
    for (GateId f : fanins(g)) {
      fanout_flat_[cursor[f]++] = g;
    }
  }
}

void Circuit::freeze() {
  check_unfrozen();
  PLS_CHECK_MSG(!types_.empty(), "empty circuit");
  build_fanin_csr();
  check_arities();
  check_combinational_acyclic();
  build_fanouts();
  edges_.clear();
  edges_.shrink_to_fit();
  frozen_ = true;
}

}  // namespace pls::circuit
