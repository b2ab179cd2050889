#pragma once
// Circuit: the gate-level netlist / circuit-graph model.
//
// This is the directed graph G = (V, E) of paper §3: vertices are gates,
// edges are signals.  A Circuit is built incrementally (add_input/add_gate/
// mark_output) and then frozen; freezing validates the netlist and builds
// the CSR fanout index every downstream consumer (partitioners, simulators)
// iterates over.  After freeze() the structure is immutable, so it can be
// shared read-only across kernel threads without synchronization.

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "circuit/types.hpp"
#include "util/name_index.hpp"

namespace pls::circuit {

class Circuit {
 public:
  Circuit() = default;
  explicit Circuit(std::string name) : name_(std::move(name)) {}

  // ----- construction (before freeze) -----

  /// Pre-size for `gates` gates and `edges` fanin connections.
  void reserve(std::size_t gates, std::size_t edges);

  /// Add a primary input. Names must be unique across all gates.
  GateId add_input(std::string_view name);

  /// Add a logic gate / flip-flop, with its fanins given here (ids of
  /// gates already added), appended later via connect(), or both.
  GateId add_gate(std::string_view name, GateType type,
                  const std::vector<GateId>& fanins = {});

  /// Append one more fanin to an existing gate.
  void connect(GateId gate, GateId fanin);

  /// Mark a gate's output signal as a primary output.
  void mark_output(GateId gate);
  void mark_output(std::string_view name);

  /// Validate the netlist and build fanout/index structures.  Throws
  /// util::CheckError on arity violations, dangling references or
  /// combinational cycles (cycles are legal only through DFFs).
  void freeze();

  // ----- queries (any time; fanout queries require freeze) -----

  const std::string& name() const noexcept { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }
  bool frozen() const noexcept { return frozen_; }

  std::size_t size() const noexcept { return types_.size(); }

  GateType type(GateId g) const { return types_.at(g); }
  const std::string& gate_name(GateId g) const { return names_.at(g); }
  bool is_output(GateId g) const { return is_output_.at(g) != 0; }

  std::span<const GateId> fanins(GateId g) const {
    return {fanin_flat_.data() + fanin_off_.at(g),
            fanin_off_.at(g + 1) - fanin_off_.at(g)};
  }

  /// Gates driven by g's output signal (requires freeze()).
  std::span<const GateId> fanouts(GateId g) const;

  /// Lookup by name; returns kInvalidGate if absent.
  GateId find(std::string_view name) const;

  const std::vector<GateId>& primary_inputs() const noexcept { return inputs_; }
  const std::vector<GateId>& primary_outputs() const noexcept {
    return outputs_;
  }
  const std::vector<GateId>& flip_flops() const noexcept { return dffs_; }

  /// Combinational gates = size() - inputs - flip-flops.
  std::size_t num_combinational() const noexcept {
    return size() - inputs_.size() - dffs_.size();
  }

  /// Total number of directed edges (signal connections).
  std::size_t num_edges() const noexcept { return fanin_flat_.size(); }

 private:
  /// The key_of callable by_name_ reads names through.
  auto name_of() const {
    return [this](GateId g) -> std::string_view { return names_[g]; };
  }
  void check_unfrozen() const;
  void build_fanin_csr();
  void build_fanouts();
  void check_arities() const;
  void check_combinational_acyclic() const;

  std::string name_ = "circuit";
  bool frozen_ = false;

  // Gate storage: struct-of-arrays keyed by GateId.
  std::vector<GateType> types_;
  std::vector<std::string> names_;
  std::vector<std::uint8_t> is_output_;

  // Fanins: one flat (gate, fanin) list in connection order during
  // construction, sorted stably into CSR by freeze() so hot loops see
  // contiguous memory and each gate keeps its fanin order.
  struct Edge {
    GateId gate;
    GateId fanin;
  };
  std::vector<Edge> edges_;
  std::vector<std::uint32_t> fanin_off_;
  std::vector<GateId> fanin_flat_;

  // Fanouts (CSR), built by freeze().
  std::vector<std::uint32_t> fanout_off_;
  std::vector<GateId> fanout_flat_;

  std::vector<GateId> inputs_;
  std::vector<GateId> outputs_;
  std::vector<GateId> dffs_;

  // Name -> id over names_ (ids only; each name is stored once).
  util::NameIndex by_name_;
};

}  // namespace pls::circuit
