#include "scalar_reference.hpp"

#include <memory>
#include <vector>

#include "logicsim/gate_eval.hpp"

namespace pls::testref {
namespace {

using warped::Context;
using warped::EventBatch;
using warped::kTickPort;
using warped::LpId;
using warped::LpState;
using warped::SimTime;

struct Port {
  LpId target;
  std::uint32_t port;
};

/// Send a new output bit to every fanout after `delay`, within the horizon.
void emit_bit(Context& ctx, const std::vector<Port>& fanouts, SimTime delay,
              bool v) {
  const SimTime at = ctx.now() + delay;
  if (at > ctx.end_time()) return;
  for (const Port& f : fanouts) ctx.send(f.target, at, f.port, v ? 1 : 0);
}

class RefGate final : public warped::LogicalProcess {
 public:
  RefGate(circuit::GateType type, unsigned arity, std::vector<Port> fanouts,
          SimTime delay)
      : type_(type), arity_(arity), fanouts_(std::move(fanouts)),
        delay_(delay) {}

  void init(Context& ctx) override { ctx.schedule_self(0); }  // power-on

  void execute(Context& ctx, EventBatch batch) override {
    LpState& s = ctx.state();
    for (const auto& ev : batch) {
      if (ev.port == kTickPort) continue;
      const std::uint64_t bit = std::uint64_t{1} << ev.port;
      if (ev.value & 1) s.a |= bit;
      else s.a &= ~bit;
    }
    const bool out = logicsim::eval_gate(type_, s.a, arity_);
    if (out == (s.b != 0)) return;
    s.b = out ? 1 : 0;
    emit_bit(ctx, fanouts_, delay_, out);
  }

 private:
  circuit::GateType type_;
  unsigned arity_;
  std::vector<Port> fanouts_;
  SimTime delay_;
};

/// Clock-suppressed flip-flop: ticks exist at the first edge (phase) and
/// at the first edge after each D change that arrived without a tick;
/// every tick samples D.
class RefDff final : public warped::LogicalProcess {
 public:
  RefDff(std::vector<Port> fanouts, SimTime period, SimTime phase,
         SimTime delay)
      : fanouts_(std::move(fanouts)), period_(period), phase_(phase),
        delay_(delay) {}

  void init(Context& ctx) override {
    if (phase_ <= ctx.end_time()) ctx.schedule_self(phase_);
  }

  void execute(Context& ctx, EventBatch batch) override {
    LpState& s = ctx.state();
    bool tick = false;
    bool d_changed = false;
    for (const auto& ev : batch) {
      if (ev.port == kTickPort) {
        tick = true;
      } else {
        s.a = ev.value & 1;
        d_changed = true;
      }
    }
    if (!tick) {
      if (!d_changed) return;
      // First edge strictly after now.
      const SimTime t = ctx.now() + 1;
      const SimTime edge =
          t <= phase_ ? phase_
                      : phase_ + (t - phase_ + period_ - 1) / period_ * period_;
      if (edge <= ctx.end_time()) ctx.schedule_self(edge);
      return;
    }
    if (s.a == s.b) return;
    s.b = s.a;
    emit_bit(ctx, fanouts_, delay_, s.b != 0);
  }

 private:
  std::vector<Port> fanouts_;
  SimTime period_;
  SimTime phase_;
  SimTime delay_;
};

class RefInput final : public warped::LogicalProcess {
 public:
  RefInput(std::vector<Port> fanouts, SimTime period, SimTime delay,
           std::uint64_t seed, SimTime drift_at, bool hot_first)
      : fanouts_(std::move(fanouts)), period_(period), delay_(delay),
        seed_(seed), drift_at_(drift_at), hot_first_(hot_first) {}

  void init(Context& ctx) override { ctx.schedule_self(0); }

  void execute(Context& ctx, EventBatch batch) override {
    bool tick = false;
    for (const auto& ev : batch) tick |= ev.port == kTickPort;
    if (!tick) return;
    // Vector index: now / period while hot; while cold (drifting stimulus)
    // the index at the hot/cold boundary, frozen.
    std::uint64_t n = ctx.now() / period_;
    if (drift_at_ != 0) {
      const bool before = ctx.now() < drift_at_;
      if (hot_first_ && !before) n = drift_at_ / period_;
      if (!hot_first_ && before) n = 0;
    }
    const bool v = logicsim::InputLp::vector_bit(seed_, ctx.self(), n);
    LpState& s = ctx.state();
    if (v != (s.b != 0)) {
      s.b = v ? 1 : 0;
      emit_bit(ctx, fanouts_, delay_, v);
    }
    const SimTime next = ctx.now() + period_;
    if (next <= ctx.end_time()) ctx.schedule_self(next);
  }

 private:
  std::vector<Port> fanouts_;
  SimTime period_;
  SimTime delay_;
  std::uint64_t seed_;
  SimTime drift_at_;
  bool hot_first_;
};

}  // namespace

logicsim::SeqStats run_scalar_reference(const circuit::Circuit& c,
                                        const logicsim::ModelOptions& opt,
                                        SimTime end_time) {
  // Port of a driver at each fanout = its index in the target's fanins.
  std::vector<std::vector<Port>> fanouts(c.size());
  std::size_t num_inputs = 0;
  for (circuit::GateId g = 0; g < c.size(); ++g) {
    const auto fins = c.fanins(g);
    for (std::uint32_t p = 0; p < fins.size(); ++p) {
      fanouts[fins[p]].push_back(Port{static_cast<LpId>(g), p});
    }
    num_inputs += c.type(g) == circuit::GateType::kInput;
  }

  std::vector<std::unique_ptr<warped::LogicalProcess>> lps;
  std::size_t ordinal = 0;  // the first half of the inputs is hot first
  for (circuit::GateId g = 0; g < c.size(); ++g) {
    switch (c.type(g)) {
      case circuit::GateType::kInput:
        lps.push_back(std::make_unique<RefInput>(
            std::move(fanouts[g]), opt.stim_period, opt.gate_delay,
            opt.stim_seed, opt.stim_drift_at,
            ordinal++ < (num_inputs + 1) / 2));
        break;
      case circuit::GateType::kDff:
        lps.push_back(std::make_unique<RefDff>(
            std::move(fanouts[g]), opt.clock_period, opt.clock_phase,
            opt.dff_delay));
        break;
      default:
        lps.push_back(std::make_unique<RefGate>(
            c.type(g), static_cast<unsigned>(c.fanins(g).size()),
            std::move(fanouts[g]), opt.gate_delay));
        break;
    }
  }
  std::vector<warped::LogicalProcess*> raw;
  for (const auto& lp : lps) raw.push_back(lp.get());
  return logicsim::simulate_sequential(raw, end_time);
}

}  // namespace pls::testref
