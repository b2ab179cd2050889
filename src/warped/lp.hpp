#pragma once
// LogicalProcess: the behavioural interface of a Time Warp LP.
//
// Behaviour objects are *stateless*: all mutable simulation state lives in
// the kernel-owned LpState, which the kernel snapshots and restores around
// rollbacks.  The same behaviour objects therefore run unchanged on the
// optimistic parallel kernel and on the sequential reference simulator —
// mirroring how TYVIS-generated processes ran on both WARPED and a
// sequential kernel in the paper's framework (§4).

#include <span>

#include "warped/types.hpp"

namespace pls::warped {

/// Services an LP may use while executing a batch of events.  Implemented
/// by the parallel kernel (with output logging for cancellation) and by the
/// sequential simulator (direct enqueue).
class Context {
 public:
  virtual ~Context() = default;

  /// Virtual time of the batch being executed.
  virtual SimTime now() const = 0;

  /// Simulation horizon: LPs must not schedule events beyond this.
  virtual SimTime end_time() const = 0;

  /// The executing LP's id.
  virtual LpId self() const = 0;

  /// Mutable LP state (snapshotted by the kernel around this call).
  virtual LpState& state() = 0;

  /// Send `value` to `target`'s input `port`, arriving at `recv_time`
  /// (must be strictly greater than now(): nonzero lookahead keeps the
  /// simulation free of zero-delay cycles).  `mask` flags the lanes whose
  /// value changed (see Event): LPs pass the change word and must not
  /// call send() with mask == 0; self-scheduled ticks keep the default 1.
  virtual void send(LpId target, SimTime recv_time, std::uint32_t port,
                    std::uint64_t value, std::uint64_t mask = 1) = 0;

  /// Multi-word send (lanes > 64): `values[0..k)` are the payload words
  /// and `masks[0..k)` the per-word change masks; at least one mask word
  /// must be non-zero.  k == 1 is exactly send().  Contexts that host
  /// multi-word models override this; the default forwards single words
  /// and rejects wider payloads.
  virtual void send_wide(LpId target, SimTime recv_time, std::uint32_t port,
                         const std::uint64_t* values,
                         const std::uint64_t* masks, std::uint32_t k) {
    if (k == 1) {
      send(target, recv_time, port, values[0], masks[0]);
      return;
    }
    on_unsupported_wide_send();
  }

  /// Schedule a tick to self at `recv_time` (> now()).
  void schedule_self(SimTime recv_time, std::uint64_t value = 0) {
    send(self(), recv_time, kTickPort, value);
  }

 protected:
  /// [[noreturn]] check failure for contexts without wide-send support.
  static void on_unsupported_wide_send();
};

/// An event batch: all positive events for one LP sharing one receive time.
/// Batch-at-a-time execution makes gate evaluation order-independent (each
/// port has a single driver, so a batch holds at most one event per port),
/// which is what guarantees parallel ≡ sequential results.
using EventBatch = std::span<const Event>;

class LogicalProcess {
 public:
  virtual ~LogicalProcess() = default;

  /// Starting state (installed before init()).
  virtual LpState initial_state() const { return LpState{}; }

  /// Called once at virtual time 0 before any event; may schedule events.
  virtual void init(Context& ctx) = 0;

  /// Process all events at one virtual time.  Must be deterministic given
  /// (state, batch content) — it may be re-executed after rollbacks.
  virtual void execute(Context& ctx, EventBatch batch) = 0;
};

}  // namespace pls::warped
