#pragma once
// Time-series metrics: per-node gauges the kernel publishes from its main
// loop (relaxed atomics — cheap on the hot path, racy-read-safe for the
// sampler) and a background sampler thread that snapshots them on a fixed
// wall-clock interval into an in-memory series.
//
// The gauges are cumulative counters or current values; rates (committed
// events/s, rollback fraction over an interval) are derived by the
// exporters and tools from successive samples, so the hot path never does
// arithmetic for the benefit of observers.

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "util/stop_signal.hpp"

namespace pls::obs {

/// One node's live gauges.  The owning node thread stores, the sampler
/// loads; all relaxed — each value is independently coherent and a torn
/// *set* (values from slightly different loop iterations) is fine for a
/// time series.  Cache-line aligned so per-poll stores by different nodes
/// never contend on one line.
struct alignas(64) NodeGauges {
  std::atomic<std::uint64_t> events_processed{0};   ///< cumulative
  std::atomic<std::uint64_t> events_committed{0};   ///< cumulative
  std::atomic<std::uint64_t> events_rolled_back{0}; ///< cumulative
  std::atomic<std::uint64_t> rollbacks{0};          ///< cumulative
  std::atomic<std::uint64_t> window{0};             ///< current throttle window
  std::atomic<std::uint64_t> live_entries{0};       ///< current live events
  std::atomic<std::uint64_t> holding_events{0};     ///< modeled-network queue
  std::atomic<std::uint64_t> pool_bytes{0};         ///< arena slab bytes
  std::atomic<std::uint64_t> batches_sent{0};       ///< cumulative flushed
                                                    ///< batches (channel.hpp)
  std::atomic<std::uint64_t> batch_msgs_sent{0};    ///< cumulative messages
                                                    ///< inside them
};

/// One sampler tick: wall-clock offset, the global GVT, and every node's
/// gauge values at (approximately) that instant.
struct MetricsSample {
  std::uint64_t wall_ns = 0;  ///< since sampling started
  std::uint64_t gvt = 0;
  struct Node {
    std::uint64_t events_processed = 0;
    std::uint64_t events_committed = 0;
    std::uint64_t events_rolled_back = 0;
    std::uint64_t rollbacks = 0;
    std::uint64_t window = 0;
    std::uint64_t live_entries = 0;
    std::uint64_t holding_events = 0;
    std::uint64_t pool_bytes = 0;
    std::uint64_t batches_sent = 0;
    std::uint64_t batch_msgs_sent = 0;
  };
  std::vector<Node> nodes;
};

/// Background sampler.  start() spawns the thread, stop() joins it; the
/// collected series must only be read after stop() returned (or before
/// start()).  Bounded: sampling stops silently at max_samples so a runaway
/// run cannot exhaust memory through its own telemetry.
class MetricsSampler {
 public:
  MetricsSampler(const NodeGauges* gauges, std::uint32_t num_nodes,
                 const std::atomic<std::uint64_t>* gvt);
  ~MetricsSampler();  ///< stops the thread if still running

  MetricsSampler(const MetricsSampler&) = delete;
  MetricsSampler& operator=(const MetricsSampler&) = delete;

  /// Begin sampling every `interval_us` microseconds.  Idempotent per
  /// start/stop cycle; `interval_us` must be > 0.
  void start(std::uint64_t interval_us);
  /// Take one final sample, stop, and join the thread.  Idempotent.
  void stop();

  bool running() const noexcept {
    return thread_.joinable();
  }

  /// The collected series; only valid once the sampler is stopped.
  const std::vector<MetricsSample>& samples() const noexcept {
    return samples_;
  }
  /// Samples silently not taken because max_samples was reached.
  std::uint64_t truncated() const noexcept {
    return truncated_.load(std::memory_order_acquire);
  }

  static constexpr std::size_t kMaxSamples = 1u << 20;

 private:
  void sampler_main(std::uint64_t interval_us);
  void take_sample(std::uint64_t start_ns);

  const NodeGauges* gauges_;
  std::uint32_t num_nodes_;
  const std::atomic<std::uint64_t>* gvt_;

  std::vector<MetricsSample> samples_;
  std::atomic<std::uint64_t> truncated_{0};
  util::StopSignal stop_;  ///< wakes the sampler's nap on stop()
  std::thread thread_;
};

}  // namespace pls::obs
