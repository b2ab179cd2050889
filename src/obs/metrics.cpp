#include "obs/metrics.hpp"

#include <chrono>

#include "util/check.hpp"
#include "util/timer.hpp"

namespace pls::obs {

MetricsSampler::MetricsSampler(const NodeGauges* gauges,
                               std::uint32_t num_nodes,
                               const std::atomic<std::uint64_t>* gvt)
    : gauges_(gauges), num_nodes_(num_nodes), gvt_(gvt) {
  PLS_CHECK(gauges_ != nullptr && gvt_ != nullptr && num_nodes_ >= 1);
}

MetricsSampler::~MetricsSampler() { stop(); }

void MetricsSampler::start(std::uint64_t interval_us) {
  PLS_CHECK_MSG(interval_us > 0, "metrics sampler interval must be > 0");
  PLS_CHECK_MSG(!thread_.joinable(), "metrics sampler already running");
  stop_.reset();
  thread_ = std::thread([this, interval_us] { sampler_main(interval_us); });
}

void MetricsSampler::stop() {
  if (!thread_.joinable()) return;
  stop_.request();
  thread_.join();
}

void MetricsSampler::take_sample(std::uint64_t start_ns) {
  if (samples_.size() >= kMaxSamples) {
    truncated_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  MetricsSample s;
  s.wall_ns = util::steady_now_ns() - start_ns;
  s.gvt = gvt_->load(std::memory_order_relaxed);
  s.nodes.resize(num_nodes_);
  for (std::uint32_t n = 0; n < num_nodes_; ++n) {
    const NodeGauges& g = gauges_[n];
    MetricsSample::Node& out = s.nodes[n];
    out.events_processed = g.events_processed.load(std::memory_order_relaxed);
    out.events_committed = g.events_committed.load(std::memory_order_relaxed);
    out.events_rolled_back =
        g.events_rolled_back.load(std::memory_order_relaxed);
    out.rollbacks = g.rollbacks.load(std::memory_order_relaxed);
    out.window = g.window.load(std::memory_order_relaxed);
    out.live_entries = g.live_entries.load(std::memory_order_relaxed);
    out.holding_events = g.holding_events.load(std::memory_order_relaxed);
    out.pool_bytes = g.pool_bytes.load(std::memory_order_relaxed);
    out.batches_sent = g.batches_sent.load(std::memory_order_relaxed);
    out.batch_msgs_sent = g.batch_msgs_sent.load(std::memory_order_relaxed);
  }
  samples_.push_back(std::move(s));
}

void MetricsSampler::sampler_main(std::uint64_t interval_us) {
  const std::uint64_t start_ns = util::steady_now_ns();
  const std::uint64_t interval_ns = interval_us * 1000;
  std::uint64_t next_ns = start_ns;  // first sample immediately
  while (!stop_.requested()) {
    const std::uint64_t now = util::steady_now_ns();
    if (now >= next_ns) {
      take_sample(start_ns);
      // Fixed cadence relative to the start, skipping missed ticks (a
      // preempted sampler must not burst-sample to catch up).
      do { next_ns += interval_ns; } while (next_ns <= now);
    }
    // stop() wakes this nap, so it may span the whole interval.
    const std::uint64_t now2 = util::steady_now_ns();
    if (next_ns > now2 &&
        stop_.wait_for(std::chrono::nanoseconds(next_ns - now2))) {
      break;
    }
  }
  // Final sample so the series always covers the end of the run.
  take_sample(start_ns);
}

}  // namespace pls::obs
