#include "logicsim/sequential.hpp"

#include <algorithm>
#include <bit>
#include <queue>
#include <utility>

#include "util/check.hpp"
#include "util/timer.hpp"

namespace pls::logicsim {
namespace {

using warped::Event;
using warped::kEndOfTime;
using warped::LpId;
using warped::LpState;
using warped::SimTime;

/// Per-LP event list: sorted vector with a processed-prefix cursor and
/// amortized compaction (no fossil collection here — everything commits
/// immediately).
struct SeqLp {
  std::vector<Event> queue;
  std::size_t head = 0;
  std::uint64_t next_id = 1;

  bool has_pending() const noexcept { return head < queue.size(); }
  SimTime next_time() const noexcept {
    return has_pending() ? queue[head].recv_time : kEndOfTime;
  }
  void insert(Event&& ev) {
    auto pos = std::lower_bound(queue.begin() + static_cast<std::ptrdiff_t>(head),
                                queue.end(), ev);
    queue.insert(pos, std::move(ev));
  }
  void compact() {
    if (head > 4096 && head * 2 > queue.size()) {
      queue.erase(queue.begin(), queue.begin() + static_cast<std::ptrdiff_t>(head));
      head = 0;
    }
  }
};

struct SchedEntry {
  SimTime time;
  LpId lp;
  friend bool operator>(const SchedEntry& a, const SchedEntry& b) noexcept {
    if (a.time != b.time) return a.time > b.time;
    return a.lp > b.lp;
  }
};

class SeqContext final : public warped::Context {
 public:
  SeqContext(SimTime end, std::vector<SeqLp>* lps,
             std::vector<LpState>* states,
             std::priority_queue<SchedEntry, std::vector<SchedEntry>,
                                 std::greater<>>* sched,
             std::vector<std::uint64_t>* sends)
      : end_(end), lps_(lps), states_(states), sched_(sched),
        sends_(sends) {}

  void set_current(SimTime now, LpId self, bool init_mode) {
    now_ = now;
    self_ = self;
    init_mode_ = init_mode;
  }

  SimTime now() const override { return now_; }
  SimTime end_time() const override { return end_; }
  LpId self() const override { return self_; }
  LpState& state() override { return (*states_)[self_]; }

  void send(LpId target, SimTime recv_time, std::uint32_t port,
            std::uint64_t value, std::uint64_t mask) override {
    PLS_CHECK_MSG(init_mode_ ? recv_time >= now_ : recv_time > now_,
                  "sequential send not after now");
    Event ev;
    ev.recv_time = recv_time;
    ev.target = target;
    ev.sender = self_;
    ev.port = port;
    ev.value = value;
    ev.mask = mask;
    ev.id = (*lps_)[self_].next_id++;
    (*lps_)[target].insert(std::move(ev));
    sched_->push(SchedEntry{recv_time, target});
    // Self-sends are scheduling ticks (DFF clocks, stimulus timers), not
    // net traffic — counting them would mark every clocked LP "hot"
    // regardless of whether its output ever toggles.  Batched events weigh
    // popcount(mask) lane transitions, matching the Time Warp kernel's
    // committed-send accounting (scalar mask = 1 keeps the old count).
    if (target != self_) (*sends_)[self_] += std::popcount(mask);
  }

  void send_wide(LpId target, SimTime recv_time, std::uint32_t port,
                 const std::uint64_t* values, const std::uint64_t* masks,
                 std::uint32_t k) override {
    if (k == 1) {
      send(target, recv_time, port, values[0], masks[0]);
      return;
    }
    PLS_CHECK_MSG(init_mode_ ? recv_time >= now_ : recv_time > now_,
                  "sequential send not after now");
    Event ev;
    ev.recv_time = recv_time;
    ev.target = target;
    ev.sender = self_;
    ev.port = port;
    ev.widen(k);
    for (std::uint32_t w = 0; w < k; ++w) {
      ev.set_value_word(w, values[w]);
      ev.set_mask_word(w, masks[w]);
    }
    ev.id = (*lps_)[self_].next_id++;
    (*lps_)[target].insert(std::move(ev));
    sched_->push(SchedEntry{recv_time, target});
    if (target != self_) {
      for (std::uint32_t w = 0; w < k; ++w) {
        (*sends_)[self_] += std::popcount(masks[w]);
      }
    }
  }

 private:
  SimTime now_ = 0;
  SimTime end_;
  LpId self_ = 0;
  bool init_mode_ = false;
  std::vector<SeqLp>* lps_;
  std::vector<LpState>* states_;
  std::priority_queue<SchedEntry, std::vector<SchedEntry>, std::greater<>>*
      sched_;
  std::vector<std::uint64_t>* sends_;
};

}  // namespace

SeqStats simulate_sequential(const std::vector<warped::LogicalProcess*>& lps,
                             warped::SimTime end_time,
                             std::uint64_t event_cost_ns) {
  PLS_CHECK(!lps.empty());
  util::WallTimer timer;

  std::vector<SeqLp> queues(lps.size());
  std::vector<LpState> states(lps.size());
  std::priority_queue<SchedEntry, std::vector<SchedEntry>, std::greater<>>
      sched;

  SeqStats out;
  out.per_lp_events.assign(lps.size(), 0);
  out.per_lp_lane_work.assign(lps.size(), 0);
  out.per_lp_sends.assign(lps.size(), 0);

  SeqContext ctx(end_time, &queues, &states, &sched, &out.per_lp_sends);
  for (LpId i = 0; i < lps.size(); ++i) {
    states[i] = lps[i]->initial_state();
  }
  for (LpId i = 0; i < lps.size(); ++i) {
    ctx.set_current(0, i, /*init_mode=*/true);
    lps[i]->init(ctx);
  }

  std::vector<Event> batch;
  while (!sched.empty()) {
    const SchedEntry top = sched.top();
    sched.pop();
    SeqLp& q = queues[top.lp];
    if (q.next_time() != top.time) continue;  // stale entry

    const SimTime t = top.time;
    batch.clear();
    while (q.has_pending() && q.queue[q.head].recv_time == t) {
      out.per_lp_lane_work[top.lp] += q.queue[q.head].mask_popcount();
      batch.push_back(q.queue[q.head]);
      ++q.head;
    }
    ctx.set_current(t, top.lp, /*init_mode=*/false);
    lps[top.lp]->execute(ctx, batch);
    if (event_cost_ns > 0) util::busy_spin_ns(event_cost_ns);

    out.events_processed += batch.size();
    out.per_lp_events[top.lp] += batch.size();
    q.compact();
    if (q.has_pending()) sched.push(SchedEntry{q.next_time(), top.lp});
  }

  out.wall_seconds = timer.elapsed_seconds();
  out.final_states = std::move(states);
  return out;
}

}  // namespace pls::logicsim
