#include "warped/lp_runtime.hpp"

#include <algorithm>
#include <utility>

#include "mem/pool.hpp"
#include "util/check.hpp"

namespace pls::warped {

LpRuntime::LpRuntime(LpId id, LogicalProcess* behavior,
                     std::uint32_t state_period)
    : id_(id), behavior_(behavior), state_period_(state_period) {
  PLS_CHECK_MSG(state_period >= 1, "state saving period must be >= 1");
}

void LpRuntime::install_initial_state(const LpState& s) {
  PLS_CHECK_MSG(!processed_any_ && snapshots_.empty(),
                "initial state must be installed before execution");
  initial_state_ = s;
  state_ = s;
}

std::size_t LpRuntime::first_at_or_after(SimTime t) const {
  // Compare on receive time only: rollback/fossil boundaries are pure
  // times, and all full-ordering tie fields share recv_time.  Index is
  // relative to the head cursor (live range only — the retired prefix is
  // committed history no boundary can reach).
  auto begin = queue_.begin() + static_cast<std::ptrdiff_t>(head_);
  auto it = std::lower_bound(
      begin, queue_.end(), t,
      [](const Event& e, SimTime time) { return e.recv_time < time; });
  return static_cast<std::size_t>(it - begin);
}

void LpRuntime::maybe_compact() {
  // Amortized O(1): compaction moves the live range once per >= equal
  // run of retired events.
  if (head_ >= 64 && head_ * 2 >= queue_.size()) compact();
}

void LpRuntime::compact() {
  if (head_ == 0) return;
  queue_.erase(queue_.begin(),
               queue_.begin() + static_cast<std::ptrdiff_t>(head_));
  head_ = 0;
}

void LpRuntime::rollback(SimTime to_time, InsertResult& res) {
  PLS_CHECK_MSG(to_time > 0,
                "rollback to time 0 would cancel init-phase sends");
  res.rolled_back = true;
  res.rollback_time = to_time;

  // Discarded snapshots release their pooled words as one batched run.
  // (Cancelled outputs hold no payload: they are SentRecords.)
  mem::ReclaimScope reclaim;

  // 1. Restore the latest snapshot strictly before to_time.  With periodic
  // state saving the snapshot may be several batches back; the batches in
  // (snapshot, to_time) stay processed-pending and will be *replayed* with
  // sends suppressed (their original outputs survive step 3).
  auto snap = std::lower_bound(
      snapshots_.begin(), snapshots_.end(), to_time,
      [](const Snapshot& s, SimTime time) { return s.time < time; });
  std::size_t new_processed = 0;
  if (snap == snapshots_.begin()) {
    // Once anything committed, a fossil pass has retained a base snapshot
    // at or below GVT, and no legal rollback targets below GVT — so
    // falling back to the initial state here would silently re-derive
    // history whose inputs were already fossil-erased (the signature of a
    // GVT-safety violation, e.g. a migration cancelling below a
    // concurrently published estimate).
    PLS_CHECK_MSG(events_committed_ == 0,
                  "rollback past the fossil base (LP " << id_ << " to time "
                  << to_time << " with " << events_committed_
                  << " events committed): GVT safety violated");
    state_ = initial_state_;
    last_processed_ = 0;
    processed_any_ = false;
    new_processed = 0;
  } else {
    const Snapshot& base = *std::prev(snap);
    state_ = base.state;
    last_processed_ = base.time;
    processed_any_ = true;
    new_processed = first_at_or_after(base.time + 1);
  }
  snapshots_.erase(snap, snapshots_.end());
  batches_since_snapshot_ = 0;

  // 2. Un-process everything after the restored snapshot.
  PLS_CHECK(new_processed <= processed_count_);
  const std::uint64_t undone = processed_count_ - new_processed;
  res.unprocessed_events += undone;
  events_rolled_back_ += undone;
  ++rollbacks_;
  max_rollback_depth_ = std::max(max_rollback_depth_, undone);
  processed_count_ = new_processed;

  // 3. Aggressive cancellation: anti-messages for every output sent at or
  // after to_time, rebuilt from the records.  Outputs in (snapshot,
  // to_time) remain valid — that is exactly why their batches replay
  // muted.
  auto out = std::lower_bound(
      output_queue_.begin(), output_queue_.end(), to_time,
      [](const SentRecord& r, SimTime time) { return r.send_time < time; });
  for (auto it = out; it != output_queue_.end(); ++it) {
    res.antis.push_back(it->anti(id_));
  }
  output_queue_.erase(out, output_queue_.end());

  replay_until_ = to_time;
}

LpRuntime::InsertResult LpRuntime::insert(Event ev) {
  PLS_CHECK(ev.target == id_);
  InsertResult res;

  if (ev.sign == Sign::kNegative) {
    // Annihilate the positive twin.
    const std::size_t from = first_at_or_after(ev.recv_time);
    for (std::size_t i = from; head_ + i < queue_.size(); ++i) {
      const Event& cand = queue_[head_ + i];
      if (cand.recv_time != ev.recv_time) break;
      if (cand.sign == Sign::kPositive && cand.matches(ev)) {
        if (i < processed_count_ || ev.recv_time < replay_until_) {
          // The twin's effects are visible (executed, or baked into
          // still-valid outputs of the replay window): secondary rollback
          // to its time, then annihilate from the pending suffix.
          res.secondary = true;
          rollback(ev.recv_time, res);
        }
        const std::size_t j = first_at_or_after(ev.recv_time);
        for (std::size_t p = j; head_ + p < queue_.size(); ++p) {
          if (queue_[head_ + p].recv_time != ev.recv_time) break;
          if (queue_[head_ + p].matches(ev)) {
            queue_.erase(queue_.begin() +
                         static_cast<std::ptrdiff_t>(head_ + p));
            return res;
          }
        }
        PLS_CHECK_MSG(false, "positive twin vanished during annihilation");
      }
    }
    // Twin not here yet: the anti overtook its positive.  Impossible over
    // plain FIFO channels, but real under migration (a forwarded anti can
    // beat the twin riding inside the migration package); park it.
    pending_antis_.push_back(std::move(ev));
    return res;
  }

  // Positive event.  A waiting anti annihilates it on arrival.
  for (std::size_t i = 0; i < pending_antis_.size(); ++i) {
    if (pending_antis_[i].matches(ev)) {
      pending_antis_.erase(pending_antis_.begin() +
                           static_cast<std::ptrdiff_t>(i));
      return res;
    }
  }

  // Straggler? Any event at or before the last processed batch — or below
  // the replay boundary, where outputs already reflect a history without
  // this event — forces a rollback.  Equal time counts: that batch is
  // complete and must re-execute including the newcomer.
  if ((processed_any_ && ev.recv_time <= last_processed_) ||
      ev.recv_time < replay_until_) {
    rollback(ev.recv_time, res);
  }

  // Fast path: events arriving in queue order append in O(1).  This is
  // the steady state of the committed path (a gate's inputs arrive in
  // time order), and it skips the lower_bound entirely.
  if (queue_.empty() || queue_.back() < ev) {
    queue_.push_back(std::move(ev));
    return res;
  }
  const std::size_t at = head_ + [&] {
    auto begin = queue_.begin() + static_cast<std::ptrdiff_t>(head_);
    return static_cast<std::size_t>(
        std::lower_bound(begin, queue_.end(), ev) - begin);
  }();
  PLS_CHECK_MSG(at - head_ >= processed_count_,
                "event insertion inside the processed prefix after rollback");
  queue_.insert(queue_.begin() + static_cast<std::ptrdiff_t>(at),
                std::move(ev));
  return res;
}

EventBatch LpRuntime::begin_batch(SimTime& batch_time) const {
  PLS_CHECK_MSG(has_unprocessed(), "begin_batch with empty pending queue");
  const std::size_t first = head_ + processed_count_;
  const SimTime t = queue_[first].recv_time;
  std::size_t last = first;
  while (last + 1 < queue_.size() && queue_[last + 1].recv_time == t) {
    ++last;
  }
  batch_time = t;
  return {queue_.data() + first, last - first + 1};
}

void LpRuntime::commit_batch(SimTime batch_time, std::size_t batch_size) {
  PLS_CHECK(batch_size > 0);
  PLS_CHECK(head_ + processed_count_ + batch_size <= queue_.size());
  PLS_CHECK_MSG(!processed_any_ || batch_time > last_processed_,
                "batches must commit in increasing time order");
  processed_count_ += batch_size;
  last_processed_ = batch_time;
  processed_any_ = true;
  events_processed_ += batch_size;
  if (++batches_since_snapshot_ >= state_period_) {
    snapshots_.push_back(Snapshot{batch_time, state_});
    batches_since_snapshot_ = 0;
  }
}

void LpRuntime::record_output(const Event& ev, SimTime send_time) {
  PLS_CHECK(ev.sign == Sign::kPositive && ev.sender == id_);
  PLS_CHECK_MSG(output_queue_.empty() ||
                    output_queue_.back().send_time <= send_time,
                "output queue must grow in send-time order");
  output_queue_.push_back(
      SentRecord{send_time, ev.recv_time, ev.target,
                 static_cast<std::uint32_t>(ev.mask_popcount()), ev.id});
}

LpRuntime::FossilResult LpRuntime::fossil_collect(SimTime gvt) {
  FossilResult res;
  if (gvt == 0) return res;
  // Idle LP — nothing processed left to commit, no snapshot to drop, no
  // output or waiting anti to age out: return before touching any queue.
  // Every GVT round sweeps every LP, and most of them are idle, so this
  // check (on the runtime object alone) saves a cold snapshot search and
  // a reclaim scope per idle LP per round.
  if (processed_count_ == 0 && snapshots_.size() <= 1 &&
      output_queue_.empty() && pending_antis_.empty()) {
    return res;
  }

  // Everything this sweep discards — retired event payloads and
  // cancelled snapshots — flows back to its owner pool as one batched
  // reclaim run.
  mem::ReclaimScope reclaim;

  // The newest snapshot strictly below GVT is the restore base for every
  // reachable rollback (targets are always >= GVT).  Events at or below
  // the base's time can never be replayed again: commit and discard them.
  // Without any snapshot below GVT the base is the initial state and
  // nothing can be discarded yet.
  auto snap = std::lower_bound(
      snapshots_.begin(), snapshots_.end(), gvt,
      [](const Snapshot& s, SimTime time) { return s.time < time; });
  if (snap != snapshots_.begin()) {
    const Snapshot& base = *std::prev(snap);
    const std::size_t cut = first_at_or_after(base.time + 1);
    PLS_CHECK_MSG(cut <= processed_count_,
                  "fossil cut crosses unprocessed events (GVT too high)");
    res.committed_events = cut;
    events_committed_ += cut;
    // Lane-aware work signal: committed incoming lane transitions.
    for (std::size_t i = 0; i < cut; ++i) {
      lane_work_committed_ += queue_[head_ + i].mask_popcount();
    }
    // Retire (don't erase): the head cursor advances in O(1); compaction
    // is amortized against the events retired.
    head_ += cut;
    processed_count_ -= cut;
    snapshots_.erase(snapshots_.begin(), std::prev(snap));
    maybe_compact();
  }

  // Outputs below GVT can never be cancelled (cancellation boundaries are
  // >= GVT); the non-self ones are this LP's committed sends (self-sends
  // are scheduling ticks, mirroring SeqStats::per_lp_sends).
  auto out = std::lower_bound(
      output_queue_.begin(), output_queue_.end(), gvt,
      [](const SentRecord& r, SimTime time) { return r.send_time < time; });
  for (auto it = output_queue_.begin(); it != out; ++it) {
    // Transition-weighted: a batched event carries popcount lane
    // transitions per mask word; scalar events keep mask = 1 and count as
    // before.
    if (it->target != id_) sends_committed_ += it->lanes;
  }
  output_queue_.erase(output_queue_.begin(), out);

  // A waiting anti below GVT can never meet its positive twin any more (no
  // message below GVT is in flight); drop it so the defence-in-depth list
  // stays bounded over long runs.
  std::erase_if(pending_antis_,
                [gvt](const Event& e) { return e.recv_time < gvt; });
  return res;
}

LpRuntime::InsertResult LpRuntime::cancel_uncommitted(SimTime bound) {
  InsertResult res;
  // Only a rollback can cancel outputs; if the LP never processed a batch
  // at or past `bound` there is nothing speculative to cancel — any
  // remaining replay window's outputs predate `bound` and stay valid.
  if (processed_any_ && last_processed_ >= bound) rollback(bound, res);
  return res;
}

void LpRuntime::export_migration(MigrationMsg& msg) {
  compact();  // drop retired history; the package ships live events only
  msg.lp = id_;
  msg.state = state_;
  msg.initial_state = initial_state_;
  msg.last_processed = last_processed_;
  msg.processed_any = processed_any_;
  msg.replay_until = replay_until_;
  msg.processed_count = processed_count_;
  msg.batches_since_snapshot = batches_since_snapshot_;
  msg.queue = std::move(queue_);
  msg.snapshots = std::move(snapshots_);
  msg.output_queue = std::move(output_queue_);
  msg.pending_antis = std::move(pending_antis_);
  msg.next_event_id = next_event_id_;
  msg.events_processed = events_processed_;
  msg.events_rolled_back = events_rolled_back_;
  msg.rollbacks = rollbacks_;
  msg.max_rollback_depth = max_rollback_depth_;
  msg.events_committed = events_committed_;
  msg.sends_committed = sends_committed_;
  msg.lane_work_committed = lane_work_committed_;
  // Leave the husk inert: an empty queue makes next_time()/gvt_min_time()
  // report kEndOfTime and has_unprocessed() false.  The counters remain so
  // an abnormal exit (package never installed) still reads committed work.
  queue_.clear();
  head_ = 0;
  processed_count_ = 0;
  snapshots_.clear();
  output_queue_.clear();
  pending_antis_.clear();
}

void LpRuntime::import_migration(MigrationMsg&& msg) {
  PLS_CHECK_MSG(msg.lp == id_, "migration package installed on wrong LP");
  PLS_CHECK_MSG(queue_.empty() && !has_unprocessed(),
                "migration package installed on a live LP");
  state_ = msg.state;
  initial_state_ = msg.initial_state;
  last_processed_ = msg.last_processed;
  processed_any_ = msg.processed_any;
  replay_until_ = msg.replay_until;
  head_ = 0;
  processed_count_ = msg.processed_count;
  batches_since_snapshot_ = msg.batches_since_snapshot;
  queue_ = std::move(msg.queue);
  snapshots_ = std::move(msg.snapshots);
  output_queue_ = std::move(msg.output_queue);
  pending_antis_ = std::move(msg.pending_antis);
  next_event_id_ = msg.next_event_id;
  events_processed_ = msg.events_processed;
  events_rolled_back_ = msg.events_rolled_back;
  rollbacks_ = msg.rollbacks;
  max_rollback_depth_ = msg.max_rollback_depth;
  events_committed_ = msg.events_committed;
  sends_committed_ = msg.sends_committed;
  lane_work_committed_ = msg.lane_work_committed;
}

std::uint64_t LpRuntime::finalize() {
  mem::ReclaimScope reclaim;
  const auto committed = static_cast<std::uint64_t>(processed_count_);
  events_committed_ += committed;
  for (std::size_t i = 0; i < processed_count_; ++i) {
    lane_work_committed_ += queue_[head_ + i].mask_popcount();
  }
  // Nothing can be cancelled after termination: the outputs that survived
  // the last fossil pass are committed sends too (non-self, as above).
  for (const SentRecord& rec : output_queue_) {
    if (rec.target != id_) sends_committed_ += rec.lanes;
  }
  output_queue_.clear();
  queue_.erase(queue_.begin(),
               queue_.begin() +
                   static_cast<std::ptrdiff_t>(head_ + processed_count_));
  head_ = 0;
  processed_count_ = 0;
  return committed;
}

}  // namespace pls::warped
