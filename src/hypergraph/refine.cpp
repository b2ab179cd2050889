#include "hypergraph/refine.hpp"

#include <algorithm>
#include <limits>

#include "hypergraph/metrics.hpp"
#include "multilevel/balance.hpp"
#include "util/check.hpp"

namespace pls::hypergraph {
namespace {

using partition::PartId;

constexpr std::int64_t kMaxExcursion = 64;  ///< negative-gain bail-out

struct BucketEntry {
  VertexId v;
  std::uint32_t stamp;  ///< stale if != stamp[v]
};

/// Gain buckets: one vector per possible gain value, offset by the maximum
/// weighted degree so indices are non-negative.  Entries are invalidated
/// lazily via per-vertex stamps; a popped entry whose gain went stale is
/// re-inserted at its fresh gain, so stale positions cost extra pops but
/// never a wrong move.
class GainBuckets {
 public:
  explicit GainBuckets(std::int64_t max_gain)
      : offset_(max_gain), buckets_(2 * max_gain + 1), top_(-1) {}

  void clear() {
    for (auto& b : buckets_) b.clear();
    top_ = -1;
  }

  void push(std::int64_t gain, BucketEntry entry) {
    const auto idx = static_cast<std::size_t>(
        std::clamp<std::int64_t>(gain + offset_, 0,
                                 static_cast<std::int64_t>(buckets_.size()) -
                                     1));
    buckets_[idx].push_back(entry);
    top_ = std::max(top_, static_cast<std::int64_t>(idx));
  }

  /// Pop the entry with the highest bucket gain; false when empty.
  bool pop(BucketEntry* out, std::int64_t* gain) {
    while (top_ >= 0) {
      auto& b = buckets_[static_cast<std::size_t>(top_)];
      if (b.empty()) {
        --top_;
        continue;
      }
      *out = b.back();
      b.pop_back();
      *gain = top_ - offset_;
      return true;
    }
    return false;
  }

 private:
  std::int64_t offset_;
  std::vector<std::vector<BucketEntry>> buckets_;
  std::int64_t top_;
};

/// The gain terms recomputed from Φ: conn[v·k+q] = Σ w(e) over nets e ∋ v
/// with Φ(e,q) > 0, freed[v] = Σ w(e) over nets e ∋ v with Φ(e,home) == 1.
/// Builds the cache once per refine_fm call and, in debug builds, checks
/// the incrementally maintained copy after every pass.
void compute_gain_terms(const Hypergraph& hg, const partition::Partition& p,
                        const std::vector<std::uint32_t>& phi,
                        std::vector<std::int64_t>& conn,
                        std::vector<std::int64_t>& freed) {
  const std::uint32_t k = p.k;
  conn.assign(hg.num_vertices() * k, 0);
  freed.assign(hg.num_vertices(), 0);
  std::vector<PartId> parts;
  for (NetId e = 0; e < hg.num_nets(); ++e) {
    const auto w = static_cast<std::int64_t>(hg.net_weight(e));
    if (w == 0) continue;
    const std::uint32_t* row = phi.data() + std::size_t{e} * k;
    parts.clear();
    for (PartId q = 0; q < k; ++q) {
      if (row[q] > 0) parts.push_back(q);
    }
    for (VertexId u : hg.pins(e)) {
      for (PartId q : parts) conn[std::size_t{u} * k + q] += w;
      if (row[p.assign[u]] == 1) freed[u] += w;
    }
  }
}

[[maybe_unused]] bool gain_cache_consistent(
    const Hypergraph& hg, const partition::Partition& p,
    const std::vector<std::uint32_t>& phi,
    const std::vector<std::int64_t>& conn,
    const std::vector<std::int64_t>& freed) {
  std::vector<std::int64_t> fresh_conn;
  std::vector<std::int64_t> fresh_freed;
  compute_gain_terms(hg, p, phi, fresh_conn, fresh_freed);
  return fresh_conn == conn && fresh_freed == freed;
}

}  // namespace

HgRefineResult refine_fm(const Hypergraph& hg, partition::Partition& p,
                         const HgRefineOptions& opt) {
  p.validate(hg.num_vertices());
  const std::size_t n = hg.num_vertices();
  const std::uint32_t k = p.k;

  HgRefineResult res;
  res.lambda_before = connectivity_minus_one(hg, p);
  res.lambda_after = res.lambda_before;
  if (k < 2 || n == 0) return res;

  // Φ(e,q): pins of net e in part q, stored flat.
  std::vector<std::uint32_t> phi(hg.num_nets() * k, 0);
  for (NetId e = 0; e < hg.num_nets(); ++e) {
    for (VertexId v : hg.pins(e)) ++phi[std::size_t{e} * k + p.assign[v]];
  }

  // Gain cache (see refine.hpp): conn and freed are kept exact by apply(),
  // degw is the constant weighted degree.
  std::vector<std::int64_t> conn;
  std::vector<std::int64_t> freed;
  compute_gain_terms(hg, p, phi, conn, freed);
  std::vector<std::int64_t> degw(n);
  std::int64_t max_degw = 1;
  for (VertexId v = 0; v < n; ++v) {
    degw[v] = static_cast<std::int64_t>(hg.weighted_degree(v));
    max_degw = std::max(max_degw, degw[v]);
  }

  std::vector<std::uint64_t> load(k, 0);
  for (VertexId v = 0; v < n; ++v) load[p.assign[v]] += hg.vertex_weight(v);
  const std::uint64_t limit =
      multilevel::balance_limit(hg.total_vertex_weight(), k, opt.balance_tol);

  // Best move of v under the λ−1 gain (balance checked at pop time): the
  // part q != home maximizing (gain, −load, −q), gain = freed − degw +
  // conn[v·k+q].  A part not adjacent to v has conn 0, so it wins only
  // when v is interior to home, as the least-loaded other part.  Never
  // returns home (k >= 2).
  auto best_move = [&](VertexId v) -> std::pair<std::int64_t, PartId> {
    const PartId home = p.assign[v];
    const std::int64_t base = freed[v] - degw[v];
    const std::int64_t* row = conn.data() + std::size_t{v} * k;
    PartId best_part = home;
    std::int64_t best_gain = 0;
    for (PartId q = 0; q < k; ++q) {
      if (q == home) continue;
      const std::int64_t gain = base + row[q];
      if (best_part == home || gain > best_gain ||
          (gain == best_gain && load[q] < load[best_part])) {
        best_gain = gain;
        best_part = q;
      }
    }
    return {best_gain, best_part};
  };

  GainBuckets buckets(max_degw);
  std::vector<std::uint32_t> stamp(n, 0);
  std::vector<std::uint8_t> locked(n, 0);

  struct Move {
    VertexId v;
    PartId from;
    PartId to;
  };

  // Move v and update the gain cache.  Only four Φ transitions change a
  // gain term: Φ(e,from) falling to 0 (from leaves every pin's conn) or
  // to 1 (the last pin left in from gains freed), Φ(e,to) rising to 1
  // (to enters every pin's conn) or to 2 (the pin that was alone in to
  // loses freed).  v's own freed is rebuilt against its new home.
  auto apply = [&](VertexId v, PartId from, PartId to) {
    std::int64_t v_freed = 0;
    for (NetId e : hg.nets(v)) {
      std::uint32_t* row = phi.data() + std::size_t{e} * k;
      const std::uint32_t a = --row[from];
      const std::uint32_t b = ++row[to];
      const auto w = static_cast<std::int64_t>(hg.net_weight(e));
      if (b == 1) v_freed += w;
      if (w == 0 || (a > 1 && b > 2)) continue;
      for (VertexId u : hg.pins(e)) {
        std::int64_t* cu = conn.data() + std::size_t{u} * k;
        if (a == 0) cu[from] -= w;
        if (b == 1) cu[to] += w;
        if (u == v) continue;
        if (a == 1 && p.assign[u] == from) freed[u] += w;
        if (b == 2 && p.assign[u] == to) freed[u] -= w;
      }
    }
    freed[v] = v_freed;
    p.assign[v] = to;
    load[from] -= hg.vertex_weight(v);
    load[to] += hg.vertex_weight(v);
  };

  // Refresh scratch: pins of the nets a move made critical, with
  // repeats, and the move that last saw each vertex.
  std::vector<VertexId> refresh;
  std::vector<std::uint32_t> seen(n, 0);
  std::uint32_t move_no = 0;

  for (std::uint32_t iter = 0; iter < opt.max_iters; ++iter) {
    ++res.iterations;

    buckets.clear();
    std::fill(locked.begin(), locked.end(), 0);
    for (VertexId v = 0; v < n; ++v) {
      buckets.push(best_move(v).first, {v, stamp[v]});
    }

    std::vector<Move> log;
    std::int64_t cum = 0;
    std::int64_t best_cum = 0;
    std::size_t best_prefix = 0;

    BucketEntry top;
    std::int64_t bucket_gain;
    while (log.size() < n && buckets.pop(&top, &bucket_gain)) {
      if (top.stamp != stamp[top.v] || locked[top.v]) continue;  // stale
      const auto [gain, target] = best_move(top.v);
      if (gain != bucket_gain) {  // re-queue at the fresh gain
        ++stamp[top.v];
        buckets.push(gain, {top.v, stamp[top.v]});
        continue;
      }
      if (load[target] + hg.vertex_weight(top.v) > limit) continue;

      const PartId from = p.assign[top.v];
      apply(top.v, from, target);
      locked[top.v] = 1;
      log.push_back({top.v, from, target});
      cum += gain;
      if (cum > best_cum) {
        best_cum = cum;
        best_prefix = log.size();
      }
      if (cum < best_cum - kMaxExcursion) break;

      // Refresh pins of nets the move made (or un-made) critical: gains
      // change only when Φ(e,from) fell to 0/1 or Φ(e,to) rose to 1/2.
      // A pin of several such nets is re-queued once, at the position of
      // its last occurrence: every re-queue in one refresh sees the same
      // gain and only the last one stays valid, so this keeps each
      // bucket's order of valid entries — and every tie-break — intact.
      refresh.clear();
      for (NetId e : hg.nets(top.v)) {
        const std::uint32_t* row = phi.data() + std::size_t{e} * k;
        if (row[from] > 1 && row[target] > 2) continue;
        for (VertexId u : hg.pins(e)) {
          if (!locked[u]) refresh.push_back(u);
        }
      }
      ++move_no;
      std::size_t keep = refresh.size();
      for (std::size_t i = refresh.size(); i-- > 0;) {
        const VertexId u = refresh[i];
        if (seen[u] == move_no) continue;
        seen[u] = move_no;
        refresh[--keep] = u;
      }
      for (std::size_t i = keep; i < refresh.size(); ++i) {
        const VertexId u = refresh[i];
        ++stamp[u];
        buckets.push(best_move(u).first, {u, stamp[u]});
      }
    }

    // Roll back to the best cumulative-gain prefix.
    for (std::size_t i = log.size(); i-- > best_prefix;) {
      apply(log[i].v, log[i].to, log[i].from);
    }
    res.moves += best_prefix;
    res.lambda_after -= static_cast<std::uint64_t>(best_cum);

    PLS_CHECK_MSG(res.lambda_after == connectivity_minus_one(hg, p),
                  "FM bookkeeping diverged from the λ−1 metric");
    PLS_DCHECK(gain_cache_consistent(hg, p, phi, conn, freed));
    if (best_cum == 0) break;  // pass found no improvement: converged
  }

  PLS_CHECK_MSG(res.lambda_after <= res.lambda_before,
                "hypergraph FM increased λ−1");
  return res;
}

}  // namespace pls::hypergraph
