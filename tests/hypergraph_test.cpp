// Tests for the hypergraph subsystem: CSR construction and pin-count
// invariants, the λ−1 ≡ comm_volume equivalence, metric inequalities, the
// coarsening hierarchy, FM refinement (against a from-scratch reference
// FM), and the MultilevelHG partitioner (against pinned assignment hashes).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>

#include "circuit/generator.hpp"
#include "framework/registry.hpp"
#include "hypergraph/coarsen.hpp"
#include "hypergraph/initial.hpp"
#include "hypergraph/metrics.hpp"
#include "hypergraph/multilevel_hg_partitioner.hpp"
#include "hypergraph/refine.hpp"
#include "multilevel/balance.hpp"
#include "partition/metrics.hpp"
#include "partition/multilevel_partitioner.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace pls::hypergraph {
namespace {

circuit::Circuit test_circuit(std::size_t gates = 1200,
                              std::uint64_t seed = 31) {
  circuit::GeneratorSpec spec;
  spec.num_comb_gates = gates;
  spec.num_inputs = 32;
  spec.num_outputs = 16;
  spec.num_dffs = gates / 16;
  spec.seed = seed;
  return circuit::generate(spec);
}

partition::Partition random_partition(std::size_t n, std::uint32_t k,
                                      std::uint64_t seed) {
  util::Rng rng(seed);
  partition::Partition p;
  p.k = k;
  p.assign.resize(n);
  for (auto& a : p.assign) {
    a = static_cast<partition::PartId>(rng.below(k));
  }
  return p;
}

// ----- construction ----------------------------------------------------

TEST(Hypergraph, FromCircuitPinCountInvariants) {
  const auto c = test_circuit();
  const Hypergraph hg = Hypergraph::from_circuit(c);

  EXPECT_EQ(hg.num_vertices(), c.size());
  // One net per gate with >=1 distinct non-self fanout; never more nets
  // than gates.
  EXPECT_LE(hg.num_nets(), c.size());
  EXPECT_GT(hg.num_nets(), 0u);

  std::size_t pin_total = 0;
  for (NetId e = 0; e < hg.num_nets(); ++e) {
    const auto pins = hg.pins(e);
    // Every net has >=2 pins (driver + at least one sink), sorted and
    // duplicate-free, all in range.
    EXPECT_GE(pins.size(), 2u);
    EXPECT_TRUE(std::is_sorted(pins.begin(), pins.end()));
    EXPECT_TRUE(std::adjacent_find(pins.begin(), pins.end()) == pins.end());
    for (VertexId v : pins) EXPECT_LT(v, hg.num_vertices());
    pin_total += pins.size();
  }
  EXPECT_EQ(pin_total, hg.num_pins());

  // The vertex→net incidence is the exact transpose of net→pins.
  std::size_t incidence_total = 0;
  for (VertexId v = 0; v < hg.num_vertices(); ++v) {
    for (NetId e : hg.nets(v)) {
      const auto pins = hg.pins(e);
      EXPECT_TRUE(std::binary_search(pins.begin(), pins.end(), v));
    }
    incidence_total += hg.nets(v).size();
  }
  EXPECT_EQ(incidence_total, hg.num_pins());

  // Unit gate weights.
  EXPECT_EQ(hg.total_vertex_weight(), c.size());
}

TEST(Hypergraph, ExplicitConstructorMergesAndDrops) {
  // Net {0,0,1} has a duplicate pin; net {2} is single-pin and dropped.
  const Hypergraph hg({1, 1, 1}, {{0, 0, 1}, {2}, {1, 2}}, {5, 7, 9});
  EXPECT_EQ(hg.num_nets(), 2u);
  EXPECT_EQ(hg.pins(0).size(), 2u);
  EXPECT_EQ(hg.net_weight(0), 5u);
  EXPECT_EQ(hg.net_weight(1), 9u);
  EXPECT_EQ(hg.weighted_degree(1), 14u);  // nets 0 and 1
}

TEST(Hypergraph, CsrConstructorMatchesNetListConstructor) {
  const Hypergraph a({1, 2, 3, 4}, {{0, 1}, {1, 2, 3}, {0, 3}}, {5, 0, 7});
  const Hypergraph b({1, 2, 3, 4}, {0, 2, 5, 7}, {0, 1, 1, 2, 3, 0, 3},
                     {5, 0, 7});
  ASSERT_EQ(b.num_nets(), a.num_nets());
  EXPECT_EQ(b.num_pins(), a.num_pins());
  EXPECT_EQ(b.total_vertex_weight(), a.total_vertex_weight());
  for (NetId e = 0; e < a.num_nets(); ++e) {
    EXPECT_TRUE(std::ranges::equal(a.pins(e), b.pins(e)));
    EXPECT_EQ(a.net_weight(e), b.net_weight(e));
  }
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    EXPECT_TRUE(std::ranges::equal(a.nets(v), b.nets(v)));
  }
}

TEST(Hypergraph, CsrConstructorRejectsMalformedNets) {
  // Unsorted pins, a duplicate pin, a single-pin net, a pin out of range,
  // offsets that do not frame the pin array, a missing net weight.
  EXPECT_THROW(Hypergraph({1, 1, 1}, {0, 2}, {1, 0}, {1}), util::CheckError);
  EXPECT_THROW(Hypergraph({1, 1, 1}, {0, 2}, {1, 1}, {1}), util::CheckError);
  EXPECT_THROW(Hypergraph({1, 1, 1}, {0, 1}, {1}, {1}), util::CheckError);
  EXPECT_THROW(Hypergraph({1, 1, 1}, {0, 2}, {0, 3}, {1}), util::CheckError);
  EXPECT_THROW(Hypergraph({1, 1, 1}, {0, 2}, {0, 1, 2}, {1}),
               util::CheckError);
  EXPECT_THROW(Hypergraph({1, 1, 1}, {0, 2}, {0, 1}, {}), util::CheckError);
}

// ----- metrics ---------------------------------------------------------

TEST(HgMetrics, LambdaMinusOneEqualsCommVolume) {
  // The driver gate is a pin of its own fanout net, so λ(e)−1 counts
  // exactly the foreign parts the driver messages: the hypergraph λ−1
  // must equal partition::comm_volume for ANY partition.
  for (std::uint64_t cseed : {31ULL, 77ULL}) {
    const auto c = test_circuit(800, cseed);
    const Hypergraph hg = Hypergraph::from_circuit(c);
    for (std::uint32_t k : {2u, 3u, 8u}) {
      for (std::uint64_t pseed = 0; pseed < 4; ++pseed) {
        const auto p = random_partition(c.size(), k, pseed);
        EXPECT_EQ(connectivity_minus_one(hg, p),
                  partition::comm_volume(c, p))
            << "cseed=" << cseed << " k=" << k << " pseed=" << pseed;
      }
    }
  }
}

TEST(HgMetrics, LambdaMinusOneEqualsCommVolumeForAllStrategies) {
  const auto c = test_circuit(600, 5);
  const Hypergraph hg = Hypergraph::from_circuit(c);
  for (const auto& name : framework::partitioner_names()) {
    const auto p = framework::make_partitioner(name)->run(c, 4, 9);
    EXPECT_EQ(connectivity_minus_one(hg, p), partition::comm_volume(c, p))
        << name;
  }
}

TEST(HgMetrics, CutNetLambdaSandwich) {
  // For every partition: cut_net <= λ−1 <= (k−1)·cut_net.
  const auto c = test_circuit(700, 13);
  const Hypergraph hg = Hypergraph::from_circuit(c);
  for (std::uint32_t k : {2u, 4u, 8u}) {
    for (std::uint64_t pseed = 0; pseed < 4; ++pseed) {
      const auto p = random_partition(c.size(), k, pseed);
      const auto cn = cut_net(hg, p);
      const auto lm = connectivity_minus_one(hg, p);
      EXPECT_LE(cn, lm);
      EXPECT_LE(lm, static_cast<std::uint64_t>(k - 1) * cn);
    }
  }
}

TEST(HgMetrics, SinglePartIsUncut) {
  const auto c = test_circuit(300, 2);
  const Hypergraph hg = Hypergraph::from_circuit(c);
  partition::Partition p;
  p.k = 1;
  p.assign.assign(c.size(), 0);
  EXPECT_EQ(cut_net(hg, p), 0u);
  EXPECT_EQ(connectivity_minus_one(hg, p), 0u);
  EXPECT_DOUBLE_EQ(imbalance(hg, p), 1.0);
}

TEST(HgMetrics, InvalidPartitionRejected) {
  const auto c = test_circuit(300, 2);
  const Hypergraph hg = Hypergraph::from_circuit(c);
  partition::Partition bad;
  bad.k = 2;
  bad.assign.assign(c.size(), 5);  // part out of range
  EXPECT_THROW(cut_net(hg, bad), util::CheckError);
  EXPECT_THROW(connectivity_minus_one(hg, bad), util::CheckError);
}

// ----- coarsening ------------------------------------------------------

TEST(HgCoarsen, HierarchyInvariantsHold) {
  const auto c = test_circuit();
  HgCoarsenOptions opt;
  opt.threshold = 64;
  opt.seed = 3;
  opt.max_globule_weight = c.size() / 8;
  const HgHierarchy h = coarsen(c, opt);
  ASSERT_GE(h.levels.size(), 2u);
  check_hg_hierarchy_invariants(h);
  // Strictly shrinking levels, down to (or near) the threshold.
  std::size_t prev = h.base.num_vertices();
  for (const auto& lvl : h.levels) {
    EXPECT_LT(lvl.hg.num_vertices(), prev);
    prev = lvl.hg.num_vertices();
  }
}

TEST(HgCoarsen, GlobuleWeightCapRespected) {
  const auto c = test_circuit(2000, 7);
  HgCoarsenOptions opt;
  opt.threshold = 32;
  opt.max_globule_weight = 40;
  const HgHierarchy h = coarsen(c, opt);
  for (const auto& lvl : h.levels) {
    for (VertexId v = 0; v < lvl.hg.num_vertices(); ++v) {
      EXPECT_LE(lvl.hg.vertex_weight(v), 40u);
    }
  }
}

// ----- refinement ------------------------------------------------------

TEST(HgRefine, NeverIncreasesLambdaAndRespectsBalance) {
  const auto c = test_circuit(900, 11);
  const Hypergraph hg = Hypergraph::from_circuit(c);
  for (std::uint32_t k : {2u, 4u, 8u}) {
    auto p = random_partition(c.size(), k, 17);
    const auto before = connectivity_minus_one(hg, p);
    HgRefineOptions opt;
    opt.balance_tol = 0.05;
    const HgRefineResult r = refine_fm(hg, p, opt);
    EXPECT_EQ(r.lambda_before, before);
    EXPECT_EQ(r.lambda_after, connectivity_minus_one(hg, p));
    EXPECT_LE(r.lambda_after, r.lambda_before);
    // Random partitions are far from optimal: FM must find real gains.
    EXPECT_LT(r.lambda_after, before);
    EXPECT_LE(imbalance(hg, p), 1.06);
  }
}

// ----- FM oracle -------------------------------------------------------
//
// A from-scratch reference FM: the gain of every evaluated move is rebuilt
// from all of the vertex's nets (O(deg·λ) per evaluation), and after each
// move every pin of every critical net is re-evaluated and re-queued once
// per occurrence.  refine_fm caches the gain terms and re-queues each pin
// once; it must still make exactly the same moves.

struct RefEntry {
  VertexId v;
  std::uint32_t stamp;
};

class RefBuckets {
 public:
  explicit RefBuckets(std::int64_t max_gain)
      : offset_(max_gain), buckets_(2 * max_gain + 1), top_(-1) {}
  void clear() {
    for (auto& b : buckets_) b.clear();
    top_ = -1;
  }
  void push(std::int64_t gain, RefEntry entry) {
    const auto idx = static_cast<std::size_t>(std::clamp<std::int64_t>(
        gain + offset_, 0, static_cast<std::int64_t>(buckets_.size()) - 1));
    buckets_[idx].push_back(entry);
    top_ = std::max(top_, static_cast<std::int64_t>(idx));
  }
  bool pop(RefEntry* out, std::int64_t* gain) {
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
  std::vector<std::vector<RefEntry>> buckets_;
  std::int64_t top_;
};

HgRefineResult reference_refine_fm(const Hypergraph& hg,
                                   partition::Partition& p,
                                   const HgRefineOptions& opt) {
  using partition::PartId;
  const std::size_t n = hg.num_vertices();
  const std::uint32_t k = p.k;
  HgRefineResult res;
  res.lambda_before = connectivity_minus_one(hg, p);
  res.lambda_after = res.lambda_before;
  if (k < 2 || n == 0) return res;

  // Φ(e,q) plus, per net, the list of parts it touches.
  std::vector<std::uint32_t> phi(hg.num_nets() * k, 0);
  std::vector<std::vector<PartId>> net_parts(hg.num_nets());
  for (NetId e = 0; e < hg.num_nets(); ++e) {
    for (VertexId v : hg.pins(e)) {
      if (phi[std::size_t{e} * k + p.assign[v]]++ == 0) {
        net_parts[e].push_back(p.assign[v]);
      }
    }
  }
  std::vector<std::uint64_t> load(k, 0);
  for (VertexId v = 0; v < n; ++v) load[p.assign[v]] += hg.vertex_weight(v);
  const std::uint64_t limit =
      multilevel::balance_limit(hg.total_vertex_weight(), k, opt.balance_tol);

  // The two least-loaded parts, lowest id on ties.
  PartId min_load_1 = 0;
  PartId min_load_2 = 0;
  auto recompute_min_loads = [&] {
    min_load_1 = 0;
    for (PartId q = 1; q < k; ++q) {
      if (load[q] < load[min_load_1]) min_load_1 = q;
    }
    min_load_2 = min_load_1 == 0 ? 1 : 0;
    for (PartId q = 0; q < k; ++q) {
      if (q != min_load_1 && load[q] < load[min_load_2]) min_load_2 = q;
    }
  };
  recompute_min_loads();

  // Gain rebuilt from every net of v; adjacent parts from the net part
  // lists, the least-loaded other part as the fallback target.
  std::vector<std::uint64_t> present(k, 0);
  std::vector<PartId> touched;
  auto best_move = [&](VertexId v) -> std::pair<std::int64_t, PartId> {
    const PartId home = p.assign[v];
    std::int64_t freed = 0;
    std::int64_t degw = 0;
    for (NetId e : hg.nets(v)) {
      const auto w = static_cast<std::int64_t>(hg.net_weight(e));
      if (w == 0) continue;
      degw += w;
      if (phi[std::size_t{e} * k + home] == 1) freed += w;
      for (PartId q : net_parts[e]) {
        if (q == home) continue;
        if (present[q] == 0) touched.push_back(q);
        present[q] += static_cast<std::uint64_t>(w);
      }
    }
    std::int64_t best_gain = freed - degw;
    PartId best_part = min_load_1 != home ? min_load_1 : min_load_2;
    for (PartId q : touched) {
      const std::int64_t gain =
          freed - degw + static_cast<std::int64_t>(present[q]);
      if (gain > best_gain ||
          (gain == best_gain && (load[q] < load[best_part] ||
                                 (load[q] == load[best_part] &&
                                  q < best_part)))) {
        best_gain = gain;
        best_part = q;
      }
      present[q] = 0;
    }
    touched.clear();
    return {best_gain, best_part};
  };

  std::int64_t max_degw = 1;
  for (VertexId v = 0; v < n; ++v) {
    max_degw = std::max(max_degw,
                        static_cast<std::int64_t>(hg.weighted_degree(v)));
  }
  RefBuckets buckets(max_degw);
  std::vector<std::uint32_t> stamp(n, 0);
  std::vector<std::uint8_t> locked(n, 0);
  struct Move {
    VertexId v;
    PartId from;
    PartId to;
  };
  auto apply = [&](VertexId v, PartId from, PartId to) {
    for (NetId e : hg.nets(v)) {
      auto& np = net_parts[e];
      if (--phi[std::size_t{e} * k + from] == 0) {
        np.erase(std::find(np.begin(), np.end(), from));
      }
      if (phi[std::size_t{e} * k + to]++ == 0) np.push_back(to);
    }
    p.assign[v] = to;
    load[from] -= hg.vertex_weight(v);
    load[to] += hg.vertex_weight(v);
    recompute_min_loads();
  };

  for (std::uint32_t iter = 0; iter < opt.max_iters; ++iter) {
    ++res.iterations;
    buckets.clear();
    std::fill(locked.begin(), locked.end(), 0);
    for (VertexId v = 0; v < n; ++v) {
      const auto [gain, part] = best_move(v);
      if (part != p.assign[v]) buckets.push(gain, {v, stamp[v]});
    }
    std::vector<Move> log;
    std::int64_t cum = 0;
    std::int64_t best_cum = 0;
    std::size_t best_prefix = 0;
    RefEntry top;
    std::int64_t bucket_gain;
    while (log.size() < n && buckets.pop(&top, &bucket_gain)) {
      if (top.stamp != stamp[top.v] || locked[top.v]) continue;
      const auto [gain, target] = best_move(top.v);
      if (gain != bucket_gain) {
        ++stamp[top.v];
        buckets.push(gain, {top.v, stamp[top.v]});
        continue;
      }
      if (target == p.assign[top.v]) continue;
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
      if (cum < best_cum - 64) break;
      // Every pin of every critical net, once per occurrence.
      for (NetId e : hg.nets(top.v)) {
        const std::uint32_t* row = phi.data() + std::size_t{e} * k;
        if (row[from] > 1 && row[target] > 2) continue;
        for (VertexId u : hg.pins(e)) {
          if (locked[u] || u == top.v) continue;
          ++stamp[u];
          const auto [ngain, npart] = best_move(u);
          if (npart != p.assign[u]) buckets.push(ngain, {u, stamp[u]});
        }
      }
    }
    for (std::size_t i = log.size(); i-- > best_prefix;) {
      apply(log[i].v, log[i].to, log[i].from);
    }
    res.moves += best_prefix;
    res.lambda_after -= static_cast<std::uint64_t>(best_cum);
    if (best_cum == 0) break;
  }
  return res;
}

/// Random hypergraph with uneven vertex weights, mostly small nets, a few
/// wide ones, duplicate pins, and about a quarter zero-weight nets.
Hypergraph random_hypergraph(std::uint64_t seed) {
  util::Rng rng(seed);
  const std::size_t n = 20 + rng.below(300);
  std::vector<std::uint32_t> vweight(n);
  for (auto& w : vweight) w = 1 + static_cast<std::uint32_t>(rng.below(3));
  const std::size_t m = n + rng.below(2 * n);
  std::vector<std::vector<VertexId>> nets(m);
  std::vector<std::uint32_t> nweight(m);
  for (std::size_t e = 0; e < m; ++e) {
    const std::size_t size = rng.below(10) == 0 ? 8 + rng.below(24)
                                                : 2 + rng.below(4);
    for (std::size_t i = 0; i < size; ++i) {
      nets[e].push_back(static_cast<VertexId>(rng.below(n)));
    }
    nweight[e] =
        rng.below(4) == 0 ? 0 : 1 + static_cast<std::uint32_t>(rng.below(5));
  }
  return Hypergraph(std::move(vweight), nets, nweight);
}

TEST(HgRefine, MatchesReferenceFmExactly) {
  std::uint64_t case_seed = 1;
  for (std::uint32_t k : {2u, 3u, 4u, 5u, 7u, 8u, 11u, 16u}) {
    for (double tol : {0.0, 0.03, 0.10, 0.50}) {
      for (int rep = 0; rep < 3; ++rep, ++case_seed) {
        const Hypergraph hg = random_hypergraph(case_seed);
        const auto start =
            random_partition(hg.num_vertices(), k, case_seed * 7919);
        HgRefineOptions opt;
        opt.balance_tol = tol;
        opt.max_iters = rep == 2 ? 2 : 8;
        auto p = start;
        auto ref_p = start;
        const HgRefineResult r = refine_fm(hg, p, opt);
        const HgRefineResult ref = reference_refine_fm(hg, ref_p, opt);
        const std::string where = "k=" + std::to_string(k) +
                                  " tol=" + std::to_string(tol) +
                                  " seed=" + std::to_string(case_seed);
        ASSERT_EQ(p.assign, ref_p.assign) << where;
        EXPECT_EQ(r.moves, ref.moves) << where;
        EXPECT_EQ(r.iterations, ref.iterations) << where;
        EXPECT_EQ(r.lambda_before, ref.lambda_before) << where;
        EXPECT_EQ(r.lambda_after, ref.lambda_after) << where;
      }
    }
  }
}

// ----- the full partitioner --------------------------------------------

TEST(MultilevelHG, ValidBalancedPartition) {
  const auto c = test_circuit();
  const auto p = MultilevelHGPartitioner().run(c, 8, 1);
  p.validate(c.size());
  EXPECT_LE(partition::imbalance(c, p), 1.04);
  for (auto l : p.loads()) EXPECT_GT(l, 0u);
}

TEST(MultilevelHG, DeterministicBySeed) {
  const auto c = test_circuit();
  EXPECT_EQ(MultilevelHGPartitioner().run(c, 4, 9).assign,
            MultilevelHGPartitioner().run(c, 4, 9).assign);
  EXPECT_NE(MultilevelHGPartitioner().run(c, 4, 9).assign,
            MultilevelHGPartitioner().run(c, 4, 10).assign);
}

TEST(MultilevelHG, TraceShowsThreePhases) {
  const auto c = test_circuit();
  MultilevelHGTrace trace;
  const auto p = MultilevelHGPartitioner().run_traced(c, 4, 1, &trace);
  p.validate(c.size());
  ASSERT_GE(trace.level_sizes.size(), 1u);
  for (std::size_t i = 1; i < trace.level_sizes.size(); ++i) {
    EXPECT_LT(trace.level_sizes[i], trace.level_sizes[i - 1]);
  }
  EXPECT_EQ(trace.quality_after_level.size(), trace.level_sizes.size() + 1);
  EXPECT_EQ(trace.final_quality, trace.quality_after_level.back());
  EXPECT_LE(trace.quality_after_level.front(), trace.initial_quality);
}

TEST(MultilevelHG, TinyCircuitBelowThreshold) {
  circuit::GeneratorSpec spec;
  spec.num_comb_gates = 30;
  spec.num_inputs = 4;
  spec.num_outputs = 2;
  spec.num_dffs = 2;
  const auto c = circuit::generate(spec);
  const auto p = MultilevelHGPartitioner().run(c, 2, 1);
  p.validate(c.size());
}

TEST(MultilevelHG, BeatsGraphMultilevelOnLambda) {
  // The PR's acceptance criterion: on a >=10k-gate circuit at k=8 and
  // equal imbalance tolerance, optimizing λ−1 directly must reach a λ−1
  // volume no worse than the graph pipeline's (empirically ~2x better;
  // asserted with headroom so legal seed-to-seed variation can't flake).
  const auto c = circuit::make_iscas_like("s15850", 2000);
  ASSERT_GE(c.size(), 10000u);
  const Hypergraph hg = Hypergraph::from_circuit(c);
  const auto graph_p = partition::MultilevelPartitioner().run(c, 8, 1);
  const auto hg_p = MultilevelHGPartitioner().run(c, 8, 1);
  // Both pipelines run at the same default 3% tolerance.
  EXPECT_LE(partition::imbalance(c, hg_p), 1.04);
  EXPECT_LE(partition::imbalance(c, graph_p), 1.04);
  EXPECT_LE(connectivity_minus_one(hg, hg_p),
            connectivity_minus_one(hg, graph_p));
}

/// FNV-1a over the part ids, one step per vertex.
std::uint64_t assignment_hash(const partition::Partition& p) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto a : p.assign) {
    h ^= a;
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(MultilevelHG, GoldenAssignmentHashes) {
  // MultilevelHG output pinned on the canonical stand-ins: any change to
  // the coarsener, the initial partitioner or FM that moves a single
  // vertex shows up here and must be a deliberate re-pin.
  struct Golden {
    std::string_view circuit;
    std::uint32_t k;
    std::uint64_t seed;
    std::uint64_t hash;
  };
  constexpr Golden kGolden[] = {
      {"s5378", 2, 1, 0x9b9cb6448e33a8e6ULL},
      {"s5378", 2, 7, 0xccfde8a152e50a16ULL},
      {"s5378", 3, 1, 0xe3df3999371fc1efULL},
      {"s5378", 3, 7, 0x7e3cec28a9fc3f8fULL},
      {"s5378", 4, 1, 0xd1d5457d6630091fULL},
      {"s5378", 4, 7, 0xca19c94c619e2644ULL},
      {"s5378", 8, 1, 0x87db0bb3567264f7ULL},
      {"s5378", 8, 7, 0x09294aa39175bcd0ULL},
      {"s9234", 2, 1, 0x1c79f68f2827b935ULL},
      {"s9234", 2, 7, 0x88d5a1bfd36d507fULL},
      {"s9234", 3, 1, 0x2f3f1358a140ddcfULL},
      {"s9234", 3, 7, 0x91f0c0fbcd46e810ULL},
      {"s9234", 4, 1, 0xaafd3fca63e778b3ULL},
      {"s9234", 4, 7, 0xa6d7d4bc41c54b32ULL},
      {"s9234", 8, 1, 0x28d0f80dcd5bae55ULL},
      {"s9234", 8, 7, 0x69493d429cafaef3ULL},
      {"s15850", 2, 1, 0x9ba086f1a89afe2dULL},
      {"s15850", 2, 7, 0x5dc36f7d2dd34d9eULL},
      {"s15850", 3, 1, 0xe327cc0222499e13ULL},
      {"s15850", 3, 7, 0x99c2ed5207c37d90ULL},
      {"s15850", 3, 2000, 0x1305a075e0f846a3ULL},
      {"s15850", 4, 1, 0x23451ea6d8d1d72cULL},
      {"s15850", 4, 7, 0x6c6101de459ef10cULL},
      {"s15850", 8, 1, 0xcc43ae758f435978ULL},
      {"s15850", 8, 7, 0x5a701f17e9738396ULL},
  };
  std::string_view built;
  circuit::Circuit c;
  for (const Golden& g : kGolden) {
    if (g.circuit != built) {
      c = circuit::make_iscas_like(g.circuit, 2000);
      built = g.circuit;
    }
    EXPECT_EQ(assignment_hash(MultilevelHGPartitioner().run(c, g.k, g.seed)),
              g.hash)
        << g.circuit << " k=" << g.k << " seed=" << g.seed;
  }
}

TEST(MultilevelHG, RegisteredInFrameworkRegistry) {
  const auto& names = framework::partitioner_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "MultilevelHG"),
            names.end());
  const auto p = framework::make_partitioner("MultilevelHG");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->name(), "MultilevelHG");
}

}  // namespace
}  // namespace pls::hypergraph
