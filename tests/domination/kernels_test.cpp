// Property tests for the word-packed coverage/deficiency kernels
// (domination/kernels.h): bitwise equality with the scalar references in
// domination.h across every topology family the fuzzer generates, at every
// membership density that matters (empty, singleton, sparse → the scatter
// kernel, dense → the gather kernel, full), in both coverage modes, and at
// word-boundary sizes. DESIGN.md §11.
#include "domination/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "domination/domination.h"
#include "graph/generators.h"
#include "testing/generators.h"
#include "util/rng.h"

namespace ftc::domination {
namespace {

using graph::Graph;
using graph::NodeId;

TEST(MembershipBits, SetClearTestCount) {
  MembershipBits bits;
  bits.reset(130);
  EXPECT_EQ(bits.n(), 130);
  EXPECT_EQ(bits.count(), 0);
  for (NodeId v : {0, 63, 64, 65, 127, 128, 129}) {
    EXPECT_FALSE(bits.test(v));
    bits.set(v);
    EXPECT_TRUE(bits.test(v));
  }
  EXPECT_EQ(bits.count(), 7);
  bits.clear(64);
  EXPECT_FALSE(bits.test(64));
  EXPECT_EQ(bits.count(), 6);
  bits.reset(130);
  EXPECT_EQ(bits.count(), 0);
}

TEST(MembershipBits, AssignFromBitmapAndList) {
  std::vector<std::uint8_t> bitmap(70, 0);
  bitmap[0] = bitmap[63] = bitmap[64] = bitmap[69] = 1;
  MembershipBits a;
  a.assign(bitmap);
  MembershipBits b;
  const std::vector<NodeId> list{0, 63, 64, 69};
  b.assign(70, list);
  for (NodeId v = 0; v < 70; ++v) {
    EXPECT_EQ(a.test(v), b.test(v)) << "v=" << v;
  }
  EXPECT_EQ(a.count(), 4);
  EXPECT_EQ(b.count(), 4);
}

/// Memberships of increasing density: exercises both the scatter (sparse)
/// and gather (dense) kernel paths plus the edges of the density switch.
std::vector<std::vector<std::uint8_t>> membership_ladder(NodeId n,
                                                         std::uint64_t seed) {
  std::vector<std::vector<std::uint8_t>> out;
  out.emplace_back(n, 0);                   // empty
  auto single = std::vector<std::uint8_t>(n, 0);
  single[static_cast<std::size_t>(n / 2)] = 1;
  out.push_back(std::move(single));
  std::uint64_t state = seed;
  auto sparse = std::vector<std::uint8_t>(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    sparse[static_cast<std::size_t>(v)] =
        (util::splitmix64(state) % 16 == 0) ? 1 : 0;
  }
  out.push_back(std::move(sparse));
  auto dense = std::vector<std::uint8_t>(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    dense[static_cast<std::size_t>(v)] =
        static_cast<std::uint8_t>(util::splitmix64(state) & 1);
  }
  out.push_back(std::move(dense));
  out.emplace_back(n, 1);                   // full
  return out;
}

/// Asserts every packed kernel agrees exactly with the scalar reference on
/// one (graph, membership) pair.
void expect_kernels_match(const Graph& g,
                          const std::vector<std::uint8_t>& members,
                          const Demands& demands, CoverageScratch& scratch) {
  const auto ref_cover = closed_coverage_counts(g, members);
  MembershipBits bits;
  bits.assign(members);
  std::vector<std::int32_t> packed(static_cast<std::size_t>(g.n()), -1);
  closed_coverage_counts(g, bits, packed);
  ASSERT_EQ(ref_cover, packed);

  const auto set = to_node_list(members);
  for (const Mode mode : {Mode::kClosedNeighborhood, Mode::kOpenForNonMembers}) {
    std::int64_t ref_def = 0;
    for (NodeId v = 0; v < g.n(); ++v) {
      const auto i = static_cast<std::size_t>(v);
      if (mode == Mode::kOpenForNonMembers && members[i]) continue;
      ref_def += std::max<std::int32_t>(0, demands[i] - ref_cover[i]);
    }
    EXPECT_EQ(deficiency(g, bits, demands, mode), ref_def);
    EXPECT_EQ(deficiency(g, set, demands, mode, scratch), ref_def);
    EXPECT_EQ(is_k_dominating(g, set, demands, mode, scratch), ref_def == 0);
    EXPECT_EQ(deficiency(g, set, demands, mode), ref_def);  // allocating path
  }
}

TEST(PackedKernels, EqualScalarAcrossAllFamilies) {
  CoverageScratch scratch;
  for (std::int32_t f = 0; f < testing::kGraphFamilyCount; ++f) {
    testing::FuzzCase c;
    c.case_seed = 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(f);
    c.family = static_cast<testing::GraphFamily>(f);
    c.n = 48;
    c.p = 0.15;
    c.aux = 3;
    c.avg_degree = 6.0;
    c.graph_seed = 7 + static_cast<std::uint64_t>(f);
    c.k = 2;
    const testing::Instance inst = testing::materialize(c);
    const Graph& g = inst.graph();
    SCOPED_TRACE(testing::family_name(c.family));
    for (const auto& members : membership_ladder(g.n(), c.case_seed)) {
      expect_kernels_match(g, members, inst.demands, scratch);
    }
  }
}

TEST(PackedKernels, WordBoundarySizes) {
  CoverageScratch scratch;
  for (const NodeId n : {1, 2, 63, 64, 65, 127, 128, 129, 192}) {
    // cycle() needs n >= 3; the two smaller sizes use the path instead.
    const Graph g = n >= 3 ? graph::cycle(n) : graph::path(n);
    const Demands demands = uniform_demands(n, 2);
    SCOPED_TRACE(n);
    for (const auto& members :
         membership_ladder(n, 0xC0FFEEULL + static_cast<std::uint64_t>(n))) {
      expect_kernels_match(g, members, demands, scratch);
    }
  }
}

TEST(PackedKernels, ScratchReuseAcrossShrinkingInstances) {
  // A scratch sized by a big instance must stay correct on smaller ones
  // (reset() keeps capacity; logical size must still be exact).
  CoverageScratch scratch;
  util::Rng rng(11);
  const Graph big = graph::gnp(200, 0.05, rng);
  const Demands big_d = uniform_demands(200, 2);
  std::vector<NodeId> all;
  for (NodeId v = 0; v < big.n(); ++v) all.push_back(v);
  EXPECT_EQ(deficiency(big, all, big_d, Mode::kClosedNeighborhood, scratch), 0);

  const Graph small = graph::star(9);
  const std::vector<NodeId> center{0};
  EXPECT_TRUE(is_k_dominating(small, center, uniform_demands(9, 1),
                              Mode::kClosedNeighborhood, scratch));
  EXPECT_FALSE(is_k_dominating(small, center, uniform_demands(9, 2),
                               Mode::kClosedNeighborhood, scratch));
}

TEST(PackedKernels, EmptyGraph) {
  const Graph g = graph::empty(5);
  const Demands demands = uniform_demands(5, 1);
  CoverageScratch scratch;
  const std::vector<NodeId> none;
  EXPECT_EQ(deficiency(g, none, demands, Mode::kClosedNeighborhood, scratch),
            5);
  std::vector<NodeId> all{0, 1, 2, 3, 4};
  EXPECT_EQ(deficiency(g, all, demands, Mode::kClosedNeighborhood, scratch), 0);
  EXPECT_EQ(deficiency(g, all, demands, Mode::kOpenForNonMembers, scratch), 0);
}

}  // namespace
}  // namespace ftc::domination
