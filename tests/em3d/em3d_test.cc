/**
 * @file
 * Tests of the EM3D application (§8): graph construction invariants
 * and layout goldens, identical numerical results across all six
 * versions, the 0.37 us/edge all-local target, and the Figure 9
 * performance ordering.
 */

#include <bit>
#include <cmath>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "em3d/em3d.hh"
#include "machine/machine.hh"

namespace
{

using namespace t3dsim;
using em3d::Config;
using em3d::Graph;
using em3d::Version;

Config
smallConfig(double remote)
{
    Config cfg;
    cfg.nodesPerPe = 40;
    cfg.degree = 5;
    cfg.remoteFraction = remote;
    cfg.iterations = 1;
    return cfg;
}

/** FNV-1a (64-bit) over a stream of 64-bit words, byte by byte. */
class Fnv
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int b = 0; b < 8; ++b) {
            _h ^= (v >> (8 * b)) & 0xff;
            _h *= 0x100000001b3ull;
        }
    }

    void
    addIdxs(const std::vector<std::uint32_t> &idxs)
    {
        add(idxs.size());
        for (std::uint32_t i : idxs)
            add(i);
    }

    std::uint64_t value() const { return _h; }

  private:
    std::uint64_t _h = 0xcbf29ce484222325ull;
};

/** One hash over every field of @p g, in storage order. */
std::uint64_t
layoutHash(const Graph &g)
{
    Fnv h;
    h.add(g.pes);
    for (Addr base : {g.eValsBase, g.hValsBase, g.eGhostBase,
                      g.hGhostBase, g.stageBase})
        h.add(base);
    for (const auto &pp : g.perPe) {
        for (const Graph::Side *side : {&pp.e, &pp.h}) {
            h.add(side->ghostCount);
            h.add(side->edges.size());
            for (const auto &e : side->edges) {
                h.add(e.dstIdx);
                h.add(e.srcPe);
                h.add(e.srcIdx);
                h.add(std::bit_cast<std::uint64_t>(e.weight));
                h.add(e.localValueAddr);
            }
            h.add(side->fetches.size());
            for (const auto &f : side->fetches) {
                h.add(f.srcPe);
                h.add(f.srcIdx);
                h.add(f.ghostSlot);
            }
            h.add(side->groups.size());
            for (const auto &grp : side->groups) {
                h.add(grp.srcPe);
                h.add(grp.firstSlot);
                h.addIdxs(grp.srcIdxs);
                h.add(grp.producerStageOffset);
            }
            h.add(side->pushes.size());
            for (const auto &p : side->pushes) {
                h.add(p.srcIdx);
                h.add(p.dstPe);
                h.add(p.ghostSlot);
            }
            h.add(side->stageGroups.size());
            for (const auto &sg : side->stageGroups) {
                h.add(sg.dstPe);
                h.add(sg.stageOffset);
                h.add(sg.dstFirstSlot);
                h.addIdxs(sg.srcIdxs);
            }
        }
    }
    return h.value();
}

struct LayoutCase
{
    std::uint32_t pes;
    std::uint32_t nodesPerPe;
    std::uint32_t degree;
    double remote;
    std::uint64_t golden;
};

Config
layoutConfig(const LayoutCase &c)
{
    Config cfg;
    cfg.nodesPerPe = c.nodesPerPe;
    cfg.degree = c.degree;
    cfg.remoteFraction = c.remote;
    cfg.seed = 7;
    return cfg;
}

// Recorded from the sort-and-binary-search construction the counting
// passes replaced. 1-3 PEs collapse the +/-1, +/-2 neighbourhood onto
// fewer producers (or none); 37 nodes/PE is not a power of two.
const LayoutCase layoutCases[] = {
    {1, 32, 6, 0.0, 0x1f0c566eee86f66eull},
    {1, 32, 6, 0.5, 0x1f0c566eee86f66eull},
    {1, 32, 6, 1.0, 0x1f0c566eee86f66eull},
    {2, 32, 6, 0.0, 0x70e2f428b2ce9d19ull},
    {2, 32, 6, 0.5, 0xe567871c3adf9ea1ull},
    {2, 32, 6, 1.0, 0x42e3b6ff44e92b15ull},
    {3, 32, 6, 0.0, 0x3a48683f9d6cfbc0ull},
    {3, 32, 6, 0.5, 0x8a769b25f534b6adull},
    {3, 32, 6, 1.0, 0x3c5235d64d419bb4ull},
    {4, 32, 6, 0.0, 0x8faaa7dba06822fbull},
    {4, 32, 6, 0.5, 0xe0f4ce14fbb67f16ull},
    {4, 32, 6, 1.0, 0xa2a945ff44c09b8eull},
    {64, 32, 6, 0.0, 0x3175eaf9cc9c36e3ull},
    {64, 32, 6, 0.5, 0xcdfc87b6ec9fedbeull},
    {64, 32, 6, 1.0, 0xa2d3ae0fa10eaa76ull},
    {5, 37, 7, 0.3, 0xf6f8a4afed601211ull},
    // The perfbench em3d-fig9 and em3d-weak-4k shapes.
    {256, 100, 10, 0.2, 0xe5e51c0032bfbf89ull},
    {4096, 32, 4, 0.2, 0xef3276672d36bf6dull},
};

TEST(Em3dGraph, LayoutMatchesGoldens)
{
    for (const auto &c : layoutCases) {
        machine::Machine m(machine::MachineConfig::t3d(c.pes));
        const Graph g = Graph::build(m, layoutConfig(c));
        EXPECT_EQ(layoutHash(g), c.golden)
            << c.pes << " PEs, " << c.nodesPerPe << " nodes/PE, remote "
            << c.remote;
    }
}

/**
 * Check one side's layout against its definition, independently of
 * the goldens: slots, groups, the fetch list and the producer views.
 */
void
expectSideInvariants(const Graph &g, PeId pe, bool e_side)
{
    const auto side_of = [&](PeId q) -> const Graph::Side & {
        return e_side ? g.perPe[q].e : g.perPe[q].h;
    };
    const Graph::Side &side = side_of(pe);
    const Addr ghost_base = e_side ? g.eGhostBase : g.hGhostBase;
    const Addr vals_base = e_side ? g.hValsBase : g.eValsBase;
    SCOPED_TRACE(testing::Message() << "pe " << pe << (e_side ? " E" : " H"));

    // Groups: ascending producers, contiguous slots, ascending
    // producer-local indices within a group.
    std::vector<std::size_t> group_of(side.ghostCount, 0);
    std::uint32_t next_slot = 0;
    for (std::size_t k = 0; k < side.groups.size(); ++k) {
        const auto &grp = side.groups[k];
        EXPECT_NE(grp.srcPe, pe);
        if (k > 0) {
            EXPECT_LT(side.groups[k - 1].srcPe, grp.srcPe);
        }
        ASSERT_EQ(grp.firstSlot, next_slot);
        ASSERT_FALSE(grp.srcIdxs.empty());
        for (std::size_t i = 1; i < grp.srcIdxs.size(); ++i)
            EXPECT_LT(grp.srcIdxs[i - 1], grp.srcIdxs[i]);
        for (std::size_t i = 0; i < grp.srcIdxs.size(); ++i) {
            ASSERT_LT(next_slot + i, side.ghostCount);
            group_of[next_slot + i] = k;
        }
        next_slot += static_cast<std::uint32_t>(grp.srcIdxs.size());
    }
    ASSERT_EQ(next_slot, side.ghostCount);

    // Edges: a local edge reads the producer array, a remote one the
    // ghost slot whose group entry names its (srcPe, srcIdx). The
    // first reference to each slot fixes the fetch order.
    std::vector<bool> seen(side.ghostCount, false);
    std::vector<std::uint32_t> first_refs;
    for (const auto &edge : side.edges) {
        if (edge.srcPe == pe) {
            EXPECT_EQ(edge.localValueAddr, vals_base + Addr{edge.srcIdx} * 8);
            continue;
        }
        ASSERT_GE(edge.localValueAddr, ghost_base);
        ASSERT_EQ((edge.localValueAddr - ghost_base) % 8, 0u);
        const Addr slot = (edge.localValueAddr - ghost_base) / 8;
        ASSERT_LT(slot, side.ghostCount);
        const auto &grp = side.groups[group_of[slot]];
        EXPECT_EQ(grp.srcPe, edge.srcPe);
        EXPECT_EQ(grp.srcIdxs[slot - grp.firstSlot], edge.srcIdx);
        if (!seen[slot]) {
            seen[slot] = true;
            first_refs.push_back(static_cast<std::uint32_t>(slot));
        }
    }
    ASSERT_EQ(side.fetches.size(), first_refs.size());
    ASSERT_EQ(first_refs.size(), side.ghostCount) << "an unused slot";
    for (std::size_t i = 0; i < first_refs.size(); ++i) {
        const auto &f = side.fetches[i];
        EXPECT_EQ(f.ghostSlot, first_refs[i]);
        const auto &grp = side.groups[group_of[f.ghostSlot]];
        EXPECT_EQ(f.srcPe, grp.srcPe);
        EXPECT_EQ(f.srcIdx, grp.srcIdxs[f.ghostSlot - grp.firstSlot]);
    }

    // Producer views: pushes stably ordered by srcIdx (consumers in
    // ascending PE order within one index), each naming a consumer
    // slot that holds this producer's value; staging regions packed
    // in ascending consumer order and mirrored by the consumer.
    std::size_t expected_pushes = 0;
    Addr offset = 0;
    for (std::size_t k = 0; k < side.stageGroups.size(); ++k) {
        const auto &sg = side.stageGroups[k];
        if (k > 0) {
            EXPECT_LT(side.stageGroups[k - 1].dstPe, sg.dstPe);
        }
        EXPECT_EQ(sg.stageOffset, offset);
        offset += Addr{8} * sg.srcIdxs.size();
        expected_pushes += sg.srcIdxs.size();
        const Graph::Side &cons = side_of(sg.dstPe);
        bool mirrored = false;
        for (const auto &grp : cons.groups) {
            if (grp.srcPe != pe)
                continue;
            mirrored = true;
            EXPECT_EQ(grp.firstSlot, sg.dstFirstSlot);
            EXPECT_EQ(grp.srcIdxs, sg.srcIdxs);
            EXPECT_EQ(grp.producerStageOffset, sg.stageOffset);
        }
        EXPECT_TRUE(mirrored);
    }
    ASSERT_EQ(side.pushes.size(), expected_pushes);
    for (std::size_t i = 0; i < side.pushes.size(); ++i) {
        const auto &p = side.pushes[i];
        if (i > 0) {
            const auto &prev = side.pushes[i - 1];
            EXPECT_TRUE(prev.srcIdx < p.srcIdx ||
                        (prev.srcIdx == p.srcIdx && prev.dstPe < p.dstPe));
        }
        const Graph::Side &cons = side_of(p.dstPe);
        ASSERT_LT(p.ghostSlot, cons.ghostCount);
        bool found = false;
        for (const auto &grp : cons.groups) {
            if (grp.srcPe == pe && p.ghostSlot >= grp.firstSlot &&
                p.ghostSlot - grp.firstSlot < grp.srcIdxs.size()) {
                found = true;
                EXPECT_EQ(grp.srcIdxs[p.ghostSlot - grp.firstSlot],
                          p.srcIdx);
            }
        }
        EXPECT_TRUE(found);
    }
}

TEST(Em3dGraph, LayoutInvariants)
{
    for (std::uint32_t pes : {1u, 2u, 3u, 4u, 7u, 64u}) {
        for (double remote : {0.0, 0.3, 1.0}) {
            Config cfg;
            cfg.nodesPerPe = 29;
            cfg.degree = 6;
            cfg.remoteFraction = remote;
            cfg.seed = 1000 + pes;
            machine::Machine m(machine::MachineConfig::t3d(pes));
            const Graph g = Graph::build(m, cfg);
            SCOPED_TRACE(testing::Message()
                         << pes << " PEs, remote " << remote);
            for (PeId pe = 0; pe < pes; ++pe) {
                expectSideInvariants(g, pe, /*e_side=*/true);
                expectSideInvariants(g, pe, /*e_side=*/false);
                // H edges are grouped by destination node, ties in
                // the order the transpose met them: ascending
                // consumer PE, then that PE's E-edge order.
                const auto &h = g.perPe[pe].h.edges;
                for (std::size_t i = 1; i < h.size(); ++i) {
                    const auto &a = h[i - 1], &b = h[i];
                    EXPECT_LE(std::tie(a.dstIdx, a.srcPe, a.srcIdx),
                              std::tie(b.dstIdx, b.srcPe, b.srcIdx));
                }
            }
        }
    }
}

TEST(Em3dGraph, EdgeCounts)
{
    machine::Machine m(machine::MachineConfig::t3d(4));
    Graph g = Graph::build(m, smallConfig(0.3));
    for (PeId pe = 0; pe < 4; ++pe) {
        EXPECT_EQ(g.perPe[pe].e.edges.size(), 40u * 5u);
    }
    // Transpose preserves the total edge count.
    std::size_t h_total = 0;
    for (PeId pe = 0; pe < 4; ++pe)
        h_total += g.perPe[pe].h.edges.size();
    EXPECT_EQ(h_total, 4u * 40u * 5u);
    EXPECT_EQ(g.edgesPerPe(), 2u * 40u * 5u);
}

TEST(Em3dGraph, ZeroRemoteFractionHasNoFetches)
{
    machine::Machine m(machine::MachineConfig::t3d(4));
    Graph g = Graph::build(m, smallConfig(0.0));
    for (PeId pe = 0; pe < 4; ++pe) {
        EXPECT_TRUE(g.perPe[pe].e.fetches.empty());
        EXPECT_TRUE(g.perPe[pe].h.fetches.empty());
    }
}

TEST(Em3dGraph, GhostSlotsAreGroupedByProducer)
{
    machine::Machine m(machine::MachineConfig::t3d(4));
    Graph g = Graph::build(m, smallConfig(0.6));
    for (PeId pe = 0; pe < 4; ++pe) {
        const auto &side = g.perPe[pe].e;
        std::uint32_t expected_slot = 0;
        for (const auto &group : side.groups) {
            EXPECT_EQ(group.firstSlot, expected_slot);
            expected_slot += group.srcIdxs.size();
            EXPECT_NE(group.srcPe, pe);
        }
        EXPECT_EQ(expected_slot, side.ghostCount);
    }
}

TEST(Em3dGraph, PushesMirrorFetches)
{
    machine::Machine m(machine::MachineConfig::t3d(4));
    Graph g = Graph::build(m, smallConfig(0.5));
    // Total pushes of H values == total E-side fetches.
    std::size_t fetches = 0, pushes = 0;
    for (PeId pe = 0; pe < 4; ++pe) {
        fetches += g.perPe[pe].e.fetches.size();
        pushes += g.perPe[pe].e.pushes.size();
    }
    EXPECT_EQ(fetches, pushes);
}

TEST(Em3dGraph, DeterministicForSeed)
{
    machine::Machine m1(machine::MachineConfig::t3d(4));
    machine::Machine m2(machine::MachineConfig::t3d(4));
    Graph a = Graph::build(m1, smallConfig(0.4));
    Graph b = Graph::build(m2, smallConfig(0.4));
    ASSERT_EQ(a.perPe[1].e.edges.size(), b.perPe[1].e.edges.size());
    for (std::size_t i = 0; i < a.perPe[1].e.edges.size(); ++i) {
        EXPECT_EQ(a.perPe[1].e.edges[i].srcPe,
                  b.perPe[1].e.edges[i].srcPe);
        EXPECT_EQ(a.perPe[1].e.edges[i].srcIdx,
                  b.perPe[1].e.edges[i].srcIdx);
    }
}

TEST(Em3dRun, AllVersionsProduceIdenticalResults)
{
    const Config cfg = smallConfig(0.4);
    double reference = 0;
    bool first = true;
    for (Version v : em3d::allVersions) {
        auto result = em3d::run(cfg, v, 4);
        ASSERT_TRUE(std::isfinite(result.checksum));
        if (first) {
            reference = result.checksum;
            first = false;
            EXPECT_NE(reference, 0.0);
        } else {
            EXPECT_DOUBLE_EQ(result.checksum, reference)
                << em3d::versionName(v);
        }
    }
}

TEST(Em3dRun, MultipleIterationsStayConsistent)
{
    Config cfg = smallConfig(0.3);
    cfg.iterations = 3;
    const auto simple = em3d::run(cfg, Version::Simple, 4);
    const auto bulk = em3d::run(cfg, Version::Bulk, 4);
    EXPECT_DOUBLE_EQ(simple.checksum, bulk.checksum);
}

TEST(Em3dRun, AllLocalOptimizedNear037usPerEdge)
{
    // §8: "we reduce the cost of processing an edge to 0.37 usec
    // when all the edges are local" (5.5 MFlops per processor).
    Config cfg;
    cfg.nodesPerPe = 200;
    cfg.degree = 10;
    cfg.remoteFraction = 0.0;
    const auto result = em3d::run(cfg, Version::Bulk, 4);
    EXPECT_NEAR(result.usPerEdge, 0.37, 0.06);
}

TEST(Em3dRun, Figure9OrderingAtHighRemoteFraction)
{
    Config cfg;
    cfg.nodesPerPe = 100;
    cfg.degree = 8;
    cfg.remoteFraction = 0.6;
    double us[6];
    int i = 0;
    for (Version v : em3d::allVersions)
        us[i++] = em3d::run(cfg, v, 8).usPerEdge;

    const double simple = us[0], bundle = us[1], unroll = us[2],
        get = us[3], put = us[4], bulk = us[5];

    EXPECT_GT(simple, bundle) << "ghost caching wins";
    EXPECT_GT(bundle, unroll) << "unrolled compute wins";
    EXPECT_GT(unroll, get) << "pipelined gets win";
    EXPECT_GT(get, put) << "puts have less overhead than gets";
    EXPECT_GT(put, bulk) << "bulk avoids repeated annex set-up";
}

TEST(Em3dRun, RemoteFractionScalesCost)
{
    Config cfg;
    cfg.nodesPerPe = 100;
    cfg.degree = 8;
    double prev = 0;
    for (double remote : {0.0, 0.3, 0.9}) {
        cfg.remoteFraction = remote;
        const auto result = em3d::run(cfg, Version::Simple, 8);
        EXPECT_GT(result.usPerEdge, prev);
        prev = result.usPerEdge;
    }
}

} // namespace
