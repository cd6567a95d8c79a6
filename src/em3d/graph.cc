#include "em3d/em3d.hh"

#include <algorithm>
#include <bit>
#include <vector>

#include "sim/logging.hh"
#include "sim/rng.hh"
#include "splitc/spread.hh"

namespace t3dsim::em3d
{

const char *
versionName(Version v)
{
    switch (v) {
      case Version::Simple:
        return "Simple";
      case Version::Bundle:
        return "Bundle";
      case Version::Unroll:
        return "Unroll";
      case Version::Get:
        return "Get";
      case Version::Put:
        return "Put";
      case Version::Bulk:
        return "Bulk";
    }
    return "?";
}

namespace
{

/**
 * Reusable working storage for one Graph::build. Every stage below is
 * a counting pass over a small dense table instead of a sort or a
 * binary search: producers of remote edges lie in a +/-2-PE
 * neighbourhood and every srcIdx is < nodesPerPe, so (producer,
 * srcIdx) keys index a table directly. The tables grow to their
 * largest use once and are reset after each side, so no stage
 * allocates per side.
 */
struct Scratch
{
    static constexpr std::uint32_t noProducer = ~std::uint32_t{0};

    /** Slot-table entry flag: slot assigned, no fetch listed yet.
     *  Slots never reach it: the ghost array (8 B per slot) must fit
     *  a node's local segment. */
    static constexpr std::uint32_t unlisted = std::uint32_t{1} << 31;

    explicit Scratch(std::uint32_t pes) : producerOf(pes, noProducer) {}

    /** Counting-sort offsets (transpose: pes x (n + 1); pushes:
     *  n + 1). */
    std::vector<std::uint32_t> offsets;

    /** PE -> row of slotTable for the side being resolved. */
    std::vector<std::uint32_t> producerOf;

    /** Producers of the side, in first-reference order (row order). */
    std::vector<PeId> producers;

    /** Distinct values referenced per producer row. */
    std::vector<std::uint32_t> distinct;

    /** Rows in ascending producer PE order. */
    std::vector<std::uint32_t> rowOrder;

    /** producers x n: 0 = unreferenced, else the slot (see unlisted). */
    std::vector<std::uint32_t> slotTable;
};

/**
 * Assign ghost slots (grouped by producer, producer-local indices
 * ascending within a group), build the fetch list and consumer
 * groups, and resolve every edge's compute-phase local address.
 *
 * Slots are numbered in (srcPe, srcIdx) order, so each producer's
 * values form one contiguous block the Bulk version moves at once.
 * A first pass over the edges finds the producers and marks each
 * distinct (producer, srcIdx) in a producers x n table; a walk of
 * that table in ascending producer order hands out the slots and
 * fills the groups; a second pass over the edges reads each edge's
 * slot back from the table for its address and lists each slot's
 * first reference in the fetch list.
 */
void
resolveSide(Graph::Side &side, PeId pe, std::uint32_t n, Addr vals_base,
            Addr ghost_base, Scratch &s)
{
    s.producers.clear();
    s.distinct.clear();
    for (const auto &edge : side.edges) {
        if (edge.srcPe == pe)
            continue;
        std::uint32_t row = s.producerOf[edge.srcPe];
        if (row == Scratch::noProducer) {
            row = static_cast<std::uint32_t>(s.producers.size());
            s.producerOf[edge.srcPe] = row;
            s.producers.push_back(edge.srcPe);
            s.distinct.push_back(0);
            if (s.slotTable.size() < s.producers.size() * std::size_t{n})
                s.slotTable.resize(s.producers.size() * std::size_t{n}, 0);
        }
        std::uint32_t &entry = s.slotTable[std::size_t{row} * n + edge.srcIdx];
        if (entry == 0) {
            entry = 1;
            ++s.distinct[row];
        }
    }

    // At most the four neighbours of pe: ordering the rows is per
    // side, not per edge.
    s.rowOrder.resize(s.producers.size());
    for (std::uint32_t r = 0; r < s.rowOrder.size(); ++r)
        s.rowOrder[r] = r;
    std::sort(s.rowOrder.begin(), s.rowOrder.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  return s.producers[a] < s.producers[b];
              });

    std::uint32_t slot = 0;
    side.groups.reserve(s.producers.size());
    for (std::uint32_t row : s.rowOrder) {
        Graph::ProducerGroup group{s.producers[row], slot, {}, 0};
        group.srcIdxs.reserve(s.distinct[row]);
        std::uint32_t *entries = s.slotTable.data() + std::size_t{row} * n;
        for (std::uint32_t idx = 0; idx < n; ++idx) {
            if (entries[idx] != 0) {
                entries[idx] = Scratch::unlisted | slot++;
                group.srcIdxs.push_back(idx);
            }
        }
        side.groups.push_back(std::move(group));
    }
    side.ghostCount = slot;

    // The fetch list (Bundle/Get) is in edge-discovery order (the
    // order a compiler-built ghost list would fetch in — producers
    // interleave, so Bundle/Get pay the annex set-up churn of §8).
    side.fetches.reserve(slot);
    for (auto &edge : side.edges) {
        if (edge.srcPe == pe) {
            edge.localValueAddr = vals_base + Addr{edge.srcIdx} * 8;
            continue;
        }
        std::uint32_t &entry = s.slotTable[
            std::size_t{s.producerOf[edge.srcPe]} * n + edge.srcIdx];
        const std::uint32_t ghost_slot = entry & ~Scratch::unlisted;
        if (entry & Scratch::unlisted) {
            entry = ghost_slot;
            side.fetches.push_back({edge.srcPe, edge.srcIdx, ghost_slot});
        }
        edge.localValueAddr = ghost_base + Addr{ghost_slot} * 8;
    }

    for (PeId q : s.producers)
        s.producerOf[q] = Scratch::noProducer;
    std::fill_n(s.slotTable.begin(), s.producers.size() * std::size_t{n},
                0);
}

/** Accessor for the side (E or H) of a PerPe record. */
Graph::Side &
sideOf(Graph::PerPe &pp, bool e_side)
{
    return e_side ? pp.e : pp.h;
}

/**
 * Build producer-side push lists and Bulk staging layout from the
 * consumers' groups, and tell each consumer group where its producer
 * stages its values.
 */
void
buildProducerViews(Graph &g, bool e_side, Scratch &s)
{
    // Staging regions: on each producer, consumers in ascending
    // dstPe order. One pass over the consumers (visited in ascending
    // pe order, so each producer sees its consumers in the required
    // order) instead of a producers x consumers rescan.
    std::vector<Addr> stage_offset(g.pes, 0);
    for (PeId pe = 0; pe < g.pes; ++pe) {
        Graph::Side &cons = sideOf(g.perPe[pe], e_side);
        for (auto &group : cons.groups) {
            const PeId q = group.srcPe;
            Graph::Side &prod = sideOf(g.perPe[q], e_side);
            Addr &offset = stage_offset[q];
            Graph::StageGroup sg;
            sg.dstPe = pe;
            sg.stageOffset = offset;
            sg.dstFirstSlot = group.firstSlot;
            sg.srcIdxs = group.srcIdxs;
            group.producerStageOffset = offset;
            offset += Addr{8} * sg.srcIdxs.size();
            prod.stageGroups.push_back(std::move(sg));
        }
    }

    // Push lists in node order on the producer, so consecutive
    // pushes interleave destination PEs — the annex-churn pattern of
    // the Put version (§8). A counting sort by source index over the
    // staging groups (consumers ascending, slot order within each)
    // keeps equal indices in consumer order.
    const std::uint32_t n = g.config.nodesPerPe;
    for (PeId q = 0; q < g.pes; ++q) {
        Graph::Side &prod = sideOf(g.perPe[q], e_side);
        if (prod.stageGroups.empty())
            continue;
        std::fill_n(s.offsets.begin(), n + 1, 0);
        for (const auto &sg : prod.stageGroups) {
            for (std::uint32_t idx : sg.srcIdxs)
                ++s.offsets[idx + 1];
        }
        for (std::uint32_t idx = 0; idx < n; ++idx)
            s.offsets[idx + 1] += s.offsets[idx];
        prod.pushes.resize(s.offsets[n]);
        for (const auto &sg : prod.stageGroups) {
            for (std::uint32_t k = 0; k < sg.srcIdxs.size(); ++k) {
                const std::uint32_t idx = sg.srcIdxs[k];
                prod.pushes[s.offsets[idx]++] = {idx, sg.dstPe,
                                                 sg.dstFirstSlot + k};
            }
        }
    }
}

} // namespace

Graph
Graph::build(machine::Machine &machine, const Config &config)
{
    Graph g;
    g.config = config;
    g.pes = machine.numPes();
    g.perPe.resize(g.pes);

    const std::uint32_t n = config.nodesPerPe;
    const std::size_t vals_bytes = std::size_t{n} * 8;
    // A ghost/stage slot per distinct remote value; one per edge is
    // the worst case.
    const std::size_t ghost_bytes =
        std::size_t{n} * config.degree * 8;

    g.eValsBase = splitc::allocSymmetric(machine, vals_bytes);
    g.hValsBase = splitc::allocSymmetric(machine, vals_bytes);
    g.eGhostBase = splitc::allocSymmetric(machine, ghost_bytes);
    g.hGhostBase = splitc::allocSymmetric(machine, ghost_bytes);
    g.stageBase = splitc::allocSymmetric(machine, 2 * ghost_bytes);

    // Deterministic initial field values.
    for (PeId pe = 0; pe < g.pes; ++pe) {
        auto &storage = machine.node(pe).storage();
        for (std::uint32_t i = 0; i < n; ++i) {
            const double e0 = 0.25 + 0.001 * i + 0.1 * pe;
            const double h0 = 0.75 - 0.001 * i + 0.05 * pe;
            storage.writeU64(g.eValsBase + Addr{i} * 8,
                             std::bit_cast<std::uint64_t>(e0));
            storage.writeU64(g.hValsBase + Addr{i} * 8,
                             std::bit_cast<std::uint64_t>(h0));
        }
    }

    // Row q of the pes x (n + 1) offset table counts, then
    // prefix-sums, the E edges whose producer is (q, j): the H-side
    // transpose below is one stable counting sort over it.
    Scratch s(g.pes);
    const std::size_t stride = std::size_t{n} + 1;
    s.offsets.assign(g.pes * stride, 0);

    // Generate the E-update edges. Remote producers live in a small
    // neighborhood of processors (pe +/- 1, pe +/- 2), as in the
    // original EM3D distribution: the bounded candidate set makes
    // ghost-node reuse substantial (each remote value is referenced
    // several times per step), while the multiple interleaved target
    // PEs expose the repeated annex set-up that separates the Get /
    // Put / Bulk versions (§8).
    std::vector<PeId> neighbors;
    Rng rng(config.seed);
    for (PeId pe = 0; pe < g.pes; ++pe) {
        neighbors.clear();
        for (int d : {-2, -1, 1, 2}) {
            const PeId q = static_cast<PeId>(
                (static_cast<int>(pe) + d + 2 * static_cast<int>(g.pes)) %
                g.pes);
            if (q != pe &&
                std::find(neighbors.begin(), neighbors.end(), q) ==
                    neighbors.end()) {
                neighbors.push_back(q);
            }
        }
        auto &side = g.perPe[pe].e;
        side.edges.reserve(std::size_t{n} * config.degree);
        for (std::uint32_t i = 0; i < n; ++i) {
            for (std::uint32_t d = 0; d < config.degree; ++d) {
                Edge edge;
                edge.dstIdx = i;
                const bool remote = !neighbors.empty() &&
                    rng.nextBool(config.remoteFraction);
                edge.srcPe = remote
                    ? neighbors[rng.nextBounded(neighbors.size())]
                    : pe;
                edge.srcIdx =
                    static_cast<std::uint32_t>(rng.nextBounded(n));
                edge.weight = 0.01 + 0.98 * rng.nextDouble();
                side.edges.push_back(edge);
                ++s.offsets[edge.srcPe * stride + edge.srcIdx + 1];
            }
        }
    }

    // The H-update edge set is the transpose: if E(pe, i) depends on
    // H(q, j) with weight w, then H(q, j) depends on E(pe, i). The
    // compute loop accumulates then writes back per destination
    // node, so each PE's H edges are grouped by dstIdx, ties in
    // (source pe, E-edge) order: the counting sort keyed by (q, j)
    // places every edge straight into its exactly-sized vector.
    for (PeId q = 0; q < g.pes; ++q) {
        std::uint32_t *row = s.offsets.data() + q * stride;
        for (std::uint32_t j = 0; j < n; ++j)
            row[j + 1] += row[j];
        g.perPe[q].h.edges.resize(row[n]);
    }
    for (PeId pe = 0; pe < g.pes; ++pe) {
        for (const auto &edge : g.perPe[pe].e.edges) {
            Edge &back = g.perPe[edge.srcPe].h.edges[
                s.offsets[edge.srcPe * stride + edge.srcIdx]++];
            back.dstIdx = edge.srcIdx;
            back.srcPe = pe;
            back.srcIdx = edge.dstIdx;
            back.weight = edge.weight * 0.5;
        }
    }

    for (PeId pe = 0; pe < g.pes; ++pe) {
        resolveSide(g.perPe[pe].e, pe, n, g.hValsBase, g.eGhostBase, s);
        resolveSide(g.perPe[pe].h, pe, n, g.eValsBase, g.hGhostBase, s);
    }

    buildProducerViews(g, /*e_side=*/true, s);
    buildProducerViews(g, /*e_side=*/false, s);

    return g;
}

std::uint64_t
Graph::edgesPerPe() const
{
    std::uint64_t total = 0;
    for (const auto &pp : perPe)
        total += pp.e.edges.size() + pp.h.edges.size();
    return total / pes;
}

double
Graph::checksum(machine::Machine &machine) const
{
    double sum = 0;
    for (PeId pe = 0; pe < pes; ++pe) {
        auto &storage = machine.node(pe).storage();
        for (std::uint32_t i = 0; i < config.nodesPerPe; ++i) {
            sum += std::bit_cast<double>(
                storage.readU64(eValsBase + Addr{i} * 8));
            sum += std::bit_cast<double>(
                storage.readU64(hValsBase + Addr{i} * 8));
        }
    }
    return sum;
}

} // namespace t3dsim::em3d
