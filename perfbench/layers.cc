/**
 * @file
 * Layer probes of the traced run: direct calls into the alpha core,
 * the storage layer, the shell's annexed remote access and the torus
 * transit model, each timed over a fixed count of calls on a small
 * machine and reported as host ns per call.
 */

#include <cstdint>

#include "alpha/address.hh"
#include "machine/machine.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace t3dsim;

namespace
{

/** Host ns per call of @p body(k) over @p calls calls. */
template <typename Fn>
double
nsPerCall(Tracer &tracer, const char *span, std::uint64_t calls, Fn body)
{
    ScopedSpan s(&tracer, span);
    const double t0 = nowS();
    for (std::uint64_t k = 0; k < calls; ++k)
        body(k);
    return 1e9 * (nowS() - t0) / double(calls);
}

} // namespace

std::vector<Metric>
layerProbes(std::uint32_t pes, Tracer &tracer)
{
    ScopedSpan probes_span(&tracer, "layer_probes");
    constexpr std::uint64_t calls = 200000;
    volatile std::uint64_t sink = 0;

    machine::Machine m(machine::MachineConfig::t3d(2));
    machine::Node &n0 = m.node(0);
    alpha::AlphaCore &core = n0.core();

    // A region far larger than the 8 KiB direct-mapped D-cache: a
    // 32-byte stride through it misses on every load; eight words of
    // one line hit after the first touch.
    const std::uint64_t region = 1u << 20;
    const Addr base = n0.alloc(region, 64);
    for (Addr a = 0; a < region; a += 8)
        core.storeU64(base + a, a);
    core.mb();

    std::vector<Metric> out;
    out.push_back({"alpha.load_hit_ns",
                   nsPerCall(tracer, "alpha.load_hit", calls,
                             [&](std::uint64_t k) {
                                 sink = sink + core.loadU64(base + (k & 3) * 8);
                             }),
                   "ns"});
    out.push_back({"alpha.load_miss_ns",
                   nsPerCall(tracer, "alpha.load_miss", calls,
                             [&](std::uint64_t k) {
                                 sink = sink + core.loadU64(
                                     base + (k * 32) % region);
                             }),
                   "ns"});
    out.push_back({"alpha.store_ns",
                   nsPerCall(tracer, "alpha.store", calls,
                             [&](std::uint64_t k) {
                                 core.storeU64(base + (k * 8) % region, k);
                             }),
                   "ns"});

    mem::Storage &storage = n0.storage();
    out.push_back({"mem.storage_read_ns",
                   nsPerCall(tracer, "mem.storage_read", calls,
                             [&](std::uint64_t k) {
                                 sink = sink + storage.readU64(
                                     base + (k * 8) % region);
                             }),
                   "ns"});
    out.push_back({"mem.storage_write_ns",
                   nsPerCall(tracer, "mem.storage_write", calls,
                             [&](std::uint64_t k) {
                                 storage.writeU64(base + (k * 8) % region,
                                                  k);
                             }),
                   "ns"});

    // Annexed loads and blocking stores to the neighbour PE: the
    // shell's remote engine, the torus and the remote node's DRAM.
    n0.shell().setAnnex(1, {1, shell::ReadMode::Uncached});
    const Addr remote = alpha::makeAnnexedVa(1, base);
    out.push_back({"shell.remote_read_ns",
                   nsPerCall(tracer, "shell.remote_read", calls / 4,
                             [&](std::uint64_t k) {
                                 sink = sink + n0.loadU64(
                                     remote + (k * 32) % region);
                             }),
                   "ns"});
    out.push_back({"shell.remote_write_ns",
                   nsPerCall(tracer, "shell.remote_write", calls / 4,
                             [&](std::uint64_t k) {
                                 n0.storeU64(remote + (k * 32) % region, k);
                                 n0.waitRemoteWrites();
                             }),
                   "ns"});

    // Transit between pseudo-random PE pairs of the workload's torus.
    machine::Machine big(machine::MachineConfig::t3d(pes));
    out.push_back({"net.transit_ns",
                   nsPerCall(tracer, "net.transit", calls,
                             [&](std::uint64_t k) {
                                 const std::uint64_t h =
                                     k * 0x9e3779b97f4a7c15ull;
                                 sink = sink + big.transitCycles(
                                     PeId(h % pes), PeId((h >> 32) % pes));
                             }),
                   "ns"});
    return out;
}

} // namespace perfbench
