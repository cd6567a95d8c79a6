/**
 * @file
 * The three simulation workloads: a fixed ladder of em3d::run or
 * apps::bsort::run calls per pass, every result checked against a
 * reference the benchmark computes itself.
 */

#include <memory>
#include <numeric>

#include "apps/bsort/bsort.hh"
#include "em3d/em3d.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace t3dsim;

namespace
{

/** What one rung run returned beyond its check. */
struct RungOut
{
    Cycles cycles = 0;
    probes::PerfCounters counters{};
};

/** A machine and the workload's graph or plan built on it. */
template <class Input>
struct Built
{
    std::unique_ptr<machine::Machine> machine;
    std::unique_ptr<Input> input;

    /** Build both, under machine.build and @p span spans. */
    template <class BuildInput>
    static Built
    make(std::uint32_t pes, Tracer &tracer, const char *span,
         BuildInput build)
    {
        Built b;
        {
            ScopedSpan s(&tracer, "machine.build");
            b.machine = std::make_unique<machine::Machine>(
                machine::MachineConfig::t3d(pes));
        }
        ScopedSpan s(&tracer, span);
        b.input = std::make_unique<Input>(build(*b.machine));
        return b;
    }

    /** The machine's resident modeled bytes per PE. */
    double
    bytesPerPe() const
    {
        return double(machine->residentModelBytes()) /
               machine->numPes();
    }

    /** Tear down, the input first, under a machine.teardown span. */
    void
    teardown(Tracer &tracer)
    {
        ScopedSpan s(&tracer, "machine.teardown");
        input.reset();
        machine.reset();
    }

    /** Traced run only: tear down at once; returns bytesPerPe. */
    double
    probe(Tracer &tracer)
    {
        const double bytes = bytesPerPe();
        teardown(tracer);
        return bytes;
    }
};

using Em3dBuilt = Built<em3d::Graph>;
using BsortBuilt = Built<apps::bsort::Plan>;

/** A fixed list of simulation operations on one torus size. */
class Ladder
{
  public:
    virtual ~Ladder() = default;

    std::uint32_t pes = 0;
    std::vector<std::string> rungs;

    /** Span name of rung @p i ("em3d.version.Get", ...). */
    virtual std::string spanName(std::size_t i) const = 0;

    /** Set-up, timed as setup_s: build the machine and the
     *  workload's graph or plan (spans under tracer). */
    virtual void setup(Tracer &tracer) = 0;

    /** After set-up, untimed: compute the reference the checks
     *  compare with, and tear the set-up down. */
    virtual void prepareChecks(Tracer &tracer) = 0;

    /** Run rung @p i; returns "" or the failed check's message. */
    virtual std::string run(std::size_t i,
                            const machine::MachineConfig &mc,
                            const splitc::SplitcConfig &sc,
                            RungOut &out) = 0;

    /**
     * Traced run only: build a machine and the workload's graph or
     * plan on it, then tear it down, under machine.build /
     * <app>.*_build / machine.teardown spans. Returns the machine's
     * resident modeled bytes per PE after the build.
     */
    virtual double buildProbe(Tracer &tracer) = 0;
};

class Em3dLadder : public Ladder
{
  public:
    Em3dLadder(const em3d::Config &config, std::uint32_t num_pes,
               std::vector<em3d::Version> versions)
        : _config(config), _versions(std::move(versions))
    {
        pes = num_pes;
        for (em3d::Version v : _versions)
            rungs.push_back(em3d::versionName(v));
    }

    std::string
    spanName(std::size_t i) const override
    {
        return "em3d.version." + rungs[i];
    }

    void
    setup(Tracer &tracer) override
    {
        _built = build(tracer);
    }

    void
    prepareChecks(Tracer &tracer) override
    {
        {
            ScopedSpan s(&tracer, "check.reference");
            _reference =
                em3dReferenceChecksum(*_built.input, *_built.machine);
        }
        _built.teardown(tracer);
    }

    std::string
    run(std::size_t i, const machine::MachineConfig &mc,
        const splitc::SplitcConfig &sc, RungOut &out) override
    {
        const em3d::Result r = em3d::run(_config, _versions[i], mc, sc);
        out.cycles = r.elapsed;
        out.counters = r.counters;
        return checkEm3d(r.checksum, _reference);
    }

    double
    buildProbe(Tracer &tracer) override
    {
        ScopedSpan probe(&tracer, "em3d.build_probe");
        return build(tracer).probe(tracer);
    }

  private:
    Em3dBuilt
    build(Tracer &tracer) const
    {
        return Em3dBuilt::make(pes, tracer, "em3d.graph_build",
                               [this](machine::Machine &m) {
                                   return em3d::Graph::build(m, _config);
                               });
    }

    em3d::Config _config;
    std::vector<em3d::Version> _versions;
    Em3dBuilt _built;
    double _reference = 0;
};

class BsortLadder : public Ladder
{
  public:
    BsortLadder(const apps::bsort::Config &config, std::uint32_t num_pes)
        : _config(config)
    {
        pes = num_pes;
        for (apps::Variant v : apps::allVariants)
            rungs.push_back(apps::variantName(v));
    }

    std::string
    spanName(std::size_t i) const override
    {
        return "bsort.rung." + rungs[i];
    }

    void
    setup(Tracer &tracer) override
    {
        _built = build(tracer);
    }

    void
    prepareChecks(Tracer &tracer) override
    {
        _built.teardown(tracer);
        ScopedSpan s(&tracer, "check.reference");
        _reference = bsortReferenceChecksum(_config, pes);
    }

    std::string
    run(std::size_t i, const machine::MachineConfig &mc,
        const splitc::SplitcConfig &sc, RungOut &out) override
    {
        const apps::bsort::Result r =
            apps::bsort::run(_config, apps::allVariants[i], mc, sc);
        out.cycles = r.elapsed;
        out.counters = r.counters;
        return checkBsort(r, _reference,
                          std::uint64_t{pes} * _config.keysPerPe);
    }

    double
    buildProbe(Tracer &tracer) override
    {
        ScopedSpan probe(&tracer, "bsort.build_probe");
        return build(tracer).probe(tracer);
    }

  private:
    BsortBuilt
    build(Tracer &tracer) const
    {
        return BsortBuilt::make(pes, tracer, "bsort.plan_build",
                                [this](machine::Machine &m) {
                                    return apps::bsort::Plan::build(
                                        m, _config);
                                });
    }

    apps::bsort::Config _config;
    BsortBuilt _built;
    std::uint64_t _reference = 0;
};

/** One pass over every rung; returns the per-rung cycles. A pass
 *  given @p speed is timed into rep.stats, scaled by speed.mark(). */
std::vector<Cycles>
runPass(Ladder &ladder, const machine::MachineConfig &mc,
        const splitc::SplitcConfig &sc, Report &rep, Tracer *tracer,
        HostSpeed *speed)
{
    ScopedSpan pass_span(tracer, "pass");
    std::vector<Cycles> cycles;
    const bool timed = speed != nullptr;
    const std::size_t first_op = rep.stats.opLatencyMs.size();
    const double w0 = nowS(), c0 = processCpuS();
    for (std::size_t i = 0; i < ladder.rungs.size(); ++i) {
        RungOut out;
        const double t0 = nowS();
        std::string err;
        {
            ScopedSpan s(tracer, ladder.spanName(i));
            err = ladder.run(i, mc, sc, out);
        }
        if (timed)
            rep.stats.opLatencyMs.push_back(1e3 * (nowS() - t0));
        rep.stats.op(err.empty(), ladder.spanName(i) + ": " + err);
        cycles.push_back(out.cycles);
    }
    if (timed) {
        const double wall = nowS() - w0, cpu = processCpuS() - c0;
        rep.stats.endPass(wall, cpu, speed->mark(), first_op);
    }
    return cycles;
}

/**
 * The traced run of a ladder: alternating untraced and traced passes
 * (the difference of their medians is the tracing overhead), the
 * build probe, an untimed counters-on pass for the simulated counts,
 * and the layer probes. Returns the per-layer metrics it measured.
 */
std::vector<Metric>
tracedLadder(Ladder &ladder, const Options &opt,
             const splitc::SplitcConfig &sc, Report &rep)
{
    Tracer &tracer = rep.tracer;
    const machine::MachineConfig mc = machine::MachineConfig::t3d(ladder.pes);
    std::vector<double> untraced, traced;
    std::vector<Cycles> cycles;
    const double end = nowS() + opt.seconds;
    while (traced.size() < 2 || nowS() < end) {
        double t0 = nowS();
        cycles = runPass(ladder, mc, sc, rep, nullptr, nullptr);
        untraced.push_back(nowS() - t0);
        t0 = nowS();
        runPass(ladder, mc, sc, rep, &tracer, nullptr);
        traced.push_back(nowS() - t0);
    }

    std::vector<Metric> out;
    out.push_back({"trace.overhead_s", median(traced) - median(untraced), "s"});
    out.push_back({"machine.model_bytes_per_pe", ladder.buildProbe(tracer),
                   "B"});

    // Simulated counts: one more pass with counters on, untimed.
    machine::MachineConfig counted = mc;
    counted.observe.counters = true;
    probes::PerfCounters total{};
    double pe_cycles = 0;
    {
        ScopedSpan s(&tracer, "counters_pass");
        for (std::size_t i = 0; i < ladder.rungs.size(); ++i) {
            RungOut r;
            std::string err = ladder.run(i, counted, sc, r);
            if (err.empty() && r.cycles != cycles[i])
                err = checkCyclesEqual(r.cycles, cycles[i]);
            rep.stats.op(err.empty(), "counters pass: " + err);
            total += r.counters;
            pe_cycles += double(r.cycles) * ladder.pes;
        }
    }
    const auto &infos = probes::PerfCounters::infos();
    for (std::size_t k = 0; k < probes::PerfCounters::numCounters; ++k) {
        out.push_back({std::string("sim.") + infos[k].name,
                       double(total.value(k)), infos[k].unit});
    }
    out.push_back({"sim.pe_cycles", pe_cycles, "cycles"});
    out.push_back({"host_ns_per_pe_cycle", 1e9 * median(untraced) / pe_cycles,
                   "ns"});

    for (Metric &m : layerProbes(ladder.pes, tracer))
        out.push_back(m);

    out.push_back({"machine.build_ms", tracer.meanMs("machine.build"), "ms"});
    return out;
}

/** Set-up, then whole passes for opt.seconds into rep (untraced run),
 *  or the traced run, whose per-layer metrics it returns. */
std::vector<Metric>
runLadder(Ladder &ladder, const Options &opt, const splitc::SplitcConfig &sc,
          Report &rep)
{
    rep.tracer.setEnabled(opt.trace);
    {
        ScopedSpan s(&rep.tracer, "setup");
        ladder.setup(rep.tracer);
    }
    const double setup_s = scaledSetupS(opt.start);
    ladder.prepareChecks(rep.tracer);
    if (opt.trace)
        return tracedLadder(ladder, opt, sc, rep);
    const machine::MachineConfig mc = machine::MachineConfig::t3d(ladder.pes);
    runPass(ladder, mc, sc, rep, nullptr, nullptr); // warm-up
    HostSpeed speed(opt.speedThreads);
    speed.mark();
    const double end = nowS() + opt.seconds;
    do {
        runPass(ladder, mc, sc, rep, nullptr, &speed);
    } while (nowS() < end);
    rep.metrics = endToEndMetrics(rep.stats, setup_s);
    return {};
}

/** Per-layer metrics shared by the two EM3D workloads. */
void
em3dLayers(Em3dLadder &ladder, Report &rep, std::vector<Metric> &out)
{
    const Tracer &tr = rep.tracer;
    const double build = tr.meanMs("machine.build");
    const double graph = tr.meanMs("em3d.graph_build");
    out.push_back({"em3d.graph_build_ms", graph, "ms"});
    double versions = 0;
    for (em3d::Version v : em3d::allVersions) {
        const std::string name = em3d::versionName(v);
        const double ms = tr.meanMs("em3d.version." + name);
        out.push_back({"em3d.version_ms." + name, ms, "ms"});
        versions += ms;
    }
    out.push_back({"em3d.rest_ms",
                   versions / double(ladder.rungs.size()) - build - graph,
                   "ms"});
}

void
runEm3d(const Options &opt, Report &rep, const em3d::Config &cfg,
        std::uint32_t pes, std::vector<em3d::Version> versions)
{
    Em3dLadder ladder(cfg, pes, std::move(versions));
    splitc::SplitcConfig sc;
    sc.hostThreads = -1; // sequential scheduler
    std::vector<Metric> layers = runLadder(ladder, opt, sc, rep);
    if (!opt.trace)
        return;
    em3dLayers(ladder, rep, layers);
    rep.metrics = std::move(layers);
}

} // namespace

void
runEm3dFig9(const Options &opt, Report &rep)
{
    em3d::Config cfg;
    cfg.nodesPerPe = 100;
    cfg.degree = 10;
    cfg.remoteFraction = 0.2;
    cfg.seed = SplitMix64{opt.seed}.next();
    runEm3d(opt, rep, cfg, 256,
            {std::begin(em3d::allVersions), std::end(em3d::allVersions)});
}

void
runEm3dWeak4k(const Options &opt, Report &rep)
{
    em3d::Config cfg;
    cfg.nodesPerPe = 32;
    cfg.degree = 4;
    cfg.remoteFraction = 0.2;
    cfg.seed = SplitMix64{opt.seed}.next();
    runEm3d(opt, rep, cfg, 4096,
            {em3d::Version::Simple, em3d::Version::Get, em3d::Version::Bulk});
}

void
runBsortPar4(const Options &opt, Report &rep)
{
    apps::bsort::Config cfg;
    cfg.seed = SplitMix64{opt.seed}.next();
    BsortLadder ladder(cfg, 256);
    // hostThreads = 0 takes the worker count from T3DSIM_HOST_THREADS,
    // which main() pins to 4 for this workload.
    const splitc::SplitcConfig sc;
    std::vector<Metric> layers = runLadder(ladder, opt, sc, rep);
    if (!opt.trace)
        return;

    // The same ladder on the sequential scheduler: its host time, and
    // per-rung simulated cycles equal to the parallel run's.
    splitc::SplitcConfig seq;
    seq.hostThreads = -1;
    const machine::MachineConfig mc = machine::MachineConfig::t3d(ladder.pes);
    const std::vector<Cycles> par =
        runPass(ladder, mc, sc, rep, nullptr, nullptr);
    double t0 = nowS();
    const std::vector<Cycles> seq_cycles =
        runPass(ladder, mc, seq, rep, nullptr, nullptr);
    const double seq_s = nowS() - t0;
    t0 = nowS();
    runPass(ladder, mc, sc, rep, nullptr, nullptr);
    const double par_s = nowS() - t0;
    for (std::size_t i = 0; i < par.size(); ++i) {
        const std::string err = checkCyclesEqual(par[i], seq_cycles[i]);
        rep.stats.op(err.empty(), ladder.spanName(i) + ": " + err);
    }
    layers.push_back({"splitc.seq_pass_s", seq_s, "s"});
    layers.push_back({"splitc.parallel_speedup", seq_s / par_s, "x"});

    const Tracer &tr = rep.tracer;
    layers.push_back({"bsort.plan_build_ms", tr.meanMs("bsort.plan_build"),
                      "ms"});
    for (apps::Variant v : apps::allVariants) {
        const std::string name = apps::variantName(v);
        layers.push_back({"bsort.rung_ms." + name,
                          tr.meanMs("bsort.rung." + name), "ms"});
    }
    rep.metrics = std::move(layers);
}

} // namespace perfbench
