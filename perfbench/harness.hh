/**
 * @file
 * Measurement plumbing shared by the workloads: host clocks, the
 * per-run accumulator behind the end-to-end metrics, and the span
 * recorder behind the traced run's per-layer metrics.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** SplitMix64: the benchmark's own random stream for its inputs,
 *  apart from the program's generators. */
struct SplitMix64
{
    std::uint64_t state;

    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    std::uint64_t below(std::uint64_t n) { return next() % n; }
};

/** Monotonic host time in seconds. */
double nowS();

/** CPU time of the whole process (every thread) in seconds. */
double processCpuS();

/** Peak resident set of the process in MiB. */
double peakRssMiB();

/**
 * Host speed. The speed of the reference host moves by up to 1.5x
 * from one second to the next and between minutes, in its caches
 * rather than its clock (README "Steadiness"). Every time metric is
 * therefore scaled to a fixed host speed: a run times a reference
 * loop, the benchmark's own code and none of the program's, next to
 * each pass, and multiplies the pass's times by
 * referenceLoopNominalS over the loop's time. A change to the program
 * moves the scaled times as much as the raw ones; a change of host
 * speed moves the pass and the loop together.
 */
constexpr double referenceLoopNominalS = 0.017;

/**
 * Wall seconds of the reference loop: a small discrete-event loop
 * whose events update words of a state table through a lookup table.
 * It runs on @p threads threads at once; the result is the mean of
 * their times, the mean speed of the CPUs they ran on.
 */
double referenceLoopS(unsigned threads);

/** Set-up time since @p start, scaled by one reference loop run on
 *  one thread right after it. */
double scaledSetupS(double start);

/** Host speed across a run's passes, from the reference loop run on
 *  one thread for a sequential workload (it stays on the workload's
 *  CPU) or on every CPU for a multi-threaded one (its threads move
 *  among them all). */
class HostSpeed
{
  public:
    explicit HostSpeed(unsigned threads) : _threads(threads) {}

    /** Time the reference loop. Returns the scale of the interval
     *  since the previous mark: referenceLoopNominalS over the mean
     *  of the two loop times (over this one's on the first mark). */
    double mark();

  private:
    unsigned _threads;
    double _last = 0;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** Nearest-rank quantile (q in (0, 1]) of @p xs; 0 when empty. */
double quantile(std::vector<double> xs, double q);

/** Median of @p xs (nearest-rank); 0 when empty. */
double median(const std::vector<double> &xs);

/**
 * What one run attempts and what it measures. Operations are counted
 * whether or not they are timed (a warm-up pass and the traced run's
 * extra passes are checked too), so `attempted` is always whole
 * passes of the workload's fixed operation list.
 */
struct RunStats
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** First few failure messages, for stderr. */
    std::vector<std::string> failures;

    /** Host wall and CPU time of each timed pass, as measured, and
     *  the scale of each (HostSpeed::mark). */
    std::vector<double> passWallS;
    std::vector<double> passCpuS;
    std::vector<double> passScale;

    /** Latency of each timed operation in ms, scaled like its pass. */
    std::vector<double> opLatencyMs;

    /** Record one checked operation. */
    void op(bool ok, const std::string &what);

    /** Record a timed pass; its operations' latencies are those from
     *  index @p first_op of opLatencyMs on. */
    void endPass(double wall_s, double cpu_s, double scale,
                 std::size_t first_op);
};

/** The seven end-to-end metrics from a run's timed passes, every time
 *  scaled to the reference host speed. */
std::vector<Metric> endToEndMetrics(const RunStats &stats, double setup_s);

/**
 * In-memory span recorder: name, start, end and parent of each
 * interval the benchmark wraps around a library call. Disabled
 * recorders cost one branch per span.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        int parent = -1;
        double start = 0;
        double end = 0;
    };

    explicit Tracer(bool enabled = false) : _enabled(enabled) {}

    bool enabled() const { return _enabled; }
    void setEnabled(bool on) { _enabled = on; }

    /** Open a span under the innermost open one; returns its id. */
    int open(const std::string &name);
    void close(int id);

    /** Record an already-measured interval under @p parent. */
    int record(const std::string &name, int parent, double start,
               double end);

    /** Innermost open span, or -1. */
    int current() const { return _stack.empty() ? -1 : _stack.back(); }

    const std::vector<Span> &spans() const { return _spans; }

    /** Per span name: count, total and self milliseconds. */
    struct Totals
    {
        std::uint64_t count = 0;
        double totalMs = 0;
        double selfMs = 0;
    };
    std::map<std::string, Totals> totals() const;

    /** Mean duration in ms of spans named @p name (0 if none). */
    double meanMs(const std::string &name) const;

    /** Spans and self times as one JSON document. */
    void writeJson(std::ostream &os) const;

  private:
    bool _enabled;
    std::vector<Span> _spans;
    std::vector<int> _stack;
};

/** RAII span; a no-op when the tracer is null or disabled. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const std::string &name)
        : _tracer(tracer && tracer->enabled() ? tracer : nullptr),
          _id(_tracer ? _tracer->open(name) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (_tracer)
            _tracer->close(_id);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *_tracer;
    int _id;
};

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
