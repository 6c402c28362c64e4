/**
 * @file
 * psibench shared pieces: clocks, raw-sample quantiles, CPU and steal
 * accounting, the answer oracle, the in-memory span recorder and the
 * result record.
 *
 * psibench drives libpsi only through its public API, from outside
 * the library: every span and every metric is taken in this
 * directory's code, around calls into the layer it names.
 */

#ifndef PSIBENCH_COMMON_HPP
#define PSIBENCH_COMMON_HPP

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "psi.hpp"

namespace psibench {

using Clock = std::chrono::steady_clock;

/** Nanoseconds on the steady clock (one epoch for every thread). */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** Every sample kept; quantiles by nearest rank over the sorted set. */
class Samples
{
  public:
    void add(double v) { _v.push_back(v); _sorted = false; }
    void add(const Samples &o)
    {
        _v.insert(_v.end(), o._v.begin(), o._v.end());
        _sorted = false;
    }
    std::size_t size() const { return _v.size(); }
    bool empty() const { return _v.empty(); }
    /** Nearest-rank quantile, q in (0, 1]; 0 when empty. */
    double quantile(double q);
    double median() { return quantile(0.5); }
    /** Samples strictly greater than @p x. */
    std::size_t beyond(double x);

  private:
    void sort();
    std::vector<double> _v;
    bool _sorted = true;
};

/** Geometric mean; 0 when empty or any value is not positive. */
double geomean(const std::vector<double> &v);

/** Peak resident set of this process (VmHWM), in MiB. */
double peakRssMb();

/** CPU time of this process, all threads, and of the calling thread.
 *  Time the hypervisor steals from a vCPU is not counted (paravirt
 *  steal accounting). */
double processCpuNs();
double threadCpuNs();

/** Busy and steal ticks of all CPUs so far (/proc/stat). */
struct CpuTicks
{
    double busy = 0.0;
    double steal = 0.0;
    static CpuTicks now();
    /** Share of busy CPU time the hypervisor took back since @p t0. */
    double stealShareSince(const CpuTicks &t0) const;
};

/**
 * Steal monitor.  On a shared VM the hypervisor takes back CPU time
 * (steal) in bursts, and the same code then runs 15-35% slower; that is
 * most of the run-to-run noise.  A background thread samples
 * /proc/stat every 100 ms so each measuring window can be tagged with
 * the steal it suffered, and a run can report its quieter windows.
 */
class StealMonitor
{
  public:
    StealMonitor();
    ~StealMonitor();
    StealMonitor(const StealMonitor &) = delete;
    StealMonitor &operator=(const StealMonitor &) = delete;

    /** Steal share over [@p fromNs, @p toNs], widened to the samples
     *  around it. */
    double shareBetween(std::int64_t fromNs, std::int64_t toNs) const;

  private:
    void run();
    mutable std::mutex _m;
    std::condition_variable _cv;
    bool _stop = false;                                   // guarded by _m
    std::vector<std::pair<std::int64_t, CpuTicks>> _samples; // guarded by _m
    std::thread _thread;
};

/** The process's monitor (started by main before any workload). */
StealMonitor &stealMonitor();

// ----- answer oracle ----------------------------------------------------

/**
 * Digest of one answer: every rendered solution and the program's
 * write/nl/tab output.  In-process results and wire RESULTs render
 * solutions the same way (interp::Solution::str()).
 */
std::uint64_t answerDigest(const std::vector<std::string> &solutions,
                           const std::string &output);
std::uint64_t answerDigest(const psi::interp::RunResult &r);

/**
 * The pinned expected answers.  ensureReference() cross-checks the
 * pinned digest of every program in @p programs against the WAM
 * baseline engine (never the engines under test) and fails the run
 * on any disagreement or on a program with no pinned answer.
 */
void ensureReference(const std::vector<psi::programs::BenchProgram> &programs);

/** Pinned digest for @p id; ensureReference() must have covered it. */
std::uint64_t expectedDigest(const std::string &id);

/** Programs whose pins the baseline has confirmed so far. */
std::size_t baselineChecked();

// ----- spans --------------------------------------------------------------

/**
 * In-memory span recorder.  Spans are recorded only in benchmark code,
 * around public libpsi calls, kept until exit and written once as
 * Chrome trace-event JSON.  When disabled, record() is a no-op and
 * costs one load.
 */
class Tracer
{
  public:
    struct Span
    {
        const char *name;
        std::int64_t startNs;
        std::int64_t endNs;
        std::uint32_t parent;  ///< index + 1 of the parent; 0 = root
        std::uint64_t request; ///< spans of one request share this
    };

    bool enabled() const { return _enabled.load(std::memory_order_relaxed); }
    void setEnabled(bool on) { _enabled.store(on, std::memory_order_relaxed); }

    /** Record a finished span; @return its id (index + 1), 0 if off. */
    std::uint32_t record(const char *name, std::int64_t startNs,
                         std::int64_t endNs, std::uint32_t parent = 0,
                         std::uint64_t request = 0);

    /** Self time per span name, in ns: duration minus the part of
     *  the interval its child spans cover. */
    std::map<std::string, std::pair<double, std::size_t>> selfTimes() const;

    /** Write the spans as Chrome trace events; false on I/O error. */
    bool writeChromeJson(const std::string &path) const;

  private:
    std::atomic<bool> _enabled{false};
    mutable std::mutex _m;
    std::vector<Span> _spans; // guarded by _m
};

Tracer &tracer();

// ----- result record ------------------------------------------------------

/** What one run reports. */
struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;       ///< errors, refusals, timeouts, wrong answers
    std::uint64_t wrongAnswers = 0; ///< subset of failed
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics;

    void set(const std::string &name, double value, const std::string &unit);
    double get(const std::string &name) const;
    /** Add a batch of requests to the counts. */
    void count(std::uint64_t attempted, std::uint64_t failed,
               std::uint64_t wrong);
    bool correct() const { return wrongAnswers == 0 && failed == 0; }
};

/** Print one human-readable line (stdout, before the JSON line). */
void note(const std::string &line);

std::string fmt(double v, int prec = 3);

/** Print a latency set: sample count, p50 and p99 with the number of
 *  samples beyond each (raw samples, nearest rank). */
void noteLatency(const std::string &what, Samples &s);

} // namespace psibench

#endif // PSIBENCH_COMMON_HPP
