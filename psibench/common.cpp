#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include <time.h>


namespace psibench {

// ----- samples --------------------------------------------------------------

void
Samples::sort()
{
    if (!_sorted) {
        std::sort(_v.begin(), _v.end());
        _sorted = true;
    }
}

double
Samples::quantile(double q)
{
    if (_v.empty())
        return 0.0;
    sort();
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(_v.size())));
    return _v[std::clamp<std::size_t>(rank, 1, _v.size()) - 1];
}

std::size_t
Samples::beyond(double x)
{
    sort();
    return static_cast<std::size_t>(
        _v.end() - std::upper_bound(_v.begin(), _v.end(), x));
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double logs = 0.0;
    for (double x : v) {
        if (!(x > 0.0))
            return 0.0;
        logs += std::log(x);
    }
    return std::exp(logs / static_cast<double>(v.size()));
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

namespace {

double
cpuClockNs(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) * 1e9 +
           static_cast<double>(ts.tv_nsec);
}

} // namespace

double
processCpuNs()
{
    return cpuClockNs(CLOCK_PROCESS_CPUTIME_ID);
}

double
threadCpuNs()
{
    return cpuClockNs(CLOCK_THREAD_CPUTIME_ID);
}

// ----- host steal ------------------------------------------------------------------

CpuTicks
CpuTicks::now()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    double user = 0, nice = 0, sys = 0, idle = 0, iowait = 0, irq = 0,
           softirq = 0, steal = 0;
    in >> cpu >> user >> nice >> sys >> idle >> iowait >> irq >> softirq >>
        steal;
    return {user + nice + sys + irq + softirq, steal};
}

double
CpuTicks::stealShareSince(const CpuTicks &t0) const
{
    const double b = busy - t0.busy;
    const double s = steal - t0.steal;
    return b + s > 0 ? s / (b + s) : 0.0;
}

StealMonitor::StealMonitor() : _thread([this] {
    // Allocate up front: growing the vector from this thread mid-run
    // would interleave with the measured threads' allocations.
    {
        std::lock_guard<std::mutex> lock(_m);
        _samples.reserve(1 << 13);
    }
    run();
})
{}

StealMonitor::~StealMonitor()
{
    {
        std::lock_guard<std::mutex> lock(_m);
        _stop = true;
    }
    _cv.notify_all();
    _thread.join();
}

void
StealMonitor::run()
{
    std::unique_lock<std::mutex> lock(_m);
    while (!_stop) {
        _samples.push_back({nowNs(), CpuTicks::now()});
        _cv.wait_for(lock, std::chrono::milliseconds(100),
                     [this] { return _stop; });
    }
}

double
StealMonitor::shareBetween(std::int64_t fromNs, std::int64_t toNs) const
{
    std::lock_guard<std::mutex> lock(_m);
    if (_samples.size() < 2)
        return 0.0;
    auto after = [](const auto &s, std::int64_t t) { return s.first < t; };
    auto hi = std::lower_bound(_samples.begin(), _samples.end(), toNs, after);
    if (hi == _samples.end())
        --hi;
    auto lo = std::lower_bound(_samples.begin(), _samples.end(), fromNs, after);
    if (lo != _samples.begin())
        --lo;
    if (lo >= hi)
        return 0.0;
    return hi->second.stealShareSince(lo->second);
}

StealMonitor &
stealMonitor()
{
    static StealMonitor monitor;
    return monitor;
}

// ----- answer oracle ----------------------------------------------------------

namespace {

void
fnv(std::uint64_t &h, const std::string &s)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
}

/**
 * Expected answers, pinned.  Each digest was taken from the fidelity
 * engine and agrees with the fast engine and with the WAM baseline;
 * ensureReference() re-confirms every pin against the baseline at
 * set-up, so a pin can only be wrong if all three engines agree on it.
 */
const std::map<std::string, std::uint64_t> &
pins()
{
    static const std::map<std::string, std::uint64_t> table = {
        {"nreverse30", 0x95885eccd4178403ull},
        {"qsort50", 0x86feb3eae6660a5eull},
        {"tree", 0x33fc869423b98f99ull},
        {"lisp_tarai", 0x0986b00acc89f789ull},
        {"lisp_fib", 0xc0973efdcbd8eabbull},
        {"lisp_nrev", 0xb39be108d389fa0bull},
        {"queens1", 0xbf17755bbb1abebfull},
        {"queensall", 0x4902e356cdb15ddaull},
        {"revfunc", 0xa6b7c3dd69c225d5ull},
        {"slowrev6", 0xf1b5611943a3acecull},
        {"bup1", 0xcacdff9f596615b9ull},
        {"bup2", 0x0fe326029d103401ull},
        {"bup3", 0x86fcd19f29000124ull},
        {"harmonizer1", 0x4717296fbb9a010aull},
        {"harmonizer2", 0x5943ce66e9607c5dull},
        {"harmonizer3", 0xa46ae7ca05530df1ull},
        {"lcp1", 0xb165c095eb9637b9ull},
        {"lcp2", 0xc233f03ae3169534ull},
        {"lcp3", 0x45bc58c6a46cdff2ull},
        {"puzzle8", 0xca18925f79de8ed1ull},
        {"trail40", 0xc6e70aa0bb5916adull},
        {"deeprec", 0xe24f75fc5e974cd1ull},
        {"permall6", 0x77dfb7c833c77236ull},
        {"setclash", 0x94822bfd88fc7237ull},
        {"permjoin", 0x2be8c76394370673ull},
        {"polyop", 0xa5bf7fb6bb1c1ea3ull},
    };
    return table;
}

std::mutex g_refMutex;
std::map<std::string, bool> g_confirmed;

} // namespace

std::uint64_t
answerDigest(const std::vector<std::string> &solutions,
             const std::string &output)
{
    std::uint64_t h = 14695981039346656037ull;
    for (const auto &s : solutions) {
        fnv(h, s);
        fnv(h, "\n");
    }
    fnv(h, "#");
    fnv(h, output);
    return h;
}

std::uint64_t
answerDigest(const psi::interp::RunResult &r)
{
    std::vector<std::string> sols;
    sols.reserve(r.solutions.size());
    for (const auto &s : r.solutions)
        sols.push_back(s.str());
    return answerDigest(sols, r.output);
}

void
ensureReference(const std::vector<psi::programs::BenchProgram> &programs)
{
    for (const auto &p : programs) {
        {
            std::lock_guard<std::mutex> lock(g_refMutex);
            if (g_confirmed.count(p.id))
                continue;
        }
        auto pin = pins().find(p.id);
        if (pin == pins().end())
            throw std::runtime_error("no pinned answer for " + p.id);
        psi::interp::RunLimits limits;
        limits.maxSolutions = p.maxSolutions;
        std::uint64_t got = answerDigest(psi::runOnBaseline(p, limits));
        if (got != pin->second) {
            char buf[160];
            std::snprintf(buf, sizeof buf,
                          "baseline answer for %s (%016llx) disagrees "
                          "with the pinned answer (%016llx)",
                          p.id.c_str(),
                          static_cast<unsigned long long>(got),
                          static_cast<unsigned long long>(pin->second));
            throw std::runtime_error(buf);
        }
        std::lock_guard<std::mutex> lock(g_refMutex);
        g_confirmed[p.id] = true;
    }
}

std::uint64_t
expectedDigest(const std::string &id)
{
    std::lock_guard<std::mutex> lock(g_refMutex);
    if (!g_confirmed.count(id))
        throw std::logic_error("answer for " + id + " not cross-checked");
    return pins().at(id);
}

std::size_t
baselineChecked()
{
    std::lock_guard<std::mutex> lock(g_refMutex);
    return g_confirmed.size();
}

// ----- spans ------------------------------------------------------------------

Tracer &
tracer()
{
    static Tracer t;
    return t;
}

std::uint32_t
Tracer::record(const char *name, std::int64_t startNs, std::int64_t endNs,
               std::uint32_t parent, std::uint64_t request)
{
    if (!enabled())
        return 0;
    std::lock_guard<std::mutex> lock(_m);
    _spans.push_back({name, startNs, endNs, parent, request});
    return static_cast<std::uint32_t>(_spans.size());
}

std::map<std::string, std::pair<double, std::size_t>>
Tracer::selfTimes() const
{
    std::lock_guard<std::mutex> lock(_m);
    // Children of each span, as intervals, to subtract their union.
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        _spans.size());
    for (const auto &s : _spans) {
        if (s.parent != 0)
            kids[s.parent - 1].push_back({s.startNs, s.endNs});
    }
    std::map<std::string, std::pair<double, std::size_t>> out;
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t cur = s.startNs;
        for (auto [a, b] : iv) {
            a = std::max(a, cur);
            b = std::min(b, s.endNs);
            if (b > a) {
                covered += b - a;
                cur = b;
            }
        }
        auto &slot = out[s.name];
        slot.first += static_cast<double>(s.endNs - s.startNs - covered);
        slot.second += 1;
    }
    return out;
}

bool
Tracer::writeChromeJson(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(_m);
    std::ofstream out(path);
    if (!out)
        return false;
    std::int64_t t0 = _spans.empty() ? 0 : _spans.front().startNs;
    for (const auto &s : _spans)
        t0 = std::min(t0, s.startNs);
    out << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,"
                      "\"args\":{\"id\":%zu,\"parent\":%u}}\n",
                      i ? "," : "", s.name,
                      static_cast<unsigned long long>(s.request),
                      static_cast<double>(s.startNs - t0) / 1e3,
                      static_cast<double>(s.endNs - s.startNs) / 1e3,
                      i + 1, s.parent);
        out << buf;
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

// ----- result record ------------------------------------------------------------

void
Report::set(const std::string &name, double value, const std::string &unit)
{
    for (auto &m : metrics) {
        if (m.name == name) {
            m = {name, value, unit};
            return;
        }
    }
    metrics.push_back({name, value, unit});
}

double
Report::get(const std::string &name) const
{
    for (const auto &m : metrics) {
        if (m.name == name)
            return m.value;
    }
    return 0.0;
}

void
Report::count(std::uint64_t a, std::uint64_t f, std::uint64_t w)
{
    attempted += a;
    failed += f;
    wrongAnswers += w;
}

void
note(const std::string &line)
{
    std::cout << line << '\n';
}

void
noteLatency(const std::string &what, Samples &s)
{
    std::string line = what + ": " + std::to_string(s.size()) + " samples";
    for (double q : {0.5, 0.9, 0.95, 0.99}) {
        const double v = s.quantile(q);
        line += ", p" + fmt(q * 100, 0) + " " + fmt(v / 1e6, 4) + " ms (" +
                std::to_string(s.beyond(v)) + " beyond)";
    }
    note(line);
}

std::string
fmt(double v, int prec)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", prec, v);
    return buf;
}

} // namespace psibench
