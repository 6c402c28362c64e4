/**
 * @file
 * The two serving workloads, over loopback psinet in this process.
 *
 * serve_small: small requests to one PsiServer (2 workers), where
 * load, query parse/compile, queueing and the wire are a large share
 * of each request.  Three phases, run as slices of a series of
 * rounds: an open loop at a fixed rate near half capacity (latency), a
 * bounded window far above capacity (goodput), and the same requests
 * in fidelity mode, open loop at about a third of capacity (fidelity
 * LIPS as served).
 *
 * serve_mixed: a seeded reqlog::synthesize() replay (MMPP bursts,
 * Zipf tenants, a fast/fidelity split, some deadlines) through a
 * PsiRouter over two single-worker PsiServers.  Heavy and light
 * programs share workers, so a light request often loads right after
 * a heavy one, and every request takes the router hop.
 *
 * Open-loop latency is timed from each request's due time, so a
 * stall also delays the requests behind it; the generator's own
 * lateness is reported so a run where the generator, not the server,
 * fell behind is flagged.
 */

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <map>
#include <random>
#include <semaphore>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "base/reqlog.hpp"
#include "workloads.hpp"

namespace psibench {

using psi::interp::ExecMode;
using psi::programs::BenchProgram;

namespace {

constexpr int kRecvPollMs = 50;
/** How long a phase waits for its last results before counting the
 *  missing ones as failed. */
constexpr std::int64_t kDrainNs = 30'000'000'000;
/** Generator lateness p99 above this flags the run as generator-bound. */
constexpr double kGeneratorBehindNs = 500'000.0;

// ----- in-process servers ----------------------------------------------------

class ServerBox
{
  public:
    explicit ServerBox(const psi::net::PsiServer::Config &cfg)
        : _server(cfg)
    {
        std::string err;
        if (!_server.start(&err))
            throw std::runtime_error("psinet server: " + err);
        _loop = std::thread([this] { _server.run(); });
    }
    ~ServerBox()
    {
        _server.requestDrain();
        _loop.join();
    }
    ServerBox(const ServerBox &) = delete;
    ServerBox &operator=(const ServerBox &) = delete;
    std::uint16_t port() const { return _server.port(); }

  private:
    psi::net::PsiServer _server;
    std::thread _loop;
};

class RouterBox
{
  public:
    explicit RouterBox(const psi::router::PsiRouter::Config &cfg)
        : _router(cfg)
    {
        std::string err;
        if (!_router.start(&err))
            throw std::runtime_error("psirouter: " + err);
        _loop = std::thread([this] { _router.run(); });
    }
    ~RouterBox()
    {
        _router.requestDrain();
        _loop.join();
    }
    RouterBox(const RouterBox &) = delete;
    RouterBox &operator=(const RouterBox &) = delete;
    std::uint16_t port() const { return _router.port(); }

  private:
    psi::router::PsiRouter _router;
    std::thread _loop;
};

std::unique_ptr<psi::net::PsiClient>
connectTo(std::uint16_t port)
{
    auto c = std::make_unique<psi::net::PsiClient>();
    std::string err;
    if (!c->connect("127.0.0.1", port, &err) ||
        !c->hello(psi::net::kSupportedFeatures, 5000, &err))
        throw std::runtime_error("connect to port " + std::to_string(port) +
                                 ": " + err);
    return c;
}

/** A u64 (or fixed-point) value of a flat STATS JSON object. */
double
statValue(const std::string &json, const std::string &key)
{
    const std::string k = "\"" + key + "\": ";
    std::size_t at = json.find(k);
    if (at == std::string::npos)
        throw std::runtime_error("STATS reply has no " + key);
    return std::stod(json.substr(at + k.size()));
}

std::string
fetchStats(psi::net::PsiClient &c)
{
    std::int64_t t0 = nowNs();
    std::string err;
    auto json = c.stats(5000, &err);
    if (!json)
        throw std::runtime_error("STATS: " + err);
    tracer().record("client.stats", t0, nowNs());
    return *json;
}

// ----- the load generator ------------------------------------------------------

/** One request, scheduled then answered. */
struct Req
{
    std::int64_t dueNs = 0; ///< absolute; closed window: when a slot freed
    std::uint32_t prog = 0; ///< index into the workload's programs
    ExecMode mode = ExecMode::Fast;
    std::string tenant;
    std::uint64_t deadlineNs = 0;
    std::int64_t sentNs = 0;
    std::int64_t doneNs = 0;
    bool ok = false;
    bool wrong = false;
    bool overloaded = false;
    std::uint64_t queueNs = 0, execNs = 0, latencyNs = 0, inferences = 0;
};

struct Phase
{
    std::vector<Req> done;   ///< every request, answered or not
    Samples lateNs;          ///< generator wake-up behind schedule
    std::int64_t startNs = 0;///< first due time
    double spanNs = 0.0;     ///< scheduled length of the phase
    double elapsedNs = 0.0;  ///< first due -> last answer
};

/** One load connection: the sender and receiver halves of a client. */
struct LoadConn
{
    std::unique_ptr<psi::net::PsiClient> client;
    std::mutex m;
    std::unordered_map<std::uint64_t, Req> inflight; // guarded by m
    std::vector<Req> finished;                      // receiver only
};

/**
 * Drive @p conns for the phase [@p startNs, @p startNs + @p spanNs):
 * with the open-loop @p schedule (absolute due times inside the
 * phase) when @p window is 0, else a closed loop keeping @p window
 * requests outstanding per connection, with requests drawn by @p draw.
 */
Phase
drive(std::vector<std::unique_ptr<LoadConn>> &conns,
      const std::vector<BenchProgram> &programs,
      const std::vector<Req> &schedule, unsigned window,
      std::int64_t startNs, double spanNs, const std::function<Req()> &draw)
{
    const std::int64_t endNs = startNs + static_cast<std::int64_t>(spanNs);
    const std::size_t nconn = conns.size();
    std::vector<std::atomic<std::uint64_t>> sent(nconn);
    std::atomic<bool> genDone{false};
    std::counting_semaphore<1 << 20> slots(
        static_cast<std::ptrdiff_t>(window * nconn));
    std::vector<Req> unsent;
    Samples late;

    auto receiver = [&](std::size_t ci) {
        LoadConn &lc = *conns[ci];
        std::uint64_t got = 0;
        std::int64_t giveUp = 0;
        for (;;) {
            if (genDone.load() && got == sent[ci].load()) {
                break;
            }
            if (genDone.load() && giveUp == 0)
                giveUp = nowNs() + kDrainNs;
            if (giveUp != 0 && nowNs() > giveUp)
                break;
            std::string err;
            auto res = lc.client->recvResult(kRecvPollMs, &err);
            if (!res) {
                if (!lc.client->connected())
                    break;
                continue;
            }
            const std::int64_t now = nowNs();
            Req rq;
            {
                std::lock_guard<std::mutex> lock(lc.m);
                auto it = lc.inflight.find(res->tag);
                if (it == lc.inflight.end())
                    continue;
                rq = std::move(it->second);
                lc.inflight.erase(it);
            }
            ++got;
            if (window != 0)
                slots.release();
            rq.doneNs = now;
            rq.queueNs = res->queueNs;
            rq.execNs = res->execNs;
            rq.latencyNs = res->latencyNs;
            rq.inferences = res->inferences;
            rq.overloaded = res->status == psi::net::WireStatus::Overloaded;
            const BenchProgram &p = programs[rq.prog];
            rq.ok = res->status == psi::net::WireStatus::Ok;
            if (rq.ok && answerDigest(res->solutions, res->output) !=
                             expectedDigest(p.id)) {
                rq.ok = false;
                rq.wrong = true;
            }
            tracer().record("client.request", rq.sentNs, now, 0, res->tag);
            lc.finished.push_back(std::move(rq));
        }
        // Whatever is still in flight never answered: it failed.
        std::lock_guard<std::mutex> lock(lc.m);
        for (auto &kv : lc.inflight)
            lc.finished.push_back(std::move(kv.second));
        lc.inflight.clear();
    };

    auto send = [&](Req rq, std::size_t ci) {
        LoadConn &lc = *conns[ci];
        rq.sentNs = nowNs();
        std::lock_guard<std::mutex> lock(lc.m);
        std::uint64_t tag = 0;
        std::string err;
        if (!lc.client->sendSubmit(programs[rq.prog].id, rq.deadlineNs, &tag,
                                   &err, rq.tenant, rq.mode)) {
            unsent.push_back(std::move(rq));
            return false;
        }
        lc.inflight.emplace(tag, std::move(rq));
        sent[ci].fetch_add(1);
        return true;
    };

    auto generator = [&] {
        // Wake on time: the default 50 us timer slack would show up
        // in every open-loop latency.
        prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
        if (window == 0) {
            std::size_t i = 0;
            for (const Req &rq : schedule) {
                std::this_thread::sleep_until(
                    Clock::time_point(std::chrono::nanoseconds(rq.dueNs)));
                const std::int64_t woke = nowNs();
                late.add(static_cast<double>(woke - rq.dueNs));
                send(rq, i++ % nconn);
            }
        } else {
            std::size_t i = 0;
            while (nowNs() < endNs) {
                if (!slots.try_acquire_for(std::chrono::milliseconds(50)))
                    continue; // a dead connection must not wedge the loop
                Req rq = draw();
                rq.dueNs = nowNs();
                if (!send(std::move(rq), i++ % nconn))
                    slots.release();
            }
        }
        genDone.store(true);
    };

    std::vector<std::thread> threads;
    for (std::size_t ci = 0; ci < nconn; ++ci)
        threads.emplace_back(receiver, ci);
    std::thread gen(generator);
    gen.join();
    for (auto &t : threads)
        t.join();

    Phase ph;
    ph.lateNs = std::move(late);
    ph.startNs = startNs;
    ph.spanNs = spanNs;
    std::int64_t last = startNs;
    for (auto &lc : conns) {
        for (auto &rq : lc->finished) {
            last = std::max(last, rq.doneNs);
            ph.done.push_back(std::move(rq));
        }
        lc->finished.clear();
    }
    for (auto &rq : unsent)
        ph.done.push_back(std::move(rq));
    ph.elapsedNs = static_cast<double>(last - startNs);
    return ph;
}

/** Minimum samples for a window quantile; sparser windows are skipped. */
constexpr std::size_t kMinWindowSamples = 100;

/** program -> each request's inferences per host second of server
 *  execution (load + query compile + run) */
using LipsTally = std::map<std::uint32_t, Samples>;

/** Geometric mean over programs of their median request's LIPS: a
 *  request the host preempted mid-run moves a median, unlike a sum of
 *  execution times, by one rank at most. */
double
servedLips(LipsTally &m)
{
    std::vector<double> v;
    for (auto &kv : m)
        v.push_back(kv.second.median());
    return geomean(v);
}

/** Tallies of one phase, or of its slices: whole-phase samples plus
 *  per-window figures. */
struct PhaseStats
{
    Samples latencyNs, lightNs, netNs, queueNs;
    Samples lateNs; ///< generator wake-up behind schedule
    LipsTally fast, fidelity;
    std::uint64_t attempted = 0, ok = 0, wrong = 0, overloaded = 0;
    std::vector<WindowStats> windows;
};

/** Add @p ph to @p s, cutting it into the whole windows of @p windowNs
 *  that fit the phase: requests by due time, answers counted by
 *  completion time; what falls past the last whole window counts only
 *  in the whole-phase figures. */
void
tally(const Phase &ph, const std::vector<BenchProgram> &programs,
      double windowNs, PhaseStats &s)
{
    struct Slice
    {
        Samples lat, light;
        std::uint64_t done = 0;
    };
    const std::size_t nw = std::max<std::size_t>(
        1, static_cast<std::size_t>(ph.spanNs / windowNs + 1e-6));
    std::vector<Slice> slices(nw + 1); // the last one collects overflow
    auto slot = [&](std::int64_t t) {
        const double off = static_cast<double>(t - ph.startNs);
        return std::min(nw, static_cast<std::size_t>(
                                std::max(0.0, off) / windowNs));
    };
    s.lateNs.add(ph.lateNs);
    for (const Req &rq : ph.done) {
        ++s.attempted;
        if (rq.wrong)
            ++s.wrong;
        if (rq.overloaded)
            ++s.overloaded;
        if (!rq.ok)
            continue;
        ++s.ok;
        const double lat = static_cast<double>(rq.doneNs - rq.dueNs);
        const bool light = isLight(programs[rq.prog].id);
        Slice &w = slices[slot(rq.dueNs)];
        ++slices[slot(rq.doneNs)].done;
        s.latencyNs.add(lat);
        w.lat.add(lat);
        if (light) {
            s.lightNs.add(lat);
            w.light.add(lat);
        }
        s.netNs.add(lat - static_cast<double>(rq.latencyNs));
        s.queueNs.add(static_cast<double>(rq.queueNs));
        if (rq.execNs > 0)
            (rq.mode == ExecMode::Fast ? s.fast : s.fidelity)[rq.prog].add(
                static_cast<double>(rq.inferences) * 1e9 /
                static_cast<double>(rq.execNs));
    }
    slices.pop_back();
    for (std::size_t i = 0; i < slices.size(); ++i) {
        Slice &w = slices[i];
        WindowStats ws;
        ws.startNs = ph.startNs + static_cast<std::int64_t>(
                                      static_cast<double>(i) * windowNs);
        ws.endNs = ws.startNs + static_cast<std::int64_t>(windowNs);
        ws.goodput = static_cast<double>(w.done) * 1e9 / windowNs;
        if (w.lat.size() >= kMinWindowSamples) {
            ws.p50Ns = w.lat.quantile(0.5);
            ws.p99Ns = w.lat.quantile(0.99);
        }
        if (w.light.size() >= kMinWindowSamples)
            ws.lightP99Ns = w.light.quantile(0.99);
        s.windows.push_back(ws);
    }
    tagSteal(s.windows);
}

void
account(Report &r, const PhaseStats &s)
{
    r.count(s.attempted, s.attempted - s.ok, s.wrong);
}

/** Generator health; @return the lateness p99 in ns. */
double
noteGenerator(const std::string &what, PhaseStats &s)
{
    const double p99 = s.lateNs.quantile(0.99);
    note("generator (" + what + "): " + std::to_string(s.lateNs.size()) +
         " sends, late p50 " + fmt(s.lateNs.quantile(0.5) / 1e3, 1) +
         " us, p99 " + fmt(p99 / 1e3, 1) + " us, max " +
         fmt(s.lateNs.quantile(1.0) / 1e3, 1) + " us" +
         (p99 > kGeneratorBehindNs
              ? "  GENERATOR-BOUND: the load generator, not the server, "
                "fell behind schedule"
              : "  (kept to schedule)"));
    return p99;
}

/** Poisson arrivals at @p rate from @p startNs for @p seconds. */
std::vector<Req>
poissonSchedule(std::mt19937_64 &rng, std::size_t nprog, double rate,
                std::int64_t startNs, double seconds, ExecMode mode)
{
    std::exponential_distribution<double> gap(rate);
    std::uniform_int_distribution<std::uint32_t> pick(
        0, static_cast<std::uint32_t>(nprog - 1));
    std::vector<Req> out;
    double t = 0.0;
    while ((t += gap(rng)) < seconds) {
        Req rq;
        rq.dueNs = startNs + static_cast<std::int64_t>(t * 1e9);
        rq.prog = pick(rng);
        rq.mode = mode;
        out.push_back(std::move(rq));
    }
    return out;
}

std::vector<std::unique_ptr<LoadConn>>
loadConns(std::uint16_t port, int n)
{
    std::vector<std::unique_ptr<LoadConn>> conns;
    for (int i = 0; i < n; ++i) {
        conns.push_back(std::make_unique<LoadConn>());
        conns.back()->client = connectTo(port);
    }
    return conns;
}

/** One closed request per (program, mode), retried until the stack
 *  answers Ok: compiles every image and admits router backends. */
void
warmUp(psi::net::PsiClient &c, const std::vector<BenchProgram> &programs,
       const std::vector<ExecMode> &modes)
{
    const std::int64_t giveUp = nowNs() + 20'000'000'000;
    for (const auto &p : programs) {
        for (ExecMode m : modes) {
            for (;;) {
                psi::net::Request rq;
                rq.workload = p.id;
                rq.mode = m;
                rq.timeoutMs = 20000;
                std::string err;
                auto res = c.submit(rq, nullptr, &err);
                if (res && res->status == psi::net::WireStatus::Ok &&
                    answerDigest(res->solutions, res->output) ==
                        expectedDigest(p.id))
                    break;
                if (nowNs() > giveUp)
                    throw std::runtime_error("warm-up of " + p.id +
                                             " failed: " + err);
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
            }
        }
    }
}

/** The engine-layer probe of a traced serving run: a short closed
 *  engine loop in this process over the workload's programs. */
void
probeEngines(const std::vector<BenchProgram> &programs, double seconds,
             std::uint64_t seed, Report &r)
{
    std::vector<Image> images = compileImages(programs);
    EngineLoopResult loop = runEngineLoop(images, seconds, seed, 5000.0);
    r.count(loop.attempted, loop.failed, loop.wrong);
    engineLayerMetrics(images, loop, r);
}

// ----- serve_small ------------------------------------------------------------

/** Offered rate of the latency phase: under half of what 2 workers
 *  serve of this mix (5-8k r/s on a 4-vCPU x86 VM, depending on how
 *  busy its host is), so queueing stays modest. */
constexpr double kSmallRate = 3000.0;
/** Outstanding requests per connection in the saturation phase;
 *  2 x 16 never reaches the queue bound, so nothing is refused. */
constexpr unsigned kSaturationWindow = 16;
/** Offered rate of the fidelity phase: about a third of what 2
 *  workers serve in fidelity mode, so requests rarely wait and each
 *  is timed alone on its worker. */
constexpr double kFidelityRate = 300.0;
/** Seconds of each phase in one round.  The run is a series of short
 *  rounds, so every phase samples the whole run: on a shared VM the
 *  host's speed drifts over seconds by a fifth or more, with no steal
 *  to show for it, and a run's median over many short slices drifts
 *  far less than one long stretch. */
constexpr double kLatencySliceS = 2.0;
constexpr double kSaturationSliceS = 1.0;
constexpr double kFidelitySliceS = 1.0;
/** Measuring windows of the serve_small latency phase (long enough
 *  for ten light samples beyond each window's p99), of its saturation
 *  phase (short, so that the median over all of them is precise) and
 *  of its fidelity phase. */
constexpr double kSmallWindowNs = 2e9;
constexpr double kSaturationWindowNs = 0.25e9;
constexpr double kRateWindowNs = 1e9;
/** Steal share beyond which saturation goodput is scaled no further. */
constexpr double kMaxSteal = 0.5;
/** How closely net + queue + setup + solve must match the client
 *  median on serve_small for the split to count as accounted. */
constexpr double kSplitLowPct = 80.0;
constexpr double kSplitHighPct = 120.0;

struct SmallStack
{
    std::unique_ptr<ServerBox> server;
    std::vector<std::unique_ptr<LoadConn>> conns;
};

struct SmallRun
{
    PhaseStats latency, saturation, fidelity;
    double saturationNs = 0.0;
    double setupUs = 0.0, solveUs = 0.0; ///< STATS, latency phase
    double lateP99 = 0.0;
    double cpuNs = 0.0; ///< process CPU time over the latency phase
};

/** Open-loop Poisson slice of @p seconds at @p rate, added to @p s. */
void
openSlice(SmallStack &st, const std::vector<BenchProgram> &programs,
          std::mt19937_64 &rng, double rate, double seconds, ExecMode mode,
          double windowNs, PhaseStats &s)
{
    const std::int64_t start = nowNs() + 2'000'000;
    std::vector<Req> sched =
        poissonSchedule(rng, programs.size(), rate, start, seconds, mode);
    Phase ph = drive(st.conns, programs, sched, 0, start, seconds * 1e9,
                     nullptr);
    tally(ph, programs, windowNs, s);
}

/** Run the serve_small rounds on @p st, rebuilding it through
 *  @p newStack (when given) at the start of each round. */
SmallRun
smallPhases(SmallStack &st, const std::vector<BenchProgram> &programs,
            double seconds, std::uint64_t seed,
            const std::function<void()> &newStack)
{
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<std::uint32_t> pick(
        0, static_cast<std::uint32_t>(programs.size() - 1));
    auto draw = [&rng, &pick] {
        Req rq;
        rq.prog = pick(rng);
        rq.mode = ExecMode::Fast;
        return rq;
    };
    SmallRun out;
    double jobs = 0.0, setupNs = 0.0, solveNs = 0.0;
    const double roundS = kLatencySliceS + kSaturationSliceS + kFidelitySliceS;
    const int rounds =
        std::max(1, static_cast<int>(std::lround(seconds / roundS)));
    for (int i = 0; i < rounds; ++i) {
        if (newStack)
            newStack();
        psi::net::PsiClient &ctl = *st.conns[0]->client;
        const std::string before = fetchStats(ctl);
        const double cpu0 = processCpuNs();
        openSlice(st, programs, rng, kSmallRate, kLatencySliceS,
                  ExecMode::Fast, kSmallWindowNs, out.latency);
        out.cpuNs += processCpuNs() - cpu0;
        const std::string after = fetchStats(ctl);
        for (auto [sum, key] : {std::pair{&jobs, "completed"},
                                {&setupNs, "host_setup_ns"},
                                {&solveNs, "host_solve_ns"}})
            *sum += statValue(after, key) - statValue(before, key);

        Phase sat = drive(st.conns, programs, {}, kSaturationWindow, nowNs(),
                          kSaturationSliceS * 1e9, draw);
        tally(sat, programs, kSaturationWindowNs, out.saturation);
        out.saturationNs += sat.elapsedNs;

        openSlice(st, programs, rng, kFidelityRate, kFidelitySliceS,
                  ExecMode::Fidelity, kRateWindowNs, out.fidelity);
    }
    if (jobs > 0) {
        out.setupUs = setupNs / jobs / 1e3;
        out.solveUs = solveNs / jobs / 1e3;
    }
    // Saturated, the stack is CPU-bound and gets only 1 - s of each
    // window's CPU time when the hypervisor steals a share s of it:
    // scale goodput to per second of CPU the host actually gave.
    for (auto &w : out.saturation.windows)
        w.goodput /= 1.0 - std::min(w.disturbance, kMaxSteal);
    out.lateP99 = noteGenerator("latency phase", out.latency);
    noteGenerator("fidelity phase", out.fidelity);
    return out;
}

} // namespace

void
runServeSmall(const Options &opt, Report &r)
{
    const std::vector<BenchProgram> programs = programsById(
        {"nreverse30", "qsort50", "lcp1", "lcp2", "lcp3", "bup1", "bup2",
         "puzzle8", "tree", "setclash"});
    ensureReference(programs);

    // A fresh stack for every round, so the set-ups, like the phases,
    // sample the whole run.
    std::vector<double> setups;
    SmallStack st;
    auto newStack = [&] {
        st.conns.clear(); // clients go before the server drains
        st.server.reset();
        const std::int64_t t0 = nowNs();
        psi::net::PsiServer::Config cfg;
        cfg.workers = 2;
        // Deep enough that a host stall never turns into refusals.
        cfg.queueCapacity = 1024;
        st.server = std::make_unique<ServerBox>(cfg);
        st.conns = loadConns(st.server->port(), 2);
        warmUp(*st.conns[0]->client, programs,
               {ExecMode::Fast, ExecMode::Fidelity});
        setups.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    };

    const double secs = opt.trace ? opt.seconds * 0.4 : opt.seconds;
    SmallRun run = smallPhases(st, programs, secs, opt.seed, newStack);
    r.set("setup_s", medianOf(setups), "s");
    for (const PhaseStats *s : {&run.latency, &run.saturation, &run.fidelity})
        account(r, *s);
    const auto &lw = run.latency.windows;
    std::vector<double> goodputs;
    for (const auto &w : run.saturation.windows)
        goodputs.push_back(w.goodput);
    r.set("lips_fast", servedLips(run.latency.fast), "1/s");
    r.set("lips_fidelity", servedLips(run.fidelity.fidelity), "1/s");
    r.set("goodput_rps", medianOf(goodputs), "1/s");
    r.set("cpu_per_request_us",
          run.cpuNs / static_cast<double>(run.latency.attempted) / 1e3, "us");
    reportLatency(lw, r);
    noteWindows("latency phase", lw);
    noteLatency("latency phase (" + fmt(kSmallRate, 0) + " r/s offered)",
                run.latency.latencyNs);
    noteLatency("light requests", run.latency.lightNs);
    noteLatency("fidelity phase (" + fmt(kFidelityRate, 0) + " r/s offered)",
                run.fidelity.latencyNs);
    std::string sat = "saturation phase: " +
                      std::to_string(run.saturation.ok) + " ok in " +
                      fmt(run.saturationNs / 1e9, 2) +
                      " s; windows (r/s @ disturbance):";
    for (const auto &w : run.saturation.windows)
        sat += " " + fmt(w.goodput, 0) + "@" + fmt(w.disturbance, 3);
    note(sat);

    if (opt.trace) {
        const double untracedP50 = run.latency.latencyNs.median();
        tracer().setEnabled(true);
        SmallRun tr = smallPhases(st, programs, secs, opt.seed + 1, nullptr);
        for (const PhaseStats *s : {&tr.latency, &tr.saturation, &tr.fidelity})
            account(r, *s);
        const double p50 = tr.latency.latencyNs.median();
        const double net = tr.latency.netNs.median();
        const double queue = tr.latency.queueNs.median();
        r.set("service.queue_us", queue / 1e3, "us");
        r.set("service.setup_us", tr.setupUs, "us");
        r.set("service.solve_us", tr.solveUs, "us");
        r.set("net.overhead_us", net / 1e3, "us");
        r.set("net.overloaded",
              static_cast<double>(tr.latency.overloaded +
                                  tr.saturation.overloaded +
                                  tr.fidelity.overloaded),
              "count");
        r.set("gen.late_p99_us", tr.lateP99 / 1e3, "us");
        r.set("trace.overhead_us", (p50 - untracedP50) / 1e3, "us");
        // Medians of net and queue, means of setup and solve (STATS
        // gives only sums): they need not add up exactly, hence the
        // stated tolerance.
        const double sumUs =
            (net + queue) / 1e3 + tr.setupUs + tr.solveUs;
        const double pct = 100.0 * sumUs / (p50 / 1e3);
        note("split of the client median " + fmt(p50 / 1e3, 1) +
             " us: net " + fmt(net / 1e3, 1) + " + queue " +
             fmt(queue / 1e3, 1) + " + setup " + fmt(tr.setupUs, 1) +
             " + solve " + fmt(tr.solveUs, 1) + " = " + fmt(sumUs, 1) +
             " us (" + fmt(pct, 1) + "%, tolerance " +
             fmt(kSplitLowPct, 0) + "-" + fmt(kSplitHighPct, 0) + "%: " +
             (pct >= kSplitLowPct && pct <= kSplitHighPct
                  ? "accounted"
                  : "NOT accounted") +
             ")");
        const std::string stats = fetchStats(*st.conns[0]->client);
        const double hits = statValue(stats, "program_cache_hits");
        const double misses = statValue(stats, "program_cache_misses");
        r.set("service.cache_hit_ratio", hits / std::max(1.0, hits + misses),
              "ratio");
        r.set("sched.affinity_hit_ratio",
              statValue(stats, "sched_affinity_hit_ratio"), "ratio");
        r.set("sched.aged_dispatches",
              statValue(stats, "sched_aged_dispatches"), "count");
        r.set("sched.quota_rejects", statValue(stats, "sched_quota_rejects"),
              "count");
        probeEngines(programs, opt.seconds * 0.1, opt.seed, r);
    }
}

// ----- serve_mixed ------------------------------------------------------------

namespace {

/** Mean offered rate of the replay; bursts run at kBurst times the
 *  calm rate.  Sized so the busier backend stays below saturation. */
constexpr double kMixedRate = 250.0;
constexpr double kBurst = 3.0;
/** Long enough for ten light samples beyond each window's p99. */
constexpr double kMixedWindowNs = 5e9;

const std::vector<std::pair<std::string, std::uint64_t>> &
mixedShares()
{
    // Light programs carry most requests; the heavy ones (tens of
    // ms in fidelity mode) are few but hold a worker long enough
    // that light requests queue behind them.
    static const std::vector<std::pair<std::string, std::uint64_t>> m = {
        {"nreverse30", 30}, {"lcp1", 30},    {"bup1", 30},
        {"trail40", 3},     {"permjoin", 3}, {"permall6", 3},
        {"deeprec", 3},     {"harmonizer3", 1},
    };
    return m;
}

struct MixedStack
{
    std::unique_ptr<ServerBox> backends[2];
    std::unique_ptr<RouterBox> router;
    std::vector<std::unique_ptr<LoadConn>> conns;
    std::unique_ptr<psi::net::PsiClient> backendCtl[2];
};

struct MixedRun
{
    PhaseStats all;
    double lateP99 = 0.0;
    double setupUs = 0.0, solveUs = 0.0;
    double cpuNs = 0.0; ///< process CPU time over the replay
};

std::vector<Req>
mixedSchedule(const std::vector<BenchProgram> &programs, double seconds,
              std::uint64_t seed, std::int64_t startNs)
{
    psi::reqlog::GenConfig g;
    g.seed = seed;
    g.requests = static_cast<std::uint64_t>(kMixedRate * seconds);
    g.rate = kMixedRate * 2.0 / (1.0 + kBurst);
    g.burst = kBurst;
    g.burstDwellS = 0.05;
    g.tenants = 4;
    g.fastShare = 0.8;
    g.deadlineShare = 0.2;
    // Budgets far above any latency here: a deadline must never fire.
    g.deadlineLoMs = 5000;
    g.deadlineHiMs = 10000;
    for (const auto &[id, share] : mixedShares())
        g.workloads.push_back({id, share});
    psi::reqlog::Log log = psi::reqlog::synthesize(g);

    std::map<std::string, std::uint32_t> index;
    for (std::uint32_t i = 0; i < programs.size(); ++i)
        index[programs[i].id] = i;
    // Keep the burst shape, fix the mean rate: stretch the log to
    // span exactly the phase.
    const double scale =
        log.spanNs() == 0 ? 1.0 : seconds * 1e9 / static_cast<double>(log.spanNs());
    std::vector<Req> out;
    for (const auto &e : log.entries) {
        Req rq;
        rq.dueNs = startNs + static_cast<std::int64_t>(
                                 static_cast<double>(e.atNs) * scale);
        rq.prog = index.at(e.workload);
        rq.mode = e.mode;
        rq.tenant = e.tenant;
        rq.deadlineNs = e.deadlineNs;
        out.push_back(std::move(rq));
    }
    return out;
}

MixedRun
mixedPhase(MixedStack &st, const std::vector<BenchProgram> &programs,
           double seconds, std::uint64_t seed)
{
    std::string before[2];
    for (int b = 0; b < 2; ++b)
        before[b] = fetchStats(*st.backendCtl[b]);
    const std::int64_t start = nowNs() + 2'000'000;
    std::vector<Req> sched = mixedSchedule(programs, seconds, seed, start);
    const double cpu0 = processCpuNs();
    Phase ph = drive(st.conns, programs, sched, 0, start, seconds * 1e9,
                     nullptr);
    MixedRun out;
    out.cpuNs = processCpuNs() - cpu0;
    tally(ph, programs, kMixedWindowNs, out.all);
    out.lateP99 = noteGenerator("replay", out.all);
    double jobs = 0.0, setup = 0.0, solve = 0.0;
    for (int b = 0; b < 2; ++b) {
        const std::string after = fetchStats(*st.backendCtl[b]);
        note("backend " + std::to_string(b) + " busy " +
             fmt(100.0 *
                     (statValue(after, "host_exec_ns") -
                      statValue(before[b], "host_exec_ns")) /
                     ph.elapsedNs,
                 1) +
             "% of the replay");
        jobs += statValue(after, "completed") -
                statValue(before[b], "completed");
        setup += statValue(after, "host_setup_ns") -
                 statValue(before[b], "host_setup_ns");
        solve += statValue(after, "host_solve_ns") -
                 statValue(before[b], "host_solve_ns");
    }
    if (jobs > 0) {
        out.setupUs = setup / jobs / 1e3;
        out.solveUs = solve / jobs / 1e3;
    }
    return out;
}

} // namespace

void
runServeMixed(const Options &opt, Report &r)
{
    std::vector<std::string> ids;
    for (const auto &kv : mixedShares())
        ids.push_back(kv.first);
    const std::vector<BenchProgram> programs = programsById(ids);
    ensureReference(programs);

    // Half the set-ups before the replay and half after it, so that
    // setup_s samples both ends of the run.
    std::vector<double> setups;
    MixedStack st;
    auto newStack = [&] {
        // Tear down the previous stack clients first, backends last.
        st.conns.clear();
        for (auto &c : st.backendCtl)
            c.reset();
        st.router.reset();
        for (auto &b : st.backends)
            b.reset();
        const std::int64_t t0 = nowNs();
        psi::router::PsiRouter::Config rc;
        for (int b = 0; b < 2; ++b) {
            psi::net::PsiServer::Config cfg;
            cfg.workers = 1;
            cfg.queueCapacity = 1024;
            st.backends[b] = std::make_unique<ServerBox>(cfg);
            psi::router::BackendAddr addr;
            addr.port = st.backends[b]->port();
            rc.backends.push_back(addr);
        }
        st.router = std::make_unique<RouterBox>(rc);
        st.conns = loadConns(st.router->port(), 2);
        for (int b = 0; b < 2; ++b)
            st.backendCtl[b] = connectTo(st.backends[b]->port());
        warmUp(*st.conns[0]->client, programs,
               {ExecMode::Fast, ExecMode::Fidelity});
        setups.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    };
    for (int i = 0; i < kSetups / 2; ++i)
        newStack();

    const double secs = opt.trace ? opt.seconds * 0.45 : opt.seconds;
    MixedRun run = mixedPhase(st, programs, secs, opt.seed);
    for (int i = kSetups / 2; i < kSetups; ++i)
        newStack();
    r.set("setup_s", medianOf(setups), "s");
    account(r, run.all);
    const auto &w = run.all.windows;
    r.set("lips_fast", servedLips(run.all.fast), "1/s");
    r.set("lips_fidelity", servedLips(run.all.fidelity), "1/s");
    r.set("goodput_rps", medianOver(w, &WindowStats::goodput), "1/s");
    r.set("cpu_per_request_us",
          run.cpuNs / static_cast<double>(run.all.attempted) / 1e3, "us");
    reportLatency(w, r);
    noteWindows("replay", w);
    noteLatency("replay (" + fmt(kMixedRate, 0) + " r/s mean offered)",
                run.all.latencyNs);
    noteLatency("light requests", run.all.lightNs);

    if (opt.trace) {
        const double untracedP50 = run.all.latencyNs.median();
        tracer().setEnabled(true);
        MixedRun tr = mixedPhase(st, programs, secs, opt.seed + 1);
        account(r, tr.all);
        const double p50 = tr.all.latencyNs.median();
        const double hop = tr.all.netNs.median();
        const double queue = tr.all.queueNs.median();
        r.set("service.queue_us", queue / 1e3, "us");
        r.set("service.setup_us", tr.setupUs, "us");
        r.set("service.solve_us", tr.solveUs, "us");
        r.set("router.overhead_us", hop / 1e3, "us");
        r.set("net.overloaded", static_cast<double>(tr.all.overloaded),
              "count");
        r.set("gen.late_p99_us", tr.lateP99 / 1e3, "us");
        r.set("trace.overhead_us", (p50 - untracedP50) / 1e3, "us");
        double hits = 0, misses = 0, affHits = 0, affMisses = 0, aged = 0,
               quota = 0;
        for (int b = 0; b < 2; ++b) {
            const std::string s = fetchStats(*st.backendCtl[b]);
            hits += statValue(s, "program_cache_hits");
            misses += statValue(s, "program_cache_misses");
            affHits += statValue(s, "sched_affinity_hits");
            affMisses += statValue(s, "sched_affinity_misses");
            aged += statValue(s, "sched_aged_dispatches");
            quota += statValue(s, "sched_quota_rejects");
        }
        r.set("service.cache_hit_ratio", hits / std::max(1.0, hits + misses),
              "ratio");
        r.set("sched.affinity_hit_ratio",
              affHits / std::max(1.0, affHits + affMisses), "ratio");
        r.set("sched.aged_dispatches", aged, "count");
        r.set("sched.quota_rejects", quota, "count");
        const std::string rs = fetchStats(*st.conns[0]->client);
        r.set("router.affinity_hit_ratio", statValue(rs, "affinity_ratio"),
              "ratio");
        r.set("router.retries",
              statValue(rs, "backend_0_retried") +
                  statValue(rs, "backend_1_retried"),
              "count");
        probeEngines(programs, opt.seconds * 0.1, opt.seed, r);
    }
}

} // namespace psibench
