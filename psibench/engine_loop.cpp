/**
 * @file
 * The in-process engine loop and the paper_suite workload.
 *
 * paper_suite is what a reproduction user runs: the 19 Table 1 rows
 * plus the adversarial and stress programs, on warm engines from
 * precompiled images, in both modes.  Its time is engine run time
 * (load and query parse are a few percent of it), so engine-core
 * changes show here and per-request overheads should not.
 */

#include <algorithm>
#include <numeric>
#include <random>
#include <stdexcept>

#include "workloads.hpp"

namespace psibench {

using psi::programs::BenchProgram;

bool
isLight(const std::string &id)
{
    return id == "nreverse30" || id == "lcp1" || id == "bup1";
}

std::vector<BenchProgram>
programsById(const std::vector<std::string> &ids)
{
    std::vector<BenchProgram> out;
    for (const auto &id : ids) {
        const BenchProgram *p = psi::programs::findProgramById(id);
        if (p == nullptr)
            throw std::runtime_error("unknown program " + id);
        out.push_back(*p);
    }
    return out;
}

double
medianOf(std::vector<double> v)
{
    Samples s;
    for (double x : v)
        s.add(x);
    return s.median();
}

std::vector<Image>
compileImages(const std::vector<BenchProgram> &programs)
{
    std::vector<Image> out;
    for (const auto &p : programs) {
        std::int64_t t0 = nowNs();
        auto img = std::make_shared<const psi::kl0::CompiledProgram>(
            psi::kl0::CompiledProgram::compile(p.source));
        std::int64_t t1 = nowNs();
        tracer().record("kl0.compile", t0, t1);
        const BenchProgram *reg = psi::programs::findProgramById(p.id);
        out.push_back({reg, std::move(img), static_cast<double>(t1 - t0)});
    }
    return out;
}

void
tagSteal(std::vector<WindowStats> &windows)
{
    for (auto &w : windows)
        w.disturbance = stealMonitor().shareBetween(w.startNs, w.endNs);
}

double
medianOver(const std::vector<WindowStats> &windows, double WindowStats::*field)
{
    std::vector<double> disturbances;
    for (const auto &w : windows) {
        if (w.*field > 0.0)
            disturbances.push_back(w.disturbance);
    }
    if (disturbances.empty())
        return 0.0;
    const double cut = medianOf(disturbances);
    std::vector<double> v;
    for (const auto &w : windows) {
        if (w.*field > 0.0 && w.disturbance <= cut)
            v.push_back(w.*field);
    }
    return medianOf(v);
}

void
reportLatency(const std::vector<WindowStats> &w, Report &r)
{
    r.set("latency_p50_ms", medianOver(w, &WindowStats::p50Ns) / 1e6, "ms");
    r.set("latency_p99_ms", medianOver(w, &WindowStats::p99Ns) / 1e6, "ms");
    r.set("light_p99_ms", medianOver(w, &WindowStats::lightP99Ns) / 1e6, "ms");
}

void
noteWindows(const std::string &what, const std::vector<WindowStats> &windows)
{
    std::string line =
        what + " windows (p50/p99/light p99 ms @ disturbance):";
    for (const auto &w : windows) {
        line += ' ';
        line += fmt(w.p50Ns / 1e6, 2);
        line += '/';
        line += fmt(w.p99Ns / 1e6, 2);
        line += '/';
        line += fmt(w.lightP99Ns / 1e6, 2);
        line += '@';
        line += fmt(w.disturbance, 3);
    }
    note(line);
}

namespace {

/** Warm engines over precompiled images: one engine per image and
 *  mode, so each load() starts from that program's own footprint. */
struct EngineSet
{
    std::vector<Image> images;
    std::vector<std::unique_ptr<psi::fast::FastEngine>> fast;
    std::vector<std::unique_ptr<psi::interp::Engine>> fidelity;
};

/** Set-up: engines for every image, each loaded once. */
std::unique_ptr<EngineSet>
setUpEngines(std::vector<Image> images)
{
    auto set = std::make_unique<EngineSet>();
    set->images = std::move(images);
    for (const auto &img : set->images) {
        set->fast.push_back(std::make_unique<psi::fast::FastEngine>());
        set->fast.back()->load(*img.image);
        set->fidelity.push_back(std::make_unique<psi::interp::Engine>());
        set->fidelity.back()->load(*img.image);
    }
    return set;
}

/** Geometric mean over programs of inferences per solve second. */
double
lipsOf(const std::vector<std::pair<double, double>> &infAndNs)
{
    std::vector<double> lips;
    for (const auto &[inf, ns] : infAndNs) {
        if (ns > 0.0)
            lips.push_back(inf * 1e9 / ns);
    }
    return geomean(lips);
}

EngineLoopResult
loopOn(EngineSet &set, double seconds, std::uint64_t seed,
       double roundInferences)
{
    const std::size_t n = set.images.size();
    EngineLoopResult res;
    res.fast.resize(n);
    res.fidelity.resize(n);
    std::vector<std::size_t> order(2 * n);
    std::iota(order.begin(), order.end(), 0);
    std::vector<std::uint64_t> reps(2 * n, 1);
    std::mt19937_64 rng(seed);
    Tracer &tr = tracer();

    const std::int64_t start = nowNs();
    const double cpu0 = processCpuNs();
    const std::int64_t stop =
        start + static_cast<std::int64_t>(seconds * 1e9);
    std::uint64_t runIndex = 0;
    do {
        const std::int64_t roundStart = nowNs();
        std::vector<std::pair<double, double>> fastRound(n), fidRound(n);
        Samples roundLat, roundLight;
        std::uint64_t roundOk = 0;
        std::shuffle(order.begin(), order.end(), rng);
        for (std::size_t k : order) {
            const bool fast = k % 2 == 0;
            const std::size_t i = k / 2;
            const Image &img = set.images[i];
            psi::fast::FastEngine &fe = *set.fast[i];
            psi::interp::Engine &de = *set.fidelity[i];
            PairStats &ps = fast ? res.fast[i] : res.fidelity[i];
            auto &round = fast ? fastRound[i] : fidRound[i];
            const std::uint64_t want = expectedDigest(img.program->id);
            psi::interp::RunLimits limits;
            limits.maxSolutions = img.program->maxSolutions;
            const std::int64_t blockStart = nowNs();
            const double blockCpu0 = threadCpuNs();
            double blockInferences = 0.0, blockSolveNs = 0.0;
            for (std::uint64_t rep = 0; rep < reps[k]; ++rep) {
                ++runIndex;
                const std::int64_t t0 = nowNs();
                if (fast)
                    fe.load(*img.image);
                else
                    de.load(*img.image);
                const std::int64_t t1 = nowNs();
                psi::kl0::TermPtr goal =
                    psi::kl0::parseTerm(img.program->query);
                const std::int64_t t2 = nowNs();
                psi::interp::RunResult rr =
                    fast ? fe.solve(goal, limits) : de.solve(goal, limits);
                const std::int64_t t3 = nowNs();
                if (tr.enabled()) {
                    std::uint32_t id =
                        tr.record("engine_loop.run", t0, t3, 0, runIndex);
                    tr.record(fast ? "fast.load" : "interp.load", t0, t1,
                              id, runIndex);
                    tr.record("kl0.parse_query", t1, t2, id, runIndex);
                    tr.record(fast ? "fast.solve" : "interp.solve", t2,
                              t3, id, runIndex);
                }
                ++res.attempted;
                if (rr.status != psi::interp::RunStatus::Ok ||
                    answerDigest(rr) != want) {
                    ++res.failed;
                    ++res.wrong;
                    continue;
                }
                if (ps.runs == 0) {
                    ps.steps = rr.steps;
                    ps.modelNs = rr.timeNs;
                    ps.clauseTries = fast ? fe.clauseTries() : de.clauseTries();
                    ps.indexHits = fast ? fe.indexHits() : de.indexHits();
                    ps.indexFallbacks =
                        fast ? fe.indexFallbacks() : de.indexFallbacks();
                    // Equal engine work per pair and round: light
                    // programs repeat, heavy ones run once.
                    if (rr.inferences > 0)
                        reps[k] = std::max<std::uint64_t>(
                            1, static_cast<std::uint64_t>(
                                   roundInferences /
                                   static_cast<double>(rr.inferences)));
                }
                const double lat = static_cast<double>(t3 - t0);
                ++ps.runs;
                ps.loadNs.add(static_cast<double>(t1 - t0));
                ps.parseNs.add(static_cast<double>(t2 - t1));
                ps.solveCallNs.add(static_cast<double>(t3 - t2));
                blockInferences += static_cast<double>(rr.inferences);
                blockSolveNs += static_cast<double>(t3 - t2);
                ++roundOk;
                roundLat.add(lat);
                res.latencyNs.add(lat);
                if (isLight(img.program->id)) {
                    roundLight.add(lat);
                    res.lightNs.add(lat);
                }
            }
            // Time the hypervisor stole from this thread is not engine
            // time: count only the share of the block the thread ran.
            const double wall = static_cast<double>(nowNs() - blockStart);
            const double ran =
                wall > 0.0 ? std::min(1.0, (threadCpuNs() - blockCpu0) / wall)
                           : 1.0;
            round.first += blockInferences;
            round.second += blockSolveNs * ran;
        }
        WindowStats w;
        w.startNs = roundStart;
        w.endNs = nowNs();
        // Every round does the same work, so a longer one was slowed
        // by the host: steal, or neighbours' load on shared cores and
        // caches, which steal accounting does not see.
        w.disturbance = static_cast<double>(w.endNs - w.startNs) / 1e9;
        w.lipsFast = lipsOf(fastRound);
        w.lipsFidelity = lipsOf(fidRound);
        w.goodput = static_cast<double>(roundOk) * 1e9 /
                    static_cast<double>(w.endNs - w.startNs);
        w.p50Ns = roundLat.quantile(0.5);
        w.p99Ns = roundLat.quantile(0.99);
        w.lightP99Ns = roundLight.quantile(0.99);
        res.rounds.push_back(w);
    } while (nowNs() < stop);
    res.elapsedNs = static_cast<double>(nowNs() - start);
    res.cpuNs = processCpuNs() - cpu0;
    return res;
}

} // namespace

EngineLoopResult
runEngineLoop(const std::vector<Image> &images, double seconds,
              std::uint64_t seed, double roundInferences)
{
    return loopOn(*setUpEngines(images), seconds, seed, roundInferences);
}

namespace {

/** Mean over the pairs that ran of one per-pair median, in us. */
double
meanMedianUs(std::vector<PairStats> pairs, Samples PairStats::*field)
{
    std::vector<double> v;
    for (auto &p : pairs) {
        if (p.runs > 0)
            v.push_back((p.*field).median() / 1e3);
    }
    if (v.empty())
        return 0.0;
    return std::accumulate(v.begin(), v.end(), 0.0) /
           static_cast<double>(v.size());
}

/** Fresh-engine fast load of @p img, median of a few, in ns. */
double
freshFastLoadNs(const psi::kl0::CompiledProgram &img)
{
    std::vector<double> v;
    for (int i = 0; i < 5; ++i) {
        psi::fast::FastEngine e;
        std::int64_t t0 = nowNs();
        e.load(img);
        std::int64_t t1 = nowNs();
        tracer().record("fast.load_fresh", t0, t1);
        v.push_back(static_cast<double>(t1 - t0));
    }
    return medianOf(v);
}

/** Load of nreverse30 on an engine that just served a 20k-element
 *  list build, median of a few, in ns. */
double
loadAfterBigNs(const psi::kl0::CompiledProgram &small)
{
    static const char *kBig = "mk(0, []) :- !.\n"
                              "mk(N, [N|T]) :- M is N - 1, mk(M, T).\n";
    auto big = psi::kl0::CompiledProgram::compile(kBig);
    std::vector<double> v;
    for (int i = 0; i < 5; ++i) {
        psi::fast::FastEngine e;
        e.load(big);
        psi::interp::RunResult rr = e.solve("mk(20000, _)");
        if (rr.status != psi::interp::RunStatus::Ok || !rr.succeeded())
            throw std::runtime_error("20k-element probe request failed");
        std::int64_t t0 = nowNs();
        e.load(small);
        std::int64_t t1 = nowNs();
        tracer().record("fast.load_after_big", t0, t1);
        v.push_back(static_cast<double>(t1 - t0));
    }
    return medianOf(v);
}

} // namespace

void
engineLayerMetrics(const std::vector<Image> &images,
                   const EngineLoopResult &loop, Report &r)
{
    double compileNs = 0.0, words = 0.0, steps = 0.0, modelNs = 0.0;
    double tries = 0.0, hits = 0.0, fallbacks = 0.0;
    std::vector<double> freshLoad;
    for (std::size_t i = 0; i < images.size(); ++i) {
        compileNs += images[i].compileNs;
        words += images[i].image->codeWords();
        steps += static_cast<double>(loop.fidelity[i].steps);
        if (images[i].program->paperPsiMs > 0.0)
            modelNs += static_cast<double>(loop.fidelity[i].modelNs);
        tries += static_cast<double>(loop.fast[i].clauseTries);
        hits += static_cast<double>(loop.fast[i].indexHits);
        fallbacks += static_cast<double>(loop.fast[i].indexFallbacks);
        freshLoad.push_back(freshFastLoadNs(*images[i].image));
    }
    const double n = static_cast<double>(images.size());
    std::vector<PairStats> both = loop.fast;
    both.insert(both.end(), loop.fidelity.begin(), loop.fidelity.end());

    r.set("kl0.compile_us", compileNs / n / 1e3, "us");
    r.set("kl0.parse_query_us", meanMedianUs(both, &PairStats::parseNs), "us");
    r.set("kl0.image_words", words, "count");
    r.set("interp.steps", steps, "count");
    r.set("interp.model_time_ms", modelNs / 1e6, "ms");
    r.set("interp.load_us", meanMedianUs(loop.fidelity, &PairStats::loadNs), "us");
    r.set("interp.solve_us",
          meanMedianUs(loop.fidelity, &PairStats::solveCallNs), "us");
    r.set("fast.load_us",
          std::accumulate(freshLoad.begin(), freshLoad.end(), 0.0) / n / 1e3,
          "us");
    auto small = psi::kl0::CompiledProgram::compile(
        psi::programs::programById("nreverse30").source);
    const double freshSmall = freshFastLoadNs(small);
    const double afterBig = loadAfterBigNs(small);
    r.set("fast.load_after_big_us", afterBig / 1e3, "us");
    r.set("fast.solve_us", meanMedianUs(loop.fast, &PairStats::solveCallNs), "us");
    r.set("fast.clause_tries", tries, "count");
    r.set("fast.index_hits", hits, "count");
    r.set("fast.index_fallbacks", fallbacks, "count");
    note("fast load of nreverse30: fresh engine " + fmt(freshSmall / 1e3, 1) +
         " us, after a 20k-element request " + fmt(afterBig / 1e3, 1) + " us");
}

// ----- paper_suite ------------------------------------------------------------

namespace {

/** Each (program, mode) pair does about this many inferences per
 *  round, so light and heavy programs get equal engine work. */
constexpr double kRoundInferences = 20000.0;

std::vector<BenchProgram>
paperSuitePrograms()
{
    std::vector<BenchProgram> out = psi::programs::table1Programs();
    for (const auto &p : programsById({"polyop", "permjoin", "setclash",
                                       "trail40", "deeprec", "permall6"}))
        out.push_back(p);
    return out;
}

void
reportLoop(const EngineLoopResult &loop, Report &r)
{
    const auto &w = loop.rounds;
    r.set("lips_fast", medianOver(w, &WindowStats::lipsFast), "1/s");
    r.set("lips_fidelity", medianOver(w, &WindowStats::lipsFidelity), "1/s");
    r.set("goodput_rps", medianOver(w, &WindowStats::goodput), "1/s");
    r.set("cpu_per_request_us",
          loop.cpuNs / static_cast<double>(loop.attempted) / 1e3, "us");
    reportLatency(w, r);
}

} // namespace

void
runPaperSuite(const Options &opt, Report &r)
{
    const std::vector<BenchProgram> programs = paperSuitePrograms();
    ensureReference(programs);

    std::vector<double> setups;
    std::unique_ptr<EngineSet> set;
    for (int i = 0; i < kSetups; ++i) {
        set.reset();
        std::int64_t t0 = nowNs();
        set = setUpEngines(compileImages(programs));
        setups.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }
    r.set("setup_s", medianOf(setups), "s");

    const double secs = opt.trace ? opt.seconds / 2 : opt.seconds;
    EngineLoopResult loop = loopOn(*set, secs, opt.seed, kRoundInferences);
    r.count(loop.attempted, loop.failed, loop.wrong);
    reportLoop(loop, r);
    double untracedP50 = loop.latencyNs.median();
    if (opt.trace) {
        tracer().setEnabled(true);
        EngineLoopResult traced =
            loopOn(*set, secs, opt.seed + 1, kRoundInferences);
        r.count(traced.attempted, traced.failed, traced.wrong);
        engineLayerMetrics(set->images, traced, r);
        r.set("trace.overhead_us",
              (traced.latencyNs.median() - untracedP50) / 1e3, "us");
        loop = std::move(traced);
    }
    double modelNs = 0.0;
    for (std::size_t i = 0; i < set->images.size(); ++i) {
        if (set->images[i].program->paperPsiMs > 0.0)
            modelNs += static_cast<double>(loop.fidelity[i].modelNs);
    }
    note("paper_suite: " + std::to_string(set->images.size()) +
         " programs x 2 modes, " + std::to_string(loop.attempted) +
         " runs in " + std::to_string(loop.rounds.size()) + " rounds, " +
         fmt(loop.elapsedNs / 1e9, 2) + " s");
    note("model_time_ms " + fmt(modelNs / 1e6, 3) +
         " ms (fidelity model time, sum over the 19 Table 1 rows)");
    noteWindows("rounds", loop.rounds);
    noteLatency("run latency, all rounds", loop.latencyNs);
    noteLatency("light runs, all rounds", loop.lightNs);
}

} // namespace psibench
