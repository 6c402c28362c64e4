/**
 * @file
 * psifast differential suite: the token-threaded fast engine must be
 * byte-identical to the fidelity interpreter in everything a client
 * can observe - solution bindings (including generated _G variable
 * names, which encode allocation order), printed output, inference
 * counts and termination status - while reporting zero for the
 * hardware accounting it skips.
 *
 * Covered paths:
 *  - direct FastEngine::load/solve vs runOnPsi, full registry
 *  - the warm-engine EnginePool path (mode = Fast), where an engine
 *    and its paged storage are reused across jobs
 *  - per-mode metrics counters and mode echo in JobOutcome
 *  - a 50k-element answer list exported by both engines, directly
 *    and through the pool
 *
 * The registry includes the stress workloads the dispatch rewrite is
 * most likely to break: trail40 (deep trail + unwind), deeprec
 * (frame stack growth) and permall6 (exhaustive backtracking).
 */

#include <gtest/gtest.h>

#include <future>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "psi.hpp"

namespace {

using namespace psi;
using service::EnginePool;
using service::JobOutcome;
using service::QueryJob;

/** Fields the fast engine must reproduce exactly. */
void
expectByteIdentical(const interp::RunResult &fast,
                    const interp::RunResult &fid)
{
    EXPECT_EQ(fast.status, fid.status);
    EXPECT_EQ(fast.output, fid.output);
    EXPECT_EQ(fast.inferences, fid.inferences);
    ASSERT_EQ(fast.solutions.size(), fid.solutions.size());
    for (std::size_t k = 0; k < fid.solutions.size(); ++k)
        EXPECT_EQ(fast.solutions[k].str(), fid.solutions[k].str());
}

TEST(FastEngine, RegistryCoversTheStressWorkloads)
{
    // The differential below is only as strong as the registry it
    // sweeps: pin the workloads that exercise deep trails, deep
    // recursion and exhaustive backtracking so a future registry
    // prune cannot silently weaken the suite.
    std::set<std::string> ids;
    for (const auto &p : programs::allPrograms())
        ids.insert(p.id);
    EXPECT_TRUE(ids.count("trail40"));
    EXPECT_TRUE(ids.count("deeprec"));
    EXPECT_TRUE(ids.count("permall6"));
    EXPECT_TRUE(ids.count("nreverse30"));
    // The adversarial family (cache-set conflict, multi-solution
    // join, choice-point-dense dispatch) must ride the differential
    // too.
    EXPECT_TRUE(ids.count("setclash"));
    EXPECT_TRUE(ids.count("permjoin"));
    EXPECT_TRUE(ids.count("polyop"));
}

TEST(FastEngine, ByteIdenticalToFidelityOnFullRegistry)
{
    for (const auto &p : programs::allPrograms()) {
        SCOPED_TRACE(p.id);
        PsiRun fid = runOnPsi(p);

        auto image = kl0::CompiledProgram::compile(p.source);
        fast::FastEngine fe;
        fe.load(image);
        interp::RunResult fr = fe.solve(p.query);

        expectByteIdentical(fr, fid.result);
        // The accounting the fast path skips reads as zero, never as
        // a stale or fabricated number.
        EXPECT_EQ(fr.steps, 0u);
        EXPECT_EQ(fr.timeNs, 0u);
    }
}

void expectCountdownList(const interp::RunResult &r, std::int64_t n);

/** A list literal of @p n elements. */
std::string
longList(std::uint32_t n)
{
    std::string s = "[1";
    for (std::uint32_t i = 1; i < n; ++i)
        s += ",1";
    return s + "]";
}

/** One (image, query) step of a warm-engine sequence. */
struct WarmStep
{
    std::string label;
    std::shared_ptr<const kl0::CompiledProgram> image;
    std::string query;
    bool throws = false;        ///< the query fails to parse or compile
    interp::RunResult fidelity; ///< the reference answer
};

/**
 * The warm-sequence pool: every registry program, one image per
 * distinct source (so lcp1-3 and bup1-3 are one image under several
 * queries); registry programs write the heap at run time (vectors,
 * global_set, process_call); one source under several queries,
 * including control constructs, which compile auxiliary predicates,
 * queries that fail to parse or to compile, and one too long to
 * record; indexed and unindexed images of that source; and a
 * 20k-element answer.  More
 * (image, query) pairs than an engine keeps records for.
 */
std::vector<WarmStep>
warmSteps()
{
    auto compile = [](const std::string &src, kl0::CompileOptions o) {
        return std::make_shared<const kl0::CompiledProgram>(
            kl0::CompiledProgram::compile(src, o));
    };
    std::vector<WarmStep> steps;
    std::map<std::string, std::shared_ptr<const kl0::CompiledProgram>>
        bySource;
    for (const auto &p : programs::allPrograms()) {
        auto &img = bySource[p.source];
        if (!img)
            img = compile(p.source, {});
        steps.push_back({p.id, img, p.query, false, {}});
    }

    const std::string lists =
        "app([], L, L).\n"
        "app([H|T], L, [H|R]) :- app(T, L, R).\n"
        "nrev([], []).\n"
        "nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).\n"
        "kind([], empty).\n"
        "kind([_|_], list).\n"
        "kind(N, int) :- integer(N).\n";
    kl0::CompileOptions unindexed;
    unindexed.firstArgIndexing = false;
    unindexed.specializeBuiltins = false;
    for (const auto &img : {compile(lists, {}), compile(lists, unindexed)}) {
        const std::string tag =
            img->options().firstArgIndexing ? "indexed " : "unindexed ";
        for (const char *q :
             {"nrev([1,2,3,4,5,6], R)", "app(X, Y, [a,b,c])",
              "app(X, Y, Z)", "kind(3, K), kind([], E)",
              "(app(X, [c], [a,b,c]) -> W = found ; W = none)",
              "(kind(foo(1), K) ; K = other)",
              "\\+ app(_, [z], [a,b]), kind(new_atom_here, K)"}) {
            steps.push_back({tag + q, img, q, false, {}});
        }
        // Past the text cap: compiled, run and freed, never recorded.
        steps.push_back(
            {tag + "unrecorded", img,
             std::string(fast::FastEngine::kMaxRecordedText, ' ') +
                 "app(X, [c], [a,b,c])",
             false, {}});
        steps.push_back(
            {tag + "parse error", img, "nrev([1,2", true, {}});
        steps.push_back(
            {tag + "compile error", img, "nrev(X, Y), X", true, {}});
        steps.push_back({tag + "too deep", img,
                         "nrev(" + longList(kl0::kMaxTermDepth) + ", R)",
                         true, {}});
    }

    const std::string shared =
        "bump(N) :- global_get(0, C), !, C1 is C + N, global_set(0, C1).\n"
        "bump(N) :- global_set(0, N).\n"
        "fill(_, I, N) :- I >= N, !.\n"
        "fill(V, I, N) :- vector_set(V, I, I), I1 is I + 1, fill(V, I1, N).\n"
        "sum(_, I, N, S, S) :- I >= N, !.\n"
        "sum(V, I, N, S0, S) :- vector_get(V, I, X), S1 is S0 + X,\n"
        "    I1 is I + 1, sum(V, I1, N, S1, S).\n";
    auto img = compile(shared, {});
    // A registry or vector left over from an earlier run shows up as
    // a different count or sum.
    steps.push_back(
        {"global_set", img, "bump(3), global_get(0, X)", false, {}});
    steps.push_back({"vectors", img,
                     "vector_new(8, V), fill(V, 0, 8), sum(V, 0, 8, 0, S),"
                     " vector_size(V, N)",
                     false, {}});

    steps.push_back({"20k answer",
                     compile("mk(0,[]) :- !.\n"
                             "mk(N,[N|T]) :- M is N-1, mk(M,T).\n",
                             {}),
                     "mk(20000, L)", false, {}});
    return steps;
}

interp::RunLimits
warmLimits()
{
    interp::RunLimits limits;
    limits.maxSolutions = 4;
    return limits;
}

/**
 * One warm engine serving seeded cross-program sequences - a big
 * answer between two runs of one program, one image under several
 * queries, images that share a source, indexed and unindexed images
 * of one source, programs that write the heap at run time, queries
 * that fail - must answer every step exactly as a fresh engine and
 * the fidelity engine do, and hold the same memory as the fresh
 * engine afterwards: a load resets everything the previous run
 * dirtied, an install rolls back what was held, and a recorded query
 * is the fresh compile.
 */
TEST(FastEngine, WarmEngineRerunsAreIdentical)
{
    std::vector<WarmStep> steps = warmSteps();
    const interp::RunLimits limits = warmLimits();
    interp::Engine fidelity;
    for (WarmStep &s : steps) {
        fidelity.load(*s.image);
        if (s.throws) {
            EXPECT_THROW(fidelity.solve(s.query, limits), FatalError)
                << s.label;
            continue;
        }
        s.fidelity = fidelity.solve(s.query, limits);
        ASSERT_EQ(s.fidelity.status, interp::RunStatus::Ok) << s.label;
    }
    auto index = [&](const std::string &label) {
        for (std::size_t i = 0; i < steps.size(); ++i) {
            if (steps[i].label == label)
                return i;
        }
        ADD_FAILURE() << "no step " << label;
        return std::size_t{0};
    };

    // A fixed opening - A, a 20k-element answer, B, A again; runs
    // that write the heap, back to back on their image; one image
    // under several queries, failing ones among them; three queries
    // on one shared image - then a seeded walk over the pool, which
    // revisits images (same query or not) and switches between them.
    const std::vector<std::size_t> opening = {
        index("nreverse30"), index("20k answer"), index("qsort50"),
        index("nreverse30"), index("global_set"), index("global_set"),
        index("vectors"), index("global_set"), index("window2"),
        index("window2"), index("indexed app(X, Y, Z)"),
        index("indexed nrev([1,2,3,4,5,6], R)"),
        index("indexed parse error"), index("indexed app(X, Y, Z)"),
        index("indexed compile error"), index("indexed too deep"),
        index("indexed app(X, Y, Z)"), index("indexed unrecorded"),
        index("indexed unrecorded"), index("indexed app(X, Y, Z)"),
        index("unindexed nrev([1,2,3,4,5,6], R)"), index("lcp1"),
        index("lcp2"), index("lcp3"), index("lcp1"), index("bup2"),
        index("bup1")};
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        std::mt19937_64 rng(seed);
        std::vector<std::size_t> order = opening;
        for (int i = 0; i < 60; ++i)
            order.push_back(rng() % steps.size());

        fast::FastEngine warm;
        for (std::size_t k = 0; k < order.size(); ++k) {
            const WarmStep &s = steps[order[k]];
            SCOPED_TRACE("step " + std::to_string(k) + ": " + s.label);
            warm.load(*s.image);
            fast::FastEngine fresh;
            fresh.load(*s.image);
            if (s.throws) {
                EXPECT_THROW(warm.solve(s.query, limits), FatalError);
                EXPECT_THROW(fresh.solve(s.query, limits), FatalError);
            } else {
                interp::RunResult w = warm.solve(s.query, limits);
                interp::RunResult f = fresh.solve(s.query, limits);
                expectByteIdentical(w, f);
                expectByteIdentical(w, s.fidelity);
            }
            EXPECT_TRUE(warm.sameMemory(fresh));
        }
        // The walk switched images and queries, and reused records.
        const fast::FastEngine::Counters &c = warm.counters();
        EXPECT_GT(c.imageInstalls, 1u);
        EXPECT_GT(c.queryReuses, 0u);
        EXPECT_GT(c.queryCompiles, fast::FastEngine::kQueryRecords);
    }

    // An engine that never loaded an image answers built-in queries,
    // again after another query.
    fast::FastEngine bare;
    interp::Engine bareFidelity;
    for (const char *q : {"X is 6 * 7", "Y = f(Z, Z)", "X is 6 * 7"}) {
        SCOPED_TRACE(q);
        expectByteIdentical(bare.solve(q), bareFidelity.solve(q));
    }

    // Reruns with no reload in between.
    fast::FastEngine fe;
    for (const auto &p : programs::allPrograms()) {
        SCOPED_TRACE(p.id);
        auto image = kl0::CompiledProgram::compile(p.source);
        fe.load(image);
        interp::RunResult first = fe.solve(p.query);
        interp::RunResult again = fe.solve(p.query);
        expectByteIdentical(again, first);
    }
}

/**
 * Installing an image copies no tables: the engine's symbol table
 * and clause table sit on the image's own, shared by pointer, in
 * both modes, and keep only what a query compile adds.  A repeated
 * (image, query) pair is installed from its record, not compiled.
 */
TEST(FastEngine, InstallSharesTheImageTables)
{
    const auto &pa = programs::programById("nreverse30");
    const auto &pb = programs::programById("lcp1");
    const auto a = kl0::CompiledProgram::compile(pa.source);
    const auto b = kl0::CompiledProgram::compile(pb.source);

    fast::FastEngine fe;
    fe.load(a);
    fe.solve(pa.query);
    fe.load(b);
    EXPECT_EQ(fe.symbols().base(), &b.symbols());
    EXPECT_EQ(fe.codegen().clauseBase(), b.codegen().clauses.get());
    EXPECT_EQ(fe.symbols().atomCount(), b.symbols().atomCount());
    fe.solve(pb.query);
    EXPECT_EQ(fe.symbols().base(), &b.symbols());
    EXPECT_GT(fe.symbols().functorCount(), b.symbols().functorCount())
        << "$query1 is the engine's own";

    interp::Engine eng;
    eng.load(a);
    eng.load(b);
    EXPECT_EQ(eng.symbols().base(), &b.symbols());
    EXPECT_EQ(eng.codegen().clauseBase(), b.codegen().clauses.get());

    // Counted: two images in, two compiles; then a switch back to a,
    // whose query is reused from its record, and a rerun of it.
    EXPECT_EQ(fe.counters().imageInstalls, 2u);
    EXPECT_EQ(fe.counters().queryCompiles, 2u);
    EXPECT_EQ(fe.counters().queryReuses, 0u);
    fe.load(a);
    fe.solve(pa.query);
    fe.load(a);
    fe.solve(pa.query);
    EXPECT_EQ(fe.counters().imageInstalls, 3u);
    EXPECT_EQ(fe.counters().queryCompiles, 2u);
    EXPECT_EQ(fe.counters().queryReuses, 2u);
}

/**
 * The query table keeps the least recently used record out first: a
 * pair used again, by a rerun or from its record, outlives pairs
 * compiled before that use.
 */
TEST(FastEngine, QueryTableEvictsTheLeastRecentlyUsed)
{
    const auto img = kl0::CompiledProgram::compile("p(1).\np(2).\n");
    auto text = [](std::size_t i) {
        return "p(X), Y = " + std::to_string(i);
    };
    constexpr std::size_t kN = fast::FastEngine::kQueryRecords;
    fast::FastEngine fe;
    fe.load(img);
    fe.solve(text(0));
    for (std::size_t i = 1; i < kN; ++i)
        fe.solve(text(i));
    fe.solve(text(0)); // from its record
    fe.solve(text(1)); // from its record
    fe.solve(text(1)); // rerun
    EXPECT_EQ(fe.counters().queryCompiles, kN);
    EXPECT_EQ(fe.counters().queryReuses, 3u);

    // The table is full: text(kN) evicts text(2), the least recently
    // used, and nothing else.
    fe.solve(text(kN));
    EXPECT_EQ(fe.counters().queryCompiles, kN + 1);
    for (std::size_t i : {std::size_t{0}, std::size_t{1}, std::size_t{3}})
        fe.solve(text(i));
    EXPECT_EQ(fe.counters().queryCompiles, kN + 1);
    fe.solve(text(2));
    EXPECT_EQ(fe.counters().queryCompiles, kN + 2);
}

/**
 * The dense heap copy the fast engine installs holds exactly the
 * words a replay of the image's ordered stores leaves in a zeroed
 * heap, for every registry source, indexed and unindexed.
 */
TEST(CompiledProgram, DenseCopyEqualsPokeReplay)
{
    kl0::CompileOptions unindexed;
    unindexed.firstArgIndexing = false;
    unindexed.specializeBuiltins = false;
    std::set<std::string> seen;
    for (const auto &p : programs::allPrograms()) {
        if (!seen.insert(p.source).second)
            continue;
        for (const kl0::CompileOptions &o :
             {kl0::CompileOptions{}, unindexed}) {
            SCOPED_TRACE(p.id + (o.firstArgIndexing ? " indexed"
                                                    : " unindexed"));
            const auto img = kl0::CompiledProgram::compile(p.source, o);
            std::map<std::uint32_t, TaggedWord> replay;
            for (const PokeRecord &r : img.image()) {
                ASSERT_EQ(r.addr.area, Area::Heap);
                replay[r.addr.offset] = r.word;
            }
            std::map<std::uint32_t, TaggedWord> dense;
            const auto &dir = img.directory();
            const auto &code = img.code();
            ASSERT_LE(kl0::kDirBase + dir.size(), kl0::kCodeBase);
            ASSERT_EQ(kl0::kCodeBase + code.size(), img.heapTop());
            for (std::uint32_t i = 0; i < dir.size(); ++i)
                dense[kl0::kDirBase + i] = dir[i];
            for (std::uint32_t i = 0; i < code.size(); ++i)
                dense[kl0::kCodeBase + i] = code[i];

            for (const auto &[addr, word] : replay) {
                auto it = dense.find(addr);
                ASSERT_NE(it, dense.end()) << "word " << addr;
                EXPECT_TRUE(it->second == word) << "word " << addr;
            }
            for (const auto &[addr, word] : dense) {
                if (!replay.count(addr)) {
                    EXPECT_TRUE(word == TaggedWord{}) << "word " << addr;
                }
            }
        }
    }
}

/**
 * A run far beyond the retained page budget maps pages the next load
 * releases: the footprint follows the last request, not the worker's
 * largest.
 */
TEST(FastEngine, LoadAfterHugeRequestReleasesPagesAboveTheCap)
{
    const auto big = kl0::CompiledProgram::compile(
        "mk(0,[]) :- !.\nmk(N,[N|T]) :- M is N-1, mk(M,T).\n");
    const auto &p = programs::programById("nreverse30");
    const auto small = kl0::CompiledProgram::compile(p.source);

    fast::FastEngine fe;
    fe.load(big);
    expectCountdownList(fe.solve("mk(50000, L)"), 50000);
    const std::uint64_t afterRun = fe.mappedWords();

    fe.load(small);
    EXPECT_LT(fe.mappedWords(), afterRun);
    EXPECT_LE(fe.mappedWords(), fast::FastEngine::kMaxRetainedWords);
    expectByteIdentical(fe.solve(p.query), runOnPsi(p).result);

    // A run several times the cap in one area is cut back to it.
    fe.load(big);
    ASSERT_EQ(fe.solve("mk(200000, _)").status, interp::RunStatus::Ok);
    EXPECT_GT(fe.mappedWords(), fast::FastEngine::kMaxRetainedWords);
    fe.load(small);
    EXPECT_LE(fe.mappedWords(), fast::FastEngine::kMaxRetainedWords);
}

TEST(FastEngine, PoolPathMatchesFidelityOnFullRegistry)
{
    const auto &programs = programs::allPrograms();

    EnginePool::Config config;
    config.workers = 4;
    config.queueCapacity = programs.size();
    EnginePool pool(config);

    // Two passes through the pool: the first pass hits cold workers,
    // the second reuses warm engines whose paged areas and interned
    // state survived a prior job.
    for (int pass = 0; pass < 2; ++pass) {
        SCOPED_TRACE("pass " + std::to_string(pass));
        std::vector<std::future<JobOutcome>> futures;
        for (const auto &p : programs) {
            QueryJob job{p, CacheConfig::psi(), interp::RunLimits()};
            job.mode = interp::ExecMode::Fast;
            auto f = pool.submit(std::move(job));
            ASSERT_TRUE(f.has_value());
            futures.push_back(std::move(*f));
        }
        for (std::size_t i = 0; i < programs.size(); ++i) {
            SCOPED_TRACE(programs[i].id);
            JobOutcome out = futures[i].get();
            ASSERT_TRUE(out.error.empty()) << out.error;
            EXPECT_EQ(out.mode, interp::ExecMode::Fast);
            PsiRun fid = runOnPsi(programs[i]);
            expectByteIdentical(out.run.result, fid.result);
        }
    }

    auto snap = pool.metrics();
    EXPECT_EQ(snap.total.jobsFast, 2 * programs.size());
    EXPECT_EQ(snap.total.jobsFidelity, 0u);
}

TEST(FastEngine, PoolCountsModesSeparately)
{
    EnginePool::Config config;
    config.workers = 1;
    EnginePool pool(config);

    const auto &p = programs::programById("nreverse30");
    QueryJob fidelity{p, CacheConfig::psi(), interp::RunLimits()};
    QueryJob fastJob{p, CacheConfig::psi(), interp::RunLimits()};
    fastJob.mode = interp::ExecMode::Fast;

    auto f1 = pool.submit(QueryJob(fidelity));
    auto f2 = pool.submit(QueryJob(fastJob));
    auto f3 = pool.submit(QueryJob(fastJob));
    ASSERT_TRUE(f1 && f2 && f3);
    JobOutcome o1 = f1->get();
    JobOutcome o2 = f2->get();
    JobOutcome o3 = f3->get();
    EXPECT_EQ(o1.mode, interp::ExecMode::Fidelity);
    EXPECT_EQ(o2.mode, interp::ExecMode::Fast);
    EXPECT_GT(o1.run.result.steps, 0u) << "fidelity keeps its stats";
    EXPECT_EQ(o2.run.result.steps, 0u);
    expectByteIdentical(o2.run.result, o1.run.result);
    expectByteIdentical(o3.run.result, o1.run.result);

    auto snap = pool.metrics();
    EXPECT_EQ(snap.total.jobsFidelity, 1u);
    EXPECT_EQ(snap.total.jobsFast, 2u);

    // The split surfaces in both machine renderings.
    const std::string json = snap.json();
    EXPECT_NE(json.find("\"completed_fidelity\": 1"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"completed_fast\": 2"), std::string::npos)
        << json;
    const std::string prom = snap.prometheus();
    EXPECT_NE(prom.find("psi_jobs_mode_total{mode=\"fast\"} 2"),
              std::string::npos)
        << prom;
    EXPECT_NE(prom.find("psi_jobs_mode_total{mode=\"fidelity\"} 1"),
              std::string::npos)
        << prom;
}

// ----- psiindex: first-argument indexing differentials + counters ----

/** Compile options with the psiindex machinery fully off. */
kl0::CompileOptions
plainOptions()
{
    kl0::CompileOptions o;
    o.firstArgIndexing = false;
    o.specializeBuiltins = false;
    return o;
}

/**
 * The index is a pure filter: with indexing and builtin
 * specialization compiled OUT, both engines must still agree with
 * each other byte-for-byte - and with the indexed fidelity run, so
 * flipping CompileOptions can never change what a client observes.
 * (The indexed fast-vs-fidelity leg is ByteIdenticalToFidelity-
 * OnFullRegistry above; this closes the square.)
 */
TEST(FastEngine, ByteIdenticalToFidelityWithIndexingOff)
{
    for (const auto &p : programs::allPrograms()) {
        SCOPED_TRACE(p.id);
        auto image =
            kl0::CompiledProgram::compile(p.source, plainOptions());

        interp::Engine eng;
        eng.load(image);
        interp::RunResult fid = eng.solve(p.query);

        fast::FastEngine fe;
        fe.load(image);
        interp::RunResult fr = fe.solve(p.query);

        expectByteIdentical(fr, fid);
        PsiRun indexed = runOnPsi(p); // default options: indexing ON
        expectByteIdentical(fid, indexed.result);

        // An unindexed image never touches the index counters.
        EXPECT_EQ(fe.indexHits(), 0u);
        EXPECT_EQ(fe.indexFallbacks(), 0u);
        EXPECT_EQ(eng.indexHits(), 0u);
        EXPECT_EQ(eng.indexFallbacks(), 0u);
    }
}

/**
 * A bound first argument dispatches through the index (hit), an
 * unbound one takes the linear fallback - on both engines, with
 * identical counts, since both walk the same compiled index.
 */
TEST(FastEngine, IndexCountersSplitHitsFromFallbacks)
{
    const std::string src = "f(1,a). f(2,b). f(3,c).";
    auto image = kl0::CompiledProgram::compile(src);

    fast::FastEngine fe;
    fe.load(image);
    interp::Engine eng;
    eng.load(image);

    fe.solve("f(2,X)");
    eng.solve("f(2,X)");
    EXPECT_GT(fe.indexHits(), 0u);
    EXPECT_EQ(fe.indexFallbacks(), 0u);
    EXPECT_EQ(eng.indexHits(), fe.indexHits());
    EXPECT_EQ(eng.indexFallbacks(), 0u);

    // Counters are per-run: the unbound query starts from zero.
    fe.solve("f(X,Y)");
    eng.solve("f(X,Y)");
    EXPECT_EQ(fe.indexHits(), 0u);
    EXPECT_GT(fe.indexFallbacks(), 0u);
    EXPECT_EQ(eng.indexHits(), 0u);
    EXPECT_EQ(eng.indexFallbacks(), fe.indexFallbacks());
}

/**
 * The regression the tentpole exists for: on polyop (26-clause
 * dispatch predicate, the worst case for linear clause trial) the
 * indexed image must visit strictly fewer clause candidates than the
 * linear one, on both engines, with byte-identical answers.
 */
TEST(FastEngine, PolyopIndexedTriesStrictlyFewerClauses)
{
    const auto &p = programs::programById("polyop");
    auto indexed = kl0::CompiledProgram::compile(p.source);
    auto linear =
        kl0::CompiledProgram::compile(p.source, plainOptions());

    fast::FastEngine fe;
    fe.load(linear);
    interp::RunResult linearRun = fe.solve(p.query);
    std::uint64_t linearTries = fe.clauseTries();
    fe.load(indexed);
    interp::RunResult indexedRun = fe.solve(p.query);
    std::uint64_t indexedTries = fe.clauseTries();
    expectByteIdentical(indexedRun, linearRun);
    EXPECT_LT(indexedTries, linearTries);
    EXPECT_GT(fe.indexHits(), 0u);

    interp::Engine eng;
    eng.load(linear);
    eng.solve(p.query);
    std::uint64_t fidLinearTries = eng.clauseTries();
    eng.load(indexed);
    eng.solve(p.query);
    EXPECT_LT(eng.clauseTries(), fidLinearTries);
    EXPECT_GT(eng.indexHits(), 0u);
    // Same image, same walk: the engines agree on the counters.
    EXPECT_EQ(eng.clauseTries(), indexedTries);
    EXPECT_EQ(eng.indexHits(), fe.indexHits());
}

/**
 * The per-job counters flow JobOutcome -> WorkerMetrics ->
 * MetricsSnapshot and surface in every rendering the service
 * exposes, for fast and fidelity jobs alike.
 */
TEST(FastEngine, IndexCountersSurfaceInPoolMetrics)
{
    EnginePool::Config config;
    config.workers = 1;
    EnginePool pool(config);

    const auto &p = programs::programById("polyop");
    QueryJob fidelity{p, CacheConfig::psi(), interp::RunLimits()};
    QueryJob fastJob{p, CacheConfig::psi(), interp::RunLimits()};
    fastJob.mode = interp::ExecMode::Fast;

    auto f1 = pool.submit(QueryJob(fidelity));
    auto f2 = pool.submit(QueryJob(fastJob));
    ASSERT_TRUE(f1 && f2);
    JobOutcome o1 = f1->get();
    JobOutcome o2 = f2->get();
    EXPECT_GT(o1.indexHits, 0u);
    EXPECT_GT(o2.indexHits, 0u);
    EXPECT_EQ(o1.indexHits, o2.indexHits);

    auto snap = pool.metrics();
    EXPECT_EQ(snap.total.indexHits, o1.indexHits + o2.indexHits);
    const std::string json = snap.json();
    EXPECT_NE(json.find("\"index_hits\": "), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"index_fallbacks\": "), std::string::npos)
        << json;
    const std::string prom = snap.prometheus();
    EXPECT_NE(prom.find("psi_index_hits_total"), std::string::npos)
        << prom;
    EXPECT_NE(prom.find("psi_index_fallbacks_total"),
              std::string::npos)
        << prom;
}

/**
 * The install-path counters flow JobOutcome -> WorkerMetrics ->
 * MetricsSnapshot and surface in the STATS JSON and Prometheus text;
 * fidelity jobs leave them alone.
 */
TEST(FastEngine, InstallCountersSurfaceInPoolMetrics)
{
    EnginePool::Config config;
    config.workers = 1;
    EnginePool pool(config);

    const auto &p = programs::programById("nreverse30");
    QueryJob fastJob{p, CacheConfig::psi(), interp::RunLimits()};
    fastJob.mode = interp::ExecMode::Fast;
    std::vector<JobOutcome> outs;
    for (int i = 0; i < 3; ++i) {
        auto f = pool.submit(QueryJob(fastJob));
        ASSERT_TRUE(f);
        outs.push_back(f->get());
    }
    auto fid = pool.submit(QueryJob{p, CacheConfig::psi(),
                                    interp::RunLimits()});
    ASSERT_TRUE(fid);
    JobOutcome o4 = fid->get();
    EXPECT_EQ(outs[0].fastImageInstalls, 1u);
    EXPECT_EQ(outs[0].fastQueryCompiles, 1u);
    EXPECT_EQ(outs[0].fastQueryReuses, 0u);
    for (int i : {1, 2}) {
        EXPECT_EQ(outs[i].fastImageInstalls, 0u);
        EXPECT_EQ(outs[i].fastQueryCompiles, 0u);
        EXPECT_EQ(outs[i].fastQueryReuses, 1u);
    }
    EXPECT_EQ(o4.fastImageInstalls + o4.fastQueryCompiles +
                  o4.fastQueryReuses,
              0u);

    auto snap = pool.metrics();
    EXPECT_EQ(snap.total.fastImageInstalls, 1u);
    EXPECT_EQ(snap.total.fastQueryCompiles, 1u);
    EXPECT_EQ(snap.total.fastQueryReuses, 2u);
    const std::string json = snap.json();
    EXPECT_NE(json.find("\"fast_image_installs\": 1"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"fast_query_compiles\": 1"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"fast_query_reuses\": 2"), std::string::npos)
        << json;
    const std::string prom = snap.prometheus();
    for (const char *line : {"psi_fast_image_installs_total 1",
                             "psi_fast_query_compiles_total 1",
                             "psi_fast_query_reuses_total 2"})
        EXPECT_NE(prom.find(line), std::string::npos) << line;
}

// ----- query text bounds --------------------------------------------------

/** @p n levels of f(...) around an atom. */
std::string
nestedTerm(std::uint32_t n)
{
    std::string s;
    for (std::uint32_t i = 0; i < n; ++i)
        s += "f(";
    return s + "a" + std::string(n, ')');
}

/**
 * Query text arrives from the wire, so no text may take down a
 * worker: a term deeper than kl0::kMaxTermDepth is a FatalError,
 * directly and through the pool, and the engine and the worker go on
 * serving.  A term at the bound runs.
 */
TEST(QueryDepth, DeepQueryTextIsAnErrorNotACrash)
{
    programs::BenchProgram len;
    len.id = "len";
    len.title = "list length";
    len.source = "len([], 0).\n"
                 "len([_|T], N) :- len(T, M), N is M + 1.\n";
    const std::uint32_t max = kl0::kMaxTermDepth;
    // len(L, N) with L of n elements is n + 2 levels deep.
    const std::string atBound = "len(" + longList(max - 2) + ", N)";
    const std::string tooDeep = "len(" + longList(50'000) + ", N)";
    const auto image = kl0::CompiledProgram::compile(len.source);

    fast::FastEngine fe;
    fe.load(image);
    EXPECT_THROW(fe.solve(tooDeep), FatalError);
    EXPECT_THROW(fe.solve("X = " + nestedTerm(20'000)), FatalError);
    interp::RunResult r = fe.solve(atBound);
    ASSERT_EQ(r.solutions.size(), 1u);
    EXPECT_EQ(r.solutions[0].bindings.at("N")->value(), max - 2);
    interp::Engine eng;
    eng.load(image);
    EXPECT_THROW(eng.solve(tooDeep), FatalError);
    expectByteIdentical(eng.solve(atBound), r);

    EnginePool::Config config;
    config.workers = 1;
    EnginePool pool(config);
    for (auto mode : {interp::ExecMode::Fidelity, interp::ExecMode::Fast}) {
        SCOPED_TRACE(interp::execModeName(mode));
        for (bool deep : {true, false}) {
            len.query = deep ? tooDeep : atBound;
            QueryJob job{len, CacheConfig::psi(), interp::RunLimits()};
            job.mode = mode;
            auto f = pool.submit(std::move(job));
            ASSERT_TRUE(f.has_value());
            JobOutcome out = f->get();
            if (deep) {
                EXPECT_NE(out.error.find("deeper than"), std::string::npos)
                    << out.error;
            } else {
                ASSERT_TRUE(out.error.empty()) << out.error;
                expectByteIdentical(out.run.result, r);
            }
        }
    }
}

// ----- deep answers -----------------------------------------------------

/** An answer whose list spine is 50k cells deep. */
programs::BenchProgram
deepListProgram()
{
    programs::BenchProgram p;
    p.id = "deep_list";
    p.title = "50k-element answer list";
    p.source = "mk(0,[]) :- !.\n"
               "mk(N,[N|T]) :- M is N-1, mk(M,T).\n";
    p.query = "mk(50000, L)";
    return p;
}

/** L must be [n, n-1, ..., 1]; walked without recursion. */
void
expectCountdownList(const interp::RunResult &r, std::int64_t n)
{
    ASSERT_EQ(r.status, interp::RunStatus::Ok);
    ASSERT_EQ(r.solutions.size(), 1u);
    const kl0::Term *t = r.solutions[0].bindings.at("L").get();
    for (std::int64_t want = n; want > 0; --want) {
        ASSERT_TRUE(t->isCons()) << "element " << want;
        ASSERT_TRUE(t->args()[0]->isInt());
        ASSERT_EQ(t->args()[0]->value(), want);
        t = t->args()[1].get();
    }
    EXPECT_TRUE(t->isNil());
}

/**
 * Answer export walks the machine term with an explicit stack, so a
 * list far deeper than the host stack allows for recursion comes back
 * whole - on both engines, directly and through the pool.
 */
TEST(DeepAnswer, FiftyThousandElementListExportsInBothModes)
{
    const programs::BenchProgram p = deepListProgram();
    auto image = kl0::CompiledProgram::compile(p.source);

    interp::Engine eng;
    eng.load(image);
    expectCountdownList(eng.solve(p.query), 50000);

    fast::FastEngine fe;
    fe.load(image);
    expectCountdownList(fe.solve(p.query), 50000);

    EnginePool::Config config;
    config.workers = 2;
    EnginePool pool(config);
    for (auto mode : {interp::ExecMode::Fidelity, interp::ExecMode::Fast}) {
        SCOPED_TRACE(interp::execModeName(mode));
        QueryJob job{p, CacheConfig::psi(), interp::RunLimits()};
        job.mode = mode;
        auto f = pool.submit(std::move(job));
        ASSERT_TRUE(f.has_value());
        JobOutcome out = f->get();
        ASSERT_TRUE(out.error.empty()) << out.error;
        expectCountdownList(out.run.result, 50000);
    }
}

} // namespace

