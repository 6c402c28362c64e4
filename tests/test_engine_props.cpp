/**
 * @file
 * Cross-engine and invariant properties, parameterized over the full
 * benchmark workload registry:
 *
 *  - the PSI interpreter (both modes) and the compiled baseline
 *    produce exactly the same solutions in the same order
 *    (alpha-equivalent terms);
 *  - the sequencer statistics are internally consistent (module
 *    steps sum to the total, WF field accesses never exceed steps,
 *    cache-command steps equal the cache's access counts);
 *  - the cache statistics are sane (hits <= accesses per area);
 *  - the fidelity accounting and the fast engine's clause-trial and
 *    index counters match values pinned from the reference engine.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <iostream>
#include <string>

#include "psi.hpp"

using namespace psi;

namespace {

std::string
bindingsOf(const interp::Solution &s)
{
    std::string line;
    for (const auto &kv : s.bindings) {
        if (!line.empty())
            line += " ";
        line += kv.first + "=" + kv.second->canonicalStr();
    }
    return line;
}

class WorkloadProps : public ::testing::TestWithParam<const char *>
{
};

} // namespace

TEST_P(WorkloadProps, EnginesAgreeOnSolutions)
{
    const auto &p = programs::programById(GetParam());
    interp::RunLimits lim;
    lim.maxSolutions = 3;

    interp::Engine psi_eng;
    psi_eng.consult(p.source);
    auto r1 = psi_eng.solve(p.query, lim);

    baseline::WamEngine wam;
    wam.consult(p.source);
    auto r2 = wam.solve(p.query, lim);

    // The fast engine is checked against the baseline too, not only
    // against the fidelity engine it shares its core with.
    fast::FastEngine fast_eng;
    fast_eng.load(kl0::CompiledProgram::compile(p.source));
    auto r3 = fast_eng.solve(p.query, lim);

    ASSERT_EQ(r1.solutions.size(), r2.solutions.size());
    ASSERT_EQ(r3.solutions.size(), r2.solutions.size());
    ASSERT_FALSE(r1.solutions.empty())
        << "workload must have at least one solution";
    for (std::size_t i = 0; i < r1.solutions.size(); ++i) {
        EXPECT_EQ(bindingsOf(r1.solutions[i]),
                  bindingsOf(r2.solutions[i]))
            << "solution " << i << " differs";
        EXPECT_EQ(bindingsOf(r3.solutions[i]),
                  bindingsOf(r2.solutions[i]))
            << "fast solution " << i << " differs";
    }
    EXPECT_EQ(r1.output, r2.output);
    EXPECT_EQ(r3.output, r2.output);
}

TEST_P(WorkloadProps, SequencerStatsConsistent)
{
    const auto &p = programs::programById(GetParam());
    PsiRun run = runOnPsi(p);

    const micro::SeqStats &s = run.seq;
    std::uint64_t total = s.totalSteps();
    ASSERT_GT(total, 0u);

    // Branch ops partition the steps.
    std::uint64_t branch_total = 0;
    for (auto v : s.branchOps)
        branch_total += v;
    EXPECT_EQ(branch_total, total);

    // Every WF field is used at most once per step.
    for (int f = 0; f < micro::kNumWfFields; ++f) {
        EXPECT_LE(s.wfFieldAccesses(static_cast<micro::WfField>(f)),
                  total);
    }

    // Source 2 can only address the dual-ported WF00-0F.
    using micro::WfMode;
    const auto &src2 = s.wfModes[1];
    for (int m = 0; m < micro::kNumWfModes; ++m) {
        if (m != static_cast<int>(WfMode::None) &&
            m != static_cast<int>(WfMode::Direct00_0F)) {
            EXPECT_EQ(src2[m], 0u)
                << "src2 used mode " << micro::wfModeName(
                       static_cast<WfMode>(m));
        }
    }

    // Steps carrying cache commands match the cache's own counts.
    for (int c = 0; c < kNumCacheCmds; ++c) {
        EXPECT_EQ(s.cacheSteps[c],
                  run.cache.cmdAccesses(static_cast<CacheCmd>(c)));
    }
}

TEST_P(WorkloadProps, CacheStatsSane)
{
    const auto &p = programs::programById(GetParam());
    PsiRun run = runOnPsi(p);

    std::uint64_t total = run.cache.totalAccesses();
    ASSERT_GT(total, 0u);
    EXPECT_LE(run.cache.totalHits(), total);
    for (int a = 0; a < kNumAreas; ++a) {
        Area area = static_cast<Area>(a);
        EXPECT_LE(run.cache.areaHits(area),
                  run.cache.areaAccesses(area));
        EXPECT_GE(run.cache.areaHitPct(area), 0.0);
        EXPECT_LE(run.cache.areaHitPct(area), 100.0);
    }
    // Memory requests are a minority of the steps (the paper's
    // "about one in five" observation; allow a loose band).
    double cmd_share =
        100.0 * static_cast<double>(total) /
        static_cast<double>(run.seq.totalSteps());
    EXPECT_GT(cmd_share, 5.0);
    EXPECT_LT(cmd_share, 50.0);
}

TEST_P(WorkloadProps, TimingIdentityHolds)
{
    const auto &p = programs::programById(GetParam());
    PsiRun run = runOnPsi(p);
    EXPECT_EQ(run.result.timeNs,
              run.seq.totalSteps() * micro::kStepNs + run.stallNs);
    EXPECT_GT(run.result.inferences, 0u);
}

// ---------------------------------------------------------------------
// Accounting pin: exact charges recorded from the reference engine.
// ---------------------------------------------------------------------

namespace {

/**
 * The machine configurations the pin covers: the PSI as measured,
 * each firmware ablation flipped on its own, first-argument indexes
 * compiled out, and the runtime first-argument probe switched on.
 */
constexpr int kNumPinConfigs = 6;

struct PinConfig
{
    interp::FirmwareOptions fw;
    kl0::CompileOptions compile;
};

PinConfig
pinConfig(int k)
{
    PinConfig c;
    switch (k) {
      case 1: c.fw.trailBuffer = false; break;
      case 2: c.fw.writeStackCommand = false; break;
      case 3: c.fw.frameBuffers = false; break;
      case 4: c.compile.firstArgIndexing = false; break;
      case 5: c.fw.firstArgIndexing = true; break;
      default: break;
    }
    return c;
}

/** FNV-1a over every sequencer and cache counter of one run. */
struct Fnv64
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }

    template <class Array>
    void
    addAll(const Array &a)
    {
        for (auto v : a)
            add(v);
    }
};

std::uint64_t
statsDigest(const micro::SeqStats &s, const CacheStats &c)
{
    Fnv64 f;
    f.addAll(s.moduleSteps);
    f.addAll(s.branchOps);
    for (const auto &row : s.wfModes)
        f.addAll(row);
    f.addAll(s.cacheSteps);
    for (const auto &row : c.accesses)
        f.addAll(row);
    for (const auto &row : c.hits)
        f.addAll(row);
    f.add(c.readIns);
    f.add(c.writeBacks);
    f.add(c.stackAllocs);
    f.add(c.throughWrites);
    return f.h;
}

struct FidelityPin
{
    std::uint64_t inferences, steps, timeNs, digest;
};

struct FastPin
{
    std::uint64_t inferences, clauseTries, indexHits, indexFallbacks;
};

struct AccountingPin
{
    const char *id;
    FidelityPin fidelity[kNumPinConfigs];
    /** Index 0: indexes compiled in; index 1: compiled out. */
    FastPin fast[2];
};

std::string
pinStr(const FidelityPin &p)
{
    char buf[128];
    std::snprintf(buf, sizeof buf, "{%llu, %llu, %llu, 0x%016llxull}",
                  static_cast<unsigned long long>(p.inferences),
                  static_cast<unsigned long long>(p.steps),
                  static_cast<unsigned long long>(p.timeNs),
                  static_cast<unsigned long long>(p.digest));
    return buf;
}

std::string
pinStr(const FastPin &p)
{
    char buf[128];
    std::snprintf(buf, sizeof buf, "{%llu, %llu, %llu, %llu}",
                  static_cast<unsigned long long>(p.inferences),
                  static_cast<unsigned long long>(p.clauseTries),
                  static_cast<unsigned long long>(p.indexHits),
                  static_cast<unsigned long long>(p.indexFallbacks));
    return buf;
}

const AccountingPin kAccountingPins[] = {
    {"nreverse30",
     {{499, 58673, 11756800, 0x24ab19fda4d9cf69ull},
      {499, 58225, 11667200, 0xa7c22a68ffe004b7ull},
      {499, 58673, 12229600, 0xf1c6817daa085a40ull},
      {499, 58704, 11763000, 0x930d0f92881992e6ull},
      {499, 65205, 13060800, 0x1d80f49031e97a95ull},
      {499, 61163, 12254800, 0x3295d3d823fc84cbull}},
     {{499, 499, 496, 0}, {499, 995, 0, 0}}},
    {"qsort50",
     {{532, 110553, 22147800, 0x3b03cd8468f88dbaull},
      {532, 109906, 22018400, 0xc5c4a70f40b54e1dull},
      {532, 110553, 22854600, 0x988ff74657134548ull},
      {532, 110078, 22052800, 0x95cf95fd0e4065aeull},
      {532, 123852, 24858200, 0x9afb1c39ddb5e062ull},
      {532, 114333, 22903800, 0xc616c6836e0a3ba4ull}},
     {{532, 757, 529, 0}, {532, 1336, 0, 0}}},
    {"tree",
     {{1406, 234638, 47860800, 0xc0b8e0d0658499d1ull},
      {1406, 233871, 47708800, 0xae122ab6308f1ec8ull},
      {1406, 234638, 49312200, 0x9c00d65832341784ull},
      {1406, 236293, 48620200, 0xb2542328cadf600aull},
      {1406, 262520, 56864200, 0x726bbdb35f85c701ull},
      {1406, 242301, 49393400, 0xec73c93218cfc396ull}},
     {{1406, 1534, 1404, 0}, {1406, 2810, 0, 0}}},
    {"lisp_fib",
     {{4334, 836194, 174944800, 0x3c76cb330776c019ull},
      {4334, 833099, 174325800, 0x4e2b22f47cd9be70ull},
      {4334, 836194, 181774600, 0xf87e09c51adad769ull},
      {4334, 830182, 174646600, 0x57e9b6ce8bd7b52bull},
      {4334, 966580, 212309600, 0x5a83d53dff2c45b7ull},
      {4334, 872160, 182138000, 0x2333222ef1cfa6c2ull}},
     {{4334, 8044, 3712, 0}, {4334, 13610, 0, 0}}},
    {"lisp_nrev",
     {{7039, 1386640, 289985000, 0x38df5111e8ae3753ull},
      {7039, 1380903, 288841600, 0x31234d39d1d9cc5cull},
      {7039, 1386640, 300381800, 0x901a1039ab8b0678ull},
      {7039, 1376348, 289519200, 0x55880936fadbc0eeull},
      {7039, 1573621, 342954000, 0x39f0a8c9930fa962ull},
      {7039, 1447702, 302197400, 0x8459492b2f3b00d6ull}},
     {{7039, 14307, 5965, 0}, {7039, 24114, 0, 0}}},
    {"queens1",
     {{3896, 1028488, 205721600, 0xca8f454022b4256full},
      {3896, 1027136, 205451200, 0xd706499a62c148bfull},
      {3896, 1028488, 205775000, 0xa7bd828deb3ba8bbull},
      {3896, 1034432, 206910400, 0xc34d946bd2a34488ull},
      {3896, 1062758, 212572000, 0x826aca52051db0eaull},
      {3896, 1053816, 210787200, 0xbedfc42093328010ull}},
     {{3896, 5067, 3723, 171}, {3896, 8779, 0, 0}}},
    {"revfunc",
     {{1344, 291214, 62058800, 0x6cdb2853f790d015ull},
      {1344, 291172, 62050400, 0xb0414a0c34451d62ull},
      {1344, 291214, 64884800, 0xcdcfba78d1eac3faull},
      {1344, 291595, 62703400, 0xfda06649b06b58d8ull},
      {1344, 295716, 63049400, 0x8ebde4f7f57d74c6ull},
      {1344, 301452, 64106400, 0x79c87c8f82807f00ull}},
     {{1344, 2225, 441, 0}, {1344, 2665, 0, 0}}},
    {"slowrev6",
     {{5901, 964832, 192989800, 0xfb94f87b3c3cc94aull},
      {5901, 958222, 191667800, 0x08d6023824098b5cull},
      {5901, 964832, 193063000, 0xe4e1f07f48dcd4feull},
      {5901, 963400, 192703400, 0xa4d54521fca3aa5cull},
      {5901, 970550, 194129200, 0x4d7af62e17713338ull},
      {5901, 1011620, 202347400, 0xc9d96858ec577a22ull}},
     {{5901, 10534, 1985, 0}, {5901, 11799, 0, 0}}},
    {"bup1",
     {{200, 49695, 10062000, 0x019dfd5af6a63d61ull},
      {200, 49441, 10011200, 0xf60337119b4966f7ull},
      {200, 49695, 10340400, 0x83be11984597131bull},
      {200, 49376, 9998200, 0xc235e01a460c76a5ull},
      {200, 60467, 12220000, 0x16513f138e63783bull},
      {200, 51323, 10387600, 0x059a230c47904b8eull}},
     {{200, 431, 101, 16}, {200, 1135, 0, 0}}},
    {"bup2",
     {{1566, 387468, 77637600, 0xa3a52acfd8dd5f2bull},
      {1566, 385552, 77254400, 0x8f87c6ff62957190ull},
      {1566, 387468, 78240600, 0x5dd22e70282aa3c5ull},
      {1566, 384726, 77089200, 0x96692296d251e116ull},
      {1566, 490325, 98202800, 0x12fc8e6fc285276bull},
      {1566, 400476, 80239200, 0x30d14cf39d0f8162ull}},
     {{1566, 3616, 779, 157}, {1566, 10218, 0, 0}}},
    {"bup3",
     {{12226, 2993858, 599384600, 0x7d5e4c4b491aaee8ull},
      {12226, 2979527, 596218800, 0x86dbc6ac739b57d5ull},
      {12226, 2993858, 600300200, 0x1a23fbc339ebb95eull},
      {12226, 2970937, 594800400, 0x68e10326cd41b6daull},
      {12226, 3940819, 789075800, 0x49db22868665772cull},
      {12226, 3096508, 619914600, 0x426bdd4f02e1a9e4ull}},
     {{12226, 29894, 5832, 1448}, {12226, 90549, 0, 0}}},
    {"harmonizer1",
     {{4982, 867707, 173652400, 0x1e85198c97116884ull},
      {4982, 863820, 172875000, 0xfb5363d9b84945cdull},
      {4982, 867707, 173834800, 0xda63311f62097e0eull},
      {4982, 868098, 173730600, 0x04300c5646f72888ull},
      {4982, 957078, 191502000, 0xd72e7e1ccd520945ull},
      {4982, 908100, 181731000, 0x43e0a88f0ba861a1ull}},
     {{4982, 9907, 2125, 116}, {4982, 16491, 0, 0}}},
    {"harmonizer2",
     {{23698, 4107563, 821630200, 0x7410a16b28690168ull},
      {23698, 4088803, 817878200, 0x733f79f0db7165d4ull},
      {23698, 4107563, 822004000, 0xe3eed6916bf2bb3cull},
      {23698, 4110220, 822161600, 0xbd8ce859f51daf6full},
      {23698, 4540535, 908200000, 0xe47bf9cdd0dae250ull},
      {23698, 4298744, 859866400, 0x1cdf91194ec718e3ull}},
     {{23698, 46614, 10666, 571}, {23698, 79430, 0, 0}}},
    {"harmonizer3",
     {{253406, 43796648, 8759458000, 0x111467611091d8c8ull},
      {253406, 43561445, 8712417400, 0xfedbd308d0102ab4ull},
      {253406, 43796648, 8760233800, 0xe3b1bafddeabcb5full},
      {253406, 43786515, 8757442600, 0x1528b5f93eb8ead9ull},
      {253406, 48597918, 9719690000, 0x6e57e516c652186cull},
      {253406, 45900132, 9180154800, 0x1cca4dfe35ec214dull}},
     {{253406, 516595, 97745, 7371}, {253406, 890936, 0, 0}}},
    {"lcp1",
     {{28, 3657, 810600, 0x46a4ab2400130b4full},
      {28, 3644, 808000, 0xf82390c569e7896dull},
      {28, 3657, 840000, 0x9fe19d3ccb23e3baull},
      {28, 3620, 803200, 0xde61e5dc61be1284ull},
      {28, 5801, 1272400, 0x009f57c86f549d94ull},
      {28, 3793, 837800, 0x43e9bc8ea343a0d9ull}},
     {{28, 31, 18, 0}, {28, 198, 0, 0}}},
    {"lcp2",
     {{76, 10266, 2153400, 0x960debd139792d90ull},
      {76, 10225, 2145200, 0xe5751fbe4340b1cbull},
      {76, 10266, 2215800, 0xb2f1818667e03f9bull},
      {76, 10156, 2131400, 0x61d405d7f19abfb4ull},
      {76, 16292, 3374800, 0x171b18412940fc1eull},
      {76, 10648, 2229800, 0x564e3ed14f5c7641ull}},
     {{76, 86, 47, 0}, {76, 559, 0, 0}}},
    {"lcp3",
     {{130, 16934, 3497200, 0x4ca7db2ef9395422ull},
      {130, 16853, 3481000, 0xa7ebf98a08e79854ull},
      {130, 16934, 3592600, 0x0556486f52ec8e7aull},
      {130, 16753, 3461000, 0x7d9818621eb4cb81ull},
      {130, 22765, 4671200, 0xfcc27ec4947fea7cull},
      {130, 17608, 3632000, 0x7a29315178e837c0ull}},
     {{130, 142, 78, 0}, {130, 617, 0, 0}}},
    {"window1",
     {{844, 142960, 28736600, 0xa1be059b40738012ull},
      {844, 142957, 28736000, 0x448cea8b8245b149ull},
      {844, 142960, 29057000, 0x1f0d7c0551274eafull},
      {844, 144983, 29141200, 0xe4371ba6bffb6400ull},
      {844, 147998, 29714800, 0xba65cb0cc46adb6dull},
      {844, 147251, 29594800, 0x536d8449dfab13b2ull}},
     {{844, 922, 713, 0}, {844, 1705, 0, 0}}},
    {"window2",
     {{6523, 1290194, 278237200, 0x06e3facc30d3955full},
      {6523, 1290185, 278235400, 0x74e5593ff5d85725ull},
      {6523, 1290194, 284450200, 0x94d6c85c7d13c1d6ull},
      {6523, 1302265, 282119400, 0x6896110c1cc378adull},
      {6523, 1305336, 281834400, 0x2cf6a8ddae64141cull},
      {6523, 1325043, 285207000, 0x3d43d280c457eaf6ull}},
     {{6523, 7757, 2139, 0}, {6523, 10106, 0, 0}}},
    {"puzzle8",
     {{3951, 1004585, 200999800, 0xf261918b677ff507ull},
      {3951, 1002574, 200597600, 0x2ec5a2a8ac67b0ffull},
      {3951, 1004585, 201524200, 0x720677532197b781ull},
      {3951, 1002831, 200649000, 0xe8e7e8168c593eecull},
      {3951, 1128961, 225861800, 0x16ee0e1cff305d5cull},
      {3951, 1031275, 206337800, 0xbf9de074e6bd5392ull}},
     {{3951, 6685, 3654, 0}, {3951, 14593, 0, 0}}},
};

} // namespace

/**
 * Every charge the fidelity engine issues is pinned to the value the
 * reference engine recorded, for every machine configuration above,
 * along with the fast engine's clause-trial and index counters.  The
 * engines' own differential tests compare two runs of the same code,
 * so they cannot see a charge that moved; this test can.  On a
 * mismatch the measured row is printed in table syntax.
 */
TEST_P(WorkloadProps, AccountingMatchesPinnedValues)
{
    const auto &p = programs::programById(GetParam());
    interp::RunLimits lim;
    lim.maxSolutions = 3;

    const AccountingPin *pin = nullptr;
    for (const auto &row : kAccountingPins) {
        if (std::string(row.id) == p.id)
            pin = &row;
    }

    std::string measured = "    {\"" + p.id + "\",\n     {";
    for (int k = 0; k < kNumPinConfigs; ++k) {
        SCOPED_TRACE("config " + std::to_string(k));
        PinConfig cfg = pinConfig(k);
        interp::Engine eng(CacheConfig::psi(), cfg.fw);
        eng.load(kl0::CompiledProgram::compile(p.source, cfg.compile));
        interp::RunResult r = eng.solve(p.query, lim);
        FidelityPin got{r.inferences, r.steps, r.timeNs,
                        statsDigest(eng.seq().stats(),
                                    eng.mem().cache().stats())};
        measured += (k ? ",\n      " : "") + pinStr(got);
        if (pin) {
            EXPECT_EQ(pinStr(got), pinStr(pin->fidelity[k]));
        }
    }
    measured += "},\n     {";
    for (int k = 0; k < 2; ++k) {
        SCOPED_TRACE("fast, indexing " + std::string(k ? "off" : "on"));
        fast::FastEngine fe;
        fe.load(kl0::CompiledProgram::compile(
            p.source, pinConfig(k ? 4 : 0).compile));
        interp::RunResult r = fe.solve(p.query, lim);
        FastPin got{r.inferences, fe.clauseTries(), fe.indexHits(),
                    fe.indexFallbacks()};
        measured += (k ? ", " : "") + pinStr(got);
        if (pin) {
            EXPECT_EQ(pinStr(got), pinStr(pin->fast[k]));
        }
    }
    measured += "}},";
    EXPECT_NE(pin, nullptr) << "no pinned row; measured:\n" << measured;
    if (HasFailure())
        std::cout << "measured row:\n" << measured << "\n";
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadProps,
    ::testing::Values("nreverse30", "qsort50", "tree", "lisp_fib",
                      "lisp_nrev", "queens1", "revfunc", "slowrev6",
                      "bup1", "bup2", "bup3", "harmonizer1",
                      "harmonizer2", "harmonizer3", "lcp1", "lcp2",
                      "lcp3", "window1", "window2", "puzzle8"));

// ---------------------------------------------------------------------
// Cache-design properties over one recorded trace.
// ---------------------------------------------------------------------

namespace {

struct TraceFixture
{
    std::vector<MemEvent> trace;
    std::uint64_t steps = 0;

    TraceFixture()
    {
        const auto &p = programs::programById("qsort50");
        interp::Engine eng;
        eng.consult(p.source);
        eng.mem().setTraceSink(&trace);
        auto r = eng.solve(p.query);
        steps = r.steps;
    }
};

TraceFixture &
fixture()
{
    static TraceFixture f;
    return f;
}

} // namespace

class PmmsCapacity : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(PmmsCapacity, ImprovementMonotonicInCapacity)
{
    tools::Pmms pmms(fixture().trace, fixture().steps);
    CacheConfig base = CacheConfig::psi();
    CacheConfig half = base;
    base.capacityWords = GetParam();
    half.capacityWords = GetParam() / 2;
    auto rb = pmms.replay(base);
    auto rh = pmms.replay(half);
    EXPECT_GE(rb.improvementPct + 1e-9, rh.improvementPct);
    EXPECT_GE(rb.hitPct + 1e-9, rh.hitPct);
}

INSTANTIATE_TEST_SUITE_P(Capacities, PmmsCapacity,
                         ::testing::Values(16u, 64u, 256u, 1024u,
                                           4096u, 8192u));

TEST(PmmsProps, MoreWaysNeverHurtSameCapacity)
{
    tools::Pmms pmms(fixture().trace, fixture().steps);
    CacheConfig one = CacheConfig::psi();
    one.ways = 1;
    CacheConfig two = CacheConfig::psi();
    EXPECT_GE(pmms.replay(two).hitPct + 0.5,
              pmms.replay(one).hitPct);
}

TEST(PmmsProps, StoreInBeatsStoreThrough)
{
    tools::Pmms pmms(fixture().trace, fixture().steps);
    CacheConfig thr = CacheConfig::psi();
    thr.storeIn = false;
    EXPECT_GT(pmms.replay(CacheConfig::psi()).improvementPct,
              pmms.replay(thr).improvementPct);
}

TEST(PmmsProps, CachedAlwaysBeatsUncached)
{
    tools::Pmms pmms(fixture().trace, fixture().steps);
    auto r = pmms.replay(CacheConfig::psi());
    EXPECT_LT(r.timeNs, pmms.noCacheTimeNs());
    EXPECT_GT(r.improvementPct, 0.0);
}
