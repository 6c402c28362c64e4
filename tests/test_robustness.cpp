/**
 * @file
 * Robustness properties: malformed input must raise FatalError (and
 * never crash), deterministic pseudo-random token soup included; the
 * engines must survive pathological-but-legal programs.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "psi.hpp"

using namespace psi;

namespace {

/** xorshift32: deterministic input generator for the soup tests. */
std::uint32_t
next(std::uint32_t &s)
{
    s ^= s << 13;
    s ^= s >> 17;
    s ^= s << 5;
    return s;
}

} // namespace

TEST(Robustness, MalformedClausesThrowNotCrash)
{
    const char *bad[] = {
        "f(.",       "f(a))",     "f(a",      "[1,2",
        "f(a) :- .", "f().",     "f(a,).",   "f(|).",
        "f(a) g(b).", "'unterminated", "/* open", "f(a)extra.",
        "1.",        "X.",
    };
    for (const char *text : bad) {
        kl0::Program p;
        EXPECT_THROW(p.consult(text), FatalError) << text;
    }
}

TEST(Robustness, BadGoalsThrowAtLoad)
{
    interp::Engine eng;
    EXPECT_THROW(eng.consult("f(a) :- 1."), FatalError);
    EXPECT_THROW(eng.consult("f(X) :- X."), FatalError);
}

TEST(Robustness, TokenSoupNeverCrashes)
{
    const char alphabet[] =
        "abzXY_09 ()[]|,.'\\+-*/<>=:;!@#&{}\n\t";
    std::uint32_t seed = 0xC0FFEE;
    int parsed_ok = 0;
    for (int round = 0; round < 300; ++round) {
        std::string text;
        int len = 1 + static_cast<int>(next(seed) % 60);
        for (int i = 0; i < len; ++i)
            text.push_back(
                alphabet[next(seed) % (sizeof(alphabet) - 1)]);
        try {
            kl0::Program p;
            p.consult(text);
            ++parsed_ok;
        } catch (const FatalError &) {
            // expected for most soups
        }
    }
    // The property is "no crash"; a few soups may legitimately parse.
    SUCCEED() << parsed_ok << " soups parsed";
}

TEST(Robustness, DeepNestingParsesAndRuns)
{
    // 200 levels of f(...) nesting.
    std::string term = "x";
    for (int i = 0; i < 200; ++i)
        term = "f(" + term + ")";
    interp::Engine eng;
    eng.consult("deep(" + term + ").");
    auto r = eng.solve("deep(X), deep(X)");
    EXPECT_TRUE(r.succeeded());
}

/** @p n elements "1,1,...". */
std::string
ones(std::uint32_t n)
{
    std::string s = "1";
    for (std::uint32_t i = 1; i < n; ++i)
        s += ",1";
    return s;
}

/** @p n levels of f(...) around @p inner. */
std::string
nested(std::uint32_t n, const std::string &inner)
{
    std::string s;
    for (std::uint32_t i = 0; i < n; ++i)
        s += "f(";
    return s + inner + std::string(n, ')');
}

/**
 * A term of a million list cells is a chain a million shared pointers
 * deep; releasing it must not recurse once per cell.
 */
TEST(Robustness, MillionElementListReleasesWithoutRecursion)
{
    {
        std::vector<kl0::TermPtr> elems(1'000'000, kl0::Term::integer(1));
        kl0::TermPtr list = kl0::Term::list(std::move(elems));
        EXPECT_EQ(list->depth(), 1'000'001u);
    }
    // A left-deep operator chain and a nest of compounds, likewise.
    kl0::TermPtr chain = kl0::Term::integer(0);
    kl0::TermPtr nest = kl0::Term::atom("x");
    for (int i = 0; i < 200'000; ++i) {
        chain = kl0::Term::compound("+", {chain, kl0::Term::integer(i)});
        nest = kl0::Term::compound("f", {nest});
    }
    chain.reset();
    nest.reset();
    SUCCEED();
}

/**
 * The reader takes terms up to kl0::kMaxTermDepth levels deep and
 * raises FatalError past that, whatever makes the depth: nested
 * compounds, brackets, nested lists, list cells, operator chains.
 */
TEST(Robustness, ReaderBoundsTermDepth)
{
    const std::uint32_t max = kl0::kMaxTermDepth;
    struct Shape
    {
        const char *name;
        std::function<std::string(std::uint32_t)> text; ///< n levels deep
    };
    const std::vector<Shape> shapes = {
        {"compounds", [](std::uint32_t n) { return nested(n - 1, "a"); }},
        {"brackets", // depth 1, but n nested reads
         [](std::uint32_t n) {
             return std::string(n - 1, '(') + "a" + std::string(n - 1, ')');
         }},
        {"nested lists",
         [](std::uint32_t n) {
             return std::string(n, '[') + std::string(n, ']');
         }},
        {"list cells",
         [](std::uint32_t n) { return "[" + ones(n - 1) + "]"; }},
        {"left chain",
         [](std::uint32_t n) {
             std::string s = "1";
             for (std::uint32_t i = 1; i < n; ++i)
                 s += "+1";
             return s;
         }},
        {"right chain",
         [](std::uint32_t n) {
             std::string s = "true";
             for (std::uint32_t i = 1; i < n; ++i)
                 s += ",true";
             return s;
         }},
    };
    for (const Shape &shape : shapes) {
        SCOPED_TRACE(shape.name);
        EXPECT_NO_THROW(kl0::parseTerm(shape.text(max)));
        EXPECT_THROW(kl0::parseTerm(shape.text(max + 1)), FatalError);
        // Program text goes through the same reader.
        EXPECT_THROW(kl0::Program().consult("p((" + shape.text(max + 1) +
                                            "))."),
                     FatalError);
    }
    // Far past the bound: refused, never a stack overflow.
    EXPECT_THROW(kl0::parseTerm(nested(20'000, "a")), FatalError);
    EXPECT_THROW(kl0::parseTerm("[" + ones(100'000) + "]"), FatalError);
}

TEST(Robustness, LongListsRoundTrip)
{
    std::string list = "[0";
    for (int i = 1; i < 800; ++i) {
        list += ',';
        list += std::to_string(i);
    }
    list += "]";
    interp::Engine eng;
    eng.consult(programs::librarySource());
    auto r = eng.solve("length(" + list + ", N)");
    ASSERT_TRUE(r.succeeded());
    EXPECT_EQ(r.solutions[0].bindings.at("N")->value(), 800);
}

TEST(Robustness, SelfUnificationOfLargeTerms)
{
    interp::Engine eng;
    eng.consult("eq(X, X).");
    std::string t = "g(1)";
    for (int i = 0; i < 12; ++i)
        t = "h(" + t + "," + t + ")";
    // ~4K-node ground term unified against an equal copy: must
    // finish well within the step limit.
    interp::RunLimits lim;
    lim.maxSteps = 50'000'000;
    auto r = eng.solve("eq(" + t + ", " + t + ")", lim);
    EXPECT_TRUE(r.succeeded());
}

TEST(Robustness, ZeroArityEverything)
{
    interp::Engine eng;
    eng.consult("a. b :- a. c :- b, a.");
    EXPECT_TRUE(eng.solve("c").succeeded());
}

TEST(Robustness, EmptyProgramAndQueries)
{
    interp::Engine eng;
    eng.consult("");
    EXPECT_TRUE(eng.solve("true").succeeded());
    EXPECT_FALSE(eng.solve("fail").succeeded());
}

TEST(Robustness, BaselineMalformedAlsoThrows)
{
    baseline::WamEngine eng;
    EXPECT_THROW(eng.consult("f(."), FatalError);
    EXPECT_THROW(eng.consult("1."), FatalError);
}
