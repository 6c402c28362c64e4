#include <gtest/gtest.h>

#include "kl0/builtin_defs.hpp"
#include "kl0/symbols.hpp"

using namespace psi::kl0;

TEST(Symbols, AtomsInternStably)
{
    SymbolTable t;
    auto a = t.atom("hello");
    auto b = t.atom("world");
    EXPECT_NE(a, b);
    EXPECT_EQ(t.atom("hello"), a);
    EXPECT_EQ(t.atomName(a), "hello");
}

TEST(Symbols, FunctorsDistinguishArity)
{
    SymbolTable t;
    auto f1 = t.functor("f", 1);
    auto f2 = t.functor("f", 2);
    EXPECT_NE(f1, f2);
    EXPECT_EQ(t.functorName(f1), "f");
    EXPECT_EQ(t.functorArity(f2), 2u);
    EXPECT_EQ(t.functor("f", 1), f1);
}

TEST(Symbols, PreinternedAtoms)
{
    SymbolTable t;
    EXPECT_EQ(t.atomName(t.nilAtom()), "[]");
    EXPECT_EQ(t.atomName(t.trueAtom()), "true");
}

TEST(Symbols, CountsGrow)
{
    SymbolTable t;
    auto n0 = t.atomCount();
    t.atom("fresh_atom_xyz");
    EXPECT_EQ(t.atomCount(), n0 + 1);
    auto f0 = t.functorCount();
    t.functor("fresh", 3);
    EXPECT_EQ(t.functorCount(), f0 + 1);
}

TEST(Symbols, TruncateForgetsLaterSymbolsOnly)
{
    SymbolTable t;
    auto keepAtom = t.atom("kept");
    auto keepFunctor = t.functor("kept", 2);
    const auto atoms = t.atomCount();
    const auto functors = t.functorCount();
    auto gone = t.functor("gone", 1);
    t.atom("also_gone");

    t.truncate(atoms, functors);
    EXPECT_EQ(t.atomCount(), atoms);
    EXPECT_EQ(t.functorCount(), functors);
    EXPECT_EQ(t.atom("kept"), keepAtom);
    EXPECT_EQ(t.functor("kept", 2), keepFunctor);
    // Re-interning hands out the forgotten indices again, in order.
    EXPECT_EQ(t.functor("again", 1), gone);
    EXPECT_EQ(t.functorName(gone), "again");
}

TEST(BuiltinDefs, LookupByNameArity)
{
    EXPECT_EQ(builtinIndex("is", 2),
              static_cast<int>(Builtin::Is));
    EXPECT_EQ(builtinIndex("=", 2),
              static_cast<int>(Builtin::Unify));
    EXPECT_EQ(builtinIndex("is", 3), -1);
    EXPECT_EQ(builtinIndex("user_pred", 1), -1);
}

TEST(BuiltinDefs, Aliases)
{
    EXPECT_EQ(builtinIndex("false", 0),
              static_cast<int>(Builtin::Fail));
    EXPECT_EQ(builtinIndex("print", 1),
              static_cast<int>(Builtin::Write));
}

TEST(BuiltinDefs, NamesAndArities)
{
    EXPECT_STREQ(builtinName(Builtin::Univ), "=..");
    EXPECT_EQ(builtinArity(Builtin::Functor), 3u);
    EXPECT_EQ(builtinArity(Builtin::Nl), 0u);
}
