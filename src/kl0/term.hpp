/**
 * @file
 * Host-side term representation for the KL0 dialect.
 *
 * The reader produces these terms; the code generator and the
 * baseline compiler consume them; both execution engines export query
 * solutions back into them so tests can compare the engines
 * structurally.
 */

#ifndef PSI_KL0_TERM_HPP
#define PSI_KL0_TERM_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace psi {
namespace kl0 {

class Term;
using TermPtr = std::shared_ptr<const Term>;

/**
 * Immutable first-order term: variable, atom, integer or compound.
 *
 * Terms of any depth are released without recursion (a list of a
 * million cells is a chain that deep), and each term knows its depth,
 * so a consumer that recurses over terms can refuse one too deep for
 * its stack in O(1).
 */
class Term
{
  public:
    enum class Kind
    {
        Var,
        Atom,
        Int,
        Compound,
    };

    /** @name Constructors */
    /// @{
    static TermPtr var(std::string name);
    static TermPtr atom(std::string name);
    static TermPtr integer(std::int64_t v);
    static TermPtr compound(std::string functor,
                            std::vector<TermPtr> args);
    /** Build a list [elems... | tail]; tail defaults to []. */
    static TermPtr list(std::vector<TermPtr> elems,
                        TermPtr tail = nullptr);
    static TermPtr nil();
    /// @}

    ~Term();
    Term(const Term &) = delete;
    Term &operator=(const Term &) = delete;

    Kind kind() const { return _kind; }
    bool isVar() const { return _kind == Kind::Var; }
    bool isAtom() const { return _kind == Kind::Atom; }
    bool isInt() const { return _kind == Kind::Int; }
    bool isCompound() const { return _kind == Kind::Compound; }
    bool isNil() const { return isAtom() && _name == "[]"; }
    bool isCons() const
    {
        return isCompound() && _name == "." && _args.size() == 2;
    }
    /** True for atom/compound with the given name and arity. */
    bool isCallable(const std::string &name, std::size_t arity) const;

    /** Variable / atom / functor name. */
    const std::string &name() const { return _name; }
    std::int64_t value() const { return _value; }
    const std::vector<TermPtr> &args() const { return _args; }
    std::size_t arity() const { return _args.size(); }
    /** Nesting depth: 1 for an atomic term, else 1 + the deepest
     *  argument's (a list of n elements is at least n + 1 deep). */
    std::uint32_t depth() const { return _depth; }

    /** Structural equality; variables compare by name. */
    bool equals(const Term &o) const;

    /** Standard (non-canonical) textual form. */
    std::string str() const;

    /**
     * Textual form with variables renamed _A, _B, ... in order of
     * first appearance, so terms from different engines compare
     * equal when they are alpha-equivalent.
     */
    std::string canonicalStr() const;

  private:
    Term(Kind k, std::string name, std::int64_t v,
         std::vector<TermPtr> args);

    Kind _kind;
    std::uint32_t _depth = 1;
    std::string _name;
    std::int64_t _value = 0;
    std::vector<TermPtr> _args;
};

} // namespace kl0
} // namespace psi

#endif // PSI_KL0_TERM_HPP
