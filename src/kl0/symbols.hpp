/**
 * @file
 * Atom and functor interning.
 *
 * Atoms are interned strings; functors are (atom, arity) pairs.  The
 * 32-bit data part of Atom / Functor / Call words holds these
 * indices.  One SymbolTable is shared by the code generator, the PSI
 * interpreter and the baseline engine so exported terms print
 * identically.
 *
 * A table may sit on an immutable base: the symbol table of a
 * compiled image, shared by pointer (CompiledProgram::symbolBase).
 * Indices below the base's counts resolve in the base; the table
 * itself holds only the symbols interned after adopting it (a query
 * compile's, a run's).  Adopting a base is O(1), so an engine
 * switching images copies no symbols, and every name or arity lookup
 * costs one compare against the base's count.
 */

#ifndef PSI_KL0_SYMBOLS_HPP
#define PSI_KL0_SYMBOLS_HPP

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace psi {
namespace kl0 {

/** Interning table for atoms and functors. */
class SymbolTable
{
  public:
    SymbolTable();
    SymbolTable(SymbolTable &&) = default;
    SymbolTable &operator=(SymbolTable &&) = default;
    SymbolTable(const SymbolTable &) = delete;
    SymbolTable &operator=(const SymbolTable &) = delete;

    /**
     * Make @p base this table's immutable prefix and forget every
     * symbol of this table's own.  @p base must have no base of its
     * own.  O(1): the result holds exactly @p base's symbols, at
     * their indices.
     */
    void adopt(std::shared_ptr<const SymbolTable> base);

    /** Return to the just-constructed state (no base). */
    void clear();

    /** Intern @p name; returns a stable atom index. */
    std::uint32_t atom(const std::string &name);

    /** Intern (name, arity); returns a stable functor index. */
    std::uint32_t functor(const std::string &name, std::uint32_t arity);

    const std::string &
    atomName(std::uint32_t idx) const
    {
        return *(idx < _baseAtoms ? _baseAtomNames[idx]
                                  : _atomNames[idx - _baseAtoms]);
    }

    /** Name and arity of a functor index. */
    const std::string &functorName(std::uint32_t idx) const
    {
        return *entry(idx).name;
    }
    std::uint32_t functorArity(std::uint32_t idx) const
    {
        return entry(idx).arity;
    }

    std::uint32_t atomCount() const
    {
        return _baseAtoms + static_cast<std::uint32_t>(_atomNames.size());
    }
    std::uint32_t functorCount() const
    {
        return _baseFunctors +
               static_cast<std::uint32_t>(_functors.size());
    }

    /**
     * Forget every symbol interned after the table held @p atoms
     * atoms and @p functors functors (never fewer than the base
     * holds).  Interning only appends, so the result equals the
     * table as it was at those counts; the cost is one erase per
     * forgotten symbol.
     */
    void truncate(std::uint32_t atoms, std::uint32_t functors);

    /** Pre-interned common atoms. */
    std::uint32_t nilAtom() const { return _nil; }
    std::uint32_t trueAtom() const { return _true; }

    /** The base adopted last; null when the table has none. */
    const SymbolTable *base() const { return _base.get(); }

  private:
    struct Functor
    {
        const std::string *name; ///< the atom's name, stable storage
        std::uint32_t atom;
        std::uint32_t arity;
    };

    const Functor &
    entry(std::uint32_t idx) const
    {
        return idx < _baseFunctors ? _baseFunctorData[idx]
                                   : _functors[idx - _baseFunctors];
    }

    static std::uint64_t
    functorKey(std::uint32_t atom, std::uint32_t arity)
    {
        return std::uint64_t{atom} << 32 | arity;
    }

    std::shared_ptr<const SymbolTable> _base;
    // The base's arrays, cached for the inline lookups.
    const std::string *const *_baseAtomNames = nullptr;
    const Functor *_baseFunctorData = nullptr;
    std::uint32_t _baseAtoms = 0;
    std::uint32_t _baseFunctors = 0;

    // Own symbols, indexed from the base's counts up.  Names live in
    // a deque so that the lookup keys and the name pointers stay
    // valid as it grows and shrinks at the back.
    std::deque<std::string> _names;
    std::vector<const std::string *> _atomNames;
    std::unordered_map<std::string_view, std::uint32_t> _atoms;
    std::vector<Functor> _functors;
    std::unordered_map<std::uint64_t, std::uint32_t> _functorIds;
    std::uint32_t _nil = 0;
    std::uint32_t _true = 0;
};

} // namespace kl0
} // namespace psi

#endif // PSI_KL0_SYMBOLS_HPP
