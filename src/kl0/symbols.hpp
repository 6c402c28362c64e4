/**
 * @file
 * Atom and functor interning.
 *
 * Atoms are interned strings; functors are (atom, arity) pairs.  The
 * 32-bit data part of Atom / Functor / Call words holds these
 * indices.  One SymbolTable is shared by the code generator, the PSI
 * interpreter and the baseline engine so exported terms print
 * identically.
 */

#ifndef PSI_KL0_SYMBOLS_HPP
#define PSI_KL0_SYMBOLS_HPP

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace psi {
namespace kl0 {

/** Interning table for atoms and functors. */
class SymbolTable
{
  public:
    SymbolTable();

    /** Intern @p name; returns a stable atom index. */
    std::uint32_t atom(const std::string &name);

    /** Intern (name, arity); returns a stable functor index. */
    std::uint32_t functor(const std::string &name, std::uint32_t arity);

    const std::string &atomName(std::uint32_t idx) const;

    /** Name and arity of a functor index. */
    const std::string &functorName(std::uint32_t idx) const;
    std::uint32_t functorArity(std::uint32_t idx) const;

    std::uint32_t atomCount() const
    {
        return static_cast<std::uint32_t>(_atomNames.size());
    }
    std::uint32_t functorCount() const
    {
        return static_cast<std::uint32_t>(_functors.size());
    }

    /**
     * Forget every symbol interned after the table held @p atoms
     * atoms and @p functors functors.  Interning only appends, so the
     * result equals the table as it was at those counts; the cost is
     * one erase per forgotten symbol.
     */
    void truncate(std::uint32_t atoms, std::uint32_t functors);

    /** Pre-interned common atoms. */
    std::uint32_t nilAtom() const { return _nil; }
    std::uint32_t trueAtom() const { return _true; }

  private:
    std::map<std::string, std::uint32_t> _atoms;
    std::vector<std::string> _atomNames;
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t>
        _functorIds;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> _functors;
    std::uint32_t _nil = 0;
    std::uint32_t _true = 0;
};

} // namespace kl0
} // namespace psi

#endif // PSI_KL0_SYMBOLS_HPP
