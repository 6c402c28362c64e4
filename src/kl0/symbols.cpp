#include "kl0/symbols.hpp"

#include "base/logging.hpp"

namespace psi {
namespace kl0 {

SymbolTable::SymbolTable()
{
    _nil = atom("[]");
    _true = atom("true");
}

void
SymbolTable::adopt(std::shared_ptr<const SymbolTable> base)
{
    PSI_ASSERT(base && !base->_base, "a symbol base must be flat");
    _names.clear();
    _atomNames.clear();
    _atoms.clear();
    _functors.clear();
    _functorIds.clear();
    _baseAtomNames = base->_atomNames.data();
    _baseFunctorData = base->_functors.data();
    _baseAtoms = base->atomCount();
    _baseFunctors = base->functorCount();
    _base = std::move(base);
}

void
SymbolTable::clear()
{
    *this = SymbolTable();
}

std::uint32_t
SymbolTable::atom(const std::string &name)
{
    if (_base) {
        auto it = _base->_atoms.find(name);
        if (it != _base->_atoms.end())
            return it->second;
    }
    auto it = _atoms.find(name);
    if (it != _atoms.end())
        return it->second;
    const std::uint32_t idx = atomCount();
    const std::string &stored = _names.emplace_back(name);
    _atomNames.push_back(&stored);
    _atoms.emplace(stored, idx);
    return idx;
}

std::uint32_t
SymbolTable::functor(const std::string &name, std::uint32_t arity)
{
    const std::uint32_t a = atom(name);
    const std::uint64_t key = functorKey(a, arity);
    if (_base) {
        auto it = _base->_functorIds.find(key);
        if (it != _base->_functorIds.end())
            return it->second;
    }
    auto it = _functorIds.find(key);
    if (it != _functorIds.end())
        return it->second;
    const std::uint32_t idx = functorCount();
    _functorIds.emplace(key, idx);
    _functors.push_back({&atomName(a), a, arity});
    return idx;
}

void
SymbolTable::truncate(std::uint32_t atoms, std::uint32_t functors)
{
    PSI_ASSERT(atoms >= 2 && atoms >= _baseAtoms &&
                   atoms <= atomCount() && functors >= _baseFunctors &&
                   functors <= functorCount(),
               "symbol table truncated past its own end or base");
    while (functorCount() > functors) {
        const Functor &f = _functors.back();
        _functorIds.erase(functorKey(f.atom, f.arity));
        _functors.pop_back();
    }
    while (atomCount() > atoms) {
        _atoms.erase(_names.back());
        _atomNames.pop_back();
        _names.pop_back();
    }
}

} // namespace kl0
} // namespace psi
