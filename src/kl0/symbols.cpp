#include "kl0/symbols.hpp"

#include "base/logging.hpp"

namespace psi {
namespace kl0 {

SymbolTable::SymbolTable()
{
    _nil = atom("[]");
    _true = atom("true");
}

std::uint32_t
SymbolTable::atom(const std::string &name)
{
    auto it = _atoms.find(name);
    if (it != _atoms.end())
        return it->second;
    auto idx = static_cast<std::uint32_t>(_atomNames.size());
    _atoms.emplace(name, idx);
    _atomNames.push_back(name);
    return idx;
}

std::uint32_t
SymbolTable::functor(const std::string &name, std::uint32_t arity)
{
    auto key = std::make_pair(atom(name), arity);
    auto it = _functorIds.find(key);
    if (it != _functorIds.end())
        return it->second;
    auto idx = static_cast<std::uint32_t>(_functors.size());
    _functorIds.emplace(key, idx);
    _functors.push_back(key);
    return idx;
}

void
SymbolTable::truncate(std::uint32_t atoms, std::uint32_t functors)
{
    PSI_ASSERT(atoms >= 2 && atoms <= _atomNames.size() &&
                   functors <= _functors.size(),
               "symbol table truncated past its own end");
    for (std::size_t i = functors; i < _functors.size(); ++i)
        _functorIds.erase(_functors[i]);
    _functors.resize(functors);
    for (std::size_t i = atoms; i < _atomNames.size(); ++i)
        _atoms.erase(_atomNames[i]);
    _atomNames.resize(atoms);
}

const std::string &
SymbolTable::atomName(std::uint32_t idx) const
{
    PSI_ASSERT(idx < _atomNames.size(), "atom index ", idx);
    return _atomNames[idx];
}

const std::string &
SymbolTable::functorName(std::uint32_t idx) const
{
    PSI_ASSERT(idx < _functors.size(), "functor index ", idx);
    return _atomNames[_functors[idx].first];
}

std::uint32_t
SymbolTable::functorArity(std::uint32_t idx) const
{
    PSI_ASSERT(idx < _functors.size(), "functor index ", idx);
    return _functors[idx].second;
}

} // namespace kl0
} // namespace psi
