#include "mem/memory_system.hpp"

namespace psi {

MemorySystem::MemorySystem(const CacheConfig &config)
    : _xlat(_mem), _cache(config)
{
}

std::uint64_t
MemorySystem::doAccess(CacheCmd cmd, const LogicalAddr &addr,
                       std::uint32_t paddr)
{
    std::uint64_t extra = _cache.access(cmd, addr.area, paddr);
    _stallNs += extra;
    if (_trace)
        _trace->push_back(MemEvent{cmd, addr.area, paddr});
    return extra;
}

TaggedWord
MemorySystem::read(const LogicalAddr &addr)
{
    std::uint32_t paddr = _xlat.translate(addr);
    doAccess(CacheCmd::Read, addr, paddr);
    return _mem.read(paddr);
}

void
MemorySystem::write(const LogicalAddr &addr, const TaggedWord &w)
{
    std::uint32_t paddr = _xlat.translate(addr);
    doAccess(CacheCmd::Write, addr, paddr);
    _mem.write(paddr, w);
}

void
MemorySystem::writeStack(const LogicalAddr &addr, const TaggedWord &w)
{
    std::uint32_t paddr = _xlat.translate(addr);
    doAccess(CacheCmd::WriteStack, addr, paddr);
    _mem.write(paddr, w);
}

TaggedWord
MemorySystem::peek(const LogicalAddr &addr)
{
    return _mem.read(_xlat.translate(addr));
}

void
MemorySystem::poke(const LogicalAddr &addr, const TaggedWord &w)
{
    if (_pokeLog)
        _pokeLog->push_back(PokeRecord{addr, w});
    _mem.write(_xlat.translate(addr), w);
}

void
MemorySystem::resetStats()
{
    _cache.reset();
    _stallNs = 0;
}

void
MemorySystem::reset()
{
    _mem.reset();
    _xlat.reset();
    _cache.reset();
    _stallNs = 0;
}

void
MemorySystem::reconfigure(const CacheConfig &config)
{
    _cache.reconfigure(config);
}

} // namespace psi
