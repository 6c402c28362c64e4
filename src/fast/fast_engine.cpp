/**
 * @file
 * Fast-policy storage: paged flat areas, the flat trail, query-code
 * mirroring and the process-switch register save.  The interpreter
 * itself is the engine core in src/interp/.
 */

#include "fast/fast_engine.hpp"

#include <cstring>

namespace psi {
namespace fast {

void
FlatArea::clear()
{
    for (std::uint32_t idx : _mapped)
        std::memset(_pages[idx].get(), 0,
                    kPageWords * sizeof(TaggedWord));
}

TaggedWord *
FlatArea::mapPage(std::uint32_t idx)
{
    _pages[idx].reset(new TaggedWord[kPageWords]());
    _mapped.push_back(idx);
    return _pages[idx].get();
}

void
FastAcct::unwindTrail(std::uint64_t to_tt)
{
    while (_regs.tt > to_tt) {
        --_regs.tt;
        TaggedWord e = read(LogicalAddr(Area::Trail, _regs.tt));
        LogicalAddr a = LogicalAddr::unpack(e.data);
        // Local-stack entries record variable globalization; the
        // pre-binding state is always "uninitialized".
        write(a, a.area == Area::Local ? TaggedWord{}
                                       : TaggedWord{Tag::Ref, a.pack()});
    }
}

void
FastAcct::reset()
{
    for (FlatArea &a : _area)
        a.clear();
    _qmem.reset();
}

kl0::QueryCode
FastAcct::compileQuery(kl0::CodeGen &cg, const kl0::TermPtr &goal)
{
    // The shared CodeGen emits into the scratch MemorySystem; mirror
    // its poke log into the flat heap so the query code, clause table
    // and directory entry land at the same logical addresses the
    // fidelity engine executes from.
    _queryPokes.clear();
    _qmem.setPokeLog(&_queryPokes);
    kl0::QueryCode qc = cg.compileQuery(goal);
    _qmem.setPokeLog(nullptr);
    for (const PokeRecord &p : _queryPokes)
        write(p.addr, p.word);
    return qc;
}

} // namespace fast
} // namespace psi
