/**
 * @file
 * Fast-policy storage: paged flat areas with dirty extents, the flat
 * trail, query-code mirroring, and the warm reload of FastEngine.
 * The interpreter itself is the engine core in src/interp/.
 */

#include "fast/fast_engine.hpp"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "kl0/reader.hpp"

namespace psi {
namespace fast {

// ----- FlatArea --------------------------------------------------------

static_assert(std::is_trivially_copyable_v<TaggedWord> &&
                  static_cast<int>(Tag::Undef) == 0,
              "FlatArea zeroes words with memset");

void
FlatArea::clearFrom(std::uint32_t from)
{
    if (_extent <= from)
        return;
    zero(from, _extent);
    _extent = from;
}

void
FlatArea::zero(std::uint32_t lo, std::uint32_t hi)
{
    if (lo >= hi)
        return;
    for (std::uint32_t idx : _mapped) {
        const std::uint32_t base = idx << kPageShift;
        const std::uint32_t a = std::max(lo, base);
        const std::uint32_t b = std::min(hi, base + kPageWords);
        if (a < b) {
            // All-zero bytes are the Undef word; memset runs several
            // times faster than a fill that must skip the padding.
            std::memset(static_cast<void *>(_pages[idx].get() + (a - base)),
                        0, (b - a) * sizeof(TaggedWord));
        }
    }
}

void
FlatArea::trim(std::size_t keep)
{
    if (_mapped.size() <= keep)
        return;
    std::sort(_mapped.begin(), _mapped.end());
    for (std::size_t i = keep; i < _mapped.size(); ++i)
        _pages[_mapped[i]].reset();
    _mapped.resize(keep);
}

bool
FlatArea::sameContents(const FlatArea &other) const
{
    auto pageMatches = [&](std::uint32_t idx) {
        const std::uint32_t base = idx << kPageShift;
        for (std::uint32_t w = 0; w < kPageWords; ++w) {
            if (!(read(base + w) == other.read(base + w)))
                return false;
        }
        return true;
    };
    return std::all_of(_mapped.begin(), _mapped.end(), pageMatches) &&
           std::all_of(other._mapped.begin(), other._mapped.end(),
                       pageMatches);
}

TaggedWord *
FlatArea::mapPage(std::uint32_t idx)
{
    _pages[idx].reset(new TaggedWord[kPageWords]());
    _mapped.push_back(idx);
    return _pages[idx].get();
}

// ----- FastAcct --------------------------------------------------------

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
FastAcct::reset(std::uint32_t heapTop)
{
    const std::size_t imagePages =
        (std::size_t{heapTop} + FlatArea::kPageWords - 1) >>
        FlatArea::kPageShift;
    for (int i = 0; i < kNumAreas; ++i) {
        const bool heap = i == static_cast<int>(Area::Heap);
        // Trim first: an unmapped page needs no zeroing.
        _area[i].trim(heap ? std::max(kRetainedPages, imagePages)
                           : kRetainedPages);
        _area[i].clearFrom(heap ? heapTop : 0);
    }
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
        push(p.addr, p.word);
    return qc;
}

std::uint64_t
FastAcct::mappedWords() const
{
    std::uint64_t pages = 0;
    for (const FlatArea &a : _area)
        pages += a.mappedPages();
    return pages * FlatArea::kPageWords;
}

bool
FastAcct::sameMemory(const FastAcct &other) const
{
    for (int i = 0; i < kNumAreas; ++i) {
        if (!_area[i].sameContents(other._area[i]))
            return false;
    }
    return true;
}

// ----- FastEngine ------------------------------------------------------

void
FastEngine::load(const kl0::CompiledProgram &image)
{
    // The heap the last run wrote outside the code: the global_set
    // registry and the vectors.
    const std::uint32_t runHeapTop = vectorTop();
    if (image.id() != _image.id) {
        EngineCore::load(image);
        _acct.zeroHeap(interp::kGlobalRegBase, runHeapTop);
        _image = {image.id(), image.heapTop(), _syms.atomCount(),
                  _syms.functorCount()};
        _query.valid = false;
        _queryInHeap = false;
        return;
    }
    // Same image: its heap words, symbols and codegen state are still
    // in place.  Keep the last query's code too when it is the only
    // one in the heap; solve() drops it if the next query differs.
    if (!_query.valid)
        dropQuery();
    _acct.reset(_codegen.heapTop());
    _acct.zeroHeap(interp::kGlobalRegBase, runHeapTop);
    clearRunState();
    if (_query.valid)
        truncateSymbols(_query.atoms, _query.functors);
}

interp::RunResult
FastEngine::solve(const std::string &query_text,
                  const interp::RunLimits &limits)
{
    // The heap holds exactly this query's code, at the addresses and
    // under the symbol indices a fresh compile would choose.
    if (_query.valid && _query.text == query_text)
        return run(_query.code, limits);
    return compileAndRun(kl0::parseTerm(query_text), limits,
                         &query_text);
}

interp::RunResult
FastEngine::solve(const kl0::TermPtr &goal,
                  const interp::RunLimits &limits)
{
    return compileAndRun(goal, limits, nullptr);
}

interp::RunResult
FastEngine::compileAndRun(const kl0::TermPtr &goal,
                          const interp::RunLimits &limits,
                          const std::string *text)
{
    dropQuery();
    _queryInHeap = true; // set first: a compile may throw half-way
    _query.code = _acct.compileQuery(_codegen, goal);
    if (text) {
        _query.text = *text;
        _query.atoms = _syms.atomCount();
        _query.functors = _syms.functorCount();
        _query.valid = true;
    }
    return run(_query.code, limits);
}

void
FastEngine::dropQuery()
{
    if (!_queryInHeap)
        return;
    // Query code sits above the image; its directory words belong to
    // the functors interned after the image's own.
    _acct.clearHeapFrom(_image.top);
    const std::uint32_t dirEnd = std::min(_syms.functorCount(),
                                          kl0::kDirWords);
    if (dirEnd > _image.functors)
        _acct.zeroHeap(kl0::kDirBase + _image.functors,
                       kl0::kDirBase + dirEnd);
    truncateSymbols(_image.atoms, _image.functors);
    _codegen.rewind();
    _query.valid = false;
    _queryInHeap = false;
}

} // namespace fast
} // namespace psi
