/**
 * @file
 * Fast-policy storage: paged flat areas with dirty extents, the flat
 * trail, query compiles into scratch memory, and the install path of
 * FastEngine (images, query records).
 * The interpreter itself is the engine core in src/interp/.
 */

#include "fast/fast_engine.hpp"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "base/logging.hpp"
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
FlatArea::copyIn(std::uint32_t off, const TaggedWord *words,
                 std::size_t n)
{
    if (n == 0)
        return;
    const std::uint32_t end = off + static_cast<std::uint32_t>(n);
    while (off < end) {
        const std::uint32_t idx = off >> kPageShift;
        const std::uint32_t in = off & kPageMask;
        const std::uint32_t chunk = std::min(end - off, kPageWords - in);
        std::memcpy(static_cast<void *>(page(idx) + in), words,
                    chunk * sizeof(TaggedWord));
        words += chunk;
        off += chunk;
    }
    _extent = std::max(_extent, end);
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
    _queryPokes.clear();
    _qmem.setPokeLog(&_queryPokes);
    kl0::QueryCode qc = cg.compileQuery(goal);
    _qmem.setPokeLog(nullptr);
    return qc;
}

void
FastAcct::trimQueryStores(std::size_t keep)
{
    if (_queryPokes.capacity() > keep)
        std::vector<PokeRecord>().swap(_queryPokes);
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

FastEngine::FastEngine()
{
    _held.atoms = _syms.atomCount();
    _held.functors = _syms.functorCount();
}

void
FastEngine::load(const kl0::CompiledProgram &image)
{
    // The heap the last run wrote outside the code: the global_set
    // registry and the vectors.
    const std::uint32_t runHeapTop = vectorTop();
    const std::uint32_t codeTop =
        _held.top + (_held.query ? static_cast<std::uint32_t>(
                                       _held.query->code.size())
                                 : 0);
    _acct.reset(codeTop);
    _acct.zeroHeap(interp::kGlobalRegBase, runHeapTop);
    clearRunState();
    // Drop what the run interned; keep the held query's symbols.
    truncateSymbols(
        _held.atoms + static_cast<std::uint32_t>(
                          _held.query ? _held.query->atoms.size() : 0),
        _held.functors +
            static_cast<std::uint32_t>(
                _held.query ? _held.query->functors.size() : 0));
    installImage(image);
}

void
FastEngine::installImage(const kl0::CompiledProgram &image)
{
    if (image.id() == _held.image)
        return;
    dropQuery();
    // Copy the new image over the old one and zero what the old one
    // covered beyond it.
    const auto &dir = image.directory();
    const auto &code = image.code();
    const std::uint32_t dirWords = static_cast<std::uint32_t>(dir.size());
    _acct.copyToHeap(kl0::kDirBase, dir);
    _acct.zeroHeap(kl0::kDirBase + dirWords, kl0::kDirBase + _held.dirWords);
    _acct.copyToHeap(kl0::kCodeBase, code);
    _acct.zeroHeap(image.heapTop(), _held.top);

    _syms.adopt(image.symbolBase());
    _codegen.restore(image.codegen());
    // Query code compiled against this image must use the same
    // compile options.
    _codegen.setOptions(image.options());
    _held.image = image.id();
    _held.top = image.heapTop();
    _held.dirWords = dirWords;
    _held.atoms = _syms.atomCount();
    _held.functors = _syms.functorCount();
    ++_counters.imageInstalls;
}

interp::RunResult
FastEngine::solve(const std::string &query_text,
                  const interp::RunLimits &limits)
{
    QueryRecord *rec = _held.query;
    if (rec && !rec->text.empty() && rec->text == query_text) {
        // Held already: a rerun.
        ++_counters.queryReuses;
    } else if ((rec = findRecord(query_text))) {
        ++_counters.queryReuses;
        installQuery(*rec, true);
    } else {
        // Text that fails to parse leaves the image state too.
        dropQuery();
        rec = &compileRecord(kl0::parseTerm(query_text), &query_text);
    }
    rec->lastUse = ++_useClock;
    return run(rec->query, limits);
}

interp::RunResult
FastEngine::solve(const kl0::TermPtr &goal,
                  const interp::RunLimits &limits)
{
    return run(compileRecord(goal, nullptr).query, limits);
}

FastEngine::QueryRecord *
FastEngine::findRecord(const std::string &text)
{
    for (const auto &r : _records) {
        if (r->image == _held.image && r->text == text)
            return r.get();
    }
    return nullptr;
}

FastEngine::QueryRecord &
FastEngine::recordSlot(bool keep)
{
    std::unique_ptr<QueryRecord> *slot = &_unkept;
    if (keep && _records.size() < kQueryRecords) {
        slot = &_records.emplace_back();
    } else if (keep) {
        slot = &*std::min_element(_records.begin(), _records.end(),
                                  [](const auto &a, const auto &b) {
                                      return a->lastUse < b->lastUse;
                                  });
    }
    if (!*slot)
        *slot = std::make_unique<QueryRecord>();
    return **slot;
}

FastEngine::QueryRecord &
FastEngine::compileRecord(const kl0::TermPtr &goal,
                          const std::string *text)
{
    // Compile against the image state; a compile that throws leaves
    // that state behind.
    dropQuery();
    kl0::QueryCode query;
    try {
        query = _acct.compileQuery(_codegen, goal);
    } catch (...) {
        truncateSymbols(_held.atoms, _held.functors);
        _codegen.rewind();
        throw;
    }
    ++_counters.queryCompiles;
    const std::uint32_t codeWords = _codegen.heapTop() - _held.top;
    _codegen.rewind();

    // The record reuses the storage of the one it replaces.
    const bool keep = text && !text->empty() &&
                      text->size() <= kMaxRecordedText &&
                      codeWords <= kMaxRecordedWords;
    QueryRecord &rec = recordSlot(keep);
    rec.image = _held.image;
    if (keep)
        rec.text = *text;
    else
        rec.text.clear();
    rec.query = std::move(query);

    // What the compile added: heap stores, then symbols.
    rec.code.assign(codeWords, TaggedWord{});
    rec.dir.clear();
    for (const PokeRecord &p : _acct.queryStores()) {
        if (p.addr.offset >= _held.top) {
            rec.code[p.addr.offset - _held.top] = p.word;
            continue;
        }
        PSI_ASSERT(p.addr.offset >= kl0::kDirBase &&
                       p.addr.offset < kl0::kCodeBase,
                   "query store below the code outside the directory");
        rec.dir.emplace_back(p.addr.offset - kl0::kDirBase, p.word);
    }
    // Room for the stores of any recordable compile.
    _acct.trimQueryStores(2 * kMaxRecordedWords);
    rec.atoms.resize(_syms.atomCount() - _held.atoms);
    for (std::size_t i = 0; i < rec.atoms.size(); ++i)
        rec.atoms[i] = _syms.atomName(_held.atoms +
                                      static_cast<std::uint32_t>(i));
    rec.functors.resize(_syms.functorCount() - _held.functors);
    for (std::size_t i = 0; i < rec.functors.size(); ++i) {
        const auto f = _held.functors + static_cast<std::uint32_t>(i);
        rec.functors[i].first = _syms.functorName(f);
        rec.functors[i].second = _syms.functorArity(f);
    }
    // The compile interned the record's symbols already.
    installQuery(rec, false);
    return rec;
}

void
FastEngine::installQuery(QueryRecord &rec, bool intern)
{
    if (intern) {
        dropQuery();
        for (const std::string &a : rec.atoms)
            _syms.atom(a);
        for (const auto &[name, arity] : rec.functors)
            _syms.functor(name, arity);
    }
    PSI_ASSERT(_syms.atomCount() == _held.atoms + rec.atoms.size() &&
                   _syms.functorCount() ==
                       _held.functors + rec.functors.size(),
               "query record interned symbols the image already has");
    _acct.copyToHeap(_held.top, rec.code);
    for (const auto &[f, w] : rec.dir) {
        const LogicalAddr at(Area::Heap, kl0::kDirBase + f);
        _held.dirSaved.emplace_back(f, _acct.peek(at));
        _acct.poke(at, w);
    }
    _held.query = &rec;
}

void
FastEngine::dropQuery()
{
    if (!_held.query)
        return;
    _acct.zeroHeap(_held.top, _held.top + static_cast<std::uint32_t>(
                                              _held.query->code.size()));
    // In reverse, so a word stored twice gets its first value back.
    for (auto it = _held.dirSaved.rbegin(); it != _held.dirSaved.rend();
         ++it)
        _acct.poke(LogicalAddr(Area::Heap, kl0::kDirBase + it->first),
                   it->second);
    _held.dirSaved.clear();
    truncateSymbols(_held.atoms, _held.functors);
    // An unkept record is never installed again.
    if (_held.query == _unkept.get())
        _unkept.reset();
    _held.query = nullptr;
}

} // namespace fast
} // namespace psi
