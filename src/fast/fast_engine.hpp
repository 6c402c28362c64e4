/**
 * @file
 * The fast (non-accounting) KL0 execution engine.
 *
 * fast::FastEngine is the engine core (interp/engine_core.hpp) over
 * the fast accounting policy: the same interpreter code as the
 * fidelity engine, with every accounting hook an empty inline
 * function - no microinstruction stepping, no cache model, no
 * work-file texture, no module/branch tagging.  The instruction
 * stream is the same flattened, contiguous image of tagged words the
 * fidelity engine executes, copied from the immutable
 * kl0::CompiledProgram's dense heap words into paged flat arrays;
 * argument registers and the two frame buffers are plain arrays.
 *
 * Fidelity contract: answers, solution sets, ordering and write/nl/tab
 * output are byte-identical to interp::Engine for any terminating
 * query, because both run one core: the logical-address allocation
 * order on every stack (so exported unbound variables print the same
 * "_G<addr>" names), the binding and trailing rules and the frame and
 * choice-point decisions are the same code.
 *
 * What the policy drops is the accounting: RunResult::steps and
 * timeNs are reported as zero, and RunLimits::maxSteps is interpreted
 * as a dispatch-count safety valve (the fidelity engine counts
 * microinstructions, so the same numeric limit trips far later here).
 *
 * Only the default FirmwareOptions are modeled, as constexpr values,
 * so the ablation branches compile away (frame buffers on, trail
 * buffering on, no runtime first-argument probing).  The work-file
 * trail buffer is represented by a flat trail stack at the same
 * logical positions, which is observationally identical (same trail
 * tops in choice points, same LIFO unwind order).  Compile-time
 * first-argument indexing (kl0::CompileOptions::firstArgIndexing) is
 * supported: the core resolves an IndexRef directory entry through
 * the same heap-resident index structure in both modes.
 *
 * Warm reload contract (a pool worker loads before every job): one
 * install path serves every (image, query) pair, so switching costs
 * about what a rerun costs, and every result is byte-identical to a
 * fresh engine's, word for word in memory too (DESIGN.md 3.12):
 *  - load() zeroes what the last run dirtied (stack extents, the
 *    run-time heap) and installs the image unless it is the one
 *    held: the symbol and clause tables are adopted from the image
 *    by pointer, the heap words copied from its dense copy, and only
 *    the previous image's words it leaves uncovered are zeroed;
 *  - solve() installs the query's record - its code, directory
 *    words and interned symbols - unless it is the one held.  A
 *    record is made by one compile against the image state and kept
 *    in a small per-engine table, so a repeated pair is neither
 *    parsed nor compiled again.
 */

#ifndef PSI_FAST_FAST_ENGINE_HPP
#define PSI_FAST_FAST_ENGINE_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "interp/engine_core.hpp"
#include "interp/machine.hpp"
#include "kl0/codegen.hpp"
#include "kl0/compiled_program.hpp"
#include "mem/area.hpp"
#include "mem/memory_system.hpp"
#include "mem/tagged_word.hpp"
#include "micro/fields.hpp"

namespace psi {
namespace fast {

/**
 * Paged flat storage for one logical area (28-bit word offsets).
 *
 * Pages are allocated zeroed on first write.  A read of a
 * never-written word returns the Undef word, matching
 * MemorySystem::peek of untouched memory.
 *
 * The area keeps a dirty extent: every word written since the last
 * clear lies below it.  push() raises it; write() does not, because
 * the engine core writes only to cells it pushed first (bindings,
 * frame slots, trail unwinds), so the hot path carries no compare.
 * Clearing therefore costs what was written, not what was ever
 * mapped.  The one exception is the heap a run writes (the
 * global_set registry and vectors, see interp::kGlobalRegBase),
 * which FastEngine::load zeroes as a range.
 */
class FlatArea
{
  public:
    static constexpr std::uint32_t kPageShift = 14;
    static constexpr std::uint32_t kPageWords = 1u << kPageShift;
    static constexpr std::uint32_t kPageMask = kPageWords - 1;
    static constexpr std::uint32_t kPageCount = 1u << (28 - kPageShift);

    FlatArea() : _pages(kPageCount) {}

    TaggedWord
    read(std::uint32_t off) const
    {
        const TaggedWord *p = _pages[off >> kPageShift].get();
        return p ? p[off & kPageMask] : TaggedWord{};
    }

    void
    write(std::uint32_t off, const TaggedWord &w)
    {
        page(off >> kPageShift)[off & kPageMask] = w;
    }

    /** A write where the area grows: a stack push, a trail entry,
     *  a code word.  Raises the dirty extent. */
    void
    push(std::uint32_t off, const TaggedWord &w)
    {
        write(off, w);
        if (off >= _extent)
            _extent = off + 1;
    }

    /** Zero [@p from, dirty extent) and lower the extent to @p from. */
    void clearFrom(std::uint32_t from);

    /** Copy @p n words to [@p off, @p off + n), mapping pages as
     *  needed; raises the dirty extent like push(). */
    void copyIn(std::uint32_t off, const TaggedWord *words,
                std::size_t n);

    /** Zero the words [@p lo, @p hi) that lie on mapped pages. */
    void zero(std::uint32_t lo, std::uint32_t hi);

    /** Unmap every page but the @p keep lowest mapped ones. */
    void trim(std::size_t keep);

    std::size_t mappedPages() const { return _mapped.size(); }

    /** Word-for-word equality, an unmapped page reading as zeros. */
    bool sameContents(const FlatArea &other) const;

  private:
    TaggedWord *
    page(std::uint32_t idx)
    {
        TaggedWord *p = _pages[idx].get();
        return p ? p : mapPage(idx);
    }
    /** Allocate page @p idx (zeroed) on its first write. */
    TaggedWord *mapPage(std::uint32_t idx);

    std::vector<std::unique_ptr<TaggedWord[]>> _pages;
    std::vector<std::uint32_t> _mapped;
    std::uint32_t _extent = 0; ///< all writes since the last clear lie below
};

/**
 * The fast accounting policy: flat areas, plain register arrays and
 * a flat trail; every charge is a no-op.
 */
class FastAcct
{
  public:
    using Module = micro::Module;
    using BranchOp = micro::BranchOp;
    using WfMode = micro::WfMode;

    /**
     * Pages each area keeps mapped across a load (8 x 128 KiB).
     * Every registry program but one runs within it; a bigger run
     * maps more, and the next load unmaps the excess, so the
     * footprint follows the last request, not the largest.  Zeroing
     * a kept page costs a few microseconds, unmapping one several
     * times that, so the cap sits above the working sets a worker
     * sees run after run.
     */
    static constexpr std::size_t kRetainedPages = 8;

    static constexpr interp::FirmwareOptions fw() { return {}; }
    /** Scratch memory the shared CodeGen emits query code into; the
     *  engine installs the stores of each compile from queryStores(). */
    MemorySystem &codeMem() { return _qmem; }

    // ----- memory -----------------------------------------------------
    TaggedWord
    readMem(Module, const LogicalAddr &a, BranchOp,
            WfMode = WfMode::None, WfMode = WfMode::None) const
    {
        return read(a);
    }
    void
    writeMem(Module, const LogicalAddr &a, const TaggedWord &w,
             BranchOp, WfMode = WfMode::None, WfMode = WfMode::None)
    {
        write(a, w);
    }
    void
    pushMem(Module, const LogicalAddr &a, const TaggedWord &w,
            BranchOp, WfMode = WfMode::None, WfMode = WfMode::None)
    {
        push(a, w);
    }
    TaggedWord peek(const LogicalAddr &a) const { return read(a); }
    void poke(const LogicalAddr &a, const TaggedWord &w) { push(a, w); }

    // ----- accounting -------------------------------------------------
    void step(Module, BranchOp, WfMode = WfMode::None,
              WfMode = WfMode::None, WfMode = WfMode::None)
    {}
    void texture(Module, int) {}

    // ----- registers --------------------------------------------------
    TaggedWord arg(std::uint32_t i) const { return _regs.a[i]; }
    void setArg(std::uint32_t i, const TaggedWord &w) { _regs.a[i] = w; }
    TaggedWord frame(int buf, std::uint32_t i) const
    {
        return _regs.fbuf[buf][i];
    }
    void setFrame(int buf, std::uint32_t i, const TaggedWord &w)
    {
        _regs.fbuf[buf][i] = w;
    }

    // ----- trail ------------------------------------------------------
    void
    trailPush(const LogicalAddr &cell)
    {
        push(LogicalAddr(Area::Trail, _regs.tt), {Tag::Ref, cell.pack()});
        ++_regs.tt;
    }
    void trailFlush() {}
    void unwindTrail(std::uint64_t to_tt);
    std::uint64_t trailTop() const { return _regs.tt; }
    void resetTrail(std::uint32_t base) { _regs.tt = base; }

    // ----- limits and run lifecycle -----------------------------------
    /** maxSteps counts dispatches. */
    std::uint64_t tick() { return ++_dispatches; }
    /**
     * Empty the four stacks and the heap from word @p heapTop up,
     * keeping the image below it: zero each area's dirty extent and
     * unmap the pages beyond kRetainedPages (and beyond the kept
     * image).  The heap a run writes outside the code is the
     * caller's to zero (zeroHeap).
     */
    void reset(std::uint32_t heapTop = 0);
    /** Zero heap words [@p lo, @p hi). */
    void zeroHeap(std::uint32_t lo, std::uint32_t hi)
    {
        _area[static_cast<int>(Area::Heap)].zero(lo, hi);
    }
    /** Copy @p words to the heap from word @p off up. */
    void copyToHeap(std::uint32_t off, const std::vector<TaggedWord> &words)
    {
        _area[static_cast<int>(Area::Heap)].copyIn(off, words.data(),
                                                   words.size());
    }
    void beginRun() { _dispatches = 0; }
    std::uint64_t steps() const { return 0; }
    std::uint64_t timeNs() const { return 0; }
    /** Compile @p goal into the scratch memory, keeping its stores
     *  in queryStores() (the flat heap is not written). */
    kl0::QueryCode compileQuery(kl0::CodeGen &cg,
                                const kl0::TermPtr &goal);
    /** The heap stores of the last compileQuery, in emission order. */
    const std::vector<PokeRecord> &queryStores() const
    {
        return _queryPokes;
    }
    /** Release the store log's memory when it holds room for more
     *  than @p keep stores (after an oversized query). */
    void trimQueryStores(std::size_t keep);

    /** Words on mapped pages, over all areas. */
    std::uint64_t mappedWords() const;
    /** Word-for-word equality of all five areas. */
    bool sameMemory(const FastAcct &other) const;

    /** Register state a process switch saves. */
    struct Saved
    {
        TaggedWord a[kl0::kMaxArity];         ///< argument registers
        TaggedWord fbuf[2][kl0::kMaxLocals];  ///< frame buffers
        std::uint32_t tt = interp::kStackBase; ///< trail stack top
    };
    Saved save() const { return _regs; }
    void restore(const Saved &s) { _regs = s; }

  private:
    TaggedWord
    read(const LogicalAddr &a) const
    {
        return _area[static_cast<int>(a.area)].read(a.offset);
    }
    void
    write(const LogicalAddr &a, const TaggedWord &w)
    {
        _area[static_cast<int>(a.area)].write(a.offset, w);
    }
    void
    push(const LogicalAddr &a, const TaggedWord &w)
    {
        _area[static_cast<int>(a.area)].push(a.offset, w);
    }

    FlatArea _area[kNumAreas];
    /** Only query compiles write here, and they read back only what
     *  they wrote, so it is never reset and holds no image. */
    MemorySystem _qmem;
    std::vector<PokeRecord> _queryPokes;
    Saved _regs;
    std::uint64_t _dispatches = 0; ///< maxSteps proxy
};

/**
 * The flat-dispatch KL0 engine.
 *
 * A warm engine switches images and queries at about the cost of a
 * rerun.  load() installs an image from its dense heap copy and
 * adopts its symbol and clause tables by pointer; solve() installs a
 * recorded compile of the query when it has one for this image and
 * text.  What is held is rolled back exactly before anything else is
 * installed, so every result is byte-identical to a fresh engine's.
 */
class FastEngine : public interp::EngineCore<FastAcct>
{
  public:
    /**
     * Bound on mappedWords() right after load() of an image that
     * fits in FastAcct::kRetainedPages heap pages, whatever ran
     * before.
     */
    static constexpr std::uint64_t kMaxRetainedWords =
        std::uint64_t{kNumAreas} * FastAcct::kRetainedPages *
        FlatArea::kPageWords;

    /** @name Query records
     * Compiled queries kept for reuse, per engine, least recently
     * used evicted first.  Only queries within both size caps are
     * kept, so the table never holds more than about
     * kQueryRecords x (kMaxRecordedText + 8 x kMaxRecordedWords +
     * symbol names from the text) bytes: under 1 MiB.  A new record
     * reuses the storage of the one it evicts; a query past the caps
     * is held only while it is installed.
     */
    /// @{
    static constexpr std::size_t kQueryRecords = 16;
    static constexpr std::size_t kMaxRecordedText = 4096;     ///< bytes
    static constexpr std::uint32_t kMaxRecordedWords = 4096;  ///< code
    /// @}

    /** What the install path did, counted since construction. */
    struct Counters
    {
        std::uint64_t imageInstalls = 0; ///< loads that copied an image
        std::uint64_t queryCompiles = 0; ///< queries parsed and compiled
        std::uint64_t queryReuses = 0;   ///< queries run from a record
    };

    FastEngine();

    /**
     * Install a precompiled image, leaving the machine as a fresh
     * engine's load would.  Zeroes what the last run dirtied; copies
     * the image's heap words and adopts its tables unless it is the
     * image already held.
     */
    void load(const kl0::CompiledProgram &image);

    /** Run a query given as text: installs the recorded compile of
     *  this text against the image, compiling it first if there is
     *  none. */
    interp::RunResult solve(const std::string &query_text,
                            const interp::RunLimits &limits =
                                interp::RunLimits());

    /** Compile and run a query term (never recorded). */
    interp::RunResult solve(const kl0::TermPtr &goal,
                            const interp::RunLimits &limits =
                                interp::RunLimits());

    bool loaded() const { return _held.image != 0; }

    const Counters &counters() const { return _counters; }

    /** The engine's tables, to check what they share with an image. */
    const kl0::SymbolTable &symbols() const { return _syms; }
    const kl0::CodeGen &codegen() const { return _codegen; }

    /** Words on mapped pages (the engine's storage footprint). */
    std::uint64_t mappedWords() const { return _acct.mappedWords(); }

    /** True when both engines' areas hold the same words. */
    bool
    sameMemory(const FastEngine &other) const
    {
        return _acct.sameMemory(other._acct);
    }

  private:
    /** Everything one query compile adds to the image state. */
    struct QueryRecord
    {
        std::uint64_t image = 0;  ///< CompiledProgram::id compiled on
        std::string text;         ///< empty: not kept for reuse
        kl0::QueryCode query;
        std::vector<TaggedWord> code;  ///< heap words from the image top
        std::vector<std::pair<std::uint32_t, TaggedWord>> dir;
        std::vector<std::string> atoms; ///< interned, in order
        std::vector<std::pair<std::string, std::uint32_t>> functors;
        std::uint64_t lastUse = 0;
    };

    /** The record of @p text against the held image, or null. */
    QueryRecord *findRecord(const std::string &text);
    /** The record a compile fills: a free or the least recently
     *  used slot of the table when @p keep, else the unkept one. */
    QueryRecord &recordSlot(bool keep);
    /** Compile @p goal against the image state into a record, kept
     *  under @p text when that is non-null and within the caps, and
     *  install it. */
    QueryRecord &compileRecord(const kl0::TermPtr &goal,
                               const std::string *text);
    /** Copy the image in and adopt its tables (not if held). */
    void installImage(const kl0::CompiledProgram &image);
    /** Install @p rec over the image state; @p intern its symbols
     *  unless its compile left them interned. */
    void installQuery(QueryRecord &rec, bool intern);
    /** Return heap and symbols to the image state. */
    void dropQuery();

    /** What the heap and symbol table hold beyond the run state. */
    struct Held
    {
        std::uint64_t image = 0;  ///< CompiledProgram::id; 0 = none
        std::uint32_t top = kl0::kCodeBase; ///< first word after it
        std::uint32_t dirWords = 0; ///< directory words it installed
        std::uint32_t atoms = 0;  ///< symbol counts of the image state
        std::uint32_t functors = 0;
        QueryRecord *query = nullptr; ///< installed over it
        /** Directory words the query overwrote, to put back. */
        std::vector<std::pair<std::uint32_t, TaggedWord>> dirSaved;
    } _held;

    std::vector<std::unique_ptr<QueryRecord>> _records;
    std::unique_ptr<QueryRecord> _unkept; ///< held, not recorded
    std::uint64_t _useClock = 0;
    Counters _counters;
};

} // namespace fast
} // namespace psi

#endif // PSI_FAST_FAST_ENGINE_HPP
