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
 * fidelity engine executes, replayed from the immutable
 * kl0::CompiledProgram into paged flat arrays; argument registers and
 * the two frame buffers are plain arrays.
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
 */

#ifndef PSI_FAST_FAST_ENGINE_HPP
#define PSI_FAST_FAST_ENGINE_HPP

#include <cstdint>
#include <memory>
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
 * Pages are allocated zeroed on first write and kept mapped across
 * clear() so a warm engine reloading the same image does not churn
 * the allocator.  A read of a never-written word returns the Undef
 * word, matching MemorySystem::peek of untouched memory.
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

    /** Zero every touched page; keep the pages mapped. */
    void clear();

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

    static constexpr interp::FirmwareOptions fw() { return {}; }
    /** Scratch memory the shared CodeGen emits query code into; its
     *  poke log is mirrored into the flat heap after each compile. */
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
        write(a, w);
    }
    TaggedWord peek(const LogicalAddr &a) const { return read(a); }
    void
    poke(const LogicalAddr &a, const TaggedWord &w)
    {
        _qmem.poke(a, w);
        write(a, w);
    }

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
        write(LogicalAddr(Area::Trail, _regs.tt), {Tag::Ref, cell.pack()});
        ++_regs.tt;
    }
    void trailFlush() {}
    void unwindTrail(std::uint64_t to_tt);
    std::uint64_t trailTop() const { return _regs.tt; }
    void resetTrail(std::uint32_t base) { _regs.tt = base; }

    // ----- limits and run lifecycle -----------------------------------
    /** maxSteps counts dispatches. */
    std::uint64_t tick() { return ++_dispatches; }
    void reset();
    void beginRun() { _dispatches = 0; }
    std::uint64_t steps() const { return 0; }
    std::uint64_t timeNs() const { return 0; }
    kl0::QueryCode compileQuery(kl0::CodeGen &cg,
                                const kl0::TermPtr &goal);

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

    FlatArea _area[kNumAreas];
    MemorySystem _qmem;
    std::vector<PokeRecord> _queryPokes;
    Saved _regs;
    std::uint64_t _dispatches = 0; ///< maxSteps proxy
};

/** The flat-dispatch KL0 engine. */
class FastEngine : public interp::EngineCore<FastAcct>
{
  public:
    FastEngine() = default;

    /**
     * Install a precompiled image: replay its poke log into the flat
     * areas and adopt its symbol table and codegen snapshot, exactly
     * as interp::Engine::load does for the firmware machine.
     */
    void
    load(const kl0::CompiledProgram &image)
    {
        EngineCore::load(image);
        _loaded = true;
    }

    bool loaded() const { return _loaded; }

  private:
    bool _loaded = false;
};

} // namespace fast
} // namespace psi

#endif // PSI_FAST_FAST_ENGINE_HPP
