/**
 * @file
 * The PSI firmware interpreter.
 *
 * interp::Engine is the engine core (interp/engine_core.hpp) over the
 * fidelity accounting policy: one Engine owns the full machine -
 * memory system (translation + cache + main memory), microprogram
 * sequencer (work file, timing, dynamic-frequency statistics), symbol
 * table and code generator.  Programs are loaded once; queries are
 * compiled on the fly and executed by the firmware main loop.
 *
 * Every firmware action is issued through the sequencer, so the
 * statistics behind the paper's Tables 2-7 are measured from the work
 * the model actually performs.  The method split across translation
 * units mirrors the firmware modules: engine.cpp (control), unify.cpp
 * (unification, trail), builtins*.cpp (built-ins, get_arg),
 * process.cpp (multi-process support).
 */

#ifndef PSI_INTERP_ENGINE_HPP
#define PSI_INTERP_ENGINE_HPP

#include <array>
#include <cstdint>
#include <string>

#include "interp/engine_core.hpp"
#include "interp/machine.hpp"
#include "kl0/codegen.hpp"
#include "kl0/compiled_program.hpp"
#include "kl0/program.hpp"
#include "kl0/symbols.hpp"
#include "mem/memory_system.hpp"
#include "micro/sequencer.hpp"

namespace psi {
namespace interp {

/**
 * The fidelity accounting policy: every hook is one charged action
 * of the PSI (a microinstruction step through the sequencer, a cache
 * command through the memory system, a work-file access).  Trail
 * entries are buffered in the work file via WFAR2 and flushed to the
 * trail stack in bursts (paper §4.3) unless the trailBuffer ablation
 * is selected.
 */
class FidelityAcct
{
  public:
    using Module = micro::Module;
    using BranchOp = micro::BranchOp;
    using WfMode = micro::WfMode;

    FidelityAcct(const CacheConfig &config, const FirmwareOptions &fw)
        : _mem(config), _seq(_mem), _fw(fw)
    {
        _seq.setWriteStackEnabled(fw.writeStackCommand);
    }

    const FirmwareOptions &fw() const { return _fw; }
    MemorySystem &mem() { return _mem; }
    micro::Sequencer &seq() { return _seq; }
    MemorySystem &codeMem() { return _mem; }

    // ----- memory -----------------------------------------------------
    TaggedWord
    readMem(Module m, const LogicalAddr &a, BranchOp b,
            WfMode s1 = WfMode::None, WfMode d = WfMode::None)
    {
        return _seq.readMem(m, a, b, s1, d);
    }
    void
    writeMem(Module m, const LogicalAddr &a, const TaggedWord &w,
             BranchOp b, WfMode s1 = WfMode::None,
             WfMode s2 = WfMode::None)
    {
        _seq.writeMem(m, a, w, b, s1, s2);
    }
    void
    pushMem(Module m, const LogicalAddr &a, const TaggedWord &w,
            BranchOp b, WfMode s1 = WfMode::None,
            WfMode s2 = WfMode::None)
    {
        _seq.pushMem(m, a, w, b, s1, s2);
    }
    TaggedWord peek(const LogicalAddr &a) { return _mem.peek(a); }
    void poke(const LogicalAddr &a, const TaggedWord &w)
    {
        _mem.poke(a, w);
    }

    // ----- accounting -------------------------------------------------
    void
    step(Module m, BranchOp b, WfMode s1 = WfMode::None,
         WfMode s2 = WfMode::None, WfMode d = WfMode::None)
    {
        _seq.step(m, b, s1, s2, d);
    }
    void texture(Module m, int n) { _seq.texture(m, n); }

    // ----- registers --------------------------------------------------
    TaggedWord arg(std::uint32_t i) const
    {
        return _seq.wf().read(micro::kWfArgBase + i);
    }
    void setArg(std::uint32_t i, const TaggedWord &w)
    {
        _seq.wf().write(micro::kWfArgBase + i, w);
    }
    TaggedWord frame(int buf, std::uint32_t i) const
    {
        return _seq.wf().read(frameBase(buf) + i);
    }
    void setFrame(int buf, std::uint32_t i, const TaggedWord &w)
    {
        _seq.wf().write(frameBase(buf) + i, w);
    }

    // ----- trail (unify.cpp) ------------------------------------------
    void trailPush(const LogicalAddr &cell);
    void trailFlush();
    void unwindTrail(std::uint64_t to_tt);
    std::uint64_t trailTop() const { return _memTT + _trailBufCount; }
    void resetTrail(std::uint32_t base)
    {
        _memTT = base;
        _trailBufCount = 0;
    }

    // ----- limits and run lifecycle -----------------------------------
    /** maxSteps counts microinstruction steps. */
    std::uint64_t tick() const { return _seq.stats().totalSteps(); }
    void
    reset()
    {
        _mem.reset();
        _seq.reset();
    }
    void
    beginRun()
    {
        if (_resetStatsOnRun) {
            _mem.resetStats();
            _seq.resetStats();
        }
    }
    std::uint64_t steps() const { return _seq.stats().totalSteps(); }
    std::uint64_t timeNs() const { return _seq.timeNs(); }
    kl0::QueryCode
    compileQuery(kl0::CodeGen &cg, const kl0::TermPtr &goal)
    {
        return cg.compileQuery(goal);
    }
    void setResetStatsOnRun(bool v) { _resetStatsOnRun = v; }

    /** Register state a process switch saves: the live WF regions. */
    struct Saved
    {
        std::uint32_t memTT, trailBufCount;
        std::array<TaggedWord, 64> regs;
        std::array<TaggedWord, 2 * micro::kWfFrameBufWords> frames;
        std::array<TaggedWord, micro::kWfTrailBufWords> trail;
    };
    Saved save() const;
    void restore(const Saved &s);

  private:
    static std::uint16_t
    frameBase(int buf)
    {
        return buf == 0 ? micro::kWfFrameBuf0 : micro::kWfFrameBuf1;
    }

    MemorySystem _mem;
    micro::Sequencer _seq;
    FirmwareOptions _fw;
    std::uint32_t _memTT = kStackBase;///< trail stack top (memory part)
    std::uint32_t _trailBufCount = 0; ///< entries in the WF buffer
    bool _resetStatsOnRun = true;
};

/** The microprogrammed KL0 interpreter. */
class Engine : public EngineCore<FidelityAcct>
{
  public:
    explicit Engine(const CacheConfig &config = CacheConfig::psi(),
                    const FirmwareOptions &fw = FirmwareOptions())
        : EngineCore(config, fw)
    {}

    /** Load (normalize + compile) a program into the heap image. */
    void load(const kl0::Program &program);

    /**
     * Consult @p text.  On a fresh machine this routes through the
     * single compile entry point, CompiledProgram::compile, and
     * installs the image; on a machine that already holds code it
     * compiles incrementally, appending clauses (the REPL path).
     */
    void consult(const std::string &text);

    /**
     * Code-generation options for subsequent consults and query
     * compiles.  load(image) overrides them with the image's own
     * options so the engine stays consistent with the installed code.
     */
    void setCompileOptions(const kl0::CompileOptions &opts)
    {
        _codegen.setOptions(opts);
    }
    const kl0::CompileOptions &compileOptions() const
    {
        return _codegen.options();
    }

    /**
     * Install a precompiled image into a fully reset machine.
     *
     * Equivalent to constructing a fresh Engine and consulting the
     * image's source - results and every hardware statistic are
     * byte-identical (the image replays its heap stores in emission
     * order, reproducing the physical layout of a consult) - but
     * without paying parse/normalize/codegen on this thread.  This
     * is the warm-engine hot path of the psid worker loop.
     */
    using EngineCore::load;

    /** Same, first re-configuring the cache model for this run. */
    void load(const kl0::CompiledProgram &image,
              const CacheConfig &cache);

    /**
     * Return the machine to its just-constructed state: memory
     * contents and mappings, cache residency, work file, texture
     * ring, statistics, registers, vector/process state.  The symbol
     * table and heap image are cleared with everything else, so a
     * load()/consult() must follow before the next solve().
     */
    using EngineCore::resetMachine;

    /** @name Component access (benches, tools, tests) */
    /// @{
    MemorySystem &mem() { return _acct.mem(); }
    micro::Sequencer &seq() { return _acct.seq(); }
    kl0::SymbolTable &symbols() { return _syms; }
    const kl0::CodeGen &codegen() const { return _codegen; }
    /// @}

    /**
     * When true (default), statistics and the cache are reset after
     * query compilation so measurements cover execution only.
     */
    void setResetStatsOnRun(bool v) { _acct.setResetStatsOnRun(v); }
};

} // namespace interp
} // namespace psi

#endif // PSI_INTERP_ENGINE_HPP
