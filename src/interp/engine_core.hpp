/**
 * @file
 * The KL0 engine core, written once over an accounting policy.
 *
 * EngineCore<Acct> is the whole firmware interpreter: the dispatch
 * loop, argument loading, calls, clause trial and index resolution,
 * choice points, environments, cut, unification, built-ins,
 * arithmetic, term comparison, write/1, process_call and answer
 * export.  Every machine action it takes goes through a small set of
 * inline hooks of the policy object _acct:
 *
 *  - memory:     readMem / writeMem / pushMem (one accounted cache
 *                command each), peek / poke (host-only access);
 *  - accounting: step (one microinstruction), texture (n decode
 *                steps of the firmware's register-level texture);
 *  - registers:  arg / setArg (A registers), frame / setFrame (the
 *                two local-frame buffers);
 *  - trail:      trailPush, trailFlush, unwindTrail, trailTop,
 *                resetTrail;
 *  - limits:     tick (the step-limit counter, read once per
 *                dispatch);
 *  - lifecycle:  fw (FirmwareOptions), codeMem, reset, beginRun,
 *                steps, timeNs, compileQuery, save / restore (the
 *                register state process_call switches).
 *
 * Two policies exist.  interp::FidelityAcct (interp/engine.hpp) is
 * the PSI: a microprogram sequencer, the cache/memory model and the
 * work file, so every hook issues the charge behind the paper's
 * Tables 2-7.  fast::FastAcct (fast/fast_engine.hpp) keeps the same
 * logical machine in flat arrays with empty accounting hooks and
 * constexpr default FirmwareOptions, so the charges and the ablation
 * branches compile away.  Both policies are instantiated explicitly
 * in the src/interp/ files that define the members.
 */

#ifndef PSI_INTERP_ENGINE_CORE_HPP
#define PSI_INTERP_ENGINE_CORE_HPP

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "base/logging.hpp"
#include "interp/machine.hpp"
#include "kl0/builtin_defs.hpp"
#include "kl0/codegen.hpp"
#include "kl0/compiled_program.hpp"
#include "kl0/symbols.hpp"
#include "micro/fields.hpp"

namespace psi {
namespace interp {

/**
 * Firmware feature switches for the design studies the paper's
 * evaluation motivates (§4 discussions and the PSI-II redesign the
 * conclusion announces).  The defaults are the PSI as measured.
 */
struct FirmwareOptions
{
    /**
     * Clause selection by first-argument tag before head
     * unification - the "improving the instruction code suitable for
     * the compile time optimization" direction of the redesign
     * (PSI-II); off on the measured PSI.
     */
    bool firstArgIndexing = false;
    /** Buffer trail entries in the WF via WFAR2 (paper §4.3). */
    bool trailBuffer = true;
    /** Use the dedicated Write-Stack cache command for pushes. */
    bool writeStackCommand = true;
    /** Cache local frames in the WF buffers (TRO support, §2.2). */
    bool frameBuffers = true;
};

/** The KL0 interpreter over accounting policy @p Acct. */
template <class Acct>
class EngineCore
{
  public:
    /**
     * Install a precompiled image into a fully reset machine: adopt
     * its symbol table, codegen snapshot and compile options, and
     * replay its heap stores in emission order.
     */
    void load(const kl0::CompiledProgram &image);

    /** Compile and run a query given as text, e.g. "append(X,Y,[1])". */
    RunResult solve(const std::string &query_text,
                    const RunLimits &limits = RunLimits());

    /** Compile and run a query term. */
    RunResult solve(const kl0::TermPtr &goal,
                    const RunLimits &limits = RunLimits());

    /** @name Per-run first-argument-index counters
     * Calls dispatched through an index (bound first argument) vs
     * falling back to the linear chain (unbound or uncovered tag),
     * and clause candidates visited by the trial loop.  Reset at
     * every solve; harvested into pool metrics by the psid worker.
     */
    /// @{
    std::uint64_t indexHits() const { return _idxHits; }
    std::uint64_t indexFallbacks() const { return _idxFallbacks; }
    std::uint64_t clauseTries() const { return _clauseTries; }
    /// @}

  protected:
    template <class... Args>
    explicit EngineCore(Args &&...args)
        : _acct(std::forward<Args>(args)...),
          _codegen(_acct.codeMem(), _syms)
    {}

    /**
     * Return the machine to its just-constructed state: memory,
     * statistics, registers, symbol table and heap image, vector and
     * process state.  A load() must follow before the next solve().
     */
    void resetMachine();

    /**
     * Everything clearMachine() clears except the policy's memory,
     * symbols and heap image: registers, run counters, output,
     * vector and process state, the per-functor memos.
     */
    void clearRunState();

    /** Run compiled query @p qc (the back half of solve()). */
    RunResult run(const kl0::QueryCode &qc, const RunLimits &limits);

    /** End of the heap vectors allocated since the last load; the
     *  heap a run writes is [kGlobalRegBase, vectorTop()). */
    std::uint32_t vectorTop() const { return _vecTop; }

    /**
     * Forget every symbol interned after the table held @p atoms
     * atoms and @p functors functors, with the per-functor memos
     * keyed by the forgotten indices.
     */
    void truncateSymbols(std::uint32_t atoms, std::uint32_t functors);

    Acct _acct;
    kl0::SymbolTable _syms;
    kl0::CodeGen _codegen;

  private:
    using Module = micro::Module;
    using BranchOp = micro::BranchOp;
    using WfMode = micro::WfMode;

    static constexpr WfMode kScr = WfMode::Direct00_0F;
    static constexpr WfMode kReg = WfMode::Direct10_3F;
    static constexpr WfMode kConstWf = WfMode::Constant;
    static constexpr WfMode kNoWf = WfMode::None;

    // ----- engine.cpp: control ---------------------------------------
    /** Everything resetMachine clears except symbols and heap image. */
    void clearMachine();
    void resetRun();
    /**
     * The firmware main loop.  At top level it runs query @p qc,
     * collecting solutions into @p result until they or a limit run
     * out (a limit sets result.status).  Nested (process_call) it
     * stops at the first solution and returns true, or returns false
     * on failure or once limits.maxSteps counted from entry are
     * spent; @p qc and @p result are unused.
     */
    template <bool Nested>
    bool loop(const kl0::QueryCode &qc, RunResult &result,
              const RunLimits &limits);
    /** Nested firmware run used by process_call. */
    bool runNested(std::uint32_t functor_idx, std::uint64_t max_steps);
    /** Load call arguments at _cp into A registers; advances _cp. */
    void loadArgs(std::uint32_t arity, Module m);
    /** Perform a user-predicate call. @return false to backtrack. */
    bool doCall(std::uint32_t functor_idx, std::uint32_t goal_cp,
                bool last_call);
    /**
     * Shallow-backtracking clause trial loop: try candidates from
     * @p table_addr against the A registers, undoing failed head
     * unifications from the trial snapshot; push a choice point only
     * when a clause commits with alternatives remaining.
     *
     * The caller context for deep retries (frame location, global
     * base) is taken from _act at entry.
     */
    bool tryClauses(std::uint32_t table_addr, std::uint32_t goal_cp,
                    std::uint32_t arity, std::uint32_t cont_cp,
                    std::uint32_t cont_env, std::uint32_t cut_b);
    /**
     * Resolve a first-argument index rooted at @p root to the clause
     * table tryClauses should walk: dereference A1, switch on its
     * tag, probe the hash block when the class is keyed.  Unbound or
     * uncovered first arguments take the linear-table fallback.
     */
    std::uint32_t resolveIndex(std::uint32_t root);
    /** Quick check: can clause head arg 1 possibly match @p a1? */
    bool firstArgMayMatch(std::uint32_t clause_addr,
                          const TaggedWord &a1);
    /** Enter one clause: globals, locals, head unification. */
    bool enterClause(std::uint32_t clause_addr, std::uint32_t cont_cp,
                     std::uint32_t cont_env, std::uint32_t cut_b);
    /** Restore state from the newest choice point; false if none. */
    bool backtrack();
    void pushChoicePoint(std::uint32_t goal_cp, std::uint32_t cont_cp,
                         std::uint32_t cont_env,
                         std::uint32_t caller_frame_enc,
                         std::uint32_t caller_global_base,
                         std::uint32_t saved_gt, std::uint32_t saved_lt,
                         std::uint32_t saved_tt, std::uint32_t saved_b,
                         std::uint32_t next_clause_addr);
    void pushEnvFrame();
    void restoreEnv(std::uint32_t env_addr);
    /** Copy the buffer frame to the local stack if needed. */
    void flushFrame();
    /**
     * Push buffer @p buf's first @p n words to the local stack.
     * @return the local-stack address of the copy.
     */
    std::uint32_t spillBuffer(int buf, std::uint32_t n);
    void doCut();
    /** Re-read HB/HL from the (new) newest choice point. */
    void reloadTrailBounds(Module m);

    // ----- local frame and register access ----------------------------
    static int
    bufIndex(const FrameLoc &f)
    {
        return f.kind == FrameLoc::Kind::Buf0 ? 0 : 1;
    }

    TaggedWord
    readA(std::uint32_t i, Module m)
    {
        _acct.step(m, BranchOp::T1Nop, kReg, kNoWf, kNoWf);
        return _acct.arg(i);
    }

    TaggedWord
    readLocal(std::uint32_t slot, Module m)
    {
        if (_act.frame.inBuffer()) {
            // Base-relative access through PDR/CDR.
            _acct.step(m, BranchOp::T1Nop, WfMode::BaseRelPdrCdr, kNoWf,
                       kReg);
            return _acct.frame(bufIndex(_act.frame), slot);
        }
        PSI_ASSERT(_act.frame.kind == FrameLoc::Kind::Stack,
                   "local access with no frame");
        return _acct.readMem(
            m, LogicalAddr(Area::Local, _act.frame.addr + slot),
            BranchOp::T1Nop, kScr, kReg);
    }

    void
    writeLocal(std::uint32_t slot, const TaggedWord &w, Module m)
    {
        if (_act.frame.inBuffer()) {
            _acct.step(m, BranchOp::T1Nop, kReg, kNoWf,
                       WfMode::BaseRelPdrCdr);
            _acct.setFrame(bufIndex(_act.frame), slot, w);
            return;
        }
        PSI_ASSERT(_act.frame.kind == FrameLoc::Kind::Stack,
                   "local write with no frame");
        _acct.writeMem(m,
                       LogicalAddr(Area::Local, _act.frame.addr + slot),
                       w, BranchOp::T1Nop, kReg);
    }

    /** Fetch a variable's value for an argument position. */
    TaggedWord fetchVarArg(const VarSlot &vs, Module m);

    /** Allocate a fresh unbound global cell; @return a Ref to it. */
    TaggedWord
    newGlobalCell(Module m)
    {
        LogicalAddr cell(Area::Global, _gt);
        _acct.pushMem(m, cell, {Tag::Ref, cell.pack()}, BranchOp::T2Nop);
        ++_gt;
        return {Tag::Ref, cell.pack()};
    }

    // ----- unify.cpp: unification -------------------------------------
    Deref deref(const TaggedWord &w, Module m);
    void bind(const LogicalAddr &cell, const TaggedWord &value,
              Module m);
    bool unify(const TaggedWord &a, const TaggedWord &b);
    bool unifyHead(const TaggedWord &desc, const TaggedWord &arg);
    /** Instantiate a heap skeleton onto the global stack. */
    TaggedWord instantiate(std::uint32_t skel_addr, bool is_cons);
    /** Read-mode unification of a skeleton against a bound term. */
    bool unifySkeleton(std::uint32_t skel_addr, bool is_cons,
                       const TaggedWord &term);
    /** One element of a skeleton against one runtime cell. */
    bool unifySkelElement(const TaggedWord &skel_elem,
                          const TaggedWord &cell_value);

    // ----- builtins.cpp / builtins_arith.cpp / builtins_term.cpp ------
    bool execBuiltin(kl0::Builtin b);
    /** is/2 body, shared by the generic dispatch and CallIs. */
    bool execIs();
    bool evalArith(const TaggedWord &w, std::int64_t &out);
    /**
     * Resolved arithmetic operator of a functor.  evalArith runs
     * once per expression node, so matching the operator by name
     * there dominates arith-heavy profiles; this memoizes the
     * string match per functor index (host-side only, cleared with
     * the symbol table, grown when a query compile interns new
     * functors).
     */
    enum class ArithOp : std::uint8_t
    {
        Unresolved = 0,
        NotArith,                          ///< not an arith functor
        Neg, Ident, Abs, BitNot,           // arity 1, Neg first
        Add, Sub, Mul, IDiv, Mod, Rem,     // arity 2, Add first
        Min, Max, Shl, Shr, BitAnd, BitOr, BitXor,
    };
    ArithOp arithOpFor(std::uint32_t functor_idx);
    bool arithCompare(kl0::Builtin b);
    /** Standard order comparison; -1/0/+1 via @p out. */
    bool termCompare(const TaggedWord &a, const TaggedWord &b,
                     int &out);
    void writeTerm(const TaggedWord &w, int depth = 0);
    /** Export the query variables' bindings (host-side, unaccounted). */
    void extractSolution(const kl0::QueryCode &qc, RunResult &result);
    /** Host-side copy of a machine term; iterative, any depth. */
    kl0::TermPtr exportTerm(const TaggedWord &w);
    bool builtinFunctor();
    bool builtinArg();
    bool builtinUniv();
    bool builtinVector(kl0::Builtin b);

    // ----- process.cpp -------------------------------------------------
    bool builtinGlobal(kl0::Builtin b);
    /**
     * process_call/2: run an arity-0 predicate to its first solution
     * inside another process's stack areas (the paper's §2.1
     * multi-process support: the heap is shared, the four stacks are
     * independent logical spaces).  The register state and the
     * current control registers are saved across the switch, as on
     * the PSI.
     */
    bool builtinProcessCall();

    // ----- machine registers (conceptually WF scratch) -----------------
    std::uint32_t _gt = kStackBase;   ///< global stack top
    std::uint32_t _lt = kStackBase;   ///< local stack top
    std::uint32_t _ct = kStackBase;   ///< control stack top
    std::uint32_t _b = kNoChoice;     ///< newest choice point
    std::uint32_t _hb = 0;            ///< global top at newest CP
    std::uint32_t _hl = 0;            ///< local top at newest CP
    std::uint32_t _cp = 0;            ///< code pointer
    Activation _act;
    int _curBuf = 0;
    std::uint32_t _vecTop = kl0::kVectorBase;
    std::uint64_t _inferences = 0;
    std::uint64_t _idxHits = 0;       ///< index-dispatched calls
    std::uint64_t _idxFallbacks = 0;  ///< linear-fallback calls
    std::uint64_t _clauseTries = 0;   ///< clause candidates visited
    std::string _out;
    std::size_t _maxOutputBytes = 1 << 20;
    bool _failFlag = false;           ///< set by dispatch on failure
    bool _inProcessCall = false;      ///< nesting guard
    std::vector<bool> _warnedUndefined;
    std::vector<ArithOp> _arithOps;   ///< functor idx -> operator memo
};

/**
 * Explicitly instantiate one EngineCore member for both policies, in
 * the file that defines it (which includes both policy headers):
 *   PSI_ENGINE_CORE_MEMBER(bool, unify(const TaggedWord &,
 *                                      const TaggedWord &));
 */
#define PSI_ENGINE_CORE_MEMBER(ret, ...)                              \
    template ret EngineCore<FidelityAcct>::__VA_ARGS__;               \
    template ret EngineCore<fast::FastAcct>::__VA_ARGS__

} // namespace interp
} // namespace psi

#endif // PSI_INTERP_ENGINE_CORE_HPP
