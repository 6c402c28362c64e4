/**
 * @file
 * Engine-core control: load, the token-threaded main loop, calls,
 * index resolution, clause trial, choice points, environments, cut
 * and backtracking; plus the fidelity Engine's own entry points.
 *
 * Keep this unit to the hot control path: it instantiates the core
 * for both policies, and GCC's per-unit inlining budget must still
 * cover the fast policy's one-line accessors.  Host-side work (answer
 * export) lives in builtins_term.cpp.
 */

#include "interp/engine.hpp"

#include "base/logging.hpp"
#include "fast/fast_engine.hpp"
#include "kl0/builtin_defs.hpp"
#include "kl0/normalize.hpp"
#include "kl0/reader.hpp"

namespace psi {
namespace interp {

namespace {

// Decode/bookkeeping step counts of the firmware routines (the
// register-level texture around the explicit memory accesses).  The
// densities are calibrated against the paper's own measurements:
// ~137 steps per inference on nreverse, a cache command in 16-23% of
// steps (Table 3), and the Table 2 module mix.
constexpr int kFetchDecode = 1;   ///< per body instruction word
constexpr int kCallDecode = 10;    ///< per user-predicate call
constexpr int kTrialDecode = 1;   ///< per clause candidate tried
constexpr int kEnterDecode = 1;   ///< per clause entry
constexpr int kArgDecode = 2;     ///< per argument descriptor
constexpr int kVarFetchDecode = 1;///< per variable argument fetch
constexpr int kFramePush = 3;     ///< per control-frame push
constexpr int kEnvRestore = 3;    ///< per environment restore
constexpr int kReturnDecode = 4;  ///< per clause return
constexpr int kBacktrackDecode = 6;///< per deep backtrack
constexpr int kCutWork = 12;       ///< per cut

/** Make the self-referencing word of an unbound cell. */
TaggedWord
unboundAt(const LogicalAddr &addr)
{
    return {Tag::Ref, addr.pack()};
}

TaggedWord
intWord(std::uint32_t v)
{
    return {Tag::Int, v};
}

} // namespace

// ----- interp::Engine ------------------------------------------------

void
Engine::load(const kl0::Program &program)
{
    _codegen.compile(kl0::normalize(program));
}

void
Engine::consult(const std::string &text)
{
    if (_codegen.heapTop() == kl0::kCodeBase) {
        // Fresh machine: the single compile entry point, sharing the
        // image-replay path with the warm-engine loads.
        load(kl0::CompiledProgram::compile(text, _codegen.options()));
        return;
    }
    // Machine already holds code: append incrementally (REPL path).
    kl0::Program p;
    p.consult(text);
    load(p);
}

void
Engine::load(const kl0::CompiledProgram &image,
             const CacheConfig &cache)
{
    // load() resets the memory system once; only a new geometry needs
    // more than that.
    if (!(mem().cache().config() == cache))
        mem().reconfigure(cache);
    load(image);
}

// ----- EngineCore: load and run --------------------------------------

template <class A>
void
EngineCore<A>::clearMachine()
{
    _acct.reset();
    clearRunState();
}

template <class A>
void
EngineCore<A>::clearRunState()
{
    resetRun();
    _vecTop = kl0::kVectorBase;
    _maxOutputBytes = 1 << 20;
    _inProcessCall = false;
    _warnedUndefined.clear();
    _arithOps.clear(); // functor indices are per symbol table
}

template <class A>
void
EngineCore<A>::truncateSymbols(std::uint32_t atoms,
                               std::uint32_t functors)
{
    _syms.truncate(atoms, functors);
    if (_arithOps.size() > functors)
        _arithOps.resize(functors);
    if (_warnedUndefined.size() > functors)
        _warnedUndefined.resize(functors);
}

template <class A>
void
EngineCore<A>::resetMachine()
{
    clearMachine();
    _syms.clear();
    _codegen.restore(kl0::CodeGen::Snapshot{});
}

template <class A>
void
EngineCore<A>::load(const kl0::CompiledProgram &image)
{
    clearMachine();
    // Both tables are shared with the image, not copied.
    _syms.adopt(image.symbolBase());
    _codegen.restore(image.codegen());
    // Query code compiled against this image must use the same
    // compile options.
    _codegen.setOptions(image.options());
    // Replay in emission order so pages are touched (and physical
    // frames allocated) exactly as the original compile touched them.
    for (const PokeRecord &p : image.image())
        _acct.poke(p.addr, p.word);
}

template <class A>
RunResult
EngineCore<A>::solve(const std::string &query_text,
                     const RunLimits &limits)
{
    return solve(kl0::parseTerm(query_text), limits);
}

template <class A>
RunResult
EngineCore<A>::solve(const kl0::TermPtr &goal, const RunLimits &limits)
{
    kl0::QueryCode qc = _acct.compileQuery(_codegen, goal);
    return run(qc, limits);
}

template <class A>
void
EngineCore<A>::resetRun()
{
    _gt = _lt = _ct = kStackBase;
    _acct.resetTrail(kStackBase);
    _b = kNoChoice;
    _hb = _hl = 0;
    _cp = 0;
    _act = Activation{};
    _act.globalBase = _gt;
    _curBuf = 0;
    _inferences = 0;
    _idxHits = 0;
    _idxFallbacks = 0;
    _clauseTries = 0;
    _out.clear();
    _failFlag = false;
}

template <class A>
RunResult
EngineCore<A>::run(const kl0::QueryCode &qc, const RunLimits &limits)
{
    resetRun();
    _acct.beginRun();
    _maxOutputBytes = limits.maxOutputBytes;

    RunResult result;
    bool started = doCall(qc.functorIdx, 0, true);
    if (!started)
        started = backtrack();
    if (started)
        loop<false>(qc, result, limits);
    result.stepLimitHit = result.status == RunStatus::StepLimit;

    result.inferences = _inferences;
    result.steps = _acct.steps();
    result.timeNs = _acct.timeNs();
    result.output = std::move(_out);
    _out.clear();
    return result;
}

template <class A>
bool
EngineCore<A>::runNested(std::uint32_t functor_idx,
                         std::uint64_t max_steps)
{
    bool ok = doCall(functor_idx, 0, true);
    if (!ok)
        ok = backtrack();
    if (!ok)
        return false;
    RunLimits budget;
    budget.maxSteps = max_steps;
    RunResult unused;
    return loop<true>(kl0::QueryCode{}, unused, budget);
}

template <class A>
template <bool Nested>
bool
EngineCore<A>::loop(const kl0::QueryCode &qc, RunResult &result,
                    const RunLimits &limits)
{
    const Deadline deadline(limits.deadlineNs);
    const std::uint64_t start = Nested ? _acct.tick() : 0;
    std::uint32_t poll = 0;
    TaggedWord w;

#if defined(__GNUC__) || defined(__clang__)
    // Token-threaded dispatch: the instruction tag indexes a label
    // table directly, one indirect jump per body instruction word.
    // Indexed by Tag value; only the six instruction tokens are
    // executable, everything else is a corrupt-image panic.
    static const void *const kOp[static_cast<int>(Tag::NumTags)] = {
        &&op_bad, // Undef
        &&op_bad, // Ref
        &&op_bad, // Atom
        &&op_bad, // Int
        &&op_bad, // Nil
        &&op_bad, // List
        &&op_bad, // Struct
        &&op_bad, // Functor
        &&op_bad, // Vector
        &&op_bad, // SkelVar
        &&op_bad, // ClauseHeader
        &&op_bad, // ClauseRef
        &&op_bad, // EndClauses
        &&op_bad, // HConst
        &&op_bad, // HInt
        &&op_bad, // HNil
        &&op_bad, // HVarF
        &&op_bad, // HVarS
        &&op_bad, // HList
        &&op_bad, // HStruct
        &&op_bad, // HGroundList
        &&op_bad, // HGroundStruct
        &&op_bad, // HVoid
        &&op_call,    // Call
        &&op_call,    // CallLast
        &&op_builtin, // CallBuiltin
        &&op_bad, // PackedArgs
        &&op_bad, // AConst
        &&op_bad, // AInt
        &&op_bad, // ANil
        &&op_bad, // AVar
        &&op_bad, // AVoid
        &&op_bad, // AList
        &&op_bad, // AStruct
        &&op_bad, // AGroundList
        &&op_bad, // AGroundStruct
        &&op_bad, // AExpr
        &&op_cut,     // CutOp
        &&op_proceed, // Proceed
        &&op_bad, // IndexRef
        &&op_bad, // IndexRoot
        &&op_bad, // IndexHash
        &&op_is,  // CallIs
        &&op_cmp, // CallCmp
    };
#define PSI_DISPATCH() goto *kOp[static_cast<int>(w.tag)]
#else
#define PSI_DISPATCH()                                                \
    switch (w.tag) {                                                  \
      case Tag::Call:                                                 \
      case Tag::CallLast:                                             \
        goto op_call;                                                 \
      case Tag::CallBuiltin:                                          \
        goto op_builtin;                                              \
      case Tag::CallIs:                                               \
        goto op_is;                                                   \
      case Tag::CallCmp:                                              \
        goto op_cmp;                                                  \
      case Tag::CutOp:                                                \
        goto op_cut;                                                  \
      case Tag::Proceed:                                              \
        goto op_proceed;                                              \
      default:                                                        \
        goto op_bad;                                                  \
    }
#endif

next:
    if (_acct.tick() - start > limits.maxSteps) {
        if (Nested)
            warn("process_call: step budget exhausted");
        else
            result.status = RunStatus::StepLimit;
        return false;
    }
    // Wall-clock deadline, polled every 4096 dispatches so the clock
    // read is amortized away.
    if (deadline.armed() && (++poll & 0xfffu) == 0 &&
        deadline.expired()) {
        result.status = RunStatus::Timeout;
        return false;
    }

    if (_failFlag) {
        _failFlag = false;
        if (!backtrack())
            return false;
        goto next;
    }

    w = _acct.readMem(Module::Control, LogicalAddr(Area::Heap, _cp),
                      BranchOp::T1CaseIrOpcode);
    ++_cp;
    _acct.texture(Module::Control, kFetchDecode);
    PSI_DISPATCH();

op_call: {
    std::uint32_t goal_cp = _cp - 1;
    std::uint32_t f = w.data;
    loadArgs(_syms.functorArity(f), Module::Control);
    if (!doCall(f, goal_cp, w.tag == Tag::CallLast))
        _failFlag = true;
    goto next;
}

op_builtin: {
    auto b = static_cast<kl0::Builtin>(w.data);
    loadArgs(kl0::builtinArity(b), Module::GetArg);
    if (!execBuiltin(b))
        _failFlag = true;
    goto next;
}

op_is:
    // Specialized entry: one dispatch step, none of the generic
    // builtin staging texture (process_call's loop skips the step).
    loadArgs(2, Module::GetArg);
    if (!Nested)
        _acct.step(Module::Built, BranchOp::T1GotoJr, kScr, kNoWf, kNoWf);
    if (!execIs())
        _failFlag = true;
    goto next;

op_cmp:
    loadArgs(2, Module::GetArg);
    if (!Nested)
        _acct.step(Module::Built, BranchOp::T1GotoJr, kScr, kNoWf, kNoWf);
    if (!arithCompare(static_cast<kl0::Builtin>(w.data)))
        _failFlag = true;
    goto next;

op_cut:
    doCut();
    goto next;

op_proceed: {
    // Return-from-clause decision step.
    _acct.step(Module::Control, BranchOp::T1CondTrue, kScr, kScr);
    if (_act.contEnv == kRootEnv) {
        if (Nested)
            return true; // first solution: the process yields
        extractSolution(qc, result);
        if (static_cast<int>(result.solutions.size()) >=
            limits.maxSolutions) {
            return false;
        }
        _failFlag = true;
        goto next;
    }
    // Determinate local-frame reclamation.
    if (_act.frame.kind == FrameLoc::Kind::Stack &&
        _act.frame.addr + _act.nlocals == _lt &&
        _hl <= _act.frame.addr) {
        if (!Nested)
            _acct.step(Module::Control, BranchOp::T1CondFalse, kScr,
                       kScr, kScr);
        _lt = _act.frame.addr;
    }
    if (!Nested)
        _acct.texture(Module::Control, kReturnDecode);
    std::uint32_t rcp = _act.contCP;
    restoreEnv(_act.contEnv);
    _cp = rcp;
    goto next;
}

op_bad:
    panic("bad instruction word tag '", tagName(w.tag),
          "' at heap:", _cp - 1);

#undef PSI_DISPATCH
}

// ----- EngineCore: arguments -----------------------------------------

template <class A>
void
EngineCore<A>::loadArgs(std::uint32_t arity, Module m)
{
    if (arity == 0)
        return;

    TaggedWord w = _acct.readMem(m, LogicalAddr(Area::Heap, _cp),
                                 BranchOp::T1CaseTag);
    if (w.tag == Tag::PackedArgs) {
        ++_cp;
        for (std::uint32_t i = 0; i < arity; ++i) {
            std::uint32_t op = (w.data >> (8 * i)) & 0xff;
            std::uint32_t type = op >> 5;
            std::uint32_t idx = op & 0x1f;
            // Packed-operand dispatch (the `case (irn)` branch).
            _acct.step(m, BranchOp::T1CaseIrn, kScr, kNoWf, kReg);
            _acct.texture(m, kArgDecode - 1);
            TaggedWord a;
            switch (type) {
              case kl0::kPackLocalVar:
                a = fetchVarArg(VarSlot{false,
                                static_cast<std::uint16_t>(idx)}, m);
                break;
              case kl0::kPackGlobalVar:
                a = fetchVarArg(VarSlot{true,
                                static_cast<std::uint16_t>(idx)}, m);
                break;
              case kl0::kPackVoid:
                a = newGlobalCell(m);
                break;
              case kl0::kPackSmallInt:
                a = intWord(idx);
                break;
              default:
                panic("bad packed operand type ", type);
            }
            _acct.setArg(i, a);
        }
        return;
    }

    for (std::uint32_t i = 0; i < arity; ++i) {
        TaggedWord d = _acct.readMem(m, LogicalAddr(Area::Heap, _cp),
                                     BranchOp::T1CaseTag, kNoWf, kReg);
        ++_cp;
        _acct.texture(m, kArgDecode);
        TaggedWord a;
        switch (d.tag) {
          case Tag::AConst:
            a = {Tag::Atom, d.data};
            break;
          case Tag::AInt:
            a = {Tag::Int, d.data};
            break;
          case Tag::ANil:
            a = {Tag::Nil, 0};
            break;
          case Tag::AVoid:
            a = newGlobalCell(m);
            break;
          case Tag::AVar:
            a = fetchVarArg(VarSlot::decode(d.data), m);
            break;
          case Tag::AList:
            a = instantiate(LogicalAddr::unpack(d.data).offset, true);
            break;
          case Tag::AStruct:
            a = instantiate(LogicalAddr::unpack(d.data).offset, false);
            break;
          case Tag::AGroundList:
            // Ground terms are shared from the heap image.
            a = {Tag::List, d.data};
            break;
          case Tag::AGroundStruct:
          case Tag::AExpr:
            a = {Tag::Struct, d.data};
            break;
          default:
            panic("bad argument descriptor '", tagName(d.tag), "'");
        }
        _acct.setArg(i, a);
    }
}

template <class A>
TaggedWord
EngineCore<A>::fetchVarArg(const VarSlot &vs, Module m)
{
    _acct.texture(m, kVarFetchDecode);
    if (vs.global) {
        // A reference to the global cell is formed in one step.
        _acct.step(m, BranchOp::T1Nop, kScr, kNoWf, kReg);
        return {Tag::Ref,
                LogicalAddr(Area::Global,
                            _act.globalBase + vs.index).pack()};
    }
    TaggedWord v = readLocal(vs.index, m);
    if (v.tag == Tag::Undef) {
        // First use of an uninitialized local as an argument: the
        // variable is globalized so no reference into the work file
        // (or into a dying frame) can ever be created.
        TaggedWord ref = newGlobalCell(m);
        if (_act.frame.kind == FrameLoc::Kind::Stack) {
            // A flushed frame can be re-read by a choice-point retry,
            // so the slot initialization must be undoable: bind()
            // trails it conditionally, and trail unwinding restores
            // local-stack cells to the uninitialized state.
            bind(LogicalAddr(Area::Local, _act.frame.addr + vs.index),
                 ref, m);
        } else {
            writeLocal(vs.index, ref, m);
        }
        return ref;
    }
    return v;
}

// ----- EngineCore: calls and clause trial ----------------------------

template <class A>
bool
EngineCore<A>::doCall(std::uint32_t functor_idx, std::uint32_t goal_cp,
                      bool last_call)
{
    ++_inferences;

    // Call entry: save the goal context, set up the predicate
    // descriptor fetch.
    _acct.step(Module::Control, BranchOp::T1Gosub, kScr, kScr, kScr);
    _acct.texture(Module::Control, kCallDecode);
    TaggedWord dir = _acct.readMem(
        Module::Control,
        LogicalAddr(Area::Heap, kl0::kDirBase + functor_idx),
        BranchOp::T1CondFalse, kScr);
    if (dir.tag == Tag::IndexRef)
        dir = {Tag::ClauseRef, resolveIndex(dir.data)};
    if (dir.tag != Tag::ClauseRef) {
        if (functor_idx >= _warnedUndefined.size())
            _warnedUndefined.resize(functor_idx + 1, false);
        if (!_warnedUndefined[functor_idx]) {
            _warnedUndefined[functor_idx] = true;
            warn("undefined predicate ",
                 _syms.functorName(functor_idx), "/",
                 _syms.functorArity(functor_idx));
        }
        return false;
    }

    std::uint32_t cont_cp;
    std::uint32_t cont_env;
    if (last_call) {
        // Tail-recursion optimization: the callee inherits this
        // activation's continuation; no environment is pushed.
        _acct.step(Module::Control, BranchOp::T1CondTrue, kScr, kScr);
        cont_cp = _act.contCP;
        cont_env = _act.contEnv;
    } else {
        _acct.step(Module::Control, BranchOp::T1CondFalse, kScr, kScr);
        if (_act.frame.inBuffer())
            flushFrame();
        // The current control information is saved to the control
        // stack for every continuation-creating call.
        pushEnvFrame();
        cont_cp = _cp;
        cont_env = _act.selfEnv;
    }

    return tryClauses(dir.data, goal_cp,
                      _syms.functorArity(functor_idx), cont_cp,
                      cont_env, _b);
}

template <class A>
std::uint32_t
EngineCore<A>::resolveIndex(std::uint32_t root)
{
    // Dereference A1 and switch on its tag (an index exists only for
    // predicates of arity > 0, so A1 is always loaded here).
    Deref d = deref(_acct.arg(0), Module::Control);
    TaggedWord a1 =
        d.unbound ? TaggedWord{Tag::Ref, d.cell.pack()} : d.word;
    _acct.step(Module::Control, BranchOp::T1CaseTag, kScr, kScr);

    std::uint32_t slot;
    std::uint32_t key = 0;
    Tag key_tag = Tag::Undef;
    switch (a1.tag) {
      case Tag::Atom:
        slot = kl0::kIdxSlotAtom;
        key = a1.data;
        key_tag = Tag::Atom;
        break;
      case Tag::Int:
        slot = kl0::kIdxSlotInt;
        key = a1.data;
        key_tag = Tag::Int;
        break;
      case Tag::Nil:
        slot = kl0::kIdxSlotNil;
        break;
      case Tag::List:
        slot = kl0::kIdxSlotList;
        break;
      case Tag::Struct:
        slot = kl0::kIdxSlotStruct;
        key = _acct.readMem(Module::Control,
                            LogicalAddr::unpack(a1.data),
                            BranchOp::T1Nop, kScr)
                  .data;
        key_tag = Tag::Functor;
        break;
      default:
        // Unbound - or a tag the index does not cover (vectors):
        // walk the full linear chain.
        ++_idxFallbacks;
        return _acct.readMem(Module::Control,
                             LogicalAddr(Area::Heap, root),
                             BranchOp::T1Goto, kScr)
            .data;
    }
    ++_idxHits;

    TaggedWord w = _acct.readMem(Module::Control,
                                 LogicalAddr(Area::Heap, root + slot),
                                 BranchOp::T1CaseTag, kScr);
    if (w.tag == Tag::ClauseRef)
        return w.data;
    PSI_ASSERT(w.tag == Tag::IndexHash, "bad index slot word");

    std::uint32_t block = w.data;
    std::uint32_t nslots =
        _acct.readMem(Module::Control, LogicalAddr(Area::Heap, block),
                      BranchOp::T1Nop, kScr)
            .data;
    std::uint32_t h = kl0::indexKeyHash(key) & (nslots - 1);
    for (;;) {
        TaggedWord kw = _acct.readMem(
            Module::Control,
            LogicalAddr(Area::Heap, block + 2 + 2 * h),
            BranchOp::T1CaseTag, kScr);
        if (kw.tag == Tag::Undef) {
            // No clause mentions this key: only the variable-headed
            // clauses can match.
            return _acct.readMem(Module::Control,
                                 LogicalAddr(Area::Heap, block + 1),
                                 BranchOp::T1Goto, kScr)
                .data;
        }
        if (kw.tag == key_tag && kw.data == key) {
            return _acct.readMem(
                       Module::Control,
                       LogicalAddr(Area::Heap, block + 3 + 2 * h),
                       BranchOp::T1Goto, kScr)
                .data;
        }
        // Linear probe (load factor <= 1/2 guarantees an empty slot).
        h = (h + 1) & (nslots - 1);
    }
}

template <class A>
bool
EngineCore<A>::firstArgMayMatch(std::uint32_t clause_addr,
                                const TaggedWord &a1)
{
    // One probe of the first head descriptor plus a tag comparison -
    // the dispatch the PSI-II instruction-code redesign aims at.
    TaggedWord desc = _acct.readMem(
        Module::Control, LogicalAddr(Area::Heap, clause_addr + 1),
        BranchOp::T1CaseTag);
    _acct.step(Module::Control, BranchOp::T1TagCmp, kScr, kScr);
    if (a1.tag == Tag::Ref)
        return true;
    switch (desc.tag) {
      case Tag::HConst:
        return a1.tag == Tag::Atom && a1.data == desc.data;
      case Tag::HInt:
        return a1.tag == Tag::Int && a1.data == desc.data;
      case Tag::HNil:
        return a1.tag == Tag::Nil;
      case Tag::HList:
      case Tag::HGroundList:
        return a1.tag == Tag::List;
      case Tag::HStruct:
      case Tag::HGroundStruct:
        return a1.tag == Tag::Struct;
      default:
        return true;  // variable or void: matches anything
    }
}

template <class A>
bool
EngineCore<A>::tryClauses(std::uint32_t table_addr,
                          std::uint32_t goal_cp, std::uint32_t arity,
                          std::uint32_t cont_cp, std::uint32_t cont_env,
                          std::uint32_t cut_b)
{
    const bool probe = _acct.fw().firstArgIndexing && arity > 0;
    // Dereference the first argument once when probing is enabled.
    TaggedWord a1{};
    if (probe) {
        Deref d = deref(_acct.arg(0), Module::Control);
        a1 = d.unbound ? TaggedWord{Tag::Ref, d.cell.pack()} : d.word;
    }
    // Caller context captured for the choice point (deep retries
    // reload arguments against this frame).
    FrameLoc caller_frame = _act.frame;
    std::uint32_t caller_gb = _act.globalBase;
    std::uint32_t caller_nlocals = _act.nlocals;

    // Trial snapshot, held in work-file registers: stack tops at
    // call time, so a failed head unification can be undone without
    // touching the control stack (shallow backtracking).
    std::uint32_t old_hb = _hb;
    std::uint32_t old_hl = _hl;
    std::uint32_t trial_gt = _gt;
    std::uint64_t trial_tt = _acct.trailTop();
    _acct.step(Module::Control, BranchOp::T1Nop, kScr, kScr, kScr);

    std::uint32_t pos = table_addr;
    TaggedWord cur = _acct.readMem(Module::Control,
                                   LogicalAddr(Area::Heap, pos),
                                   BranchOp::T1CondTrue, kScr);
    if (cur.tag != Tag::ClauseRef)
        return false;

    for (;;) {
        ++_clauseTries;
        TaggedWord next = _acct.readMem(
            Module::Control, LogicalAddr(Area::Heap, pos + 1),
            BranchOp::T1CondTrue, kScr);
        _acct.texture(Module::Control, kTrialDecode);
        bool has_next = next.tag == Tag::ClauseRef;

        if (probe && !firstArgMayMatch(cur.data, a1)) {
            if (!has_next) {
                _hb = old_hb;
                _hl = old_hl;
                return false;
            }
            pos += 1;
            cur = next;
            continue;
        }

        // Bind conditionally against the trial snapshot so a failing
        // head unification is fully undoable.
        _hb = trial_gt;
        _hl = _lt;

        if (enterClause(cur.data, cont_cp, cont_env, cut_b)) {
            if (has_next) {
                // Commit with alternatives: only now does control
                // information go to the control stack.  A caller
                // frame still in a buffer is flushed lazily: a deep
                // retry must be able to re-read its locals.
                std::uint32_t cfe =
                    caller_frame.inBuffer()
                        ? FrameLoc{FrameLoc::Kind::Stack,
                                   spillBuffer(bufIndex(caller_frame),
                                               caller_nlocals)}
                              .encode()
                        : caller_frame.encode();
                _acct.trailFlush();
                pushChoicePoint(goal_cp, cont_cp, cont_env, cfe,
                                caller_gb, trial_gt, _lt,
                                static_cast<std::uint32_t>(trial_tt),
                                cut_b, pos + 1);
                _hb = trial_gt;
                _hl = _lt;
            } else {
                _hb = old_hb;
                _hl = old_hl;
            }
            return true;
        }

        // Shallow retry from the work-file snapshot.
        _acct.step(Module::Control, BranchOp::T1CondFalse, kScr, kNoWf,
                   kScr);
        _acct.unwindTrail(trial_tt);
        _gt = trial_gt;
        // Reclaim any local frame the failed candidate allocated
        // (no-op with frame buffers: _hl is the trial-start local
        // top).
        _lt = _hl;
        if (!has_next) {
            _hb = old_hb;
            _hl = old_hl;
            return false;
        }
        pos += 1;
        cur = next;
    }
}

template <class A>
std::uint32_t
EngineCore<A>::spillBuffer(int buf, std::uint32_t n)
{
    std::uint32_t addr = _lt;
    // WFAR1 := buffer base (address-register setup step).
    _acct.step(Module::Control, BranchOp::T1LoadJr, kScr, kNoWf, kNoWf);
    for (std::uint32_t i = 0; i < n; ++i) {
        _acct.pushMem(Module::Control, LogicalAddr(Area::Local, _lt + i),
                      _acct.frame(buf, i), BranchOp::T3Nop,
                      WfMode::IndWfar1);
    }
    _lt += n;
    return addr;
}

template <class A>
void
EngineCore<A>::flushFrame()
{
    PSI_ASSERT(_act.frame.inBuffer(), "flush of a non-buffer frame");
    _act.frame = FrameLoc{FrameLoc::Kind::Stack,
                          spillBuffer(bufIndex(_act.frame), _act.nlocals)};
}

template <class A>
void
EngineCore<A>::pushEnvFrame()
{
    _acct.texture(Module::Control, kFramePush);
    std::uint32_t env = _ct;
    const std::uint32_t words[kFrameWords] = {
        _act.contCP,
        _act.contEnv,
        _act.frame.encode(),
        _act.globalBase,
        _act.cutB,
        _act.nlocals,
        _act.clauseAddr,
        0, 0, 0,
    };
    for (std::uint32_t i = 0; i < kFrameWords; ++i) {
        _acct.pushMem(Module::Control,
                      LogicalAddr(Area::Control, _ct + i),
                      intWord(words[i]), BranchOp::T3Nop, kReg);
    }
    _ct += kFrameWords;
    _act.selfEnv = env;
}

template <class A>
void
EngineCore<A>::restoreEnv(std::uint32_t env_addr)
{
    PSI_ASSERT(env_addr != kRootEnv && env_addr != 0,
               "bad environment address");
    _acct.texture(Module::Control, kEnvRestore);
    std::uint32_t w[7];
    for (int i = 0; i < 7; ++i) {
        w[i] = _acct.readMem(Module::Control,
                             LogicalAddr(Area::Control, env_addr + i),
                             i == 0 ? BranchOp::T2Goto : BranchOp::T2Nop,
                             kNoWf, kScr)
                   .data;
    }
    _act.contCP = w[kEnvContCP];
    _act.contEnv = w[kEnvContEnv];
    _act.frame = FrameLoc::decode(w[kEnvFrameLoc]);
    _act.globalBase = w[kEnvGlobalBase];
    _act.cutB = w[kEnvCutB];
    _act.nlocals = w[kEnvNLocals];
    _act.clauseAddr = w[kEnvClauseAddr];

    if (env_addr + kFrameWords == _ct &&
        (_b == kNoChoice || _b < env_addr)) {
        // Determinate return to the top frame: reclaim it.
        _ct = env_addr;
        _act.selfEnv = 0;
    } else {
        _act.selfEnv = env_addr;
    }
}

template <class A>
void
EngineCore<A>::pushChoicePoint(std::uint32_t goal_cp,
                               std::uint32_t cont_cp,
                               std::uint32_t cont_env,
                               std::uint32_t caller_frame_enc,
                               std::uint32_t caller_global_base,
                               std::uint32_t saved_gt,
                               std::uint32_t saved_lt,
                               std::uint32_t saved_tt,
                               std::uint32_t saved_b,
                               std::uint32_t next_clause_addr)
{
    _acct.texture(Module::Control, kFramePush);
    std::uint32_t cp_addr = _ct;
    const std::uint32_t words[kFrameWords] = {
        goal_cp,
        caller_frame_enc,
        caller_global_base,
        cont_cp,
        cont_env,
        saved_gt,
        saved_lt,
        saved_tt,
        saved_b,
        next_clause_addr,
    };
    for (std::uint32_t i = 0; i < kFrameWords; ++i) {
        _acct.pushMem(Module::Control,
                      LogicalAddr(Area::Control, _ct + i),
                      intWord(words[i]), BranchOp::T3Nop, kReg);
    }
    _ct += kFrameWords;
    _b = cp_addr;
}

template <class A>
bool
EngineCore<A>::enterClause(std::uint32_t clause_addr,
                           std::uint32_t cont_cp, std::uint32_t cont_env,
                           std::uint32_t cut_b)
{
    TaggedWord hdr = _acct.readMem(Module::Control,
                                   LogicalAddr(Area::Heap, clause_addr),
                                   BranchOp::T1CaseTag, kNoWf, kScr);
    PSI_ASSERT(hdr.tag == Tag::ClauseHeader, "bad clause address");
    _acct.texture(Module::Control, kEnterDecode);
    std::uint32_t arity = hdr.data & 0xff;
    std::uint32_t nlocals = (hdr.data >> 8) & 0xff;
    std::uint32_t nglobals = (hdr.data >> 16) & 0xff;

    std::uint32_t global_base = _gt;
    for (std::uint32_t g = 0; g < nglobals; ++g) {
        LogicalAddr cell(Area::Global, _gt + g);
        _acct.pushMem(Module::Control, cell, unboundAt(cell),
                      BranchOp::T2Nop);
    }
    _gt += nglobals;

    FrameLoc frame;
    if (nlocals > 0 && _acct.fw().frameBuffers) {
        int nb = 1 - _curBuf;
        frame.kind = nb == 0 ? FrameLoc::Kind::Buf0
                             : FrameLoc::Kind::Buf1;
        // Initialize the frame through WFAR1 auto-increment.
        for (std::uint32_t i = 0; i < nlocals; ++i) {
            _acct.step(Module::Control, BranchOp::T3Nop, kNoWf, kNoWf,
                       WfMode::IndWfar1);
            _acct.setFrame(nb, i, TaggedWord{});
        }
        _curBuf = nb;
    } else if (nlocals > 0) {
        // Ablation: no frame buffers - the local frame is allocated
        // directly on the local stack.
        frame.kind = FrameLoc::Kind::Stack;
        frame.addr = _lt;
        for (std::uint32_t i = 0; i < nlocals; ++i) {
            _acct.pushMem(Module::Control,
                          LogicalAddr(Area::Local, _lt + i),
                          TaggedWord{}, BranchOp::T3Nop);
        }
        _lt += nlocals;
    }

    _act.contCP = cont_cp;
    _act.contEnv = cont_env;
    _act.frame = frame;
    _act.globalBase = global_base;
    _act.cutB = cut_b;
    _act.nlocals = nlocals;
    _act.clauseAddr = clause_addr;
    _act.selfEnv = 0;

    std::uint32_t dp = clause_addr + 1;
    for (std::uint32_t i = 0; i < arity; ++i) {
        TaggedWord desc = _acct.readMem(Module::Unify,
                                        LogicalAddr(Area::Heap, dp + i),
                                        BranchOp::T1CaseTag, kNoWf,
                                        kScr);
        if (!unifyHead(desc, _acct.arg(i)))
            return false;
    }
    // Activation setup completes only after the head has matched.
    _acct.texture(Module::Control, 5);
    _cp = dp + arity;
    return true;
}

template <class A>
bool
EngineCore<A>::backtrack()
{
    for (;;) {
        if (_b == kNoChoice)
            return false;

        // Deep backtracking: restore the machine from the newest
        // choice-point frame.
        _acct.step(Module::Control, BranchOp::T2Goto, kScr, kNoWf,
                   kScr);
        _acct.texture(Module::Control, kBacktrackDecode);
        std::uint32_t w[kFrameWords];
        for (std::uint32_t i = 0; i < kFrameWords; ++i) {
            w[i] = _acct.readMem(Module::Control,
                                 LogicalAddr(Area::Control, _b + i),
                                 BranchOp::T2Nop, kNoWf, kScr)
                       .data;
        }

        _acct.unwindTrail(w[kCpSavedTT]);
        _gt = w[kCpSavedGT];
        _lt = w[kCpSavedLT];
        // The frame is consumed: remaining candidates run a fresh
        // trial loop, which pushes a new choice point only if one is
        // still needed.
        _ct = _b;
        _b = w[kCpSavedB];
        reloadTrailBounds(Module::Control);

        // Rebuild the caller context and reload the goal arguments
        // from the instruction code (DEC-10-interpreter style retry).
        _act.frame = FrameLoc::decode(w[kCpCallerFrame]);
        _act.globalBase = w[kCpCallerGlobal];

        std::uint32_t goal_cp = w[kCpGoalCP];
        std::uint32_t arity = 0;
        if (goal_cp != 0) {
            TaggedWord call = _acct.readMem(
                Module::Control, LogicalAddr(Area::Heap, goal_cp),
                BranchOp::T1CaseIrOpcode, kNoWf, kScr);
            PSI_ASSERT(call.tag == Tag::Call ||
                           call.tag == Tag::CallLast,
                       "retry at a non-call word");
            _cp = goal_cp + 1;
            arity = _syms.functorArity(call.data);
            loadArgs(arity, Module::Control);
        }

        if (tryClauses(w[kCpNextClause], goal_cp, arity,
                       w[kCpContCP], w[kCpContEnv], w[kCpSavedB])) {
            return true;
        }
        // Every remaining candidate failed; fail into the next
        // older choice point.
    }
}

template <class A>
void
EngineCore<A>::reloadTrailBounds(Module m)
{
    if (_b == kNoChoice) {
        _hb = 0;
        _hl = 0;
        return;
    }
    _hb = _acct.readMem(m, LogicalAddr(Area::Control, _b + kCpSavedGT),
                        BranchOp::T2Nop, kNoWf, kScr)
              .data;
    _hl = _acct.readMem(m, LogicalAddr(Area::Control, _b + kCpSavedLT),
                        BranchOp::T2Nop, kNoWf, kScr)
              .data;
}

template <class A>
void
EngineCore<A>::doCut()
{
    _acct.step(Module::Cut, BranchOp::T1CondTrue, kScr, kScr);
    _acct.texture(Module::Cut, kCutWork);
    if (_b != _act.cutB) {
        _b = _act.cutB;
        _acct.step(Module::Cut, BranchOp::T1CondFalse, kScr, kNoWf,
                   kScr);
        reloadTrailBounds(Module::Cut);
    }
}

// One engine core, two accounting policies.  FastEngine installs
// images and queries its own way (fast/fast_engine.cpp), so the
// replaying load and the compiling solve exist for fidelity only.
template void EngineCore<FidelityAcct>::load(const kl0::CompiledProgram &);
template RunResult EngineCore<FidelityAcct>::solve(const std::string &,
                                                   const RunLimits &);
template RunResult EngineCore<FidelityAcct>::solve(const kl0::TermPtr &,
                                                   const RunLimits &);
PSI_ENGINE_CORE_MEMBER(void, resetMachine());
PSI_ENGINE_CORE_MEMBER(void, clearRunState());
PSI_ENGINE_CORE_MEMBER(void, truncateSymbols(std::uint32_t,
                                             std::uint32_t));
PSI_ENGINE_CORE_MEMBER(RunResult, run(const kl0::QueryCode &,
                                      const RunLimits &));
PSI_ENGINE_CORE_MEMBER(bool, runNested(std::uint32_t, std::uint64_t));

} // namespace interp
} // namespace psi
