/**
 * @file
 * Multi-process support (paper §2.1).
 *
 * The PSI runs multiple programs - user processes and interrupt
 * handling processes - concurrently: the heap area is shared by all
 * of them, while the four stack areas of each process are
 * independent logical spaces mapped through the hardware address
 * translation table.
 *
 * This model realizes that organization with per-process offset
 * windows (1 << 24 words) inside each stack area and a cooperative
 * `process_call(ProcId, PredAtom)` built-in that runs an arity-0
 * predicate to its first solution in the target process's areas.
 * Switching saves and restores the machine registers and the
 * work-file state, charging the control-frame traffic a real switch
 * costs; the distinct stack pages are what degrade cache locality in
 * the window-2/3 scenarios, as the paper observes.
 *
 * A small shared registry (global_set/global_get, heap-resident)
 * lets processes exchange atomic values and heap-vector handles -
 * the shared rewritable data of the PSI heap.
 */

#include "interp/engine.hpp"

#include "base/logging.hpp"
#include "fast/fast_engine.hpp"

namespace psi {
namespace interp {

namespace {

/** Words per process window inside each stack area. */
constexpr std::uint32_t kProcWindow = 1u << 24;

/** Process ids 1 .. kMaxProcs - 1 can be entered by process_call. */
constexpr std::int32_t kMaxProcs = 8;

/** Register-state frame a process switch pushes on the control stack. */
constexpr std::uint32_t kSwitchFrameWords = 10;

} // namespace

FidelityAcct::Saved
FidelityAcct::save() const
{
    Saved s{_memTT, _trailBufCount, {}, {}, {}};
    const micro::WorkFile &wf = _seq.wf();
    for (std::uint16_t i = 0; i < s.regs.size(); ++i)
        s.regs[i] = wf.read(i);
    for (std::uint16_t i = 0; i < s.frames.size(); ++i)
        s.frames[i] = wf.read(micro::kWfFrameBuf0 + i);
    for (std::uint16_t i = 0; i < s.trail.size(); ++i)
        s.trail[i] = wf.read(micro::kWfTrailBuf + i);
    return s;
}

void
FidelityAcct::restore(const Saved &s)
{
    _memTT = s.memTT;
    _trailBufCount = s.trailBufCount;
    micro::WorkFile &wf = _seq.wf();
    for (std::uint16_t i = 0; i < s.regs.size(); ++i)
        wf.write(i, s.regs[i]);
    for (std::uint16_t i = 0; i < s.frames.size(); ++i)
        wf.write(micro::kWfFrameBuf0 + i, s.frames[i]);
    for (std::uint16_t i = 0; i < s.trail.size(); ++i)
        wf.write(micro::kWfTrailBuf + i, s.trail[i]);
}

template <class A>
bool
EngineCore<A>::builtinGlobal(kl0::Builtin b)
{
    Deref dk = deref(readA(0, Module::Built), Module::Built);
    if (dk.unbound || dk.word.tag != Tag::Int)
        return false;
    std::int32_t k = dk.word.asInt();
    if (k < 0 || k >= static_cast<std::int32_t>(kGlobalRegSlots))
        return false;
    LogicalAddr slot(Area::Heap,
                     kGlobalRegBase + static_cast<std::uint32_t>(k));

    if (b == kl0::Builtin::GlobalSet) {
        Deref dv = deref(readA(1, Module::Built), Module::Built);
        // Only process-lifetime values may be stored: atomic data and
        // heap-vector handles.  Stack references would dangle.
        if (dv.unbound ||
            (dv.word.tag != Tag::Atom && dv.word.tag != Tag::Int &&
             dv.word.tag != Tag::Nil && dv.word.tag != Tag::Vector)) {
            return false;
        }
        _acct.writeMem(Module::Built, slot, dv.word, BranchOp::T2Nop,
                       kReg);
        return true;
    }

    TaggedWord v = _acct.readMem(Module::Built, slot,
                                 BranchOp::T1CondFalse, kScr, kReg);
    if (v.tag == Tag::Undef)
        return false;
    return unify(readA(1, Module::Built), v);
}

template <class A>
bool
EngineCore<A>::builtinProcessCall()
{
    if (_inProcessCall) {
        warn("process_call: nesting is not supported");
        return false;
    }

    Deref dp = deref(readA(0, Module::Built), Module::Built);
    Deref df = deref(readA(1, Module::Built), Module::Built);
    if (dp.unbound || dp.word.tag != Tag::Int || df.unbound ||
        df.word.tag != Tag::Atom) {
        return false;
    }
    std::int32_t pid = dp.word.asInt();
    if (pid < 1 || pid >= kMaxProcs)
        return false;
    std::uint32_t f =
        _syms.functor(_syms.atomName(df.word.data), 0);

    // ---- process switch: save the current machine state ------------
    // The control registers and the live work-file regions go to the
    // control stack (a 10-word frame of register state plus the
    // dirty frame buffer), as the PSI saved WF state "as necessary".
    _acct.texture(Module::Control, 12);
    for (std::uint32_t i = 0; i < kSwitchFrameWords; ++i) {
        _acct.pushMem(Module::Control,
                      LogicalAddr(Area::Control, _ct + i),
                      {Tag::Int, 0}, BranchOp::T3Nop, kReg);
    }

    struct Saved
    {
        std::uint32_t gt, lt, ct, b, hb, hl, cp;
        int curBuf;
        bool failFlag;
        Activation act;
        typename A::Saved regs;
    } s{_gt, _lt, _ct + kSwitchFrameWords, _b, _hb, _hl, _cp, _curBuf,
        _failFlag, _act, _acct.save()};

    // ---- enter the target process's areas --------------------------
    std::uint32_t base =
        static_cast<std::uint32_t>(pid) * kProcWindow + kStackBase;
    _gt = base;
    _lt = base;
    _ct = base;
    _acct.resetTrail(base);
    _b = kNoChoice;
    _hb = _hl = 0;
    _curBuf = 0;
    _failFlag = false;
    _act = Activation{};
    _act.globalBase = _gt;
    _inProcessCall = true;

    bool ok = runNested(f, 200'000'000);

    // ---- switch back -------------------------------------------------
    _inProcessCall = false;
    _acct.texture(Module::Control, 12);
    _gt = s.gt;
    _lt = s.lt;
    _ct = s.ct - kSwitchFrameWords;
    _b = s.b;
    _hb = s.hb;
    _hl = s.hl;
    _cp = s.cp;
    _curBuf = s.curBuf;
    _failFlag = s.failFlag;
    _act = s.act;
    _acct.restore(s.regs);
    for (std::uint32_t i = 0; i < kSwitchFrameWords; ++i) {
        _acct.readMem(Module::Control, LogicalAddr(Area::Control, _ct + i),
                      BranchOp::T2Nop, kNoWf, kReg);
    }
    return ok;
}

PSI_ENGINE_CORE_MEMBER(bool, builtinGlobal(kl0::Builtin));
PSI_ENGINE_CORE_MEMBER(bool, builtinProcessCall());

} // namespace interp
} // namespace psi
