/**
 * @file
 * CompiledProgram: the immutable, shareable result of compiling KL0
 * source off the engine hot path.
 *
 * compile() runs the full pipeline - parse (Program::consult),
 * normalize(), CodeGen - against a private scratch machine and
 * captures everything an engine needs to serve queries over the
 * program:
 *
 *  - the heap image as the *ordered* log of code-generator stores.
 *    Order matters: the translation table allocates physical frames
 *    on first touch, so replaying the stores in emission order
 *    reproduces the exact logical-to-physical page assignment (and
 *    with it the cache set mapping and every cache statistic) of an
 *    engine that consulted the source directly;
 *  - the same heap words as a dense copy - the predicate directory
 *    entries and the code [kCodeBase, heapTop) - which an engine
 *    without a cache model installs with two block copies;
 *  - the symbol table, so atom/functor indices in the image resolve
 *    identically;
 *  - the code generator snapshot (heap cursor + clause directory),
 *    so queries compiled against the image land at the same
 *    addresses a consulting engine would use.
 *
 * The symbol table and the snapshot's clause table are immutable and
 * held by shared pointer: an engine adopts them as the base of its
 * own tables in O(1) and keeps only what its query compiles append.
 * A CompiledProgram never touches engine state and is immutable
 * after construction, so one instance may be shared by any number of
 * threads (the psid ProgramCache hands out shared_ptrs to workers).
 * Engine::load(const CompiledProgram &) installs an image into a
 * fully reset machine in one cheap replay pass.
 */

#ifndef PSI_KL0_COMPILED_PROGRAM_HPP
#define PSI_KL0_COMPILED_PROGRAM_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kl0/codegen.hpp"
#include "kl0/symbols.hpp"
#include "mem/memory_system.hpp"

namespace psi {
namespace kl0 {

/** An immutable compiled KL0 program image. */
class CompiledProgram
{
  public:
    /**
     * Parse, normalize and compile @p source under @p opts - the
     * single compile entry point (Engine::consult and the psid
     * ProgramCache both route through it).  Pure: only scratch state
     * private to this call is touched, so concurrent compiles (even
     * of the same source) are safe.  Throws FatalError on malformed
     * source, like Engine::consult.
     */
    static CompiledProgram compile(const std::string &source,
                                   CompileOptions opts = {});

    /** FNV-1a 64 content hash - the ProgramCache key for @p source. */
    static std::uint64_t hashSource(const std::string &source);

    /** The options the image was compiled with; an engine loading
     *  the image adopts them for its own query compiles. */
    const CompileOptions &options() const { return _options; }

    /** The heap image as stores in emission order. */
    const std::vector<PokeRecord> &image() const { return _image; }

    /** Heap words [kDirBase, kDirBase + size): the directory up to
     *  its last predicate entry, Undef where no predicate is. */
    const std::vector<TaggedWord> &directory() const { return _dir; }

    /** Heap words [kCodeBase, heapTop()): the instruction code. */
    const std::vector<TaggedWord> &code() const { return _code; }

    /** Interned symbols referenced by the image. */
    const SymbolTable &symbols() const { return *_syms; }

    /** The same table, for an engine to adopt as its base. */
    const std::shared_ptr<const SymbolTable> &symbolBase() const
    {
        return _syms;
    }

    /** Code-generator state to restore alongside the image. */
    const CodeGen::Snapshot &codegen() const { return _snapshot; }

    /**
     * Identity of this compile: unique per compile() call in the
     * process and never reused, shared by copies (which hold the same
     * image).  A warm engine compares it to tell "the image I already
     * hold" from a different one, including one at a recycled address.
     */
    std::uint64_t id() const { return _id; }

    /** hashSource() of the source this was compiled from. */
    std::uint64_t sourceHash() const { return _hash; }

    /** First free heap word after the image. */
    std::uint32_t heapTop() const { return _snapshot.cursor; }

    /** Instruction-code words in the image (for reports). */
    std::uint32_t codeWords() const
    {
        return _snapshot.cursor - kCodeBase;
    }

  private:
    CompiledProgram() = default;

    std::vector<PokeRecord> _image;
    std::vector<TaggedWord> _dir;
    std::vector<TaggedWord> _code;
    std::shared_ptr<const SymbolTable> _syms;
    CodeGen::Snapshot _snapshot;
    CompileOptions _options;
    std::uint64_t _hash = 0;
    std::uint64_t _id = 0;
};

} // namespace kl0
} // namespace psi

#endif // PSI_KL0_COMPILED_PROGRAM_HPP
