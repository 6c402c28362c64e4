#include "kl0/compiled_program.hpp"

#include <atomic>

#include "base/logging.hpp"
#include "kl0/normalize.hpp"
#include "kl0/program.hpp"

namespace psi {
namespace kl0 {

std::uint64_t
CompiledProgram::hashSource(const std::string &source)
{
    // FNV-1a 64.
    std::uint64_t h = 14695981039346656037ull;
    for (unsigned char c : source) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

CompiledProgram
CompiledProgram::compile(const std::string &source,
                         CompileOptions opts)
{
    Program program;
    program.consult(source);

    CompiledProgram out;
    // Scratch machine: the cache model is never engaged (the code
    // generator stores through poke()), so the default configuration
    // is fine regardless of what the eventual engine runs with.
    MemorySystem mem;
    auto syms = std::make_shared<SymbolTable>();
    CodeGen codegen(mem, *syms, opts);
    mem.setPokeLog(&out._image);
    codegen.compile(normalize(program));
    mem.setPokeLog(nullptr);

    out._code.resize(codegen.heapTop() - kCodeBase);
    for (const PokeRecord &p : out._image) {
        PSI_ASSERT(p.addr.area == Area::Heap &&
                       p.addr.offset >= kDirBase &&
                       p.addr.offset < codegen.heapTop(),
                   "image store outside the directory and code");
        if (p.addr.offset >= kCodeBase) {
            out._code[p.addr.offset - kCodeBase] = p.word;
            continue;
        }
        const std::uint32_t f = p.addr.offset - kDirBase;
        if (f >= out._dir.size())
            out._dir.resize(f + 1);
        out._dir[f] = p.word;
    }
    out._syms = std::move(syms);
    out._snapshot = codegen.snapshot();
    out._options = opts;
    out._hash = hashSource(source);
    static std::atomic<std::uint64_t> compiles{0};
    out._id = compiles.fetch_add(1, std::memory_order_relaxed) + 1;
    return out;
}

} // namespace kl0
} // namespace psi
