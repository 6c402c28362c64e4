#include "service/program_cache.hpp"

namespace psi {
namespace service {

ProgramCache::ProgramPtr
ProgramCache::get(std::uint64_t sourceHash, const std::string &source,
                  kl0::CompileOptions opts, bool *compiled)
{
    // The option bits are folded into the key so images compiled with
    // different options (indexed vs unindexed) never alias.
    std::uint64_t key = sourceHash;
    key ^= (static_cast<std::uint64_t>(opts.firstArgIndexing) |
            (static_cast<std::uint64_t>(opts.specializeBuiltins) << 1))
           * 0x9e3779b97f4a7c15ull;

    std::promise<ProgramPtr> promise;
    std::shared_future<ProgramPtr> ready;
    bool owner = false;
    bool collision = false;
    {
        std::lock_guard<std::mutex> lock(_m);
        auto it = _map.find(key);
        if (it == _map.end()) {
            ++_misses;
            owner = true;
            ready = promise.get_future().share();
            _map.emplace(key, Entry{source, opts, ready});
        } else if (it->second.source == source &&
                   it->second.options == opts) {
            ++_hits;
            ready = it->second.ready;
        } else {
            // Same 64-bit hash, different source: don't evict the
            // resident program, just compile this one uncached.
            ++_misses;
            collision = true;
        }
    }

    if (compiled)
        *compiled = owner || collision;

    if (collision) {
        return std::make_shared<const kl0::CompiledProgram>(
            kl0::CompiledProgram::compile(source, opts));
    }

    if (owner) {
        try {
            promise.set_value(
                std::make_shared<const kl0::CompiledProgram>(
                    kl0::CompiledProgram::compile(source, opts)));
        } catch (...) {
            promise.set_exception(std::current_exception());
            {
                std::lock_guard<std::mutex> lock(_m);
                _map.erase(key);
            }
            throw;
        }
    }

    return ready.get(); // rethrows the owner's compile failure
}

ProgramCache::Stats
ProgramCache::stats() const
{
    std::lock_guard<std::mutex> lock(_m);
    return Stats{_hits, _misses,
                 static_cast<std::uint64_t>(_map.size())};
}

} // namespace service
} // namespace psi
