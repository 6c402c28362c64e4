/**
 * @file
 * ProgramCache: memoized KL0 compilation for the psid service.
 *
 * Every request used to pay a full parse -> normalize -> codegen on
 * the worker thread.  The cache compiles each distinct source once
 * and hands out shared_ptrs to the immutable kl0::CompiledProgram;
 * workers then install it with the cheap Engine::load() replay.
 *
 * Keying is by FNV-1a 64 content hash with the full source stored
 * per entry, so a (vanishingly unlikely) hash collision degrades to
 * an uncached compile instead of serving the wrong program.
 *
 * Concurrency: entries hold a shared_future, so when N workers miss
 * on the same key simultaneously exactly one compiles and the others
 * block on the future - no duplicate work, no lock held during the
 * compile.  A compile failure propagates to every waiter and the
 * entry is dropped, so a bad program doesn't poison the key.
 *
 * Hit/miss/entry counters feed the service metrics snapshot and the
 * psinet STATS reply.
 */

#ifndef PSI_SERVICE_PROGRAM_CACHE_HPP
#define PSI_SERVICE_PROGRAM_CACHE_HPP

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "kl0/compiled_program.hpp"

namespace psi {
namespace service {

/** Thread-safe memoizing compiler front end. */
class ProgramCache
{
  public:
    using ProgramPtr = std::shared_ptr<const kl0::CompiledProgram>;

    /** Point-in-time counters for metrics. */
    struct Stats
    {
        std::uint64_t hits = 0;    ///< served from the cache
        std::uint64_t misses = 0;  ///< compiled on this call
        std::uint64_t entries = 0; ///< programs resident
    };

    /**
     * The compiled image for @p source, compiling at most once per
     * distinct source.  Blocks while another thread compiles the
     * same key.  Throws FatalError (to every concurrent waiter) when
     * the source does not compile.
     *
     * @param opts compile options folded into the cache key, so an
     *        indexed and an unindexed image of the same source never
     *        alias each other.
     * @param compiled when non-null, set true when this call paid
     *        (or waited on) a compile and false on a cache hit - the
     *        signal psitrace uses to name the span compile vs
     *        cache-hit.
     */
    ProgramPtr
    get(const std::string &source, kl0::CompileOptions opts = {},
        bool *compiled = nullptr)
    {
        return get(kl0::CompiledProgram::hashSource(source), source,
                   opts, compiled);
    }

    /**
     * Same, for a caller that already holds
     * CompiledProgram::hashSource(@p source) - the pool hashes each
     * job's source once, at submit.  The full source still guards
     * against collisions.
     */
    ProgramPtr get(std::uint64_t sourceHash, const std::string &source,
                   kl0::CompileOptions opts, bool *compiled = nullptr);

    Stats stats() const;

  private:
    struct Entry
    {
        std::string source; ///< collision guard
        kl0::CompileOptions options; ///< collision guard
        std::shared_future<ProgramPtr> ready;
    };

    mutable std::mutex _m;
    std::unordered_map<std::uint64_t, Entry> _map;
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
};

} // namespace service
} // namespace psi

#endif // PSI_SERVICE_PROGRAM_CACHE_HPP
