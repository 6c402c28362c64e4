#include "service/metrics.hpp"

#include <sstream>
#include <utility>

#include "base/json.hpp"
#include "base/stats.hpp"
#include "service/engine_pool.hpp"

namespace psi {
namespace service {

void
accumulate(micro::SeqStats &into, const micro::SeqStats &from)
{
    for (std::size_t i = 0; i < into.moduleSteps.size(); ++i)
        into.moduleSteps[i] += from.moduleSteps[i];
    for (std::size_t i = 0; i < into.branchOps.size(); ++i)
        into.branchOps[i] += from.branchOps[i];
    for (std::size_t f = 0; f < into.wfModes.size(); ++f) {
        for (std::size_t m = 0; m < into.wfModes[f].size(); ++m)
            into.wfModes[f][m] += from.wfModes[f][m];
    }
    for (std::size_t i = 0; i < into.cacheSteps.size(); ++i)
        into.cacheSteps[i] += from.cacheSteps[i];
}

void
accumulate(CacheStats &into, const CacheStats &from)
{
    for (std::size_t a = 0; a < into.accesses.size(); ++a) {
        for (std::size_t c = 0; c < into.accesses[a].size(); ++c) {
            into.accesses[a][c] += from.accesses[a][c];
            into.hits[a][c] += from.hits[a][c];
        }
    }
    into.readIns += from.readIns;
    into.writeBacks += from.writeBacks;
    into.stackAllocs += from.stackAllocs;
    into.throughWrites += from.throughWrites;
}

void
WorkerMetrics::record(const JobOutcome &outcome)
{
    ++completed;
    if (outcome.mode == interp::ExecMode::Fast)
        ++jobsFast;
    else
        ++jobsFidelity;
    if (!outcome.ok()) {
        ++errored;
    } else {
        switch (outcome.status()) {
          case interp::RunStatus::Timeout:
            ++timedOut;
            if (outcome.expired)
                ++expiredInQueue;
            break;
          case interp::RunStatus::StepLimit:
            ++stepLimited;
            break;
          case interp::RunStatus::Ok:
            if (outcome.run.result.succeeded())
                ++succeeded;
            break;
        }
    }

    inferences += outcome.run.result.inferences;
    indexHits += outcome.indexHits;
    indexFallbacks += outcome.indexFallbacks;
    fastImageInstalls += outcome.fastImageInstalls;
    fastQueryCompiles += outcome.fastQueryCompiles;
    fastQueryReuses += outcome.fastQueryReuses;
    modelNs += outcome.run.result.timeNs;
    stallNs += outcome.run.stallNs;
    hostExecNs += outcome.execNs;
    hostSetupNs += outcome.setupNs;
    hostSolveNs += outcome.solveNs;
    accumulate(seq, outcome.run.seq);
    accumulate(cache, outcome.run.cache);
    latency.record(outcome.latencyNs);
    queueWait.record(outcome.queueNs);
    // Stage histograms only make sense for jobs that reached an
    // engine; queue-expired jobs have no setup/solve phase.
    if (outcome.ok() && !outcome.expired) {
        setup.record(outcome.setupNs);
        solve.record(outcome.solveNs);
    }
}

void
WorkerMetrics::merge(const WorkerMetrics &other)
{
    completed += other.completed;
    jobsFidelity += other.jobsFidelity;
    jobsFast += other.jobsFast;
    succeeded += other.succeeded;
    timedOut += other.timedOut;
    stepLimited += other.stepLimited;
    errored += other.errored;
    expiredInQueue += other.expiredInQueue;
    inferences += other.inferences;
    indexHits += other.indexHits;
    indexFallbacks += other.indexFallbacks;
    fastImageInstalls += other.fastImageInstalls;
    fastQueryCompiles += other.fastQueryCompiles;
    fastQueryReuses += other.fastQueryReuses;
    modelNs += other.modelNs;
    stallNs += other.stallNs;
    hostExecNs += other.hostExecNs;
    hostSetupNs += other.hostSetupNs;
    hostSolveNs += other.hostSolveNs;
    accumulate(seq, other.seq);
    accumulate(cache, other.cache);
    latency.merge(other.latency);
    queueWait.merge(other.queueWait);
    setup.merge(other.setup);
    solve.merge(other.solve);
}

double
MetricsSnapshot::hostLips(std::uint64_t wall_ns) const
{
    return wall_ns == 0
        ? 0.0
        : static_cast<double>(total.inferences) * 1e9 /
              static_cast<double>(wall_ns);
}

namespace {

std::string
ms(std::uint64_t ns, int prec = 2)
{
    return stats::fixed(static_cast<double>(ns) / 1e6, prec);
}

} // namespace

Table
MetricsSnapshot::table(std::uint64_t wall_ns) const
{
    Table t("psid service metrics");
    t.setHeader({"metric", "value"});
    auto row = [&t](const std::string &k, const std::string &v) {
        t.addRow({k, v});
    };

    row("workers", std::to_string(workers));
    row("jobs submitted", std::to_string(submitted));
    row("jobs completed", std::to_string(total.completed));
    row("  fidelity mode", std::to_string(total.jobsFidelity));
    row("  fast mode", std::to_string(total.jobsFast));
    row("jobs succeeded", std::to_string(total.succeeded));
    row("jobs timed out", std::to_string(total.timedOut));
    row("  expired in queue", std::to_string(total.expiredInQueue));
    row("jobs step-limited", std::to_string(total.stepLimited));
    row("jobs errored", std::to_string(total.errored));
    row("jobs rejected", std::to_string(rejected));
    row("queue depth", std::to_string(queueDepth));
    row("queue depth peak", std::to_string(peakQueueDepth));
    t.addSeparator();
    row("inferences", std::to_string(total.inferences));
    row("index hits", std::to_string(total.indexHits));
    row("index fallbacks", std::to_string(total.indexFallbacks));
    row("fast image installs", std::to_string(total.fastImageInstalls));
    row("fast query compiles", std::to_string(total.fastQueryCompiles));
    row("fast query reuses", std::to_string(total.fastQueryReuses));
    row("microsteps", std::to_string(total.steps()));
    row("model time ms", ms(total.modelNs));
    row("memory stall ms", ms(total.stallNs));
    row("host exec ms", ms(total.hostExecNs));
    row("  setup ms", ms(total.hostSetupNs));
    row("  solve ms", ms(total.hostSolveNs));
    row("cache hit %",
        stats::fixed(total.cache.totalHitPct(), 1));
    row("program cache hits", std::to_string(programCacheHits));
    row("program cache misses", std::to_string(programCacheMisses));
    row("program cache entries", std::to_string(programCacheEntries));
    t.addSeparator();
    sched.tableRows(t);
    if (netConnsAccepted != 0 || netConnsDropped != 0 ||
        netBadFrames != 0 || netDecodeErrors != 0 ||
        netVersionRejects != 0) {
        t.addSeparator();
        row("net conns accepted", std::to_string(netConnsAccepted));
        row("net conns dropped", std::to_string(netConnsDropped));
        row("net bad frames", std::to_string(netBadFrames));
        row("net decode errors", std::to_string(netDecodeErrors));
        row("net version rejects", std::to_string(netVersionRejects));
    }
    t.addSeparator();
    row("latency p50 ms", ms(total.latency.quantileNs(0.50)));
    row("latency p95 ms", ms(total.latency.quantileNs(0.95)));
    row("latency p99 ms", ms(total.latency.quantileNs(0.99)));
    row("latency max ms", ms(total.latency.maxNs()));
    row("queue wait p50 ms", ms(total.queueWait.quantileNs(0.50)));
    if (wall_ns != 0) {
        t.addSeparator();
        row("wall time ms", ms(wall_ns));
        row("aggregate LIPS", stats::fixed(hostLips(wall_ns), 0));
    }
    return t;
}

std::string
MetricsSnapshot::json(std::uint64_t wall_ns) const
{
    JsonWriter w;
    w.u("workers", workers);
    w.u("submitted", submitted);
    w.u("completed", total.completed);
    w.u("completed_fidelity", total.jobsFidelity);
    w.u("completed_fast", total.jobsFast);
    w.u("succeeded", total.succeeded);
    w.u("timed_out", total.timedOut);
    w.u("expired_in_queue", total.expiredInQueue);
    w.u("step_limited", total.stepLimited);
    w.u("errored", total.errored);
    w.u("rejected", rejected);
    w.u("queue_depth", queueDepth);
    w.u("peak_queue_depth", peakQueueDepth);
    w.u("inferences", total.inferences);
    w.u("index_hits", total.indexHits);
    w.u("index_fallbacks", total.indexFallbacks);
    w.u("fast_image_installs", total.fastImageInstalls);
    w.u("fast_query_compiles", total.fastQueryCompiles);
    w.u("fast_query_reuses", total.fastQueryReuses);
    w.u("microsteps", total.steps());
    w.u("model_ns", total.modelNs);
    w.u("stall_ns", total.stallNs);
    w.u("host_exec_ns", total.hostExecNs);
    w.u("host_setup_ns", total.hostSetupNs);
    w.u("host_solve_ns", total.hostSolveNs);
    w.num("cache_hit_pct",
          stats::fixed(total.cache.totalHitPct(), 3));
    w.u("program_cache_hits", programCacheHits);
    w.u("program_cache_misses", programCacheMisses);
    w.u("program_cache_entries", programCacheEntries);
    sched.json(w);
    w.u("net_conns_accepted", netConnsAccepted);
    w.u("net_conns_dropped", netConnsDropped);
    w.u("net_bad_frames", netBadFrames);
    w.u("net_decode_errors", netDecodeErrors);
    w.u("net_version_rejects", netVersionRejects);
    w.u("latency_p50_ns", total.latency.quantileNs(0.50));
    w.u("latency_p95_ns", total.latency.quantileNs(0.95));
    w.u("latency_p99_ns", total.latency.quantileNs(0.99));
    w.u("latency_min_ns", total.latency.minNs());
    w.u("latency_max_ns", total.latency.maxNs());
    w.num("latency_mean_ns",
          stats::fixed(total.latency.meanNs(), 0));
    w.u("queue_wait_p50_ns", total.queueWait.quantileNs(0.50));
    w.u("queue_wait_p99_ns", total.queueWait.quantileNs(0.99));
    if (wall_ns != 0) {
        w.u("wall_ns", wall_ns);
        w.num("aggregate_lips", stats::fixed(hostLips(wall_ns), 1));
    }
    return w.str();
}

namespace {

/** Format @p ns as fractional seconds (Prometheus base unit). */
std::string
secs(std::uint64_t ns)
{
    return stats::fixed(static_cast<double>(ns) / 1e9, 9);
}

} // namespace

std::string
MetricsSnapshot::prometheus(std::uint64_t wall_ns) const
{
    std::ostringstream os;
    auto counter = [&os](const char *name, std::uint64_t v) {
        os << "# TYPE " << name << " counter\n"
           << name << ' ' << v << '\n';
    };
    auto gauge = [&os](const char *name, const std::string &v) {
        os << "# TYPE " << name << " gauge\n"
           << name << ' ' << v << '\n';
    };
    auto seconds = [&os](const char *name, std::uint64_t ns) {
        os << "# TYPE " << name << " counter\n"
           << name << ' ' << secs(ns) << '\n';
    };

    gauge("psi_workers", std::to_string(workers));
    counter("psi_jobs_submitted_total", submitted);
    counter("psi_jobs_completed_total", total.completed);
    os << "# TYPE psi_jobs_mode_total counter\n"
       << "psi_jobs_mode_total{mode=\"fidelity\"} "
       << total.jobsFidelity << '\n'
       << "psi_jobs_mode_total{mode=\"fast\"} " << total.jobsFast
       << '\n';
    counter("psi_jobs_succeeded_total", total.succeeded);
    counter("psi_jobs_timed_out_total", total.timedOut);
    counter("psi_jobs_expired_in_queue_total", total.expiredInQueue);
    counter("psi_jobs_step_limited_total", total.stepLimited);
    counter("psi_jobs_errored_total", total.errored);
    counter("psi_jobs_rejected_total", rejected);
    gauge("psi_queue_depth", std::to_string(queueDepth));
    gauge("psi_queue_depth_peak", std::to_string(peakQueueDepth));

    counter("psi_inferences_total", total.inferences);
    counter("psi_index_hits_total", total.indexHits);
    counter("psi_index_fallbacks_total", total.indexFallbacks);
    counter("psi_fast_image_installs_total", total.fastImageInstalls);
    counter("psi_fast_query_compiles_total", total.fastQueryCompiles);
    counter("psi_fast_query_reuses_total", total.fastQueryReuses);
    counter("psi_microsteps_total", total.steps());
    seconds("psi_model_seconds_total", total.modelNs);
    seconds("psi_stall_seconds_total", total.stallNs);
    seconds("psi_host_exec_seconds_total", total.hostExecNs);
    seconds("psi_host_setup_seconds_total", total.hostSetupNs);
    seconds("psi_host_solve_seconds_total", total.hostSolveNs);

    // Per-stage duration summaries; "request" is the whole
    // submit-to-completion latency the clients observe.
    os << "# TYPE psi_request_stage_seconds summary\n";
    auto summary = [&os](const char *stage,
                         const LatencyHistogram &h) {
        static const std::pair<const char *, double> kQs[] = {
            {"0.5", 0.5}, {"0.95", 0.95}, {"0.99", 0.99}};
        for (const auto &[label, q] : kQs) {
            os << "psi_request_stage_seconds{stage=\"" << stage
               << "\",quantile=\"" << label << "\"} "
               << secs(h.quantileNs(q)) << '\n';
        }
        os << "psi_request_stage_seconds_sum{stage=\"" << stage
           << "\"} " << secs(h.sumNs()) << '\n'
           << "psi_request_stage_seconds_count{stage=\"" << stage
           << "\"} " << h.count() << '\n';
    };
    summary("queue", total.queueWait);
    summary("setup", total.setup);
    summary("solve", total.solve);
    summary("request", total.latency);

    // Firmware module steps (paper Table 2).
    os << "# TYPE psi_firmware_module_steps_total counter\n";
    for (int m = 0; m < micro::kNumModules; ++m) {
        os << "psi_firmware_module_steps_total{module=\""
           << micro::moduleName(static_cast<micro::Module>(m))
           << "\"} " << total.seq.moduleSteps[m] << '\n';
    }

    // Steps per cache command (paper Table 3).
    os << "# TYPE psi_cache_command_steps_total counter\n";
    for (int c = 0; c < kNumCacheCmds; ++c) {
        os << "psi_cache_command_steps_total{cmd=\""
           << cacheCmdName(static_cast<CacheCmd>(c)) << "\"} "
           << total.seq.cacheSteps[c] << '\n';
    }

    // Cache accesses / hits per area and command (Tables 4-5).
    os << "# TYPE psi_cache_accesses_total counter\n";
    for (int a = 0; a < kNumAreas; ++a) {
        for (int c = 0; c < kNumCacheCmds; ++c) {
            os << "psi_cache_accesses_total{area=\""
               << areaName(static_cast<Area>(a)) << "\",cmd=\""
               << cacheCmdName(static_cast<CacheCmd>(c)) << "\"} "
               << total.cache.accesses[a][c] << '\n';
        }
    }
    os << "# TYPE psi_cache_hits_total counter\n";
    for (int a = 0; a < kNumAreas; ++a) {
        for (int c = 0; c < kNumCacheCmds; ++c) {
            os << "psi_cache_hits_total{area=\""
               << areaName(static_cast<Area>(a)) << "\",cmd=\""
               << cacheCmdName(static_cast<CacheCmd>(c)) << "\"} "
               << total.cache.hits[a][c] << '\n';
        }
    }
    counter("psi_cache_read_ins_total", total.cache.readIns);
    counter("psi_cache_write_backs_total", total.cache.writeBacks);
    counter("psi_cache_stack_allocs_total", total.cache.stackAllocs);
    counter("psi_cache_through_writes_total",
            total.cache.throughWrites);
    gauge("psi_cache_hit_ratio",
          stats::fixed(total.cache.totalHitPct() / 100.0, 6));

    counter("psi_program_cache_hits_total", programCacheHits);
    counter("psi_program_cache_misses_total", programCacheMisses);
    gauge("psi_program_cache_entries",
          std::to_string(programCacheEntries));

    os << sched.prometheus();

    counter("psi_net_conns_accepted_total", netConnsAccepted);
    counter("psi_net_conns_dropped_total", netConnsDropped);
    counter("psi_net_bad_frames_total", netBadFrames);
    counter("psi_net_decode_errors_total", netDecodeErrors);
    counter("psi_net_version_rejects_total", netVersionRejects);

    if (wall_ns != 0) {
        gauge("psi_wall_seconds", secs(wall_ns));
        gauge("psi_aggregate_lips",
              stats::fixed(hostLips(wall_ns), 1));
    }
    return os.str();
}

} // namespace service
} // namespace psi
