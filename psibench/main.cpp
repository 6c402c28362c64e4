/**
 * @file
 * psibench entry point.
 *
 *   psibench --workload <paper_suite|serve_small|serve_mixed>
 *            --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
 *
 * Prints human-readable lines, then one JSON object as the last line
 * of stdout: {"correct", "attempted", "failed", "metrics"}.  With
 * --trace 0 the metrics are the end-to-end set; with --trace 1 the
 * run is split into an untraced and a traced half, and the metrics
 * are the per-layer set (spans are written to <out-dir> at exit).
 * Exits 1 when any answer is wrong or any request failed.
 */

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

namespace psibench {

const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> m = {
        {"kl0.compile_us", "us"},
        {"kl0.parse_query_us", "us"},
        {"kl0.image_words", "count"},
        {"interp.steps", "count"},
        {"interp.model_time_ms", "ms"},
        {"interp.load_us", "us"},
        {"interp.solve_us", "us"},
        {"fast.load_us", "us"},
        {"fast.load_after_big_us", "us"},
        {"fast.solve_us", "us"},
        {"fast.clause_tries", "count"},
        {"fast.index_hits", "count"},
        {"fast.index_fallbacks", "count"},
        {"service.queue_us", "us"},
        {"service.setup_us", "us"},
        {"service.solve_us", "us"},
        {"service.cache_hit_ratio", "ratio"},
        {"sched.affinity_hit_ratio", "ratio"},
        {"sched.aged_dispatches", "count"},
        {"sched.quota_rejects", "count"},
        {"net.overhead_us", "us"},
        {"net.overloaded", "count"},
        {"router.overhead_us", "us"},
        {"router.affinity_hit_ratio", "ratio"},
        {"router.retries", "count"},
        {"latency_p50_ms", "ms"},
        {"latency_p99_ms", "ms"},
        {"light_p99_ms", "ms"},
        {"gen.late_p99_us", "us"},
        {"trace.overhead_us", "us"},
    };
    return m;
}

namespace {

const std::vector<std::pair<std::string, std::string>> &
endToEndMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> m = {
        {"setup_s", "s"},
        {"lips_fast", "1/s"},
        {"lips_fidelity", "1/s"},
        {"goodput_rps", "1/s"},
        {"cpu_per_request_us", "us"},
        {"peak_rss_mb", "MiB"},
    };
    return m;
}

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "psibench: " << why
              << "\nusage: psibench --workload "
                 "<paper_suite|serve_small|serve_mixed> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + a);
        const std::string v = argv[++i];
        try {
            if (a == "--workload") {
                opt.workload = v;
                haveWorkload = true;
            } else if (a == "--seed") {
                opt.seed = std::stoull(v);
            } else if (a == "--seconds") {
                opt.seconds = std::stod(v);
            } else if (a == "--trace") {
                if (v != "0" && v != "1")
                    usage("--trace takes 0 or 1");
                opt.trace = v == "1";
            } else if (a == "--out-dir") {
                opt.outDir = v;
            } else {
                usage("unknown argument " + a);
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + a + ": " + v);
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    if (!(opt.seconds >= 1.0 && opt.seconds <= 120.0))
        usage("--seconds must be between 1 and 120");
    return opt;
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

} // namespace psibench

int
main(int argc, char **argv)
{
    using namespace psibench;
    const Options opt = parseArgs(argc, argv);
    // Pin glibc's mmap threshold.  The engines' 128 KiB pages sit right
    // at the default, and the first free of one raises it, so after the
    // repeated set-ups every later page would come from the heap and
    // the peak RSS would depend on allocation order, not on memory use.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    Report r;
    const CpuTicks ticks0 = CpuTicks::now();
    stealMonitor(); // start sampling before any window opens
    try {
        if (opt.workload == "paper_suite")
            runPaperSuite(opt, r);
        else if (opt.workload == "serve_small")
            runServeSmall(opt, r);
        else if (opt.workload == "serve_mixed")
            runServeMixed(opt, r);
        else
            usage("unknown workload " + opt.workload);
    } catch (const std::exception &e) {
        std::cerr << "psibench: " << e.what() << '\n';
        return 1;
    }
    r.set("peak_rss_mb", peakRssMb(), "MiB");
    note("host steal " + fmt(100.0 * CpuTicks::now().stealShareSince(ticks0), 1) +
         "% of busy CPU time (a shared VM's main source of run-to-run noise)");

    const double errorRate =
        r.attempted == 0 ? 1.0
                         : static_cast<double>(r.failed) /
                               static_cast<double>(r.attempted);
    note("error_rate " + fmt(errorRate, 6) + " (" + std::to_string(r.failed) +
         " failed of " + std::to_string(r.attempted) + " attempted, " +
         std::to_string(r.wrongAnswers) + " wrong answers; every answer " +
         "checked against pins confirmed by the WAM baseline on " +
         std::to_string(baselineChecked()) + " programs)");

    const auto &names = opt.trace ? perLayerMetrics() : endToEndMetrics();
    if (opt.trace) {
        for (const auto &[name, stat] : tracer().selfTimes())
            note("self time " + name + ": " + fmt(stat.first / 1e3, 1) +
                 " us over " + std::to_string(stat.second) + " spans");
        if (!opt.outDir.empty()) {
            const std::string path = opt.outDir + "/psibench-trace-" +
                                     opt.workload + "-" +
                                     std::to_string(opt.seed) + ".json";
            if (tracer().writeChromeJson(path))
                note("spans written to " + path);
            else
                std::cerr << "psibench: could not write " << path << '\n';
        }
    }
    for (const auto &m : r.metrics)
        note(m.name + " " + jsonNumber(m.value) + " " + m.unit);

    std::string json = "{\"correct\": ";
    json += r.correct() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(r.attempted);
    json += ", \"failed\": " + std::to_string(r.failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, unit] : names) {
        json += first ? "" : ", ";
        first = false;
        json += "\"" + name + "\": {\"value\": " + jsonNumber(r.get(name)) +
                ", \"unit\": \"" + unit + "\"}";
    }
    json += "}}";
    std::cout << json << std::endl;
    return r.correct() ? 0 : 1;
}
