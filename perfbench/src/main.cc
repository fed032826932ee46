/**
 * @file
 * The repository benchmark's entry point.
 *
 *   perfbench --workload table1|hunt|monitor-stream --seed N
 *             --seconds S --trace 0|1 [--trace-dir DIR]
 *
 * Prints a human-readable block (header, metrics with units, the
 * simulated-output digest, failures) and, as the last line, one JSON
 * object: {"correct", "attempted", "failed", "metrics"}. With
 * --trace 0 the metrics are the gated end-to-end set, measured with
 * tracing off; with --trace 1 they are the per-layer set from a
 * separate traced run, whose spans go to DIR when given.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hh"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "table1|hunt|monitor-stream --seed N --seconds S "
                 "--trace 0|1 [--trace-dir DIR]\n",
                 why);
    std::exit(2);
}

uint64_t
parseU64(const char *flag, const char *text)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (!*text || *end || text[0] == '-')
        usage((std::string(flag) + " needs a non-negative integer").c_str());
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage((flag + " needs a value").c_str());
        const char *value = argv[++i];
        if (flag == "--workload") {
            args.workload = value;
            haveWorkload = true;
        } else if (flag == "--seed") {
            args.seed = parseU64("--seed", value);
        } else if (flag == "--seconds") {
            uint64_t s = parseU64("--seconds", value);
            if (s < 1 || s > 60)
                usage("--seconds must be 1..60");
            args.seconds = double(s);
        } else if (flag == "--trace") {
            uint64_t t = parseU64("--trace", value);
            if (t > 1)
                usage("--trace must be 0 or 1");
            args.trace = t == 1;
        } else if (flag == "--trace-dir") {
            args.traceDir = value;
        } else {
            usage(("unknown option " + flag).c_str());
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    return args;
}

/** Every digit a double carries; JSON has no NaN or infinity. */
std::string
number(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
printMetrics(const char *title, const std::vector<Metric> &metrics)
{
    std::printf("%s\n", title);
    for (const Metric &m : metrics)
        std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    Tracer tracer(args.trace);
    Report report;
    if (args.workload == "table1")
        report = runTable1(args, tracer);
    else if (args.workload == "hunt")
        report = runHunt(args, tracer);
    else if (args.workload == "monitor-stream")
        report = runMonitorStream(args, tracer);
    else
        usage(("unknown workload " + args.workload).c_str());

    if (tracer.enabled() && !args.traceDir.empty()) {
        std::string path = args.traceDir + "/trace-" + args.workload +
                           "-seed" + std::to_string(args.seed) + ".json";
        if (!tracer.writeChromeTrace(path))
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         path.c_str());
        else
            std::printf("spans written to %s\n", path.c_str());
    }

    const std::vector<Metric> &gated =
        args.trace ? report.perLayer : report.endToEnd;
    std::printf("%s\n", report.header.c_str());
    printMetrics(args.trace ? "per-layer metrics (traced run):"
                            : "end-to-end metrics (untraced run):",
                 gated);
    printMetrics("also reported (not gated):", report.info);
    std::printf("simulated-output digest: %016llx\n",
                (unsigned long long)report.digest);
    std::printf("runs checked: %llu, failed: %llu\n",
                (unsigned long long)report.attempted,
                (unsigned long long)report.failed);
    for (const std::string &why : report.failures)
        std::printf("  FAILED %s\n", why.c_str());

    std::string json = std::string("{\"correct\": ") +
                       (report.correct ? "true" : "false") +
                       ", \"attempted\": " +
                       std::to_string(report.attempted) +
                       ", \"failed\": " + std::to_string(report.failed) +
                       ", \"metrics\": {";
    for (size_t i = 0; i < gated.size(); ++i) {
        const Metric &m = gated[i];
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
                number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
