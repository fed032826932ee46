/**
 * @file
 * The telemetry bundle a Machine owns and a RunResult carries out:
 * typed metrics registry, phase profiler, conflict-attribution map,
 * the event stream (flight recorder) with its drained forensics
 * captures, and per-site abort/slow-path statistics. One
 * instance per run; the driver moves it from the machine into the
 * RunResult so exporters (metrics JSON, Chrome trace, forensics,
 * profiles) can read it after the machine is gone.
 */

#ifndef TXRACE_TELEMETRY_TELEMETRY_HH
#define TXRACE_TELEMETRY_TELEMETRY_HH

#include <cstdint>
#include <map>
#include <vector>

#include "telemetry/conflictmap.hh"
#include "telemetry/flightrec.hh"
#include "telemetry/phase.hh"
#include "telemetry/registry.hh"

namespace txrace::telemetry {

/** Per-static-site counters feeding the persistent profile. */
struct SiteStats
{
    uint64_t conflictAborts = 0;
    uint64_t capacityAborts = 0;
    uint64_t otherAborts = 0;
    uint64_t slowChecks = 0;
    uint64_t slowCost = 0;
    /** Winner replays triggered at this site (requester side). */
    uint64_t windowReplays = 0;
};

/** Ordered map: deterministic iteration for exporters. */
using SiteStatsMap = std::map<uint32_t, SiteStats>;

struct Telemetry
{
    /** Captures retained per run; later triggers are dropped (the
     *  first few are the interesting ones, and the cap bounds both
     *  report size and capture cost on pathological workloads — each
     *  capture drains and sorts the involved threads' windows, which
     *  is the flight recorder's dominant cost on very racy runs). */
    static constexpr size_t kMaxForensics = 8;

    MetricRegistry registry;
    PhaseProfiler phases;
    ConflictMap conflicts;
    FlightRecorder flight;
    std::vector<ForensicsCapture> forensics;
    SiteStatsMap siteStats;
};

} // namespace txrace::telemetry

#endif // TXRACE_TELEMETRY_TELEMETRY_HH
