/**
 * @file
 * Operational gauges of the hunting service, rendered into the
 * `service` object of txrace-progress-v1 heartbeats.
 *
 * Counters only — everything here is an execution fact (like pool
 * worker lanes or steals) and never feeds the deterministic report.
 * Wall-clock derived rates live here too, which is fine for the
 * heartbeat side channel: the record COUNT stays config-determined,
 * the contents reflect live operation.
 */

#ifndef TXRACE_TELEMETRY_SERVICESTATS_HH
#define TXRACE_TELEMETRY_SERVICESTATS_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace txrace::telemetry {

struct ServiceStats
{
    uint64_t jobsIngested = 0;      ///< outcomes folded
    uint64_t duplicatesSkipped = 0; ///< seen-set hits (resume overlap)
    uint64_t jobsRefused = 0;       ///< stream records ingest refused
    uint64_t batches = 0;           ///< spool files / stdin batches
    uint64_t checkpoints = 0;
    uint64_t checkpointLastMicros = 0;
    uint64_t checkpointMaxMicros = 0;
    uint64_t deltasEmitted = 0;     ///< incremental finding records
    uint64_t resumes = 0;           ///< checkpoints restored

    void
    noteCheckpoint(uint64_t micros)
    {
        ++checkpoints;
        checkpointLastMicros = micros;
        checkpointMaxMicros = std::max(checkpointMaxMicros, micros);
    }

    /**
     * Render as ordered (name, value) gauges for a ProgressRecord.
     * @p ingestPerSec is the jobs/s over the service's lifetime.
     */
    std::vector<std::pair<std::string, uint64_t>>
    gauges(uint64_t ingestPerSec) const;
};

} // namespace txrace::telemetry

#endif // TXRACE_TELEMETRY_SERVICESTATS_HH
