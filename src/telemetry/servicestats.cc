#include "telemetry/servicestats.hh"

namespace txrace::telemetry {

std::vector<std::pair<std::string, uint64_t>>
ServiceStats::gauges(uint64_t ingestPerSec) const
{
    return {
        {"jobs_ingested", jobsIngested},
        {"duplicates_skipped", duplicatesSkipped},
        {"batches", batches},
        {"ingest_per_sec", ingestPerSec},
        {"checkpoints", checkpoints},
        {"checkpoint_last_us", checkpointLastMicros},
        {"checkpoint_max_us", checkpointMaxMicros},
        {"deltas_emitted", deltasEmitted},
        {"resumes", resumes},
        {"jobs_refused", jobsRefused},
    };
}

} // namespace txrace::telemetry
