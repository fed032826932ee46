/**
 * @file
 * Human-readable rendering of race reports: the developer-facing
 * output a race detector ultimately exists for. Maps static
 * instruction ids back to their source tags and access kinds. The
 * run's other views live here too: the forensics captures
 * (`--explain`) and the two renderings of the event timeline
 * (`--trace`, `--trace-json`).
 */

#ifndef TXRACE_CORE_REPORT_FORMAT_HH
#define TXRACE_CORE_REPORT_FORMAT_HH

#include <ostream>
#include <string>

#include "core/driver.hh"
#include "core/repro.hh"
#include "detector/report.hh"
#include "fault/fault.hh"
#include "ir/program.hh"
#include "telemetry/flightrec.hh"

namespace txrace::core {

/** One race as a multi-line, ThreadSanitizer-flavoured report. */
std::string formatRace(const ir::Program &prog,
                       const detector::Race &race);

/**
 * Write a full report for @p result to @p os: a summary line, then
 * every distinct race with its fingerprint, instruction pair, tags,
 * access kinds, first-seen address, and dynamic hit count. Races are
 * ordered by fingerprint, so the report is byte-stable across any
 * two runs that find the same races. Given @p identity, each race
 * also gets its copy-paste reproduction command and @p configDigest.
 */
void printRaceReport(const ir::Program &prog, const RunResult &result,
                     std::ostream &os,
                     const RunIdentity *identity = nullptr,
                     uint64_t configDigest = 0);

/**
 * Render the run's forensics captures (txrace_run --explain): per
 * capture the racing site pair, the last-writer chain on the racing
 * granule, and each involved thread's recent flight window with its
 * read/write footprint and governor/budget state. Prints a short
 * notice when the run carried no captures (recorder off or nothing
 * triggered).
 */
void printForensics(const ir::Program &prog, const RunResult &result,
                    std::ostream &os);

/**
 * Render @p rec's timeline as the `--trace` text view: one
 * "[step] tN kind: detail" line per event this view shows, at most
 * @p limit (0 = all) then a "... (N more)" count, then a marker naming
 * where recording stopped if the timeline hit its cap. Fault edges
 * name their episode by its index in @p faults.
 */
void printTimeline(const telemetry::FlightRecorder &rec,
                   const fault::FaultPlan &faults, std::ostream &os,
                   size_t limit = 0);

/**
 * Render @p rec's timeline as a Chrome trace-event JSON array (steps
 * are microseconds): thread-name metadata, transactions and slow-path
 * episodes as complete ("X") spans emitted at their close, and aborts,
 * loop cuts, TxFail writes and fault edges as instant ("i") events.
 * Spans still open at @p final_step close there as "run-end". Returns
 * the number of events written, metadata excluded.
 */
uint64_t writeChromeTrace(const telemetry::FlightRecorder &rec,
                          const fault::FaultPlan &faults,
                          uint64_t final_step, std::ostream &os);

} // namespace txrace::core

#endif // TXRACE_CORE_REPORT_FORMAT_HH
