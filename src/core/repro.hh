/**
 * @file
 * Exact-reproduction metadata for race findings.
 *
 * Every run of the simulator is a pure function of (program, config,
 * seed), so any finding can be replayed exactly by re-issuing the
 * command line that produced it — the property "Efficient
 * Deterministic Replay Using Complete Race Detection" argues every
 * production detector should ship with its reports. This module
 * renders that command line (`reproCommand`) and condenses the parts
 * of a RunConfig the CLI cannot express into a 64-bit digest
 * (`configDigest`) so a replayed run can assert it really is the
 * same configuration.
 */

#ifndef TXRACE_CORE_REPRO_HH
#define TXRACE_CORE_REPRO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/driver.hh"

namespace txrace::core {

/** How a CLI run names its program. */
enum class RunTarget : uint8_t { App, Pattern, ProgramFile };

/** Everything needed to rebuild a txrace_run command line. */
struct RunIdentity
{
    RunTarget target = RunTarget::App;
    /** App/pattern name or program file path. */
    std::string name;
    /** CLI mode token (txrace, txrace-dyn, tsan, ...). */
    std::string mode = "txrace";
    uint32_t workers = 4;
    uint64_t scale = 1;
    uint64_t seed = 1;
    /** Fault scenario ("" = none) and its horizon. */
    std::string fault;
    uint64_t faultHorizon = 0;
    bool governor = false;
    /** Monitor mode (overhead budget); renders --monitor and, when
     *  != 5.0, --budget-pct. */
    bool monitor = false;
    double budgetPct = 5.0;
    /** Whether the static access-elision passes were on; false
     *  renders --no-elide. */
    bool elide = true;
    /** Multiplier on the app's interrupt rate (campaign perturbation
     *  variants; 1.0 = untouched). */
    double irqScale = 1.0;
    /** Whether the app model ran TSan-cost calibration (campaigns
     *  skip it; affects checkScale and hence schedules). */
    bool calibrated = true;
};

/** CLI mode token for @p mode (inverse of parseModeFlag). */
const char *cliModeName(RunMode mode);

/** Inverse of cliModeName; false (out untouched) on unknown tokens. */
bool cliModeFromName(const std::string &name, RunMode &out);

/** Inverse of slowPathKindName; false on unknown tokens. */
bool slowPathKindFromName(const std::string &name, SlowPathKind &out);

/**
 * Order-sensitive digest of every behaviour-affecting RunConfig
 * field: mode, sampling, machine knobs (seed included), HTM
 * geometry, pass config, governor, and the full fault plan.
 * Identical digests <=> runs replay identically.
 */
uint64_t configDigest(const RunConfig &cfg);

/**
 * One-line exact reproduction command, e.g.
 *   txrace_run --app vips --mode txrace --workers 4 --seed 3
 * Default-valued options are included so the line is self-contained.
 */
std::string reproCommand(const RunIdentity &id);

/** Parse all of @p text as option @p flag's decimal value within
 *  [@p min, @p max]; fatal()s naming the flag on junk or a sign. */
uint64_t parseUnsignedFlag(const char *flag, const std::string &text,
                           uint64_t min = 0,
                           uint64_t max = UINT64_MAX);

/** Parse option --mode's token: a cliModeName, or the txrace-prof
 *  alias of txrace; fatal()s listing the modes on anything else. */
RunMode parseModeFlag(const std::string &text);

/** As parseUnsignedFlag, for a finite floating-point value. */
double parseDoubleFlag(const char *flag, const std::string &text);

/** Parse a comma-separated seed list ("1,2,9"); fatal()s on junk. */
std::vector<uint64_t> parseSeedList(const std::string &list);

} // namespace txrace::core

#endif // TXRACE_CORE_REPRO_HH
