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
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/driver.hh"

namespace txrace::core {

/** How a CLI run names its program. */
enum class RunTarget : uint8_t { App, Pattern, ProgramFile };

/** Every behaviour-affecting choice a txrace_run command line can
 *  express: the one description of a run. */
struct RunIdentity
{
    RunTarget target = RunTarget::App;
    /** App/pattern name or program file path. */
    std::string name;
    RunMode mode = RunMode::TxRaceProfLoopcut;
    uint32_t workers = 4;
    uint64_t scale = 1;
    uint64_t seed = 1;
    /** Fraction of accesses TSanSampling checks (inert otherwise). */
    double sampleRate = 0.5;
    /** Fault scenario ("" = none) and its horizon. */
    std::string fault;
    uint64_t faultHorizon = 200'000;
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

    bool operator==(const RunIdentity &) const = default;
};

/** Why a run identity cannot run: the field at fault and the
 *  reason, which is empty when it can. */
struct IdentityError
{
    /** The field as a txrace_run flag ("--irq-scale"). */
    const char *flag = "";
    /** The field as a job-record key ("irq_scale") when the reason
     *  reads on from its name ("must not be negative"); null when the
     *  reason names the field ("need at least two workers"), so that
     *  a record gives the reason alone. */
    const char *key = nullptr;
    std::string reason;

    explicit operator bool() const { return !reason.empty(); }
    /** "--irq-scale must not be negative", "--workers: need at least
     *  two workers"; @p appFlag names the app (txrace_hunt: --apps). */
    std::string flagMessage(const char *appFlag = "--app") const;
};

/** Whether @p id can run: the one check of run values behind every
 *  front end (txrace_run, txrace_hunt, job records, bench harness).
 *  An app target must pass workloads::appParamsError() and a pattern
 *  target name a pattern; a monitor needs a TxRace mode and a positive
 *  budget; the interrupt scale must not be negative, the sample rate
 *  lie in [0, 1], the fault name a scenario and its horizon be
 *  nonzero. */
IdentityError identityError(const RunIdentity &id);

/** The RunConfig a run of @p id, which must pass identityError(),
 *  executes on machine @p base (the app's, or the default for
 *  patterns and program files). */
RunConfig runConfigFor(const RunIdentity &id,
                       const sim::MachineConfig &base);

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
 * Default-valued options are included so the line is self-contained;
 * doubles print in the shortest form that parses back equal.
 */
std::string reproCommand(const RunIdentity &id);

/** The value of option @p flag at args[@p i], spelled `--flag value`
 *  (advancing @p i past the value) or `--flag=value`; nullptr when
 *  args[i] is another argument. fatal()s on a missing value. */
const char *flagValue(const std::vector<std::string> &args, size_t &i,
                      const char *flag);

/** Parse txrace_run's command line @p args (args[0] is the program)
 *  into the identity it runs, the inverse of reproCommand. Other
 *  arguments go to @p other, which advances the index past any value
 *  and returns false on an unknown one (fatal). The name is empty if
 *  no target came; fatal()s on bad values, conflicting flags and a
 *  targeted identity that identityError() refuses. */
RunIdentity parseRunCommand(const std::vector<std::string> &args,
                            const std::function<bool(size_t &)> &other);

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

/** The entries of comma-separated @p list, empty ones included. */
std::vector<std::string> splitCommas(const std::string &list);

/** Parse a comma-separated seed list ("1,2,9"); fatal()s on junk. */
std::vector<uint64_t> parseSeedList(const std::string &list);

/** A front end's output stream for @p path: "-" means stdout,
 *  anything else opens @p file for writing (fatal on failure). */
std::ostream &openOut(const std::string &path, std::ofstream &file);

} // namespace txrace::core

#endif // TXRACE_CORE_REPRO_HH
