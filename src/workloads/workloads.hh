/**
 * @file
 * Synthetic models of the paper's evaluation workloads: the 13
 * PARSEC applications (simlarge) plus the Apache web server.
 *
 * The real applications cannot run on this substrate, so each is
 * replaced by a parameterized mini-IR program tuned to reproduce the
 * *characteristics that drive TxRace's behaviour* (see Table 1 of the
 * paper and DESIGN.md): transaction volume, conflict/capacity/unknown
 * abort propensity, system-call density, shared-memory access
 * density, synchronization structure, and — most importantly — the
 * planted data races, including the initialization-idiom races that
 * TxRace misses in bodytrack/facesim and the schedule-sensitive race
 * population of vips (§8.3).
 *
 * The per-application TSan check-cost multiplier (checkScale) is
 * *calibrated* so the TSan baseline's overhead approximates the
 * paper's measured column; everything TxRace-related is then a
 * genuine measurement on top of that calibrated substrate.
 */

#ifndef TXRACE_WORKLOADS_WORKLOADS_HH
#define TXRACE_WORKLOADS_WORKLOADS_HH

#include <string>
#include <vector>

#include "core/repro.hh"
#include "ir/program.hh"
#include "sim/machine.hh"

namespace txrace::workloads {

/** Build-time workload parameters. */
struct WorkloadParams
{
    /** Worker thread count (the paper evaluates 2/4/8; default 4). */
    uint32_t nWorkers = 4;
    /** Work multiplier for longer runs (1 = default benchmark size). */
    uint64_t scale = 1;
    /** Run the TSan-overhead calibration: a schedule-free tally of
     *  the TSan build's op streams (sim::tallyProgram) that counts
     *  its work, checks and sync events; no machine runs. */
    bool calibrate = true;
};

/**
 * Ground-truth annotation of one planted race: the source tags of
 * the two racy static instructions (equal tags for a self-race).
 * Tags — not InstrIds — because instruction numbering changes with
 * the instrumentation variant while tags survive every pass; the
 * canonical matching key is core::raceLabelKey(a, b), which equals
 * RaceSig::label of a detected race at the same pair.
 */
struct RaceLabel
{
    std::string a;
    std::string b;
    /** Initialization-idiom race (§8.3): happens-before detectors
     *  report it, overlap-based detection is expected to miss it. */
    bool initIdiom = false;
};

/** The paper's published per-application results (Table 1 / 2). */
struct PaperRow
{
    double tsanOverhead = 0.0;
    double txraceOverhead = 0.0;
    uint64_t tsanRaces = 0;
    uint64_t txraceRaces = 0;
};

/** A constructed application model, ready to run. */
struct AppModel
{
    std::string name;
    ir::Program program;
    /** Machine defaults: calibrated checkScale, app interrupt rate.
     *  Callers override the seed (and thread-count-dependent knobs). */
    sim::MachineConfig machine;
    /** Number of distinct static races planted in the program. */
    size_t plantedRaces = 0;
    /** Of those, how many are initialization-idiom races that a
     *  purely overlap-based detector is expected to miss. */
    size_t initIdiomRaces = 0;
    /** The paper's numbers, for side-by-side reporting. */
    PaperRow paper;
    /** Ground-truth race annotations; size() == plantedRaces and the
     *  initIdiom subset has size initIdiomRaces. Campaigns and tests
     *  score precision/recall against these. */
    std::vector<RaceLabel> groundTruth;
};

/** Ground-truth annotations for @p name without building the program
 *  (fatal()s on unknown names). makeApp() fills AppModel::groundTruth
 *  from the same table. */
std::vector<RaceLabel> groundTruthRaces(const std::string &name);

/** All application names, in the paper's Table 1 order. */
const std::vector<std::string> &appNames();

/** The most workers a workload program supports: past it, planted
 *  ground truth stops holding (extra races, then bad accesses). */
inline constexpr uint32_t kMaxWorkers = 8;

/** Why makeApp(@p name, @p params) cannot build, or no error when it
 *  can: an unknown name, fewer than two or more than kMaxWorkers
 *  workers, or a scale of 0. Front ends reach it through
 *  core::identityError(). */
core::IdentityError appParamsError(const std::string &name,
                                   const WorkloadParams &params);

/** Build one application model. fatal()s with appParamsError()'s
 *  reason on what it refuses. */
AppModel makeApp(const std::string &name,
                 const WorkloadParams &params = {});

} // namespace txrace::workloads

#endif // TXRACE_WORKLOADS_WORKLOADS_HH
