/**
 * @file
 * Campaign front end: hunt races across a matrix of
 * (workload x seed x config-variant) runs on a worker fleet, then
 * print the deduplicated scoreboard and write the deterministic
 * txrace-campaign-v1 report.
 *
 *   txrace_hunt --apps vips,x264 --seeds 8 --jobs 4 --out campaign.json
 *   txrace_hunt --apps all --strategy perturb --seeds 2
 */

#include <atomic>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "campaign/campaign.hh"
#include "campaign/strategy.hh"
#include "core/repro.hh"
#include "service/checkpoint.hh"
#include "service/service.hh"
#include "service/store.hh"
#include "support/log.hh"
#include "workloads/workloads.hh"

using namespace txrace;

namespace {

[[noreturn]] void
usage()
{
    std::cout <<
        "usage: txrace_hunt --apps A,B,...|all [options]\n\n"
        "options:\n"
        "  --seeds N        seed budget per app (default 4)\n"
        "  --jobs N         pool worker threads (default 4; never\n"
        "                   affects the report, only wall time)\n"
        "  --strategy S     sweep | abort-guided | perturb\n"
        "                   (default sweep)\n"
        "  --mode M         detection mode (default txrace-dyn)\n"
        "  --workers N      simulated threads per run (default 4)\n"
        "  --scale N        work multiplier per run (default 1)\n"
        "  --master-seed N  campaign master seed (default 1)\n"
        "  --out FILE       write the txrace-campaign-v1 JSON report\n"
        "  --profile-out FILE  write the fleet's txrace-profile-v1\n"
        "                   union (byte-identical across --jobs)\n"
        "  --progress-json FILE  stream NDJSON heartbeat records\n"
        "                   (txrace-progress-v1) while the fleet runs\n"
        "  --progress-every N  heartbeat cadence in completed jobs\n"
        "                   (default 8)\n"
        "  --trace-json FILE  write a Chrome trace-event timeline of\n"
        "                   per-job spans (worker lanes)\n"
        "  --quiet          no per-round progress chatter\n"
        "\n"
        "service mode (long-running, resumable; the flags below\n"
        "need --serve):\n"
        "  --serve          run as the hunting service: checkpoint to\n"
        "                   the state dir, fold idempotently, shut\n"
        "                   down cleanly on SIGTERM/SIGINT\n"
        "  --state-dir D    where checkpoint.json / findings.json /\n"
        "                   campaign.json live (required with --serve)\n"
        "  --resume         restore the state dir's checkpoint and\n"
        "                   continue; only unseen jobs run\n"
        "  --checkpoint-every N  checkpoint cadence in folded jobs\n"
        "                   (default 16; 0 = round barriers only)\n"
        "  --spool D        ingest NDJSON job-batch files from D in\n"
        "                   sorted-filename order instead of running\n"
        "                   the campaign strategy\n"
        "  --stdin-jobs     ingest blank-line-separated NDJSON job\n"
        "                   batches from stdin; with --resume, feed\n"
        "                   the whole stream again from its start\n"
        "  --follow         with --spool: keep polling for new batch\n"
        "                   files until SIGTERM\n"
        "\n"
        "store tools:\n"
        "  --merge F1,F2,.. union txrace-findings-v1 stores from the\n"
        "                   same campaign (commutative: any order\n"
        "                   yields identical bytes)\n"
        "  --findings-out FILE  where --merge writes the union\n"
        "                   (default '-')\n"
        "\n"
        "FILE may be '-' for stdout on any of the JSON exports.\n";
    std::exit(0);
}

/** The entries of comma-separated @p list; an empty entry is fatal. */
std::vector<std::string>
splitList(const char *flag, const std::string &list)
{
    std::vector<std::string> items = core::splitCommas(list);
    for (const std::string &item : items)
        if (item.empty())
            fatal("%s: empty entry in '%s'", flag, list.c_str());
    return items;
}

/** Raised by SIGTERM/SIGINT; the service polls it between folds. */
std::atomic<bool> g_stop{false};

extern "C" void
onStopSignal(int)
{
    g_stop.store(true, std::memory_order_relaxed);
}

/** `--merge F1,F2,...`: union findings stores, write, exit. */
int
mergeStores(const std::string &list, const std::string &out_path)
{
    std::vector<std::string> paths = splitList("--merge", list);
    if (paths.size() < 2)
        fatal("--merge needs at least two store files");
    service::FindingsStore total;
    std::string error;
    for (size_t i = 0; i < paths.size(); ++i) {
        std::string text;
        if (!service::readFile(paths[i], text, error))
            fatal("--merge: %s", error.c_str());
        service::FindingsStore store;
        if (!service::FindingsStore::parse(text, store, error))
            fatal("--merge: %s: %s", paths[i].c_str(), error.c_str());
        if (i == 0)
            total = std::move(store);
        else if (!total.merge(store, error))
            fatal("--merge: %s: %s", paths[i].c_str(), error.c_str());
    }
    std::ofstream file;
    std::ostream &out = core::openOut(out_path, file);
    total.write(out);
    if (out_path != "-")
        std::cout << "merged " << paths.size() << " store(s) into "
                  << out_path << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    campaign::CampaignConfig cfg;
    std::string apps_arg;
    std::string out_path;
    std::string profile_out_path;
    std::string progress_json_path;
    std::string trace_json_path;
    bool quiet = false;
    bool serve = false;
    bool resume = false;
    bool stdin_jobs = false;
    bool follow = false;
    uint64_t checkpoint_every = 16;
    std::string state_dir;
    std::string spool_dir;
    std::string merge_arg;
    std::string findings_out_path = "-";
    // A service-only flag, if any was given: without --serve it is
    // an error, not silently ignored.
    const char *serve_only = nullptr;
    const char *const serve_flags[] = {"--state-dir", "--resume",
                                       "--spool", "--stdin-jobs",
                                       "--follow", "--checkpoint-every"};

    for (int i = 1; i < argc; ++i) {
        for (const char *flag : serve_flags)
            if (std::strcmp(argv[i], flag) == 0)
                serve_only = flag;
        auto value = [&](const char *flag) -> const char * {
            if (std::strcmp(argv[i], flag) != 0)
                return nullptr;
            if (i + 1 >= argc)
                fatal("%s needs a value", flag);
            return argv[++i];
        };
        if (std::strcmp(argv[i], "--help") == 0) {
            usage();
        } else if (const char *v = value("--apps")) {
            apps_arg = v;
        } else if (const char *v1 = value("--seeds")) {
            cfg.seedsPerApp = core::parseUnsignedFlag("--seeds", v1, 1);
        } else if (const char *v2 = value("--jobs")) {
            cfg.jobs = static_cast<uint32_t>(
                core::parseUnsignedFlag("--jobs", v2, 1, UINT32_MAX));
        } else if (const char *v3 = value("--strategy")) {
            cfg.strategy = v3;
        } else if (const char *v4 = value("--mode")) {
            cfg.mode = core::parseModeFlag(v4);
        } else if (const char *v5 = value("--workers")) {
            cfg.workers = core::parseWorkersFlag(v5);
        } else if (const char *v6 = value("--scale")) {
            cfg.scale = core::parseUnsignedFlag("--scale", v6, 1);
        } else if (const char *v7 = value("--master-seed")) {
            cfg.masterSeed = core::parseUnsignedFlag("--master-seed", v7);
        } else if (const char *v8 = value("--out")) {
            out_path = v8;
        } else if (const char *v9 = value("--profile-out")) {
            profile_out_path = v9;
        } else if (const char *v10 = value("--progress-json")) {
            progress_json_path = v10;
        } else if (const char *v11 = value("--progress-every")) {
            cfg.progressEvery =
                core::parseUnsignedFlag("--progress-every", v11, 1);
        } else if (const char *v12 = value("--trace-json")) {
            trace_json_path = v12;
        } else if (const char *v13 = value("--state-dir")) {
            state_dir = v13;
        } else if (const char *v14 = value("--checkpoint-every")) {
            checkpoint_every =
                core::parseUnsignedFlag("--checkpoint-every", v14);
        } else if (const char *v15 = value("--spool")) {
            spool_dir = v15;
        } else if (const char *v16 = value("--merge")) {
            merge_arg = v16;
        } else if (const char *v17 = value("--findings-out")) {
            findings_out_path = v17;
        } else if (std::strcmp(argv[i], "--serve") == 0) {
            serve = true;
        } else if (std::strcmp(argv[i], "--resume") == 0) {
            resume = true;
        } else if (std::strcmp(argv[i], "--stdin-jobs") == 0) {
            stdin_jobs = true;
        } else if (std::strcmp(argv[i], "--follow") == 0) {
            follow = true;
        } else if (std::strcmp(argv[i], "--quiet") == 0) {
            quiet = true;
        } else {
            fatal("unknown option '%s' (try --help)", argv[i]);
        }
    }
    if (serve_only && !serve)
        fatal("%s requires --serve", serve_only);
    if (!merge_arg.empty())
        return mergeStores(merge_arg, findings_out_path);

    // On --resume the apps come from the checkpoint, so --apps is
    // only mandatory for fresh campaigns.
    if (apps_arg.empty() && !(serve && resume))
        usage();
    if (apps_arg == "all")
        cfg.apps = workloads::appNames();
    else if (!apps_arg.empty())
        cfg.apps = splitList("--apps", apps_arg);
    // The counts are already checked, so only a name can fail.
    workloads::WorkloadParams app_params;
    app_params.nWorkers = cfg.workers;
    app_params.scale = cfg.scale;
    for (const std::string &app : cfg.apps)
        if (const std::string error =
                workloads::appParamsError(app, app_params);
            !error.empty())
            fatal("--apps: %s", error.c_str());

    std::ofstream progress_file;
    std::ostream *progress_json = nullptr;
    if (!progress_json_path.empty())
        progress_json = &core::openOut(progress_json_path, progress_file);

    campaign::CampaignResult result;
    if (serve) {
        std::signal(SIGTERM, onStopSignal);
        std::signal(SIGINT, onStopSignal);
        service::ServiceOptions opt;
        opt.cfg = cfg;
        opt.stateDir = state_dir;
        opt.resume = resume;
        opt.checkpointEvery = checkpoint_every;
        opt.spoolDir = spool_dir;
        opt.jobStream = stdin_jobs ? &std::cin : nullptr;
        opt.follow = follow;
        opt.progressJson = progress_json;
        opt.chatter = quiet ? nullptr : &std::cout;
        opt.stopFlag = &g_stop;
        service::ServiceResult sres = service::runService(opt);
        std::cout << "service: " << sres.jobsFolded
                  << " job(s) folded, " << sres.duplicatesSkipped
                  << " duplicate(s) skipped, " << sres.checkpoints
                  << " checkpoint(s)\n";
        if (!sres.completed) {
            std::cout << "interrupted: checkpoint saved to "
                      << state_dir
                      << "; rerun with --resume to continue\n";
            return 3;
        }
        std::cout << "complete: report, findings store, and "
                     "checkpoint written to "
                  << state_dir << "\n";
        // On --resume the identity came from the checkpoint.
        cfg = sres.cfg;
        result = std::move(sres.report);
    } else {
        result = campaign::runCampaign(
            cfg, quiet ? nullptr : &std::cout, progress_json);
    }

    std::cout << "campaign: " << result.runs << " runs, "
              << result.rounds << " round(s), " << result.errors
              << " error(s), strategy " << cfg.strategy << "\n";
    std::cout << "findings: " << result.findings.size()
              << " unique race(s) from " << result.rawReports
              << " raw reports (dedup ratio ";
    std::cout.precision(2);
    std::cout << std::fixed << result.dedupRatio << "x)\n";

    std::cout << "\n  app            expect  found  match  falsepos"
                 "  precision  recall\n";
    for (const campaign::AppScore &s : result.scores) {
        std::cout << "  " << std::left << std::setw(14) << s.app
                  << std::right << std::setw(7) << s.expected
                  << std::setw(7) << s.found << std::setw(7)
                  << s.matched << std::setw(10) << s.falsePositives
                  << std::setw(11) << s.precision << std::setw(8)
                  << s.recall << "\n";
    }

    if (result.variants.size() > 1) {
        std::cout << "\n  variant       runs  raw  first-found\n";
        for (const campaign::VariantYield &vy : result.variants)
            std::cout << "  " << std::left << std::setw(12)
                      << vy.variant << std::right << std::setw(6)
                      << vy.runs << std::setw(5) << vy.rawReports
                      << std::setw(13) << vy.firstFound << "\n";
    }

    std::cout << "\ntiming: " << result.timing.wallSeconds << "s wall, "
              << result.timing.runsPerSec << " runs/s with "
              << result.timing.jobs << " job(s), "
              << result.timing.steals << " steal(s)\n";

    if (!out_path.empty()) {
        std::ofstream file;
        std::ostream &out = core::openOut(out_path, file);
        campaign::writeCampaignJson(out, cfg, result);
        if (out_path != "-")
            std::cout << "report written to " << out_path << "\n";
    }

    if (!profile_out_path.empty()) {
        std::ofstream file;
        std::ostream &out = core::openOut(profile_out_path, file);
        result.profile.write(out);
        if (profile_out_path != "-")
            std::cout << "profile written to " << profile_out_path
                      << "\n";
    }

    if (!trace_json_path.empty()) {
        std::ofstream file;
        std::ostream &out = core::openOut(trace_json_path, file);
        campaign::writeCampaignTrace(out, result);
        if (trace_json_path != "-")
            std::cout << "trace written to " << trace_json_path
                      << " (" << result.timing.spans.size()
                      << " job span(s); open in chrome://tracing or "
                         "Perfetto)\n";
    }
    return result.errors == 0 ? 0 : 2;
}
