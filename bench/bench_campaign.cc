/**
 * @file
 * Campaign scaling harness: the same fixed campaign executed with
 * 1/2/4/8 pool jobs. Reports wall time, runs/s and speedup per job
 * count, and — the determinism contract made measurable — asserts
 * that every job count produced a byte-identical txrace-campaign-v1
 * report.
 *
 * Honest numbers: speedup is bounded by the physical cores of the
 * measuring host. On a single-core container every job count
 * serializes and the value of this harness is the byte-identity
 * check plus the overhead floor of the pool machinery.
 *
 *   bench_campaign [--seed N] [--scale N] [--csv]
 */

#include <iostream>
#include <sstream>
#include <thread>

#include "campaign/campaign.hh"
#include "harness.hh"
#include "support/log.hh"

using namespace txrace;

int
main(int argc, char **argv)
{
    bench::Options opt = bench::parseOptions(argc, argv);

    campaign::CampaignConfig cfg;
    cfg.apps = {"raytrace", "streamcluster", "canneal", "x264"};
    cfg.seedsPerApp = 4;
    cfg.masterSeed = opt.seed;
    cfg.strategy = "sweep";
    cfg.workers = opt.workers;
    cfg.scale = opt.scale;

    const uint32_t kJobs[] = {1, 2, 4, 8};

    std::cout << "campaign scaling: " << cfg.apps.size() << " apps x "
              << cfg.seedsPerApp << " seeds, strategy " << cfg.strategy
              << ", host has "
              << std::thread::hardware_concurrency()
              << " hardware thread(s)\n\n";
    if (opt.csv)
        std::cout << "jobs,wall_s,runs_per_s,speedup\n";
    else
        std::cout << "  jobs   wall(s)   runs/s   speedup\n";

    std::string reference_json;
    double base_wall = 0.0;
    for (uint32_t jobs : kJobs) {
        cfg.jobs = jobs;
        campaign::CampaignResult result = campaign::runCampaign(cfg);

        std::ostringstream json;
        campaign::writeCampaignJson(json, cfg, result);
        if (reference_json.empty())
            reference_json = json.str();
        else if (json.str() != reference_json)
            fatal("campaign report with %u jobs differs from the "
                  "1-job report: determinism contract broken", jobs);

        if (base_wall == 0.0)
            base_wall = result.timing.wallSeconds;
        double speedup = result.timing.wallSeconds > 0.0
                             ? base_wall / result.timing.wallSeconds
                             : 0.0;
        std::cout.precision(2);
        std::cout << std::fixed;
        if (opt.csv)
            std::cout << jobs << "," << result.timing.wallSeconds
                      << "," << result.timing.runsPerSec << ","
                      << speedup << "\n";
        else
            std::cout << "  " << jobs << "      "
                      << result.timing.wallSeconds << "      "
                      << result.timing.runsPerSec << "     "
                      << speedup << "x\n";
    }
    std::cout << "\nreports byte-identical across all job counts: yes\n";
    return 0;
}
