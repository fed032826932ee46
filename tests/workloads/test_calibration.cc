/**
 * @file
 * Tests of the per-app TSan check-scale calibration: the exact
 * checkScale of every registry app is pinned at two workload sizes,
 * and calibration's schedule-free tally is checked against the same
 * solve from a full TSan run (whose Base bucket must equal the Native
 * total) on every registry app.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/driver.hh"
#include "workloads/workloads.hh"

using namespace txrace;
using namespace txrace::workloads;

namespace {

/** Calibrated checkScale of one app at 4 workers, scales 16 and 8
 *  (hex literals: the pins are bit-exact). */
struct ScalePin
{
    const char *app;
    double scale16;
    double scale8;
};

const ScalePin kPins[] = {
    {"blackscholes", 0x1.bb1731137e71fp+1, 0x1.bb2c55dd4285bp+1},
    {"fluidanimate", 0x1.ec97d72e4606bp+2, 0x1.ecc98a05e3673p+2},
    {"swaptions", 0x1.7c54217ac9dc9p+0, 0x1.7c692228d7a1fp+0},
    {"freqmine", 0x1.3f63a93117cf2p+2, 0x1.3feb7ded9951bp+2},
    {"vips", 0x1.40973ffbf811bp+8, 0x1.40973ffbf811bp+8},
    {"raytrace", 0x1.93f96b3e4ab21p+2, 0x1.94564a725cb9dp+2},
    {"ferret", 0x1.ae9899d9899dap+2, 0x1.af611980bc42cp+2},
    {"x264", 0x1.137238e38e38ep+0, 0x1.145fb425ed098p+0},
    {"bodytrack", 0x1.11741d6ceb2a7p+2, 0x1.1220fd8e5ad94p+2},
    {"facesim", 0x1.286825208f664p+3, 0x1.297e937bd0178p+3},
    {"streamcluster", 0x1.62e0c9216ce4bp+3, 0x1.630a3f06f81c6p+3},
    {"dedup", 0x1.a7f0384c1cf8p+0, 0x1.a8bb7596321bfp+0},
    {"canneal", 0x1.ecf4d2de3ef4ep-1, 0x1.ee18acf13579ap-1},
    {"apache", 0x1.8ba896fb36cfep-1, 0x1.8c7b2b40ecf26p-1},
    {"apache-stream", 0x1.88afc922985ap+0, 0x1.a22c8d9dbe95fp+0},
};

/** The seed calibration runs at (registry.cc). */
constexpr uint64_t kCalibrationSeed = 0xCA11Bull;

std::vector<std::string>
registryApps()
{
    std::vector<std::string> names = appNames();
    names.push_back("apache-stream");
    return names;
}

WorkloadParams
params(uint64_t scale, bool calibrate)
{
    WorkloadParams p;
    p.nWorkers = 4;
    p.scale = scale;
    p.calibrate = calibrate;
    return p;
}

} // namespace

TEST(Calibration, PinsCoverTheRegistry)
{
    std::vector<std::string> pinned;
    for (const ScalePin &pin : kPins)
        pinned.emplace_back(pin.app);
    EXPECT_EQ(pinned, registryApps());
}

TEST(Calibration, CheckScaleIsPinnedPerApp)
{
    for (const ScalePin &pin : kPins) {
        EXPECT_EQ(makeApp(pin.app, params(16, true)).machine.cost.checkScale,
                  pin.scale16)
            << pin.app << " at scale 16";
        EXPECT_EQ(makeApp(pin.app, params(8, true)).machine.cost.checkScale,
                  pin.scale8)
            << pin.app << " at scale 8";
    }
}

TEST(Calibration, CountingProbeMatchesATsanRunOnEveryApp)
{
    // Calibration tallies checks and sync events without a machine.
    // Oracle: the same solve from a full TSan run at the calibration
    // seed and check scale 1, whose Base bucket is the app's own work
    // (the Native total, checked here too).
    for (const std::string &name : registryApps()) {
        for (uint64_t scale : {1u, 8u, 16u}) {
            for (uint32_t workers : {2u, 3u, 4u, 8u}) {
                WorkloadParams p = params(scale, false);
                p.nWorkers = workers;
                AppModel app = makeApp(name, p);
                core::RunConfig rc;
                rc.mode = core::RunMode::TSan;
                rc.machine = app.machine;
                rc.machine.seed = kCalibrationSeed;
                rc.machine.cost.checkScale = 1.0;
                core::RunResult tsan = core::runProgram(app.program, rc);
                uint64_t base =
                    tsan.buckets[static_cast<size_t>(sim::Bucket::Base)];
                rc.mode = core::RunMode::Native;
                EXPECT_EQ(base, core::runProgram(app.program, rc).totalCost)
                    << name << " at scale " << scale << ", " << workers
                    << " workers: TSan Base differs from Native";

                uint64_t checks = tsan.stats.get("detector.reads") +
                                  tsan.stats.get("detector.writes");
                double c1 = static_cast<double>(checks) *
                            static_cast<double>(sim::CostModel::checkCost);
                double x = static_cast<double>(base);
                double y1 = static_cast<double>(tsan.totalCost);
                double expected = 1.0;
                if (c1 > 0.0 && x > 0.0)
                    expected = std::clamp(
                        (app.paper.tsanOverhead * x - (y1 - c1)) / c1,
                        0.1, 2000.0);

                p.calibrate = true;
                EXPECT_EQ(makeApp(name, p).machine.cost.checkScale,
                          expected)
                    << name << " at scale " << scale << ", " << workers
                    << " workers";
            }
        }
    }
}
