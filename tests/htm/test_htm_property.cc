/**
 * @file
 * Property tests for the HTM engine against an independent mirror
 * model: random sequences of begin/access/commit operations are
 * replayed on both, and the mirror predicts exactly which
 * transactions each access must abort (requester-wins over line
 * sets) and what each transaction's footprint is.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>

#include "htm/htm.hh"
#include "mem/layout.hh"
#include "support/rng.hh"

using namespace txrace;
using namespace txrace::htm;

namespace {

/** Straightforward re-specification of the conflict rules. */
struct Mirror
{
    struct Tx
    {
        bool active = false;
        std::set<uint64_t> reads, writes;
    };
    std::map<Tid, Tx> txs;

    std::set<Tid>
    accessVictims(Tid requester, uint64_t line, bool is_write)
    {
        std::set<Tid> victims;
        for (auto &[tid, tx] : txs) {
            if (tid == requester || !tx.active)
                continue;
            bool hit = is_write
                ? (tx.reads.count(line) || tx.writes.count(line))
                : tx.writes.count(line) > 0;
            if (hit) {
                victims.insert(tid);
                tx.active = false;
            }
        }
        if (txs[requester].active) {
            if (is_write)
                txs[requester].writes.insert(line);
            else
                txs[requester].reads.insert(line);
        }
        return victims;
    }
};

} // namespace

/** Parameter: (stream seed, owned-line filter on/off). */
class HtmAgainstMirror
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>>
{
};

TEST_P(HtmAgainstMirror, VictimsAndFootprintsMatch)
{
    // Geometry big enough that capacity never interferes (capacity is
    // covered by dedicated unit tests).
    HtmConfig cfg;
    cfg.l1Ways = 64;
    cfg.readSetMaxLines = 1u << 20;
    cfg.maxConcurrentTx = 8;
    cfg.accessFilter = std::get<1>(GetParam());
    HtmEngine engine(cfg);
    Mirror mirror;
    Rng rng(std::get<0>(GetParam()));

    constexpr Tid kThreads = 5;
    for (int step = 0; step < 2000; ++step) {
        Tid t = static_cast<Tid>(rng.below(kThreads));
        uint64_t action = rng.below(10);
        if (action == 0) {
            // Toggle transactional state.
            if (engine.inTx(t)) {
                engine.commit(t);
                mirror.txs[t] = {};
            } else if (engine.canBegin()) {
                engine.begin(t);
                mirror.txs[t].active = true;
                mirror.txs[t].reads.clear();
                mirror.txs[t].writes.clear();
            }
            continue;
        }
        bool is_write = rng.chance(0.5);
        uint64_t line = rng.below(6);  // few lines: heavy contention
        ir::Addr addr = line * mem::kLineSize + 8 * rng.below(8);

        auto result = engine.access(t, addr, is_write);
        ASSERT_FALSE(result.selfCapacity);
        std::set<Tid> got(result.victims.begin(),
                          result.victims.end());
        std::set<Tid> expected =
            mirror.accessVictims(t, line, is_write);
        ASSERT_EQ(got, expected) << "step " << step;

        // Footprints agree for every open transaction.
        for (Tid u = 0; u < kThreads; ++u) {
            ASSERT_EQ(engine.inTx(u), mirror.txs[u].active);
            if (engine.inTx(u)) {
                ASSERT_EQ(engine.readSetLines(u),
                          mirror.txs[u].reads.size());
                ASSERT_EQ(engine.writeSetLines(u),
                          mirror.txs[u].writes.size());
            }
        }
        ASSERT_EQ(engine.inFlightCount(),
                  static_cast<size_t>(std::count_if(
                      mirror.txs.begin(), mirror.txs.end(),
                      [](const auto &kv) {
                          return kv.second.active;
                      })));
    }
}

// The second axis distinguishes filter-on from filter-off: the mirror
// model knows nothing about the owned-line filter, so matching it in
// both configurations re-proves filter transparency against an
// independent oracle (the differential test proves it engine-vs-
// engine).
INSTANTIATE_TEST_SUITE_P(
    Seeds, HtmAgainstMirror,
    ::testing::Combine(::testing::Range<uint64_t>(1, 9),
                       ::testing::Values(true, false)),
    [](const auto &info) {
        return (std::get<1>(info.param)
                    ? std::string("Filtered")
                    : std::string("Unfiltered")) +
               "_seed" + std::to_string(std::get<0>(info.param));
    });
