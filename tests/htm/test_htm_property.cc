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

/** Parameter: the stream seed. */
class HtmAgainstMirror : public ::testing::TestWithParam<uint64_t>
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
    HtmEngine engine(cfg);
    Mirror mirror;
    Rng rng(GetParam());

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

INSTANTIATE_TEST_SUITE_P(
    Seeds, HtmAgainstMirror, ::testing::Range<uint64_t>(1, 9),
    [](const auto &info) {
        return "seed" + std::to_string(info.param);
    });
