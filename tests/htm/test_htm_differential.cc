/**
 * @file
 * Differential test: the directory engine with the per-transaction
 * owned-line filter against the same engine with the filter disabled,
 * driven with identical randomized access streams. The unfiltered
 * engine is the oracle: for every operation both must agree on
 * victims (and their order), self-capacity decisions, per-thread
 * transactional status, abort status words, conflict-blame
 * lines/instructions, footprint sizes, and the final counters. This
 * is the proof obligation behind HtmConfig::accessFilter — a filter
 * hit must be a provable no-op on everything observable.
 *
 * The streams also exercise the jittered capacity boundary: a filter
 * hit must never skip an RNG draw the full path would have made
 * (write hits require the line already write-held, so the full path
 * would not have consulted effectiveWays() either), or the engines
 * fall out of lockstep and every later decision diverges.
 *
 * On a mismatch the test prints the tail of the operation log, which
 * is the shrunk reproducer: replaying those ops on a fresh pair
 * reproduces the divergence (streams are seeded and deterministic).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "htm/htm.hh"
#include "mem/layout.hh"
#include "support/rng.hh"

using namespace txrace;
using namespace txrace::htm;

namespace {

struct Op
{
    enum Kind { Begin, Access, Commit, Abort, Note } kind;
    Tid t;
    uint64_t addr = 0;
    bool write = false;
};

std::string
opToString(const Op &op)
{
    char buf[96];
    switch (op.kind) {
      case Op::Begin:
        std::snprintf(buf, sizeof(buf), "begin(%u)", op.t);
        break;
      case Op::Access:
        std::snprintf(buf, sizeof(buf), "access(%u, 0x%llx, %s)", op.t,
                      static_cast<unsigned long long>(op.addr),
                      op.write ? "W" : "R");
        break;
      case Op::Commit:
        std::snprintf(buf, sizeof(buf), "commit(%u)", op.t);
        break;
      case Op::Abort:
        std::snprintf(buf, sizeof(buf), "abortTx(%u)", op.t);
        break;
      case Op::Note:
        std::snprintf(buf, sizeof(buf), "noteInstr(%u, 0x%llx)", op.t,
                      static_cast<unsigned long long>(op.addr));
        break;
    }
    return buf;
}

std::string
logTail(const std::vector<Op> &log, size_t n = 40)
{
    std::string out;
    size_t from = log.size() > n ? log.size() - n : 0;
    for (size_t i = from; i < log.size(); ++i)
        out += "  [" + std::to_string(i) + "] " + opToString(log[i]) +
               "\n";
    return out;
}

struct StreamParams
{
    uint64_t seed;
    double capacityJitter;
    bool trackInstructions;
    /** Tid stride: >1 exercises tids far beyond the slot count. */
    Tid tidStride;
};

void
runStream(const StreamParams &p, int steps)
{
    HtmConfig base;
    base.l1Sets = 4;
    base.l1Ways = 3;
    base.readSetMaxLines = 12;
    base.maxConcurrentTx = 6;
    base.capacityJitter = p.capacityJitter;
    base.seed = p.seed;
    base.trackInstructions = p.trackInstructions;

    HtmConfig filtCfg = base;
    filtCfg.accessFilter = true;
    HtmConfig plainCfg = base;
    plainCfg.accessFilter = false;

    HtmEngine filt(filtCfg);
    HtmEngine plain(plainCfg);

    constexpr int kThreads = 8;
    constexpr uint64_t kLines = 24;  // small space -> heavy conflicts
    Rng rng(p.seed * 77 + 13);
    std::vector<Op> log;
    ir::InstrId nextInstr = 1;

    auto fail = [&](const std::string &what) {
        return "divergence at op " + std::to_string(log.size() - 1) +
               " (" + what + "); tail:\n" + logTail(log);
    };

    for (int i = 0; i < steps; ++i) {
        Tid t = static_cast<Tid>(rng.below(kThreads) * p.tidStride);
        uint64_t action = rng.below(100);
        Op op;
        if (action < 20 && !filt.inTx(t) && filt.canBegin()) {
            op = {Op::Begin, t};
        } else if (action < 82) {
            op = {Op::Access, t,
                  rng.below(kLines) * mem::kLineSize + rng.below(64),
                  rng.chance(0.4)};
        } else if (action < 90 && filt.inTx(t)) {
            op = {Op::Commit, t};
        } else if (action < 94 && filt.inTx(t)) {
            op = {Op::Abort, t};
        } else if (p.trackInstructions && filt.inTx(t)) {
            op = {Op::Note, t,
                  rng.below(kLines) * mem::kLineSize, false};
        } else {
            continue;
        }
        log.push_back(op);

        switch (op.kind) {
          case Op::Begin:
            filt.begin(op.t);
            plain.begin(op.t);
            break;
          case Op::Commit:
            filt.commit(op.t);
            plain.commit(op.t);
            break;
          case Op::Abort:
            filt.abortTx(op.t, kAbortExplicit);
            plain.abortTx(op.t, kAbortExplicit);
            break;
          case Op::Note: {
            ir::InstrId id = nextInstr++;
            filt.noteAccessInstr(op.t, op.addr, id);
            plain.noteAccessInstr(op.t, op.addr, id);
            break;
          }
          case Op::Access: {
            AccessResult rf = filt.access(op.t, op.addr, op.write);
            AccessResult rp = plain.access(op.t, op.addr, op.write);
            ASSERT_EQ(rf.selfCapacity, rp.selfCapacity)
                << fail("selfCapacity");
            ASSERT_EQ(rf.victims, rp.victims) << fail("victims");
            for (Tid v : rf.victims) {
                ASSERT_EQ(filt.lastAbortStatus(v),
                          plain.lastAbortStatus(v))
                    << fail("victim abort status");
                ASSERT_EQ(filt.lastConflictLine(v),
                          plain.lastConflictLine(v))
                    << fail("victim conflict line");
                ASSERT_EQ(filt.lastConflictVictimInstr(v),
                          plain.lastConflictVictimInstr(v))
                    << fail("victim conflict instr");
            }
            break;
          }
        }

        // Engine-wide invariants after every op.
        ASSERT_EQ(filt.inFlightCount(), plain.inFlightCount())
            << fail("inFlightCount");
        ASSERT_EQ(filt.canBegin(), plain.canBegin())
            << fail("canBegin");
        for (Tid u = 0; u < kThreads * p.tidStride;
             u += p.tidStride) {
            ASSERT_EQ(filt.inTx(u), plain.inTx(u)) << fail("inTx");
            ASSERT_EQ(filt.readSetLines(u), plain.readSetLines(u))
                << fail("readSetLines of " + std::to_string(u));
            ASSERT_EQ(filt.writeSetLines(u), plain.writeSetLines(u))
                << fail("writeSetLines of " + std::to_string(u));
            ASSERT_EQ(filt.lastAbortStatus(u),
                      plain.lastAbortStatus(u))
                << fail("lastAbortStatus of " + std::to_string(u));
        }
    }

    ASSERT_EQ(filt.inFlightTids(), plain.inFlightTids());
    EXPECT_EQ(filt.counters().begins, plain.counters().begins);
    EXPECT_EQ(filt.counters().commits, plain.counters().commits);
    EXPECT_EQ(filt.counters().abortsConflict,
              plain.counters().abortsConflict);
    EXPECT_EQ(filt.counters().abortsCapacity,
              plain.counters().abortsCapacity);
    EXPECT_EQ(filt.counters().abortsUnknown,
              plain.counters().abortsUnknown);
    EXPECT_EQ(filt.counters().abortsOther,
              plain.counters().abortsOther);
    // The stream repeats lines inside transactions constantly, so the
    // filter must actually have absorbed traffic — otherwise this
    // test silently stops testing anything.
    EXPECT_GT(filt.counters().filterHits, 0u);
    EXPECT_EQ(plain.counters().filterHits, 0u);
}

} // namespace

class HtmDifferential : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(HtmDifferential, DeterministicCapacityBoundary)
{
    runStream({GetParam(), 0.0, false, 1}, 2500);
}

TEST_P(HtmDifferential, JitteredCapacityBoundary)
{
    // Both engines draw from identically seeded jitter RNGs; the
    // draws must happen at the same operations for streams to agree.
    runStream({GetParam(), 0.3, false, 1}, 2500);
}

TEST_P(HtmDifferential, InstructionTracking)
{
    runStream({GetParam(), 0.0, true, 1}, 2500);
}

TEST_P(HtmDifferential, TidsBeyondSlotCount)
{
    // Thread ids up to 7 * 19 = 133: far past the 64 bitmask bits,
    // exercising slot allocation/reuse and the slot->tid mapping.
    runStream({GetParam(), 0.1, false, 19}, 2500);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HtmDifferential,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34,
                                           55, 89));
