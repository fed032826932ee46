/**
 * @file
 * Tests of sim::tallyProgram, the schedule-free tally calibration
 * reads: on every catalog pattern, both example programs and a
 * program shaped to exercise the fixed-loop replay, the tally equals
 * what a Machine run executes at several seeds, counted by a policy
 * that charges nothing. A function other than the entry that spawns
 * panics.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "ir/text.hh"
#include "sim/machine.hh"
#include "sim/tally.hh"
#include "workloads/patterns.hh"

using namespace txrace;
using namespace txrace::sim;

namespace {

/** Counts what a TSan run charges on top of the application's work,
 *  and charges nothing itself: one check per instrumented access, one
 *  sync per lock, unlock, signal, wait, create, joined thread and
 *  barrier participant. */
class CountingPolicy : public ExecutionPolicy
{
  public:
    uint64_t checks = 0;
    uint64_t syncs = 0;

    bool
    onMemAccess(Machine &, Tid, const ir::Instruction &ins, ir::Addr,
                bool) override
    {
        checks += ins.instrumented;
        return true;
    }

    void
    onSyncPerformed(Machine &, Tid, const ir::Instruction &) override
    {
        ++syncs;
    }

    void onThreadCreated(Machine &, Tid, Tid) override { ++syncs; }
    void onThreadJoined(Machine &, Tid, Tid) override { ++syncs; }

    void
    onBarrierRelease(Machine &, const std::vector<Tid> &parts) override
    {
        syncs += parts.size();
    }
};

const uint64_t kSeeds[] = {1, 2, 97, 0xCA11B};

/** The tally of @p prog equals a counted Machine run at every seed. */
void
expectTallyMatchesARun(const ir::Program &prog, const std::string &what)
{
    const CostModel cost;
    for (uint64_t seed : kSeeds) {
        MachineConfig cfg;
        cfg.seed = seed;
        CountingPolicy counter;
        Machine m(prog, cfg, counter);
        ASSERT_EQ(m.run().kind, RunError::Kind::None)
            << what << " at seed " << seed;

        const OpTally tally = tallyProgram(prog, cost, seed);
        EXPECT_EQ(tally.cost, m.totalCost()) << what << " at seed " << seed;
        EXPECT_EQ(tally.checks, counter.checks)
            << what << " at seed " << seed;
        EXPECT_EQ(tally.syncs, counter.syncs)
            << what << " at seed " << seed;
    }
}

ir::Program
parse(const std::string &text)
{
    std::istringstream in(text);
    return ir::parseProgramText(in);
}

} // namespace

TEST(OpTally, MatchesAMachineRunOnEveryPattern)
{
    for (const std::string &name : workloads::patternNames())
        expectTallyMatchesARun(workloads::makePattern(name).program, name);
}

TEST(OpTally, MatchesAMachineRunOnTheExamplePrograms)
{
    for (const char *file : {"double_buffer.txr", "unlocked_counter.txr"})
        expectTallyMatchesARun(
            ir::loadProgramFile(std::string(TXRACE_EXAMPLES_DIR "/") +
                                file),
            file);
}

TEST(OpTally, FixedLoopReplayLeavesEachRngWhereTheMachineDoes)
{
    // Each worker's first loop is fixed: it is multiplied, and its
    // random bounds (the nested loop's included) are replayed. The
    // random trips of the second loop then read the Rng it left, and
    // that loop holds a random-trip loop, so it is walked trip by trip.
    expectTallyMatchesARun(parse(R"(space 0x10000
func @worker
  loop.begin trips=3
    load [0x100 + rnd(7)*8]
    loop.begin trips=4
      store [0x400 + rnd(1000)*8]
      lock id=0
      unlock id=0
    loop.end
  loop.end
  loop.begin trips=2+rnd(50)
    load [0x8000 + tid*8]
    loop.begin trips=1+rnd(9)
      compute cost=3
    loop.end
  loop.end
end
func @main
  create fn=0
  create fn=0
  join idx=0
  create fn=0
  join all
end
entry @main
)"),
                           "fixed-loop replay");
}

TEST(OpTallyDeathTest, AWorkerThatSpawnsPanics)
{
    const ir::Program prog = parse(R"(func @leaf
  compute cost=1
end
func @worker
  create fn=0
  join all
end
func @main
  create fn=1
  join all
end
entry @main
)");
    EXPECT_DEATH(tallyProgram(prog, CostModel{}, 1),
                 "tallyProgram: worker creates or joins threads");
}
