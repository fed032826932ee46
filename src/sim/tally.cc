#include "sim/tally.hh"

#include "sim/context.hh"
#include "sim/decode.hh"
#include "support/log.hh"

namespace txrace::sim {

namespace {

/** Per pc of one function: 1 at a LoopBegin whose body does the same
 *  ops on every trip (no random-trip loop, no create, no join inside).
 *  Also checks that only the entry function creates or joins. */
std::vector<uint8_t>
fixedLoops(const ir::Program &prog, ir::FuncId f)
{
    const auto &body = prog.function(f).body;
    std::vector<uint8_t> fixed(body.size(), 0);
    std::vector<uint32_t> open;
    auto vary = [&] {
        for (uint32_t begin : open)
            fixed[begin] = 0;
    };
    for (uint32_t pc = 0; pc < body.size(); ++pc) {
        const ir::Instruction &ins = body[pc];
        switch (ins.op) {
          case ir::OpCode::LoopBegin:
            if (ins.arg1 > 0)
                vary();
            fixed[pc] = 1;
            open.push_back(pc);
            break;
          case ir::OpCode::LoopEnd:
            open.pop_back();
            break;
          case ir::OpCode::ThreadCreate:
          case ir::OpCode::ThreadJoin:
            if (f != prog.entry())
                panic("tallyProgram: %s creates or joins threads; only "
                      "the entry function may",
                      prog.function(f).name.c_str());
            if (ins.op == ir::OpCode::ThreadCreate &&
                ins.arg0 == prog.entry())
                panic("tallyProgram: %s creates a thread running the "
                      "entry function",
                      prog.function(f).name.c_str());
            vary();
            break;
          default:
            break;
        }
    }
    return fixed;
}

/** One thread's walk over its op stream. */
class ThreadWalk
{
  public:
    ThreadWalk(const DecodedProgram &code,
               const std::vector<std::vector<uint8_t>> &fixed,
               OpTally &tally, uint64_t seed, Tid tid)
        : code_(code), fixed_(fixed), tally_(tally),
          rng_(threadSeed(seed, tid))
    {
    }

    /** Function ids of the threads this walk created, in tid order. */
    std::vector<ir::FuncId> spawned;

    void
    run(ir::FuncId f)
    {
        walk(f, 0, static_cast<uint32_t>(code_.funcs[f].size()));
    }

  private:
    /** Rng::below(@p bound) as the Machine draws it, recorded while a
     *  fixed loop's first trip runs. */
    uint64_t
    draw(uint64_t bound)
    {
        if (recording_)
            draws_.push_back(bound);
        return rng_.below(bound);
    }

    /** Execute ops [@p pc, @p end) of function @p f. */
    void
    walk(ir::FuncId f, uint32_t pc, uint32_t end)
    {
        const DecodedFunction &code = code_.funcs[f];
        while (pc < end) {
            const DecodedOp &op = code[pc];
            switch (op.ins->op) {
              case ir::OpCode::LoopBegin: {
                uint64_t trips = op.arg0;
                if (op.arg1 > 0)
                    trips += draw(op.arg1 + 1);
                // The body is [pc + 1, LoopEnd); op.jump is past it.
                if (trips > 0 && fixed_[f][pc])
                    repeat(f, pc + 1, op.jump - 1, trips);
                else
                    for (uint64_t i = 0; i < trips; ++i)
                        walk(f, pc + 1, op.jump - 1);
                pc = op.jump;
                continue;
              }
              case ir::OpCode::Load:
              case ir::OpCode::Store:
                tally_.checks += op.ins->instrumented;
                if (op.randomCount != 0)
                    draw(op.randomCount);
                break;
              case ir::OpCode::LockAcquire:
              case ir::OpCode::LockRelease:
              case ir::OpCode::CondSignal:
              case ir::OpCode::CondWait:
              case ir::OpCode::Barrier:
                ++tally_.syncs;
                break;
              case ir::OpCode::ThreadCreate:
                ++tally_.syncs;
                spawned.push_back(static_cast<ir::FuncId>(op.arg0));
                break;
              case ir::OpCode::ThreadJoin:
                tally_.syncs += op.arg0 == ~0ull ? spawned.size() : 1;
                break;
              default:
                break;
            }
            tally_.cost += op.cost;
            ++pc;
        }
    }

    /** @p trips trips of a fixed loop body [@p begin, @p end): walk
     *  one, multiply it, and replay its draws for the rest. */
    void
    repeat(ir::FuncId f, uint32_t begin, uint32_t end, uint64_t trips)
    {
        const OpTally before = tally_;
        const size_t mark = draws_.size();
        const bool outer = recording_;
        recording_ = true;
        walk(f, begin, end);
        recording_ = outer;
        const uint64_t more = trips - 1;
        tally_.cost += (tally_.cost - before.cost) * more;
        tally_.checks += (tally_.checks - before.checks) * more;
        tally_.syncs += (tally_.syncs - before.syncs) * more;
        // The values drawn are unused; a local Rng keeps its state in
        // registers across the replay.
        const size_t stop = draws_.size();
        Rng rng = rng_;
        for (uint64_t i = 0; i < more; ++i)
            for (size_t d = mark; d < stop; ++d)
                rng.below(draws_[d]);
        rng_ = rng;
        if (!outer) {
            draws_.resize(mark);
            return;
        }
        // The enclosing fixed loop's record holds every trip's draws.
        for (uint64_t i = 0; i < more; ++i)
            for (size_t d = mark; d < stop; ++d)
                draws_.push_back(draws_[d]);
    }

    const DecodedProgram &code_;
    const std::vector<std::vector<uint8_t>> &fixed_;
    OpTally &tally_;
    Rng rng_;
    std::vector<uint64_t> draws_;
    bool recording_ = false;
};

} // namespace

OpTally
tallyProgram(const ir::Program &prog, const CostModel &cost,
             uint64_t seed)
{
    const DecodedProgram code = decodeProgram(prog, cost);
    std::vector<std::vector<uint8_t>> fixed;
    for (ir::FuncId f = 0; f < prog.numFunctions(); ++f)
        fixed.push_back(fixedLoops(prog, f));

    OpTally tally;
    ThreadWalk main(code, fixed, tally, seed, 0);
    main.run(prog.entry());
    for (size_t i = 0; i < main.spawned.size(); ++i)
        ThreadWalk(code, fixed, tally, seed, static_cast<Tid>(i + 1))
            .run(main.spawned[i]);
    return tally;
}

} // namespace txrace::sim
