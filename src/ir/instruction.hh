/**
 * @file
 * A single static instruction of the TxRace mini-IR.
 */

#ifndef TXRACE_IR_INSTRUCTION_HH
#define TXRACE_IR_INSTRUCTION_HH

#include <cstdint>
#include <string>

#include "ir/addr.hh"
#include "ir/opcode.hh"

namespace txrace::ir {

/** Globally unique static instruction id, assigned at finalize(). */
using InstrId = uint32_t;

/** Sentinel for "no instruction". */
constexpr InstrId kNoInstr = ~0u;

/** Function index within a Program. */
using FuncId = uint32_t;

/** TxBegin arg1: the region runs on the slow path from the start
 *  (small-region heuristic, paper §4.3). */
constexpr uint64_t kRegionForcedSlow = 1;

/** TxBegin arg1: the region has nothing to check and runs without a
 *  transaction (bare-region pass, passes/elide.cc). */
constexpr uint64_t kRegionBare = 2;

/** A static IR instruction. */
struct Instruction
{
    OpCode op = OpCode::Nop;

    /** Address expression; meaningful for Load/Store only. */
    AddrExpr addr;

    /**
     * First operand. Interpretation by opcode: Compute/Syscall cost;
     * lock/condvar/barrier object id; ThreadCreate
     * function id; ThreadJoin spawn index (~0ull joins all);
     * LoopBegin base trip count; LoopCut static loop id;
     * TxBegin 0 (regular).
     */
    uint64_t arg0 = 0;

    /**
     * Second operand. LoopBegin: maximum random extra trips; Barrier:
     * participant count; TxBegin: the region mark, 0 (regular),
     * kRegionForcedSlow or kRegionBare.
     */
    uint64_t arg1 = 0;

    /** Globally unique id; kNoInstr until Program::finalize(). */
    InstrId id = kNoInstr;

    /**
     * Structural partner pc within the same function: LoopBegin points
     * at its LoopEnd and vice versa. -1 until finalize().
     */
    int32_t match = -1;

    /**
     * Whether a software race detector would instrument this access
     * (Load/Store only). The privatization pass clears this for
     * accesses falling entirely inside regions declared thread-private,
     * mirroring TSan's static race-free elision that the paper reuses;
     * the elision pipeline (passes/elide.cc) clears it for accesses it
     * proves can never be a race endpoint.
     */
    bool instrumented = true;

    /** Optional human-readable source tag (for race reports). */
    std::string tag;
};

} // namespace txrace::ir

#endif // TXRACE_IR_INSTRUCTION_HH
