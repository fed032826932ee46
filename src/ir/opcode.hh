/**
 * @file
 * Opcode set of the TxRace mini-IR.
 *
 * Programs under test are expressed in a small structured IR (no
 * arbitrary branches; loops are structured LoopBegin/LoopEnd pairs).
 * This mirrors the subset of LLVM IR shapes that the paper's
 * transactionalization pass cares about: memory accesses,
 * synchronization operations, system calls, and loops.
 */

#ifndef TXRACE_IR_OPCODE_HH
#define TXRACE_IR_OPCODE_HH

#include <cstdint>

namespace txrace::ir {

/** Operation kinds executable by the simulator. */
enum class OpCode : uint8_t {
    Nop,          ///< no effect (placeholder produced by passes)
    Load,         ///< read memory at the instruction's address expr
    Store,        ///< write memory at the instruction's address expr
    Compute,      ///< arg0 units of raceless local work
    LockAcquire,  ///< acquire mutex arg0 (blocking)
    LockRelease,  ///< release mutex arg0
    CondSignal,   ///< post semaphore/condvar arg0 (release semantics)
    CondWait,     ///< wait on semaphore/condvar arg0 (acquire semantics)
    Barrier,      ///< barrier arg0 with arg1 participants
    ThreadCreate, ///< spawn a thread running function arg0
    ThreadJoin,   ///< join spawned thread by spawn index arg0 (~0 = all)
    Syscall,      ///< system call costing arg0 (forces privilege change)
    LoopBegin,    ///< loop with arg0 (+ up to arg1 random) iterations
    LoopEnd,      ///< back-edge of the matching LoopBegin
    TxBegin,      ///< pass-inserted region begin (arg1: region mark)
    TxEnd,        ///< pass-inserted region end
    LoopCut,      ///< pass-inserted loop-cut check (arg0 = static loop id)
};

/** Human-readable mnemonic for @p op. */
const char *opName(OpCode op);

/** True for Load and Store. */
constexpr bool
isMemAccess(OpCode op)
{
    return op == OpCode::Load || op == OpCode::Store;
}

/**
 * True for operations the transactionalizer treats as region
 * boundaries: synchronization primitives and thread lifecycle events.
 * System calls are boundaries too but are handled separately because
 * the transaction must be *cut* (end + begin) around them rather than
 * ended at them.
 */
constexpr bool
isSyncOp(OpCode op)
{
    switch (op) {
      case OpCode::LockAcquire:
      case OpCode::LockRelease:
      case OpCode::CondSignal:
      case OpCode::CondWait:
      case OpCode::Barrier:
      case OpCode::ThreadCreate:
      case OpCode::ThreadJoin:
        return true;
      default:
        return false;
    }
}

} // namespace txrace::ir

#endif // TXRACE_IR_OPCODE_HH
