/**
 * @file
 * Pre-decoded program representation for the quantum loop.
 *
 * At Machine construction every ir::Instruction is decoded once into a
 * flat, execute-ready DecodedOp: a one-byte kind tells the quantum
 * loop's switch how to run it (the simple ops — nop, compute, syscall,
 * loop begin/end, and loads and stores by address shape — run inline;
 * sync, thread, transaction and loop-cut ops go through a resolved
 * out-of-line handler), the cost-model charge is pre-folded, the
 * address expression is pre-classified by shape (so evaluation is
 * branch-light), and the LoopBegin zero-trip jump target is inlined.
 * Decode also validates statically what the old interpreter checked
 * per execution: a loop-indexed address must sit inside at least
 * loopDepth+1 loops, and a constant address must fall inside the
 * program's address space (an out-of-range constant decodes to a trap
 * handler that raises the structured BadAccess run error if it is
 * ever executed).
 *
 * Decode is per-Machine, not per-Program, because the folded charges
 * depend on the machine's CostModel. The DecodedOp keeps a pointer to
 * its source instruction for the policy hooks, which is stable because
 * function bodies never move during a run.
 */

#ifndef TXRACE_SIM_DECODE_HH
#define TXRACE_SIM_DECODE_HH

#include <cstdint>
#include <vector>

#include "ir/program.hh"
#include "sim/costmodel.hh"

namespace txrace::sim {

class Machine;
struct ThreadContext;
struct DecodedOp;

/** Out-of-line handler: executes one decoded op for @p ctx. */
using ExecFn = void (*)(Machine &, ThreadContext &, const DecodedOp &);

/** How the quantum loop runs an op. Loads and stores carry their
 *  direction and pre-classified address shape (ir::AddrShape). */
enum class OpKind : uint8_t {
    Handler,  ///< out of line, through DecodedOp::fn
    Nop,
    Compute,
    Syscall,
    LoopBegin,
    LoopEnd,
    LoadConstant,
    LoadThreadStrided,
    LoadLoopIndexed,
    LoadRandomized,
    StoreConstant,
    StoreThreadStrided,
    StoreLoopIndexed,
    StoreRandomized,
};

/** One execute-ready instruction. */
struct DecodedOp
{
    /** Resolved handler; set for OpKind::Handler ops only. */
    ExecFn fn = nullptr;
    /** Source instruction (policy hooks take the ir form). */
    const ir::Instruction *ins = nullptr;
    /** Pre-folded base-bucket charge (cost model applied at decode). */
    uint64_t cost = 0;
    uint64_t arg0 = 0;
    uint64_t arg1 = 0;

    /** @name Address expression, flattened */
    /** @{ */
    ir::Addr base = 0;
    uint64_t threadStride = 0;
    uint64_t loopStride = 0;
    uint64_t randomStride = 0;
    uint64_t randomCount = 0;
    /** @} */

    /** No op needs both: a load or store reads loopDepth, a LoopBegin
     *  reads jump. */
    union
    {
        /** Load/Store: which enclosing loop indexes the address
         *  (0 = innermost). */
        uint32_t loopDepth = 0;
        /** LoopBegin: pc just past the matching LoopEnd (the
         *  zero-trip jump target, resolved from Instruction::match). */
        uint32_t jump;
    };

    OpKind kind = OpKind::Handler;
};

// Ten 8-byte fields, the shared loopDepth/jump word and the kind
// byte: 88 bytes with padding. A field more spills the op to 96.
static_assert(sizeof(DecodedOp) == 88);

/** A decoded function body, indexed by pc like the ir body. */
using DecodedFunction = std::vector<DecodedOp>;

/** All functions of a program, decoded. */
struct DecodedProgram
{
    std::vector<DecodedFunction> funcs;
};

/**
 * Resolve the out-of-line handler of @p ins, a sync, thread,
 * transaction or loop-cut op, or a load or store whose constant
 * address is statically outside the program's address space
 * (@p constant_oob; it resolves to the BadAccess trap). Defined in
 * machine.cc next to the handler bodies.
 */
ExecFn resolveHandler(const ir::Instruction &ins, bool constant_oob);

/**
 * Decode every function of @p prog under cost model @p cost. The
 * program must be finalized. fatal()s on structurally invalid
 * loop-indexed addresses (the static form of the old per-execution
 * nesting check).
 */
DecodedProgram decodeProgram(const ir::Program &prog,
                             const CostModel &cost);

} // namespace txrace::sim

#endif // TXRACE_SIM_DECODE_HH
