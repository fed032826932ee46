#include "sim/decode.hh"

#include "support/log.hh"

namespace txrace::sim {

namespace {

/** Base-bucket charge the interpreter used to compute per execution. */
uint64_t
staticCost(const ir::Instruction &ins, const CostModel &cost)
{
    switch (ins.op) {
      case ir::OpCode::Compute:
        return ins.arg0;
      case ir::OpCode::Syscall:
        return cost.syscallCost + ins.arg0;
      case ir::OpCode::Load:
        return cost.loadCost;
      case ir::OpCode::Store:
        return cost.storeCost;
      case ir::OpCode::LockAcquire:
      case ir::OpCode::LockRelease:
      case ir::OpCode::CondSignal:
      case ir::OpCode::CondWait:
      case ir::OpCode::Barrier:
        return cost.syncCost;
      case ir::OpCode::ThreadCreate:
      case ir::OpCode::ThreadJoin:
        return cost.threadOpCost;
      case ir::OpCode::Nop:
      case ir::OpCode::LoopBegin:
      case ir::OpCode::LoopEnd:
      case ir::OpCode::TxBegin:
      case ir::OpCode::TxEnd:
      case ir::OpCode::LoopCut:
        return 0;
    }
    return 0;
}

/** The inline kind of a load or store of address shape @p shape. */
OpKind
accessKind(ir::AddrShape shape, bool store)
{
    switch (shape) {
      case ir::AddrShape::Constant:
        return store ? OpKind::StoreConstant : OpKind::LoadConstant;
      case ir::AddrShape::ThreadStrided:
        return store ? OpKind::StoreThreadStrided
                     : OpKind::LoadThreadStrided;
      case ir::AddrShape::LoopIndexed:
        return store ? OpKind::StoreLoopIndexed : OpKind::LoadLoopIndexed;
      case ir::AddrShape::Randomized:
        return store ? OpKind::StoreRandomized : OpKind::LoadRandomized;
    }
    panic("decodeProgram: unhandled address shape");
}

/** How the quantum loop runs @p ins: inline for the simple ops,
 *  OpKind::Handler for the rest and for a @p constant_oob access. */
OpKind
opKind(const ir::Instruction &ins, bool constant_oob)
{
    switch (ins.op) {
      case ir::OpCode::Nop:
        return OpKind::Nop;
      case ir::OpCode::Compute:
        return OpKind::Compute;
      case ir::OpCode::Syscall:
        return OpKind::Syscall;
      case ir::OpCode::LoopBegin:
        return OpKind::LoopBegin;
      case ir::OpCode::LoopEnd:
        return OpKind::LoopEnd;
      case ir::OpCode::Load:
      case ir::OpCode::Store:
        if (constant_oob)
            return OpKind::Handler;
        return accessKind(ins.addr.shape(),
                          ins.op == ir::OpCode::Store);
      default:
        return OpKind::Handler;
    }
}

} // namespace

DecodedProgram
decodeProgram(const ir::Program &prog, const CostModel &cost)
{
    if (!prog.finalized())
        fatal("decodeProgram: program not finalized");
    DecodedProgram out;
    out.funcs.resize(prog.numFunctions());
    for (ir::FuncId f = 0; f < prog.numFunctions(); ++f) {
        const auto &body = prog.function(f).body;
        DecodedFunction &ops = out.funcs[f];
        ops.reserve(body.size());
        // Static loop-nesting depth at each pc. Loops are structural
        // (LoopBegin/LoopEnd strictly nest within a function), so the
        // dynamic nesting a mem op sees always equals this.
        uint32_t depth = 0;
        for (const ir::Instruction &ins : body) {
            if (ins.op == ir::OpCode::LoopEnd) {
                if (depth == 0)
                    fatal("decodeProgram: unmatched LoopEnd in %s",
                          prog.function(f).name.c_str());
                --depth;
            }
            DecodedOp op;
            op.ins = &ins;
            op.cost = staticCost(ins, cost);
            op.arg0 = ins.arg0;
            op.arg1 = ins.arg1;
            bool constant_oob = false;
            bool is_mem = ins.op == ir::OpCode::Load ||
                          ins.op == ir::OpCode::Store;
            if (is_mem) {
                op.base = ins.addr.base;
                op.threadStride = ins.addr.threadStride;
                op.loopStride = ins.addr.loopStride;
                op.randomStride = ins.addr.randomStride;
                op.randomCount = ins.addr.randomCount;
                op.loopDepth = ins.addr.loopDepth;
                // The old interpreter checked nesting on every
                // execution; decode proves it once.
                if (ins.addr.loopStride != 0 &&
                    ins.addr.loopDepth >= depth)
                    fatal("decodeProgram: loop-indexed address outside "
                          "loop (depth %u, nesting %u)",
                          ins.addr.loopDepth, depth);
                constant_oob = ins.addr.shape() == ir::AddrShape::Constant &&
                               prog.addrSpaceSize() > 0 &&
                               ins.addr.base >= prog.addrSpaceSize();
            }
            if (ins.op == ir::OpCode::LoopBegin) {
                op.jump = static_cast<uint32_t>(ins.match) + 1;
                ++depth;
            }
            op.kind = opKind(ins, constant_oob);
            if (op.kind == OpKind::Handler)
                op.fn = resolveHandler(ins, constant_oob);
            ops.push_back(op);
        }
    }
    return out;
}

} // namespace txrace::sim
