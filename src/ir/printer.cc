#include "ir/printer.hh"

#include <sstream>

#include "support/log.hh"

namespace txrace::ir {

namespace {

std::string
formatAddr(const AddrExpr &a)
{
    std::ostringstream ss;
    ss << "[0x" << std::hex << a.base << std::dec;
    if (a.threadStride)
        ss << " + tid*" << a.threadStride;
    if (a.loopStride)
        ss << " + i" << a.loopDepth << "*" << a.loopStride;
    if (a.randomCount)
        ss << " + rnd(" << a.randomCount << ")*" << a.randomStride;
    ss << "]";
    return ss.str();
}

} // namespace

std::string
formatInstr(const Instruction &ins)
{
    std::ostringstream ss;
    ss << opName(ins.op);
    switch (ins.op) {
      case OpCode::Load:
      case OpCode::Store:
        ss << " " << formatAddr(ins.addr);
        if (!ins.instrumented)
            ss << " !noinstr";
        break;
      case OpCode::Compute:
      case OpCode::Syscall:
        ss << " cost=" << ins.arg0;
        break;
      case OpCode::LockAcquire:
      case OpCode::LockRelease:
      case OpCode::CondSignal:
      case OpCode::CondWait:
        ss << " id=" << ins.arg0;
        break;
      case OpCode::Barrier:
        ss << " id=" << ins.arg0 << " n=" << ins.arg1;
        break;
      case OpCode::ThreadCreate:
        ss << " fn=" << ins.arg0;
        break;
      case OpCode::ThreadJoin:
        if (ins.arg0 == ~0ull)
            ss << " all";
        else
            ss << " idx=" << ins.arg0;
        break;
      case OpCode::LoopBegin:
        ss << " trips=" << ins.arg0;
        if (ins.arg1)
            ss << "+rnd(" << ins.arg1 << ")";
        break;
      case OpCode::TxBegin:
        if (ins.arg1 == kRegionForcedSlow)
            ss << " slow";
        else if (ins.arg1 == kRegionBare)
            ss << " bare";
        break;
      case OpCode::LoopCut:
        ss << " loop=" << ins.arg0;
        break;
      default:
        break;
    }
    if (!ins.tag.empty())
        ss << "  ; " << ins.tag;
    return ss.str();
}

} // namespace txrace::ir
