#include "ir/text.hh"

#include <fstream>
#include <map>
#include <sstream>

#include "ir/printer.hh"
#include "support/log.hh"

namespace txrace::ir {

// --------------------------------------------------------------------
// Serialization (instruction syntax shared with the printer)
// --------------------------------------------------------------------

void
writeProgramText(const Program &prog, std::ostream &os)
{
    if (prog.addrSpaceSize() > 0)
        os << "space 0x" << std::hex << prog.addrSpaceSize()
           << std::dec << "\n";
    for (const AddrRange &range : prog.privateRanges())
        os << "private 0x" << std::hex << range.lo << " 0x" << range.hi
           << std::dec << "\n";
    for (FuncId f = 0; f < prog.numFunctions(); ++f) {
        const Function &fn = prog.function(f);
        os << "func @" << fn.name << "\n";
        int indent = 1;
        for (const Instruction &ins : fn.body) {
            if (ins.op == OpCode::LoopEnd)
                --indent;
            for (int i = 0; i < indent; ++i)
                os << "  ";
            os << formatInstr(ins) << "\n";
            if (ins.op == OpCode::LoopBegin)
                ++indent;
        }
        os << "end\n";
    }
    os << "entry @" << prog.function(prog.entry()).name << "\n";
}

// --------------------------------------------------------------------
// Parsing
// --------------------------------------------------------------------

namespace {

/** Minimal cursor over one line. */
class LineCursor
{
  public:
    LineCursor(const std::string &text, int line_no)
        : text_(text), lineNo_(line_no)
    {
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t'))
            ++pos_;
    }

    bool
    atEnd()
    {
        skipSpace();
        return pos_ >= text_.size();
    }

    /** Consume @p literal if present. */
    bool
    accept(const std::string &literal)
    {
        skipSpace();
        if (text_.compare(pos_, literal.size(), literal) == 0) {
            pos_ += literal.size();
            return true;
        }
        return false;
    }

    void
    expect(const std::string &literal)
    {
        if (!accept(literal))
            fail("expected '" + literal + "'");
    }

    /** Parse an unsigned integer (decimal or 0x-hex). */
    uint64_t
    number()
    {
        skipSpace();
        size_t start = pos_;
        int base = 10;
        if (text_.compare(pos_, 2, "0x") == 0) {
            base = 16;
            pos_ += 2;
            start = pos_;
        }
        uint64_t value = 0;
        bool any = false;
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            int digit;
            if (c >= '0' && c <= '9')
                digit = c - '0';
            else if (base == 16 && c >= 'a' && c <= 'f')
                digit = 10 + (c - 'a');
            else if (base == 16 && c >= 'A' && c <= 'F')
                digit = 10 + (c - 'A');
            else
                break;
            value = value * static_cast<uint64_t>(base) +
                    static_cast<uint64_t>(digit);
            any = true;
            ++pos_;
        }
        if (!any) {
            pos_ = start;
            fail("expected a number");
        }
        return value;
    }

    /** Parse a bare word (identifier-ish token). */
    std::string
    word()
    {
        skipSpace();
        size_t start = pos_;
        while (pos_ < text_.size() && text_[pos_] != ' ' &&
               text_[pos_] != '\t')
            ++pos_;
        if (pos_ == start)
            fail("expected a word");
        return text_.substr(start, pos_ - start);
    }

    /** Rest of the line, trimmed. */
    std::string
    rest()
    {
        skipSpace();
        std::string out = text_.substr(pos_);
        while (!out.empty() &&
               (out.back() == ' ' || out.back() == '\t' ||
                out.back() == '\r'))
            out.pop_back();
        pos_ = text_.size();
        return out;
    }

    [[noreturn]] void
    fail(const std::string &what)
    {
        fatal("program text line %d: %s (at '%s')", lineNo_,
              what.c_str(), text_.substr(pos_, 24).c_str());
    }

  private:
    const std::string &text_;
    int lineNo_;
    size_t pos_ = 0;
};

AddrExpr
parseAddr(LineCursor &cur)
{
    AddrExpr a;
    cur.expect("[");
    a.base = cur.number();
    while (cur.accept("+")) {
        if (cur.accept("tid*")) {
            a.threadStride = cur.number();
        } else if (cur.accept("i")) {
            a.loopDepth = static_cast<uint32_t>(cur.number());
            cur.expect("*");
            a.loopStride = cur.number();
        } else if (cur.accept("rnd(")) {
            a.randomCount = cur.number();
            cur.expect(")");
            cur.expect("*");
            a.randomStride = cur.number();
        } else {
            cur.fail("expected tid*, iN* or rnd(..)* term");
        }
    }
    cur.expect("]");
    return a;
}

/** Strip a trailing "; tag" comment into ins.tag, if present. */
void
takeTag(LineCursor &cur, Instruction &ins)
{
    if (cur.accept(";"))
        ins.tag = cur.rest();
    else if (!cur.atEnd())
        cur.fail("unexpected trailing text");
}

Instruction
parseInstr(const std::string &mnemonic, LineCursor &cur)
{
    static const std::map<std::string, OpCode> kOps = {
        {"nop", OpCode::Nop},
        {"load", OpCode::Load},
        {"store", OpCode::Store},
        {"compute", OpCode::Compute},
        {"lock", OpCode::LockAcquire},
        {"unlock", OpCode::LockRelease},
        {"signal", OpCode::CondSignal},
        {"wait", OpCode::CondWait},
        {"barrier", OpCode::Barrier},
        {"create", OpCode::ThreadCreate},
        {"join", OpCode::ThreadJoin},
        {"syscall", OpCode::Syscall},
        {"loop.begin", OpCode::LoopBegin},
        {"loop.end", OpCode::LoopEnd},
        {"tx.begin", OpCode::TxBegin},
        {"tx.end", OpCode::TxEnd},
        {"loop.cut", OpCode::LoopCut},
    };
    auto it = kOps.find(mnemonic);
    if (it == kOps.end())
        cur.fail("unknown mnemonic '" + mnemonic + "'");

    Instruction ins;
    ins.op = it->second;
    switch (ins.op) {
      case OpCode::Load:
      case OpCode::Store:
        ins.addr = parseAddr(cur);
        if (cur.accept("!noinstr"))
            ins.instrumented = false;
        break;
      case OpCode::Compute:
      case OpCode::Syscall:
        cur.expect("cost=");
        ins.arg0 = cur.number();
        break;
      case OpCode::LockAcquire:
      case OpCode::LockRelease:
      case OpCode::CondSignal:
      case OpCode::CondWait:
        cur.expect("id=");
        ins.arg0 = cur.number();
        break;
      case OpCode::Barrier:
        cur.expect("id=");
        ins.arg0 = cur.number();
        cur.expect("n=");
        ins.arg1 = cur.number();
        break;
      case OpCode::ThreadCreate:
        cur.expect("fn=");
        ins.arg0 = cur.number();
        break;
      case OpCode::ThreadJoin:
        if (cur.accept("all")) {
            ins.arg0 = ~0ull;
        } else {
            cur.expect("idx=");
            ins.arg0 = cur.number();
        }
        break;
      case OpCode::LoopBegin:
        cur.expect("trips=");
        ins.arg0 = cur.number();
        if (cur.accept("+rnd(")) {
            ins.arg1 = cur.number();
            cur.expect(")");
        }
        break;
      case OpCode::TxBegin:
        if (cur.accept("slow"))
            ins.arg1 = kRegionForcedSlow;
        else if (cur.accept("bare"))
            ins.arg1 = kRegionBare;
        break;
      case OpCode::LoopCut:
        cur.expect("loop=");
        ins.arg0 = cur.number();
        break;
      default:
        break;
    }
    takeTag(cur, ins);
    return ins;
}

} // namespace

Program
parseProgramText(std::istream &is)
{
    Program prog;
    std::map<std::string, FuncId> by_name;
    Function current;
    bool in_func = false;
    bool entry_set = false;
    std::string entry_name;
    std::string line;
    int line_no = 0;

    while (std::getline(is, line)) {
        ++line_no;
        LineCursor cur(line, line_no);
        if (cur.atEnd() || cur.accept("#"))
            continue;

        if (cur.accept("space ")) {
            prog.setAddrSpaceSize(cur.number());
            continue;
        }
        if (cur.accept("private ")) {
            AddrRange range;
            range.lo = cur.number();
            range.hi = cur.number();
            prog.addPrivateRange(range);
            continue;
        }
        if (cur.accept("func @")) {
            if (in_func)
                cur.fail("func inside func");
            current = Function{};
            current.name = cur.word();
            in_func = true;
            continue;
        }
        if (!in_func && cur.accept("entry @")) {
            entry_name = cur.word();
            entry_set = true;
            continue;
        }
        if (cur.accept("end")) {
            if (!cur.atEnd())
                cur.fail("unexpected text after 'end'");
            if (!in_func)
                cur.fail("end outside func");
            std::string fn_name = current.name;
            by_name[fn_name] = prog.addFunction(std::move(current));
            in_func = false;
            continue;
        }
        if (!in_func)
            cur.fail("instruction outside func");
        std::string mnemonic = cur.word();
        current.body.push_back(parseInstr(mnemonic, cur));
    }
    if (in_func)
        fatal("program text: missing 'end' for func @%s",
              current.name.c_str());
    if (prog.numFunctions() == 0)
        fatal("program text: no functions");
    if (entry_set) {
        auto it = by_name.find(entry_name);
        if (it == by_name.end())
            fatal("program text: entry @%s not defined",
                  entry_name.c_str());
        prog.setEntry(it->second);
    } else {
        prog.setEntry(static_cast<FuncId>(prog.numFunctions() - 1));
    }
    prog.finalize();
    return prog;
}

Program
loadProgramFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open program file '%s'", path.c_str());
    return parseProgramText(in);
}

} // namespace txrace::ir
