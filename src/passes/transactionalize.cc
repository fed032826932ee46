#include <algorithm>
#include <vector>

#include "passes/passes.hh"
#include "support/log.hh"

namespace txrace::passes {

using ir::Instruction;
using ir::OpCode;
using ir::Program;

namespace {

Instruction
makeOp(OpCode op)
{
    Instruction ins;
    ins.op = op;
    return ins;
}

/** True if the transactionalizer must cut a transaction around @p op. */
bool
isBoundary(OpCode op)
{
    return ir::isSyncOp(op) || op == OpCode::Syscall;
}

/**
 * Phase 1: wrap everything, cutting at boundaries. A loop whose body
 * holds a boundary (an inner loop's counts for its enclosing loops)
 * also cuts at its exit: the region opened after the in-loop boundary
 * then ends when the loop does instead of running on into the code
 * after it, so that region covers only the back-edge path.
 */
void
insertBoundaries(ir::Function &fn)
{
    std::vector<Instruction> out;
    out.reserve(fn.body.size() + 16);
    out.push_back(makeOp(OpCode::TxBegin));
    // One flag per open loop: does its body (so far) hold a boundary?
    std::vector<bool> holds_boundary;
    for (auto &ins : fn.body) {
        const OpCode op = ins.op;
        if (isBoundary(op)) {
            out.push_back(makeOp(OpCode::TxEnd));
            out.push_back(std::move(ins));
            out.push_back(makeOp(OpCode::TxBegin));
            if (!holds_boundary.empty())
                holds_boundary.back() = true;
            continue;
        }
        out.push_back(std::move(ins));
        if (op == OpCode::LoopBegin) {
            holds_boundary.push_back(false);
        } else if (op == OpCode::LoopEnd) {
            const bool split = holds_boundary.back();
            holds_boundary.pop_back();
            if (split) {
                out.push_back(makeOp(OpCode::TxEnd));
                out.push_back(makeOp(OpCode::TxBegin));
                if (!holds_boundary.empty())
                    holds_boundary.back() = true;
            }
        }
    }
    out.push_back(makeOp(OpCode::TxEnd));
    fn.body = std::move(out);
}

/** Phase 2: drop syntactically empty TxBegin/TxEnd pairs. */
void
removeAdjacentPairs(ir::Function &fn)
{
    std::vector<Instruction> out;
    out.reserve(fn.body.size());
    for (auto &ins : fn.body) {
        if (ins.op == OpCode::TxEnd && !out.empty() &&
            out.back().op == OpCode::TxBegin) {
            out.pop_back();
            continue;
        }
        out.push_back(std::move(ins));
    }
    fn.body = std::move(out);
}

/** Phase 3: LoopCut before the LoopEnd of transactional loops whose
 *  body contains at least one instrumented memory access. */
void
insertLoopCuts(ir::Function &fn)
{
    // Match loops on the current (post-insertion) body.
    std::vector<size_t> stack;
    std::vector<std::pair<size_t, size_t>> loops;  // (begin, end)
    for (size_t pc = 0; pc < fn.body.size(); ++pc) {
        if (fn.body[pc].op == OpCode::LoopBegin) {
            stack.push_back(pc);
        } else if (fn.body[pc].op == OpCode::LoopEnd) {
            loops.emplace_back(stack.back(), pc);
            stack.pop_back();
        }
    }

    // Transaction state at each pc (linear alternation).
    std::vector<bool> in_tx(fn.body.size(), false);
    bool cur = false;
    for (size_t pc = 0; pc < fn.body.size(); ++pc) {
        if (fn.body[pc].op == OpCode::TxBegin)
            cur = true;
        else if (fn.body[pc].op == OpCode::TxEnd)
            cur = false;
        in_tx[pc] = cur;
    }

    std::vector<size_t> cut_before;  // LoopEnd positions to precede
    std::vector<uint64_t> cut_ids;
    for (auto [begin, end] : loops) {
        if (!in_tx[begin])
            continue;
        bool has_access = false;
        for (size_t pc = begin + 1; pc < end && !has_access; ++pc)
            has_access = ir::isMemAccess(fn.body[pc].op) &&
                         fn.body[pc].instrumented;
        if (!has_access)
            continue;
        cut_before.push_back(end);
        cut_ids.push_back(fn.body[begin].id);
    }

    if (cut_before.empty())
        return;
    std::vector<Instruction> out;
    out.reserve(fn.body.size() + cut_before.size());
    for (size_t pc = 0; pc < fn.body.size(); ++pc) {
        auto it = std::find(cut_before.begin(), cut_before.end(), pc);
        if (it != cut_before.end()) {
            Instruction cut = makeOp(OpCode::LoopCut);
            cut.arg0 = cut_ids[static_cast<size_t>(
                it - cut_before.begin())];
            out.push_back(cut);
        }
        out.push_back(std::move(fn.body[pc]));
    }
    fn.body = std::move(out);
}

/**
 * Phase 4: classify well-nested linear regions. Regions whose span
 * from TxBegin to the next TxEnd stays at or above the starting loop
 * depth are "well nested"; only those are safe to remove or to force
 * slow without disturbing regions that dynamically wrap around loop
 * back-edges.
 */
void
classifyRegions(ir::Function &fn)
{
    // Local loop matching on the current (post-insertion) body.
    std::vector<size_t> match_of(fn.body.size(), 0);
    {
        std::vector<size_t> stack;
        for (size_t pc = 0; pc < fn.body.size(); ++pc) {
            if (fn.body[pc].op == OpCode::LoopBegin) {
                stack.push_back(pc);
            } else if (fn.body[pc].op == OpCode::LoopEnd) {
                match_of[pc] = stack.back();
                match_of[stack.back()] = pc;
                stack.pop_back();
            }
        }
    }

    std::vector<bool> remove(fn.body.size(), false);
    for (size_t i = 0; i < fn.body.size(); ++i) {
        if (fn.body[i].op != OpCode::TxBegin)
            continue;

        // Locate the region's end and check well-nestedness. A region
        // that runs into the LoopEnd of an enclosing loop continues
        // dynamically at the loop top (wrap-around).
        int depth = 0;
        int end_depth = 0;
        bool well_nested = true;
        size_t end = fn.body.size();
        size_t wrap_loop_end = fn.body.size();
        for (size_t j = i + 1; j < fn.body.size(); ++j) {
            OpCode op = fn.body[j].op;
            if (op == OpCode::TxEnd) {
                end = j;
                end_depth = depth;
                break;
            }
            if (op == OpCode::LoopBegin) {
                ++depth;
            } else if (op == OpCode::LoopEnd) {
                if (--depth < 0) {
                    well_nested = false;
                    wrap_loop_end = j;
                    break;
                }
            }
        }
        if (!well_nested) {
            // Wrap-around region: count the tail (TxBegin up to the
            // back edge) once, then the head of the loop body up to
            // its first TxEnd. Bail to "fast" on anything more
            // complicated (a nested loop before the region ends).
            double est = 0.0;
            bool simple = true;
            for (size_t j = i + 1; j < wrap_loop_end && simple; ++j) {
                OpCode op = fn.body[j].op;
                if (op == OpCode::LoopBegin || op == OpCode::LoopEnd)
                    simple = false;
                else if (ir::isMemAccess(op) && fn.body[j].instrumented)
                    est += 1.0;
            }
            size_t head = match_of[wrap_loop_end] + 1;
            bool closed = false;
            for (size_t j = head; j < wrap_loop_end && simple; ++j) {
                OpCode op = fn.body[j].op;
                if (op == OpCode::TxEnd) {
                    closed = true;
                    break;
                }
                if (op == OpCode::LoopBegin || op == OpCode::LoopEnd ||
                    op == OpCode::TxBegin)
                    simple = false;
                else if (ir::isMemAccess(op) && fn.body[j].instrumented)
                    est += 1.0;
            }
            if (simple && closed &&
                est < static_cast<double>(kSmallRegionK))
                fn.body[i].arg1 = ir::kRegionForcedSlow;
            continue;
        }
        if (end == fn.body.size())
            continue;

        // Which loops close inside the region? Only those multiply
        // the per-entry execution count; a loop the region leaves
        // through its TxEnd runs its prefix exactly once per entry.
        std::vector<size_t> open_stack;
        std::vector<bool> closes(fn.body.size(), false);
        for (size_t j = i + 1; j < end; ++j) {
            if (fn.body[j].op == OpCode::LoopBegin)
                open_stack.push_back(j);
            else if (fn.body[j].op == OpCode::LoopEnd) {
                closes[open_stack.back()] = true;
                open_stack.pop_back();
            }
        }

        // Estimated dynamic instrumented accesses per region entry.
        double est = 0.0;
        double mult = 1.0;
        std::vector<double> mult_stack;
        for (size_t j = i + 1; j < end; ++j) {
            OpCode op = fn.body[j].op;
            if (op == OpCode::LoopBegin) {
                mult_stack.push_back(mult);
                if (closes[j]) {
                    double trips =
                        static_cast<double>(fn.body[j].arg0) +
                        static_cast<double>(fn.body[j].arg1) / 2.0;
                    mult = std::min(mult * std::max(trips, 1.0), 1e12);
                }
            } else if (op == OpCode::LoopEnd) {
                if (!mult_stack.empty()) {
                    mult = mult_stack.back();
                    mult_stack.pop_back();
                }
            } else if (ir::isMemAccess(op) &&
                       fn.body[j].instrumented) {
                est += mult;
            }
        }
        if (est == 0.0 && end_depth == 0) {
            // Safe to drop only when the TxEnd sits at the TxBegin's
            // loop depth — otherwise the TxEnd also terminates the
            // wrap-around region entered over the loop back-edge.
            remove[i] = true;
            remove[end] = true;
        } else if (est < static_cast<double>(kSmallRegionK)) {
            fn.body[i].arg1 = ir::kRegionForcedSlow;
        }
    }

    std::vector<Instruction> out;
    out.reserve(fn.body.size());
    for (size_t pc = 0; pc < fn.body.size(); ++pc)
        if (!remove[pc])
            out.push_back(std::move(fn.body[pc]));
    fn.body = std::move(out);
}

} // namespace

void
transactionalize(Program &prog, const PassConfig &cfg)
{
    if (!prog.finalized())
        fatal("transactionalize: program not finalized");
    for (ir::FuncId f = 0; f < prog.numFunctions(); ++f) {
        ir::Function &fn = prog.function(f);
        insertBoundaries(fn);
        removeAdjacentPairs(fn);
        if (cfg.insertLoopCuts)
            insertLoopCuts(fn);
        classifyRegions(fn);
    }
    prog.refinalize();
    std::string err = prog.checkTransactionalForm();
    if (!err.empty())
        panic("transactionalize post-condition failed: %s",
              err.c_str());
}

ir::Program
preparedForTxRace(const Program &prog, const PassConfig &cfg,
                  ElisionStats *elision)
{
    Program copy = prog;
    privatize(copy);
    transactionalize(copy, cfg);
    // Elision runs last, on the final instruction stream: it only
    // clears `instrumented` bits and sets region marks, so the
    // prepared program is position-for-position identical with
    // elision on and off (same ids, same region structure) — the
    // property the differential soundness test rests on.
    ElisionStats stats = elide(copy, cfg.elide);
    if (elision)
        *elision = stats;
    return copy;
}

ir::Program
preparedForTSan(const Program &prog)
{
    Program copy = prog;
    privatize(copy);
    return copy;
}

} // namespace txrace::passes
