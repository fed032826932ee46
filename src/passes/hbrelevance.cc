/**
 * @file
 * Happens-before relevance: which lock and condvar ids can order two
 * checked accesses (the rule is item 4 of elide.cc's pass list).
 */

#include <algorithm>
#include <array>
#include <unordered_map>
#include <utility>
#include <vector>

#include "passes/passes.hh"

namespace txrace::passes {

using ir::Instruction;
using ir::OpCode;

bool
HbRelevance::tracks(const Instruction &ins) const
{
    if (!checks)
        return false;
    if (everyObject)
        return true;
    switch (ins.op) {
      case OpCode::LockAcquire:
      case OpCode::LockRelease:
        return std::binary_search(locks.begin(), locks.end(), ins.arg0);
      case OpCode::CondSignal:
      case OpCode::CondWait:
        return std::binary_search(conds.begin(), conds.end(), ins.arg0);
      default:
        return true;
    }
}

namespace {

enum ObjectKind : size_t { kLock, kCond, kBarrier, kNumKinds };

/**
 * The relevance graph. Nodes are the functions (ids 0..n-1), one join
 * hub, and one node per lock, condvar and barrier id, made on first
 * use. Edges are collected in one list, then laid out both ways for
 * the reachability walks.
 */
class Graph
{
  public:
    explicit Graph(uint32_t fixed_nodes) : nodes_(fixed_nodes) {}

    uint32_t
    object(ObjectKind kind, uint64_t id)
    {
        auto [it, fresh] = objects_[kind].try_emplace(id, nodes_);
        if (fresh)
            ++nodes_;
        return it->second;
    }

    void edge(uint32_t from, uint32_t to) { edges_.emplace_back(from, to); }

    /** The objects of @p kind, as (id, node) pairs. */
    const std::unordered_map<uint64_t, uint32_t> &
    objects(ObjectKind kind) const
    {
        return objects_[kind];
    }

    /** Lay the edges out as forward and backward adjacency lists. */
    void
    finish()
    {
        for (bool forward : {true, false}) {
            Adjacency &adj = forward ? out_ : in_;
            adj.start.assign(nodes_ + 1, 0);
            for (const auto &[from, to] : edges_)
                ++adj.start[(forward ? from : to) + 1];
            for (uint32_t n = 0; n < nodes_; ++n)
                adj.start[n + 1] += adj.start[n];
            adj.next.resize(edges_.size());
            std::vector<uint32_t> fill(adj.start.begin(),
                                       adj.start.end() - 1);
            for (const auto &[from, to] : edges_)
                adj.next[fill[forward ? from : to]++] =
                    forward ? to : from;
        }
    }

    /** Nodes reachable from @p roots along the edges (@p forward) or
     *  against them; the roots themselves are marked too. */
    std::vector<bool>
    reach(const std::vector<uint32_t> &roots, bool forward) const
    {
        const Adjacency &adj = forward ? out_ : in_;
        std::vector<bool> seen(nodes_, false);
        std::vector<uint32_t> work;
        for (uint32_t r : roots) {
            if (!seen[r]) {
                seen[r] = true;
                work.push_back(r);
            }
        }
        while (!work.empty()) {
            const uint32_t n = work.back();
            work.pop_back();
            for (uint32_t i = adj.start[n]; i < adj.start[n + 1]; ++i) {
                const uint32_t m = adj.next[i];
                if (!seen[m]) {
                    seen[m] = true;
                    work.push_back(m);
                }
            }
        }
        return seen;
    }

  private:
    struct Adjacency
    {
        std::vector<uint32_t> start;
        std::vector<uint32_t> next;
    };

    uint32_t nodes_;
    std::array<std::unordered_map<uint64_t, uint32_t>, kNumKinds> objects_;
    std::vector<std::pair<uint32_t, uint32_t>> edges_;
    Adjacency out_, in_;
};

} // namespace

HbRelevance
hbRelevance(const ir::Program &prog, bool per_object)
{
    HbRelevance rel;
    rel.checks = false;
    rel.everyObject = !per_object;

    const uint32_t nf = static_cast<uint32_t>(prog.numFunctions());
    const uint32_t hub = nf;  // every spawned function -> every live join
    Graph g(nf + 1);
    std::vector<uint32_t> checked;
    bool entry_spawned = false;
    for (ir::FuncId f = 0; f < nf; ++f) {
        // A join relays only to what its function does after it: the
        // ops later in the body, and the whole of the outermost loop
        // around it (a later trip). So a join is live iff the
        // function's last send or check lies at or past that start.
        bool checks = false;
        bool any_out = false;  // a send or a check
        uint32_t last_out = 0;
        uint32_t first_join = ~0u;
        uint32_t outer = 0;
        size_t depth = 0;
        const auto &body = prog.function(f).body;
        for (uint32_t pc = 0; pc < body.size(); ++pc) {
            const Instruction &ins = body[pc];
            bool out = false;
            switch (ins.op) {
              case OpCode::LoopBegin:
                if (depth++ == 0)
                    outer = pc;
                break;
              case OpCode::LoopEnd:
                --depth;
                break;
              case OpCode::LockAcquire:
                g.edge(g.object(kLock, ins.arg0), f);
                break;
              case OpCode::LockRelease:
                g.edge(f, g.object(kLock, ins.arg0));
                out = true;
                break;
              case OpCode::CondWait:
                g.edge(g.object(kCond, ins.arg0), f);
                break;
              case OpCode::CondSignal:
                g.edge(f, g.object(kCond, ins.arg0));
                out = true;
                break;
              case OpCode::Barrier: {
                const uint32_t b = g.object(kBarrier, ins.arg0);
                g.edge(f, b);
                g.edge(b, f);
                out = true;
                break;
              }
              case OpCode::ThreadCreate:
                g.edge(f, static_cast<uint32_t>(ins.arg0));
                g.edge(static_cast<uint32_t>(ins.arg0), hub);
                entry_spawned = entry_spawned || ins.arg0 == prog.entry();
                out = true;
                break;
              case OpCode::ThreadJoin:
                first_join = std::min(first_join, depth > 0 ? outer : pc);
                break;
              case OpCode::Load:
              case OpCode::Store:
                out = ins.instrumented;
                checks = checks || out;
                break;
              default:
                break;
            }
            if (out) {
                any_out = true;
                last_out = pc;
            }
        }
        if (any_out && first_join != ~0u && last_out >= first_join)
            g.edge(hub, f);
        if (checks)
            checked.push_back(f);
    }
    rel.checks = !checked.empty();
    if (rel.everyObject || !rel.checks)
        return rel;

    // Only accesses of two different threads can race. The entry
    // function runs in the root thread alone unless a ThreadCreate
    // runs it, so a path from it back to itself orders nothing that
    // can race: such an object needs another checked end.
    std::vector<uint32_t> others = checked;
    if (!entry_spawned)
        std::erase(others, prog.entry());
    g.finish();
    const std::vector<bool> from_any = g.reach(checked, true);
    const std::vector<bool> to_any = g.reach(checked, false);
    const bool same = others.size() == checked.size();
    const std::vector<bool> from_other =
        same ? from_any : g.reach(others, true);
    const std::vector<bool> to_other = same ? to_any : g.reach(others, false);
    for (ObjectKind kind : {kLock, kCond}) {
        std::vector<uint64_t> &ids = kind == kLock ? rel.locks : rel.conds;
        for (const auto &[id, n] : g.objects(kind))
            if ((from_other[n] && to_any[n]) || (from_any[n] && to_other[n]))
                ids.push_back(id);
        std::sort(ids.begin(), ids.end());
    }
    return rel;
}

} // namespace txrace::passes
