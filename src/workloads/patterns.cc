#include "workloads/patterns.hh"

#include "ir/builder.hh"
#include "support/log.hh"

namespace txrace::workloads {

using ir::AddrExpr;
using ir::ProgramBuilder;

namespace {

/** Enough instrumented reads to keep a region above the K threshold
 *  and transactional (so fast-path behaviour is actually exercised). */
void
pad(ProgramBuilder &b, ir::Addr base)
{
    for (int i = 0; i < 6; ++i)
        b.load(AddrExpr::absolute(base + 8 * i), "pad");
}

Pattern
unlockedCounter()
{
    ProgramBuilder b;
    ir::Addr data = b.alloc("data", 4096);
    ir::Addr counter = b.alloc("counter", 8);
    ir::FuncId worker = b.beginFunction("worker");
    b.loop(15, [&] {
        pad(b, data);
        b.store(AddrExpr::absolute(counter), "counter++ unlocked");
        b.syscall(1);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 3);
    b.joinAll();
    b.endFunction();
    return {"unlocked-counter",
            "shared counter incremented with no lock; the textbook "
            "write-write race, hot enough for every tool",
            b.build(), 1, Expectation::Detects, Expectation::Detects,
            Expectation::Detects,
            Expectation::Detects, {}};
}

Pattern
atomicityViolation()
{
    // Each access is individually locked, so there is NO data race —
    // yet the read-modify-write is not atomic (a semantic bug no race
    // detector can see). Documents the limit of race detection.
    ProgramBuilder b;
    ir::Addr data = b.alloc("data", 4096);
    ir::Addr x = b.alloc("x", 8);
    ir::FuncId worker = b.beginFunction("worker");
    b.loop(12, [&] {
        b.lock(0);
        pad(b, data);
        b.load(AddrExpr::absolute(x), "read x");
        b.unlock(0);
        b.compute(10);  // the atomicity hole
        b.lock(0);
        pad(b, data);
        b.store(AddrExpr::absolute(x), "write stale x");
        b.unlock(0);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 3);
    b.joinAll();
    b.endFunction();
    return {"atomicity-violation",
            "read and write of x each hold the lock, but not "
            "together: race-free yet broken — invisible to all race "
            "detectors",
            b.build(), 0, Expectation::Silent, Expectation::Silent,
            Expectation::Silent,
            Expectation::Silent, {}};
}

Pattern
orderViolation()
{
    // The consumer was supposed to wait for the producer's signal but
    // reads the shared buffer immediately: a write-read race with a
    // wide window (both sides busy around the same time).
    ProgramBuilder b;
    ir::Addr data = b.alloc("data", 4096);
    ir::Addr buf = b.alloc("buf", 8);
    ir::FuncId producer = b.beginFunction("producer");
    b.loop(12, [&] {
        pad(b, data);
        b.store(AddrExpr::absolute(buf), "produce");
        b.syscall(1);
    });
    b.signal(0);  // signaled only once, at the very end
    b.endFunction();
    ir::FuncId consumer = b.beginFunction("consumer");
    b.loop(12, [&] {
        pad(b, data);
        b.load(AddrExpr::absolute(buf), "consume too early");
        b.syscall(1);
    });
    b.wait(0);  // the wait is misplaced: after the reads
    b.endFunction();
    b.beginFunction("main");
    b.spawn(producer, 1);
    b.spawn(consumer, 1);
    b.joinAll();
    b.endFunction();
    return {"order-violation",
            "consumer reads before the producer's signal (the wait is "
            "misplaced); overlapping accesses that every "
            "happens-before or overlap detector catches",
            b.build(), 1, Expectation::Detects, Expectation::Detects,
            Expectation::Detects,
            Expectation::Detects, {}};
}

Pattern
unsafePublication()
{
    // The initialization idiom of §8.3: main initializes right after
    // spawning, workers read at the very end. Far apart in time.
    ProgramBuilder b;
    ir::Addr data = b.alloc("data", 4096);
    ir::Addr obj = b.alloc("obj", 64, 64);
    ir::FuncId worker = b.beginFunction("worker");
    b.loop(40, [&] {
        pad(b, data);
        b.syscall(1);
    });
    pad(b, data);
    b.load(AddrExpr::absolute(obj), "late read of published obj");
    b.syscall(1);
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 3);
    pad(b, data);
    b.store(AddrExpr::absolute(obj), "unsynchronized init");
    b.joinAll();
    b.endFunction();
    return {"unsafe-publication",
            "object initialized (unsynchronized) right after spawn "
            "and read only much later: a real race that overlap-based "
            "detection cannot see, and lockset forgives as "
            "initialization",
            b.build(), 1, Expectation::Detects, Expectation::Misses,
            Expectation::Misses,
            Expectation::Misses, {}};
}

Pattern
doubleCheckedLocking()
{
    // Broken DCL: the fast-path check reads the pointer without the
    // lock while the initializer writes it under the lock.
    ProgramBuilder b;
    ir::Addr data = b.alloc("data", 4096);
    ir::Addr ptr = b.alloc("singleton", 8);
    ir::FuncId reader = b.beginFunction("reader");
    b.loop(15, [&] {
        pad(b, data);
        b.load(AddrExpr::absolute(ptr), "unlocked fast-path check");
        b.syscall(1);
    });
    b.endFunction();
    ir::FuncId initer = b.beginFunction("initializer");
    b.loop(15, [&] {
        b.lock(0);
        pad(b, data);
        b.store(AddrExpr::absolute(ptr), "locked init write");
        b.unlock(0);
        b.compute(5);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(reader, 2);
    b.spawn(initer, 1);
    b.joinAll();
    b.endFunction();
    return {"double-checked-locking",
            "the classic broken singleton: unlocked read vs locked "
            "write",
            b.build(), 1, Expectation::Detects, Expectation::Detects,
            Expectation::Detects,
            Expectation::Detects, {}};
}

Pattern
barrierDoubleBuffer()
{
    ProgramBuilder b;
    ir::Addr cells = b.alloc("cells", 6 * 64, 64);
    ir::Addr data = b.alloc("data", 4096);
    ir::FuncId worker = b.beginFunction("worker");
    b.loop(12, [&] {
        pad(b, data);
        b.store(AddrExpr::perThread(cells, 64), "fill own cell");
        b.barrier(0, 3);
        b.load(AddrExpr::perThread(cells + 64, 64), "read neighbor");
        b.barrier(1, 3);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 3);
    b.joinAll();
    b.endFunction();
    return {"barrier-double-buffer",
            "barrier-ordered producer/consumer cells: race-free, but "
            "no lock is ever held — the lockset blind spot",
            b.build(), 0, Expectation::Silent, Expectation::Silent,
            Expectation::FalseAlarm,
            Expectation::Silent, {}};
}

Pattern
falseSharing()
{
    ProgramBuilder b;
    ir::Addr data = b.alloc("data", 4096);
    ir::Addr slots = b.alloc("slots", 64, 64);  // 4 slots, one line
    ir::FuncId worker = b.beginFunction("worker");
    b.loop(15, [&] {
        pad(b, data);
        b.store(AddrExpr::perThread(slots, 8), "own packed slot");
        b.syscall(1);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 4);
    b.joinAll();
    b.endFunction();
    return {"false-sharing",
            "per-thread slots packed into one cache line: floods the "
            "HTM fast path with conflicts, all correctly dismissed by "
            "the precise slow path",
            b.build(), 0, Expectation::Silent, Expectation::Silent,
            Expectation::Silent,
            Expectation::FalseAlarm, {}};
}

Pattern
racyFlagSpin()
{
    // A bounded spin on a completion flag with no synchronization:
    // the reader polls constantly, so the racing accesses overlap in
    // nearly every schedule.
    ProgramBuilder b;
    ir::Addr data = b.alloc("data", 4096);
    ir::Addr flag = b.alloc("done-flag", 8);
    ir::FuncId waiter = b.beginFunction("waiter");
    b.loop(30, [&] {
        pad(b, data);
        b.load(AddrExpr::absolute(flag), "spin on flag");
        b.syscall(1);
    });
    b.endFunction();
    ir::FuncId setter = b.beginFunction("setter");
    b.loop(8, [&] {
        // The progress flag is stored early in the region, so the
        // written line stays in the transaction's write set long
        // enough for the TxFail protocol to catch the writer too
        // (a last-instruction store would usually commit first and
        // escape — §6's second false-negative source).
        b.store(AddrExpr::absolute(flag), "set flag without sync");
        pad(b, data);
        b.compute(20);
        b.syscall(1);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(waiter, 2);
    b.spawn(setter, 1);
    b.joinAll();
    b.endFunction();
    return {"racy-flag-spin",
            "ad-hoc synchronization: spinning on a plain flag; the "
            "polling loop overlaps the unsynchronized store, and the "
            "read-then-written flag escalates Eraser's state machine "
            "too",
            b.build(), 1, Expectation::Detects, Expectation::Detects,
            Expectation::Detects,
            Expectation::Detects, {}};
}

Pattern
lockedControl()
{
    ProgramBuilder b;
    ir::Addr data = b.alloc("data", 4096);
    ir::Addr x = b.alloc("x", 8);
    ir::FuncId worker = b.beginFunction("worker");
    b.loop(15, [&] {
        b.lock(0);
        pad(b, data);
        b.load(AddrExpr::absolute(x), "locked read");
        b.store(AddrExpr::absolute(x), "locked write");
        b.unlock(0);
        b.compute(5);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 3);
    b.joinAll();
    b.endFunction();
    return {"locked-control",
            "the correctly synchronized control: consistent locking, "
            "no tool may report anything",
            b.build(), 0, Expectation::Silent, Expectation::Silent,
            Expectation::Silent,
            Expectation::Silent, {}};
}

/** Ground-truth tag pairs for the racy patterns (the others stay
 *  empty, matching trueRaces == 0). */
void
annotateGroundTruth(Pattern &p)
{
    if (p.name == "unlocked-counter")
        p.groundTruth = {{"counter++ unlocked", "counter++ unlocked"}};
    else if (p.name == "order-violation")
        p.groundTruth = {{"produce", "consume too early"}};
    else if (p.name == "unsafe-publication")
        p.groundTruth = {{"unsynchronized init",
                          "late read of published obj", true}};
    else if (p.name == "double-checked-locking")
        p.groundTruth = {{"locked init write",
                          "unlocked fast-path check"}};
    else if (p.name == "racy-flag-spin")
        p.groundTruth = {{"set flag without sync", "spin on flag"}};
}

} // namespace

std::vector<Pattern>
buildPatternCatalog()
{
    std::vector<Pattern> out;
    out.push_back(unlockedCounter());
    out.push_back(atomicityViolation());
    out.push_back(orderViolation());
    out.push_back(unsafePublication());
    out.push_back(doubleCheckedLocking());
    out.push_back(barrierDoubleBuffer());
    out.push_back(falseSharing());
    out.push_back(racyFlagSpin());
    out.push_back(lockedControl());
    for (Pattern &p : out)
        annotateGroundTruth(p);
    return out;
}

std::vector<std::string>
patternNames()
{
    std::vector<std::string> names;
    for (const Pattern &p : buildPatternCatalog())
        names.push_back(p.name);
    return names;
}

Pattern
makePattern(const std::string &name)
{
    for (Pattern &p : buildPatternCatalog())
        if (p.name == name)
            return std::move(p);
    fatal("unknown pattern '%s'", name.c_str());
}

} // namespace txrace::workloads
