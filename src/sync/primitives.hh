/**
 * @file
 * Blocking synchronization objects of the simulated machine: mutexes,
 * counting condvars (semaphore semantics, so no lost wakeups), and
 * barriers.
 *
 * This module owns *who waits and who runs*; the happens-before
 * consequences of these operations are tracked separately by the
 * detector, which both the TSan baseline and TxRace keep running even
 * on the fast path (paper §5).
 */

#ifndef TXRACE_SYNC_PRIMITIVES_HH
#define TXRACE_SYNC_PRIMITIVES_HH

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "support/types.hh"

namespace txrace::sync {

/**
 * The synchronization-object tables of one simulated machine.
 *
 * All wake decisions are FIFO, keeping runs deterministic for a given
 * scheduler seed.
 */
class SyncTables
{
  public:
    /** @name Mutexes */
    /** @{ */
    /** Try to take mutex @p id; false means the caller must block. */
    bool lockTryAcquire(Tid t, uint64_t id);

    /** Queue @p t as waiting for mutex @p id. */
    void lockEnqueue(Tid t, uint64_t id);

    /**
     * Release mutex @p id held by @p t. If a waiter exists, ownership
     * transfers to it and its tid is returned (the caller unblocks
     * it); otherwise returns kNoTid. Panics if @p t is not the owner.
     */
    Tid lockRelease(Tid t, uint64_t id);

    /** Current owner of mutex @p id (kNoTid if free). */
    Tid lockOwner(uint64_t id) const;
    /** @} */

    /** @name Counting condvars (semaphores) */
    /** @{ */
    /** Consume a banked post if available; false = caller blocks. */
    bool condTryWait(uint64_t id);

    /** Queue @p t as waiting on condvar @p id. */
    void condEnqueue(Tid t, uint64_t id);

    /**
     * Post condvar @p id. Wakes and returns the oldest waiter, or
     * banks the post and returns kNoTid.
     */
    Tid condSignal(uint64_t id);
    /** @} */

    /** @name Barriers */
    /** @{ */
    /**
     * Thread @p t arrives at barrier @p id expecting @p participants
     * arrivals. When the arrival completes the barrier, the full
     * participant list (including @p t) is returned and the barrier
     * resets; otherwise the caller blocks and an empty vector is
     * returned. The list stays valid until the next barrierArrive();
     * it and the barrier swap buffers, so episodes allocate nothing
     * once both have grown.
     */
    const std::vector<Tid> &barrierArrive(Tid t, uint64_t id,
                                          uint64_t participants);
    /** @} */

    /** True if any object has blocked waiters (deadlock diagnosis). */
    bool anyWaiters() const;

  private:
    struct Mutex
    {
        Tid owner = kNoTid;
        std::deque<Tid> waiters;
    };

    struct Cond
    {
        uint64_t banked = 0;
        std::deque<Tid> waiters;
    };

    struct Barrier
    {
        std::vector<Tid> arrived;
    };

    std::unordered_map<uint64_t, Mutex> mutexes_;
    std::unordered_map<uint64_t, Cond> conds_;
    std::unordered_map<uint64_t, Barrier> barriers_;
    /** The last completed episode's participants (barrierArrive). */
    std::vector<Tid> released_;
};

} // namespace txrace::sync

#endif // TXRACE_SYNC_PRIMITIVES_HH
