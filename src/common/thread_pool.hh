/**
 * @file
 * Fixed-size thread pool and the parallel_for primitive every hot
 * path in the simulator is built on.
 *
 * Design constraints (and why):
 *  - No work stealing, no per-thread queues: a single job at a time,
 *    split into index ranges that workers claim from a shared atomic
 *    cursor. Results never depend on which thread ran which range,
 *    so numerical output is bit-identical at every thread count.
 *  - Each task owns a disjoint slice of the output; there are no
 *    atomics on floats and no reductions across tasks inside the
 *    pool. Any reduction is performed by the caller in index order.
 *  - Nested parallel_for calls (a worker task that itself calls
 *    parallel_for) run inline on the calling worker, so nesting can
 *    never deadlock the fixed-size pool.
 *  - Exceptions thrown by a task are captured and rethrown on the
 *    calling thread once every claimed range has retired.
 *
 * The pool size comes from INCA_NUM_THREADS (default: all hardware
 * threads); a value of 1 disables the workers entirely and every
 * parallel_for runs serially on the caller. A value that is not a
 * whole number >= 1, or a pool whose workers cannot all start, is a
 * fatal() that names the variable.
 */

#ifndef INCA_COMMON_THREAD_POOL_HH
#define INCA_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace inca {

/** Fixed-size pool executing one chunked index-range job at a time. */
class ThreadPool
{
  public:
    /** Body of a parallel loop: called with [begin, end) sub-ranges. */
    using RangeFn = std::function<void(std::int64_t, std::int64_t)>;

    /**
     * Create a pool with @p threads execution lanes (the caller counts
     * as one lane, so @p threads - 1 workers are spawned). @p threads
     * < 1 is clamped to 1.
     */
    explicit ThreadPool(int threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total execution lanes, including the calling thread. */
    int threadCount() const { return int(workers_.size()) + 1; }

    /**
     * Run @p body over [0, n) in chunks of at most @p grain indices.
     * Blocks until every index has been processed; rethrows the first
     * task exception. Serial when n <= grain, when the pool has one
     * lane, or when called from inside a pool task (nesting).
     */
    void parallelFor(std::int64_t n, std::int64_t grain,
                     const RangeFn &body);

    /**
     * The process-wide pool. Sized from INCA_NUM_THREADS on first
     * use; 1 forces the serial path.
     */
    static ThreadPool &global();

    /**
     * Replace the global pool with one of @p threads lanes (testing
     * hook; also the programmatic equivalent of INCA_NUM_THREADS).
     * Must not be called while a parallelFor is in flight.
     */
    static void setGlobalThreads(int threads);

    /** Lanes of the global pool without forcing its creation order. */
    static int globalThreadCount() { return global().threadCount(); }

  private:
    struct Job;

    void workerLoop(int index);
    void runJob(Job &job);
    /** Stop and join every started worker. */
    void stopWorkers();

    std::vector<std::thread> workers_;

    std::mutex mutex_;              ///< guards job_, generation_, stop_
    std::condition_variable wake_;  ///< workers wait here for a job
    std::condition_variable done_;  ///< caller waits here for retirement
    std::mutex submitMutex_;        ///< serializes concurrent submitters
    Job *job_ = nullptr;
    std::uint64_t generation_ = 0;
    bool stop_ = false;
};

/**
 * parallel_for over [0, n): chunked onto the global pool. @p grain is
 * the smallest range worth dispatching (amortizes scheduling).
 */
void parallel_for(std::int64_t n, std::int64_t grain,
                  const ThreadPool::RangeFn &body);

/** parallel_for with a per-index body instead of a range body. */
void parallel_for_each(std::int64_t n, std::int64_t grain,
                       const std::function<void(std::int64_t)> &body);

} // namespace inca

#endif // INCA_COMMON_THREAD_POOL_HH
