/**
 * @file
 * Fixed-size worker pool for data-parallel loops.
 *
 * The pool exists for *real* OS-thread parallelism (the simulated
 * testbed has its own virtual concurrency): real query execution in
 * BenchRunner, the live segment fan-out of a multi-segment engine
 * query, K-Means assignment, Vamana candidate generation, and PQ
 * encoding all fan out through parallelFor().
 *
 * Scheduling is chunked and dynamic — threads pull [begin, end)
 * chunks off each job's cursor — so callers must keep results
 * deterministic by writing into per-index slots and reducing in index
 * order afterwards. The first exception thrown by any chunk of a job
 * is captured and rethrown on that job's caller once the loop joins.
 *
 * Concurrent callers' jobs run at the same time. Jobs with unclaimed
 * chunks wait in a FIFO; an idle worker takes its next chunk from the
 * oldest one. Each caller runs its own job's chunks and never another
 * caller's, so a caller waits only on its own work: when every worker
 * is busy, the caller simply runs all of its chunks itself.
 *
 * parallelFor() issued from inside a chunk of the *same* pool runs
 * inline on that thread (no nested fan-out), so library code can
 * parallelize without knowing whether its caller already did. A call
 * targeting a *different* pool fans out normally — that is how a
 * server execution thread fans a query's segments out on the global
 * pool.
 */

#ifndef ANN_COMMON_THREAD_POOL_HH
#define ANN_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ann {

/** Fixed worker pool with chunked dynamic parallelFor. */
class ThreadPool
{
  public:
    /** Body of one chunk: processes indices [begin, end). */
    using ChunkFn =
        std::function<void(std::size_t begin, std::size_t end)>;

    /**
     * Spawn @p threads workers (0 = allowedCpuCount(), i.e. the
     * process cpuset — NOT hardware_concurrency, which counts the
     * whole machine and over-subscribes restricted cpusets). A pool
     * of size 1 spawns no workers and runs every loop inline.
     *
     * @p pin_threads pins each spawned worker to one allowed CPU,
     * walking the cpuset in NUMA-node-compact order (all of node 0's
     * CPUs before node 1's, so small pools stay on one socket) and
     * wrapping around when the pool is wider than the cpuset. The
     * caller's thread is never pinned — it is not ours to place.
     * Pinning is strictly best-effort: a restricted cpuset, a
     * single-node machine, or a refused syscall degrades to unpinned
     * workers, never to failure, and results are unaffected either
     * way (pinning moves threads, not arithmetic). Index arrays get
     * NUMA locality from first-touch: pages land on the node of the
     * worker that first writes them during the parallel build loops.
     */
    explicit ThreadPool(std::size_t threads = 0,
                        bool pin_threads = false);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Worker count (>= 1, counting the calling thread). */
    std::size_t size() const { return threads_; }

    /** Spawned workers successfully pinned (0 when not requested). */
    std::size_t pinnedThreads() const { return pinned_; }

    /**
     * Process default for execution-pool pinning, seeded from
     * $ANN_PIN_THREADS (default off) and overridable by the
     * --pin-threads CLI flag. Consulted by the call sites that build
     * *execution* pools (bench runner, server); other pools stay
     * unpinned.
     */
    static bool pinByDefault();
    static void setPinByDefault(bool pin);

    /** CPUs in this process's allowed cpuset (floor 1). */
    static std::size_t allowedCpuCount();

    /**
     * Whether worker pinning can actually engage here: the cpuset is
     * readable and a probe thread accepts pthread_setaffinity_np.
     * Cached after the first call. Benches and tests use this to
     * *assert* pinnedThreads() > 0 when pinning was requested, and to
     * skip (loudly, not silently pass) where the platform refuses
     * affinity. Note a pool still needs size >= 2 to have a spawned
     * worker to pin — the caller's thread is never pinned.
     */
    static bool pinningSupported();

    /**
     * Run @p body over [0, n) in chunks of @p chunk indices; returns
     * when every index is done. Safe to call from many threads at
     * once: each call queues one job behind the jobs already waiting
     * for workers and wakes at most one idle worker per chunk beyond
     * its first, and the calling thread runs its own job's chunks
     * until none is left unclaimed. Rethrows the first exception of
     * this job's chunks after the join; other callers never see it.
     * Runs inline on the caller when the pool has one thread, when
     * @p n fits in one chunk, or when called from inside a chunk of
     * this pool.
     */
    void parallelFor(std::size_t n, std::size_t chunk,
                     const ChunkFn &body);

    /**
     * Process-wide pool, sized once from $ANN_THREADS (default:
     * allowedCpuCount()). Built on first use.
     */
    static ThreadPool &global();

    /** std::thread::hardware_concurrency with a floor of 1. */
    static std::size_t hardwareThreads();

  private:
    /** One parallelFor call; lives on its caller's stack. */
    struct Job
    {
        std::size_t n = 0;
        std::size_t chunk = 1;
        const ChunkFn *body = nullptr;
        std::size_t cursor = 0;      // next unclaimed index
        std::size_t pending = 0;     // indices not yet completed
        std::exception_ptr error;    // first chunk exception
        std::condition_variable done; // caller waits for pending == 0
    };

    void workerLoop();
    /**
     * Claim the next chunk of @p job, run it unlocked, and retire it.
     * Called and returns with @p lock held.
     */
    void runChunk(Job &job, std::unique_lock<std::mutex> &lock);
    /** Drop @p job from queue_ once it has no unclaimed chunk. */
    void dequeue(const Job &job);

    std::size_t threads_ = 1;
    std::size_t pinned_ = 0;
    std::vector<std::thread> workers_;

    std::mutex mutex_;
    std::condition_variable workCv_; // idle workers wait for a job
    /** Jobs with unclaimed chunks, oldest first; guarded by mutex_. */
    std::deque<Job *> queue_;
    bool stopping_ = false;
};

} // namespace ann

#endif // ANN_COMMON_THREAD_POOL_HH
