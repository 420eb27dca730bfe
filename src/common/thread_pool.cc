#include "common/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <string>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "common/env.hh"
#include "common/error.hh"

namespace ann {

namespace {

/**
 * Pool whose job this thread is currently running; a nested
 * parallelFor on the *same* pool runs inline (fanning out would
 * deadlock a worker on its own pool), while a different pool called
 * from an execution worker still gets real parallelism.
 */
thread_local const ThreadPool *tls_pool = nullptr;

std::atomic<bool> &
pinDefaultFlag()
{
    static std::atomic<bool> flag{envFlag("ANN_PIN_THREADS", false)};
    return flag;
}

#if defined(__linux__)

/** Append "a" / "a-b" cpulist tokens (sysfs format) onto @p out. */
void
parseCpuList(const std::string &list, std::vector<int> &out)
{
    std::size_t pos = 0;
    while (pos < list.size()) {
        std::size_t end = list.find(',', pos);
        if (end == std::string::npos)
            end = list.size();
        const std::string token = list.substr(pos, end - pos);
        pos = end + 1;
        if (token.empty())
            continue;
        const std::size_t dash = token.find('-');
        const int lo = std::atoi(token.c_str());
        const int hi = dash == std::string::npos
                           ? lo
                           : std::atoi(token.c_str() + dash + 1);
        for (int cpu = lo; cpu <= hi; ++cpu)
            out.push_back(cpu);
    }
}

/**
 * CPUs this process may run on, ordered NUMA-node-compact: node 0's
 * allowed CPUs first, then node 1's, and so on, with CPUs the sysfs
 * topology doesn't mention appended last. On single-node machines
 * (or without sysfs) this degrades to plain cpuset order.
 */
std::vector<int>
allowedCpusNodeOrder()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> allowed;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &set))
                allowed.push_back(cpu);
    }
    if (allowed.empty())
        return allowed;

    std::vector<int> ordered;
    ordered.reserve(allowed.size());
    std::vector<bool> placed(
        static_cast<std::size_t>(allowed.back()) + 1, false);
    for (int node = 0;; ++node) {
        const std::string path = "/sys/devices/system/node/node" +
                                 std::to_string(node) + "/cpulist";
        std::ifstream in(path);
        if (!in.is_open())
            break;
        std::string list;
        std::getline(in, list);
        std::vector<int> cpus;
        parseCpuList(list, cpus);
        for (const int cpu : cpus)
            if (CPU_ISSET(cpu, &set) &&
                static_cast<std::size_t>(cpu) < placed.size() &&
                !placed[static_cast<std::size_t>(cpu)]) {
                placed[static_cast<std::size_t>(cpu)] = true;
                ordered.push_back(cpu);
            }
    }
    for (const int cpu : allowed)
        if (!placed[static_cast<std::size_t>(cpu)])
            ordered.push_back(cpu);
    return ordered;
}

/** Best-effort pin of @p handle to one CPU; @return success. */
bool
pinThreadToCpu(std::thread &worker, int cpu)
{
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return pthread_setaffinity_np(worker.native_handle(), sizeof(one),
                                  &one) == 0;
}

#endif // __linux__

} // namespace

bool
ThreadPool::pinByDefault()
{
    return pinDefaultFlag().load(std::memory_order_relaxed);
}

void
ThreadPool::setPinByDefault(bool pin)
{
    pinDefaultFlag().store(pin, std::memory_order_relaxed);
}

std::size_t
ThreadPool::allowedCpuCount()
{
#if defined(__linux__)
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        const int count = CPU_COUNT(&set);
        if (count > 0)
            return static_cast<std::size_t>(count);
    }
#endif
    return hardwareThreads();
}

std::size_t
ThreadPool::hardwareThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

bool
ThreadPool::pinningSupported()
{
#if defined(__linux__)
    // One probe thread, pinned to the first allowed CPU: proves both
    // that the cpuset is readable and that the affinity syscall is
    // permitted (seccomp profiles commonly deny it). Cached — the
    // answer cannot change within a process.
    static const bool supported = [] {
        const std::vector<int> cpus = allowedCpusNodeOrder();
        if (cpus.empty())
            return false;
        // Keep the probe alive until after the affinity call — the
        // syscall fails with ESRCH on an already-exited thread.
        std::atomic<bool> release{false};
        std::thread probe([&] {
            while (!release.load(std::memory_order_acquire))
                std::this_thread::yield();
        });
        const bool pinned = pinThreadToCpu(probe, cpus.front());
        release.store(true, std::memory_order_release);
        probe.join();
        return pinned;
    }();
    return supported;
#else
    return false;
#endif
}

ThreadPool::ThreadPool(std::size_t threads, bool pin_threads)
    : threads_(threads == 0 ? allowedCpuCount() : threads)
{
    // The calling thread participates in every loop, so a pool of
    // size N needs N-1 dedicated workers.
    workers_.reserve(threads_ - 1);
#if defined(__linux__)
    std::vector<int> cpu_order;
    if (pin_threads && threads_ > 1)
        cpu_order = allowedCpusNodeOrder();
    for (std::size_t t = 1; t < threads_; ++t) {
        workers_.emplace_back([this] { workerLoop(); });
        if (!cpu_order.empty() &&
            pinThreadToCpu(workers_.back(),
                           cpu_order[(t - 1) % cpu_order.size()]))
            ++pinned_;
    }
#else
    (void)pin_threads;
    for (std::size_t t = 1; t < threads_; ++t)
        workers_.emplace_back([this] { workerLoop(); });
#endif
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    workCv_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
ThreadPool::dequeue(const Job &job)
{
    queue_.erase(std::find(queue_.begin(), queue_.end(), &job));
}

void
ThreadPool::runChunk(Job &job, std::unique_lock<std::mutex> &lock)
{
    const std::size_t begin = job.cursor;
    const std::size_t end = std::min(job.n, begin + job.chunk);
    job.cursor = end;
    if (end == job.n)
        dequeue(job);
    lock.unlock();
    std::exception_ptr error;
    // Flag the thread as inside this pool — a worker already is, the
    // submitting caller is not — so a nested parallelFor in the body
    // runs inline instead of waiting on the job this chunk belongs to.
    const ThreadPool *was_inside = tls_pool;
    tls_pool = this;
    try {
        (*job.body)(begin, end);
    } catch (...) {
        error = std::current_exception();
    }
    tls_pool = was_inside;
    lock.lock();
    if (error && !job.error) {
        job.error = error;
        // Poison the cursor so no further chunks start; the skipped
        // (unclaimed) indices count as done, otherwise the caller
        // would wait for them forever.
        if (job.cursor < job.n) {
            job.pending -= job.n - job.cursor;
            job.cursor = job.n;
            dequeue(job);
        }
    }
    job.pending -= end - begin;
    // Notify under the lock: once the caller sees pending == 0 it
    // returns and destroys the job, condition variable included.
    if (job.pending == 0)
        job.done.notify_one();
}

void
ThreadPool::workerLoop()
{
    tls_pool = this;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        workCv_.wait(lock,
                     [&] { return stopping_ || !queue_.empty(); });
        if (stopping_)
            return;
        runChunk(*queue_.front(), lock);
    }
}

void
ThreadPool::parallelFor(std::size_t n, std::size_t chunk,
                        const ChunkFn &body)
{
    if (n == 0)
        return;
    chunk = std::max<std::size_t>(1, chunk);

    // Inline paths: single-threaded pool, loop smaller than one
    // chunk, or a nested call from inside one of this pool's chunks.
    // Running inline keeps exception propagation trivial and avoids
    // deadlocking a thread on its own pool.
    if (threads_ == 1 || n <= chunk || tls_pool == this) {
        for (std::size_t begin = 0; begin < n; begin += chunk)
            body(begin, std::min(n, begin + chunk));
        return;
    }

    Job job;
    job.n = n;
    job.chunk = chunk;
    job.body = &body;
    job.pending = n;

    std::unique_lock<std::mutex> lock(mutex_);
    queue_.push_back(&job);
    // This thread runs the first chunk; wake one idle worker for each
    // further chunk. Busy workers reach the job when they finish
    // theirs, and whatever nobody claims this thread runs itself.
    const std::size_t spare = std::min((n - 1) / chunk, workers_.size());
    for (std::size_t w = 0; w < spare; ++w)
        workCv_.notify_one();

    while (job.cursor < job.n)
        runChunk(job, lock);
    job.done.wait(lock, [&] { return job.pending == 0; });

    const std::exception_ptr error = job.error;
    lock.unlock();
    if (error)
        std::rethrow_exception(error);
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool(
        static_cast<std::size_t>(
            std::max<std::int64_t>(0, envInt("ANN_THREADS", 0))),
        pinByDefault());
    return pool;
}

} // namespace ann
