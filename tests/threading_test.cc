/**
 * @file
 * Tests for the execution thread pool and for the determinism
 * contract of parallel real-query execution: the same workload must
 * produce bit-identical results and traces at any thread count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/hotpath.hh"
#include "common/thread_pool.hh"
#include "core/bench_runner.hh"
#include "engine/milvus_like.hh"
#include "engine/qdrant_like.hh"
#include "index/diskann_index.hh"
#include "index/spann_index.hh"
#include "storage/io_backend.hh"
#include "test_util.hh"
#include "workload/generator.hh"

namespace ann {
namespace {

// ---------------------------------------------------------------- pool

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    const std::size_t n = 10'000;
    std::vector<int> hits(n, 0);
    std::atomic<std::size_t> total{0};
    pool.parallelFor(n, 7, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i)
            ++hits[i]; // per-index slot: no race by construction
        total.fetch_add(end - begin, std::memory_order_relaxed);
    });
    EXPECT_EQ(total.load(), n);
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i], 1) << "index " << i;
}

TEST(ThreadPoolTest, ZeroTasksNeverInvokesBody)
{
    ThreadPool pool(4);
    bool called = false;
    pool.parallelFor(0, 16, [&](std::size_t, std::size_t) {
        called = true;
    });
    EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ManyMoreTasksThanWorkers)
{
    ThreadPool pool(2);
    const std::size_t n = 50'000;
    std::atomic<std::uint64_t> sum{0};
    pool.parallelFor(n, 3, [&](std::size_t begin, std::size_t end) {
        std::uint64_t local = 0;
        for (std::size_t i = begin; i < end; ++i)
            local += i;
        sum.fetch_add(local, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), static_cast<std::uint64_t>(n) * (n - 1) / 2);
}

TEST(ThreadPoolTest, PropagatesFirstExceptionAndSurvives)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallelFor(1000, 10,
                         [&](std::size_t begin, std::size_t) {
                             if (begin >= 500)
                                 throw std::runtime_error("boom");
                         }),
        std::runtime_error);

    // The pool must stay usable after a failed loop.
    std::atomic<std::size_t> count{0};
    pool.parallelFor(100, 10, [&](std::size_t begin, std::size_t end) {
        count.fetch_add(end - begin, std::memory_order_relaxed);
    });
    EXPECT_EQ(count.load(), 100u);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline)
{
    ThreadPool pool(4);
    std::atomic<std::size_t> inner_total{0};
    pool.parallelFor(8, 1, [&](std::size_t, std::size_t) {
        // Nested loops run inline on the claiming thread instead of
        // re-entering the pool (which would deadlock a worker).
        pool.parallelFor(10, 2,
                         [&](std::size_t begin, std::size_t end) {
                             inner_total.fetch_add(
                                 end - begin,
                                 std::memory_order_relaxed);
                         });
    });
    EXPECT_EQ(inner_total.load(), 80u);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.size(), 1u);
    std::size_t covered = 0;
    pool.parallelFor(100, 9, [&](std::size_t begin, std::size_t end) {
        covered += end - begin;
    });
    EXPECT_EQ(covered, 100u);
}

/** Poll @p flag until set or @p timeout; @return whether it was set. */
bool
waitFor(const std::atomic<bool> &flag, std::chrono::milliseconds timeout)
{
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (!flag.load()) {
        if (std::chrono::steady_clock::now() >= deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return true;
}

TEST(ThreadPoolTest, ConcurrentCallersRunAtTheSameTime)
{
    // Caller A's job cannot finish before caller B's job has run. A
    // pool that runs one job at a time holds B back until A's job
    // ends, so A's wait times out (and the test fails) instead of
    // hanging.
    ThreadPool pool(4);
    std::atomic<bool> a_running{false};
    std::atomic<bool> b_ran{false};
    std::atomic<bool> a_timed_out{false};
    std::thread a([&] {
        pool.parallelFor(2, 1, [&](std::size_t, std::size_t) {
            a_running = true;
            if (!waitFor(b_ran, std::chrono::seconds(2)))
                a_timed_out = true;
        });
    });
    EXPECT_TRUE(waitFor(a_running, std::chrono::seconds(10)));
    std::atomic<std::size_t> b_covered{0};
    pool.parallelFor(4, 1, [&](std::size_t begin, std::size_t end) {
        b_covered.fetch_add(end - begin);
        b_ran = true;
    });
    a.join();
    EXPECT_EQ(b_covered.load(), 4u);
    EXPECT_FALSE(a_timed_out.load())
        << "caller B waited for caller A's job to end";
}

TEST(ThreadPoolTest, ExceptionReachesOnlyItsOwnCaller)
{
    // A's chunks throw while B's job is in flight on the same pool;
    // B's chunks stay in flight until A's caller has caught the error.
    ThreadPool pool(4);
    std::atomic<bool> b_running{false};
    std::atomic<bool> a_done{false};
    bool a_threw = false;
    std::thread a([&] {
        try {
            pool.parallelFor(4, 1, [&](std::size_t, std::size_t) {
                waitFor(b_running, std::chrono::seconds(2));
                throw std::runtime_error("caller A failed");
            });
        } catch (const std::runtime_error &) {
            a_threw = true;
        }
        a_done = true;
    });
    std::atomic<std::size_t> b_covered{0};
    EXPECT_NO_THROW(pool.parallelFor(
        4, 1, [&](std::size_t begin, std::size_t end) {
            b_running = true;
            waitFor(a_done, std::chrono::seconds(2));
            b_covered.fetch_add(end - begin);
        }));
    a.join();
    EXPECT_TRUE(a_threw);
    EXPECT_EQ(b_covered.load(), 4u);
}

TEST(ThreadPoolTest, ConcurrentCallersStress)
{
    // Eight callers share one 4-thread pool, 500 loops each, with
    // random sizes and chunk lengths; every loop must run each of its
    // own indices exactly once (and run clean under TSan).
    ThreadPool pool(4);
    constexpr unsigned kCallers = 8;
    constexpr int kCalls = 500;
    std::atomic<int> bad_loops{0};
    std::vector<std::thread> callers;
    for (unsigned c = 0; c < kCallers; ++c) {
        callers.emplace_back([&, c] {
            std::mt19937 rng(1000 + c);
            for (int call = 0; call < kCalls; ++call) {
                const std::size_t n = rng() % 200;
                const std::size_t chunk = 1 + rng() % 16;
                std::vector<std::atomic<int>> hits(n);
                pool.parallelFor(
                    n, chunk, [&](std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i)
                            hits[i].fetch_add(1);
                    });
                for (const std::atomic<int> &hit : hits)
                    if (hit.load() != 1) {
                        bad_loops.fetch_add(1);
                        break;
                    }
            }
        });
    }
    for (std::thread &caller : callers)
        caller.join();
    EXPECT_EQ(bad_loops.load(), 0);
}

// ------------------------------------------------------------ pinning

TEST(ThreadPoolTest, PinningEngagesWhenSupported)
{
    // The regression this guards: BENCH_hotpath shipped with
    // `pinned_workers: 0` for months because the pool auto-sized to
    // the 1-CPU cpuset, spawned zero workers, and the bench treated
    // "nothing pinned" as a pass. When the platform supports
    // affinity, a pool with spawned workers must pin every one of
    // them; where it doesn't, skip *loudly* instead of passing.
    if (!ThreadPool::pinningSupported())
        GTEST_SKIP() << "thread affinity unavailable in this "
                        "environment (restricted sandbox?) — pinning "
                        "left unverified";
    ThreadPool pool(2, /*pin_threads=*/true);
    EXPECT_EQ(pool.pinnedThreads(), pool.size() - 1)
        << "pinning supported but some spawned worker was not pinned";
}

TEST(ThreadPoolTest, PinningIsBestEffortAndKeepsResults)
{
    // Pinning may fail wholesale (restricted cpuset, refused
    // syscall) but never breaks the pool: every pinned count up to
    // the spawned-worker count is legal, and the loop still covers
    // every index exactly once.
    ThreadPool pool(4, /*pin_threads=*/true);
    EXPECT_LE(pool.pinnedThreads(), pool.size() - 1)
        << "only spawned workers are pinned, never the caller";
    if (ThreadPool::pinningSupported())
        EXPECT_GT(pool.pinnedThreads(), 0u)
            << "affinity works here, so at least one of the three "
               "spawned workers must be pinned";

    const std::size_t n = 10'000;
    std::vector<int> hits(n, 0);
    pool.parallelFor(n, 13, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i)
            ++hits[i];
    });
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i], 1) << "index " << i;
}

TEST(ThreadPoolTest, PinningWiderThanCpusetWrapsAround)
{
    // More workers than allowed CPUs: the NUMA-compact order wraps,
    // so pinning still succeeds (or degrades, on exotic hosts) and
    // the pool stays correct.
    const std::size_t wide = ThreadPool::allowedCpuCount() + 2;
    ThreadPool pool(wide, /*pin_threads=*/true);
    EXPECT_LE(pool.pinnedThreads(), wide - 1);
    if (ThreadPool::pinningSupported())
        EXPECT_EQ(pool.pinnedThreads(), wide - 1)
            << "wrap-around must pin every worker, reusing CPUs";
    std::atomic<std::size_t> total{0};
    pool.parallelFor(1000, 7, [&](std::size_t begin, std::size_t end) {
        total.fetch_add(end - begin, std::memory_order_relaxed);
    });
    EXPECT_EQ(total.load(), 1000u);
}

TEST(ThreadPoolTest, PinByDefaultIsProgrammable)
{
    const bool before = ThreadPool::pinByDefault();
    ThreadPool::setPinByDefault(true);
    EXPECT_TRUE(ThreadPool::pinByDefault());
    ThreadPool::setPinByDefault(false);
    EXPECT_FALSE(ThreadPool::pinByDefault());
    ThreadPool::setPinByDefault(before);
}

// ---------------------------------------------- execution determinism

using Output = engine::VectorDbEngine::SearchOutput;

/** Bitwise equality of two per-query outputs. */
void
expectSameOutputs(const std::vector<Output> &a,
                  const std::vector<Output> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t q = 0; q < a.size(); ++q) {
        ASSERT_EQ(a[q].results.size(), b[q].results.size())
            << "query " << q;
        for (std::size_t i = 0; i < a[q].results.size(); ++i) {
            EXPECT_EQ(a[q].results[i].id, b[q].results[i].id)
                << "query " << q << " rank " << i;
            EXPECT_EQ(a[q].results[i].distance,
                      b[q].results[i].distance)
                << "query " << q << " rank " << i;
        }
        EXPECT_TRUE(a[q].trace == b[q].trace) << "query " << q;
    }
}

class ParallelExecFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        cacheDir_ = new testutil::TempDir("threading_test_cache");
        ::setenv("ANN_CACHE_DIR", cacheDir_->path().c_str(), 1);
        workload::GeneratorSpec spec;
        spec.name = "threading-test";
        spec.rows = 2000;
        spec.dim = 16;
        spec.num_queries = 40;
        spec.clusters = 10;
        spec.gt_k = 10;
        spec.seed = 7;
        data_ = new workload::Dataset(generateDataset(spec));
        diskann_ = new engine::MilvusLikeEngine(
            engine::MilvusIndexKind::DiskAnn);
        diskann_->prepare(*data_, cacheDir_->path());
        hnsw_ = new engine::QdrantLikeEngine();
        hnsw_->prepare(*data_, cacheDir_->path());
    }
    static void
    TearDownTestSuite()
    {
        delete hnsw_;
        delete diskann_;
        delete data_;
        hnsw_ = nullptr;
        diskann_ = nullptr;
        data_ = nullptr;
        delete cacheDir_;
        cacheDir_ = nullptr;
        ::unsetenv("ANN_CACHE_DIR");
        ::unsetenv("ANN_CACHE_DIR");
    }

    static workload::Dataset *data_;
    static engine::MilvusLikeEngine *diskann_;
    static engine::QdrantLikeEngine *hnsw_;
    static testutil::TempDir *cacheDir_;
};

workload::Dataset *ParallelExecFixture::data_ = nullptr;
engine::MilvusLikeEngine *ParallelExecFixture::diskann_ = nullptr;
engine::QdrantLikeEngine *ParallelExecFixture::hnsw_ = nullptr;
testutil::TempDir *ParallelExecFixture::cacheDir_ = nullptr;

TEST_F(ParallelExecFixture, DiskAnnParallelMatchesSerial)
{
    engine::SearchSettings settings;
    const auto serial = core::runAllQueries(*diskann_, *data_, settings,
                                            data_->num_queries, 1);
    const auto parallel = core::runAllQueries(
        *diskann_, *data_, settings, data_->num_queries, 4);
    expectSameOutputs(serial, parallel);
}

TEST_F(ParallelExecFixture, HnswParallelMatchesSerial)
{
    engine::SearchSettings settings;
    const auto serial = core::runAllQueries(*hnsw_, *data_, settings,
                                            data_->num_queries, 1);
    const auto parallel = core::runAllQueries(*hnsw_, *data_, settings,
                                              data_->num_queries, 4);
    expectSameOutputs(serial, parallel);
}

TEST_F(ParallelExecFixture, WorkloadTracesIdenticalAcrossThreadCounts)
{
    engine::SearchSettings settings;
    core::ExecOptions serial_exec;
    serial_exec.threads = 1;
    core::ExecOptions parallel_exec;
    parallel_exec.threads = 4;

    const auto serial = core::buildWorkloadTraces(*diskann_, *data_,
                                                  settings, serial_exec);
    const auto parallel = core::buildWorkloadTraces(
        *diskann_, *data_, settings, parallel_exec);

    EXPECT_EQ(serial.recall, parallel.recall);
    EXPECT_EQ(serial.mib_per_query, parallel.mib_per_query);
    ASSERT_EQ(serial.traces.size(), parallel.traces.size());
    for (std::size_t q = 0; q < serial.traces.size(); ++q)
        EXPECT_TRUE(serial.traces[q] == parallel.traces[q])
            << "query " << q;
}

TEST_F(ParallelExecFixture, VerifyModePassesOnDeterministicEngine)
{
    engine::SearchSettings settings;
    core::ExecOptions exec;
    exec.threads = 4;
    exec.verify = true;
    EXPECT_NO_THROW(
        core::buildWorkloadTraces(*hnsw_, *data_, settings, exec));
}

// ------------------------------------- real-I/O backend determinism

/**
 * The backend-identity contract: every I/O backend serves the same
 * node-file bytes, so beam search must return bit-identical neighbour
 * lists and distances on memory, file, and uring, at every beam
 * width. This is the regression gate for the batched async fetch
 * path.
 */
TEST_F(ParallelExecFixture, DiskAnnBackendsBitIdenticalAcrossBeamWidths)
{
    DiskAnnIndex index;
    DiskAnnBuildParams build;
    build.graph.max_degree = 16;
    build.graph.build_list = 32;
    build.pq.m = 8;
    index.build(data_->baseView(), build);

    std::vector<storage::IoOptions> modes;
    storage::IoOptions file_mode;
    file_mode.kind = storage::IoBackendKind::File;
    file_mode.spill_dir = cacheDir_->path();
    modes.push_back(file_mode);
    storage::IoOptions serial_mode = file_mode;
    serial_mode.queue_depth = 1;
    modes.push_back(serial_mode);
    if (storage::uringSupported()) {
        storage::IoOptions uring_mode = file_mode;
        uring_mode.kind = storage::IoBackendKind::Uring;
        uring_mode.queue_depth = 4;
        modes.push_back(uring_mode);
    }

    for (const std::size_t beam_width : {1u, 2u, 4u, 8u}) {
        DiskAnnSearchParams params;
        params.k = 10;
        params.search_list = 24;
        params.beam_width = beam_width;

        // Reference answers from the memory-resident image.
        std::vector<SearchResult> expected;
        for (std::size_t q = 0; q < data_->num_queries; ++q)
            expected.push_back(index.search(data_->query(q), params));

        for (const storage::IoOptions &mode : modes) {
            index.setIoMode(mode);
            // Real backend: no zero-copy image, reads go to the file.
            ASSERT_EQ(index.ioBackend()->data(), nullptr);
            for (std::size_t q = 0; q < data_->num_queries; ++q) {
                const auto got = index.search(data_->query(q), params);
                ASSERT_EQ(got.size(), expected[q].size())
                    << mode.queue_depth << "-deep backend, beam "
                    << beam_width << ", query " << q;
                for (std::size_t i = 0; i < got.size(); ++i) {
                    EXPECT_EQ(got[i].id, expected[q][i].id)
                        << "beam " << beam_width << " query " << q;
                    EXPECT_EQ(got[i].distance,
                              expected[q][i].distance)
                        << "beam " << beam_width << " query " << q;
                }
            }
            // Back to memory for the next reference round.
            storage::IoOptions memory_mode;
            memory_mode.kind = storage::IoBackendKind::Memory;
            index.setIoMode(memory_mode);
        }
    }
}

/** Same contract for the SPANN posting-list file. */
TEST_F(ParallelExecFixture, SpannBackendsBitIdentical)
{
    SpannIndex index;
    SpannBuildParams build;
    build.nlist = 16;
    index.build(data_->baseView(), build);

    SpannSearchParams params;
    params.k = 10;
    params.nprobe = 4;

    std::vector<SearchResult> expected;
    for (std::size_t q = 0; q < data_->num_queries; ++q)
        expected.push_back(index.search(data_->query(q), params));

    storage::IoOptions file_mode;
    file_mode.kind = storage::IoBackendKind::File;
    file_mode.spill_dir = cacheDir_->path();
    storage::IoOptions uring_mode = file_mode;
    uring_mode.kind = storage::IoBackendKind::Uring;

    for (const auto &mode : {file_mode, uring_mode}) {
        index.setIoMode(mode);
        for (std::size_t q = 0; q < data_->num_queries; ++q) {
            const auto got = index.search(data_->query(q), params);
            ASSERT_EQ(got.size(), expected[q].size()) << "query " << q;
            for (std::size_t i = 0; i < got.size(); ++i) {
                EXPECT_EQ(got[i].id, expected[q][i].id)
                    << "query " << q;
                EXPECT_EQ(got[i].distance, expected[q][i].distance)
                    << "query " << q;
            }
        }
    }
}

/**
 * The node-cache identity contract: the sector cache stores exact
 * bytes of an immutable node file, so turning it on must not change a
 * single result bit on any real backend — only how many reads reach
 * the backend. Also checks the observability: lookups flow, hits
 * appear once the working set re-visits sectors, and a generously
 * sized cache makes a repeated query's second run I/O-free.
 */
TEST_F(ParallelExecFixture, DiskAnnNodeCacheBitIdenticalAcrossBackends)
{
    DiskAnnIndex index;
    DiskAnnBuildParams build;
    build.graph.max_degree = 16;
    build.graph.build_list = 32;
    build.pq.m = 8;
    index.build(data_->baseView(), build);

    DiskAnnSearchParams params;
    params.k = 10;
    params.search_list = 24;
    params.beam_width = 4;

    // Reference answers from the memory-resident image (no cache
    // attaches there).
    std::vector<SearchResult> expected;
    for (std::size_t q = 0; q < data_->num_queries; ++q)
        expected.push_back(index.search(data_->query(q), params));
    EXPECT_EQ(index.nodeCache(), nullptr);

    storage::IoOptions cached_file;
    cached_file.kind = storage::IoBackendKind::File;
    cached_file.spill_dir = cacheDir_->path();
    cached_file.node_cache.capacity_bytes = 4 * 1024 * 1024;
    // Small on purpose: the 2000-node graph packs into ~65 sectors,
    // so a big warm set would blanket the file and leave no misses
    // to measure below.
    cached_file.node_cache.warm_nodes = 16;
    std::vector<storage::IoOptions> modes{cached_file};
    if (storage::uringSupported()) {
        storage::IoOptions cached_uring = cached_file;
        cached_uring.kind = storage::IoBackendKind::Uring;
        modes.push_back(cached_uring);
    }

    for (const storage::IoOptions &mode : modes) {
        index.setIoMode(mode);
        ASSERT_NE(index.nodeCache(), nullptr);
        EXPECT_GT(index.nodeCache()->warmSectors(), 0u);
        for (std::size_t q = 0; q < data_->num_queries; ++q) {
            const auto got = index.search(data_->query(q), params);
            ASSERT_EQ(got.size(), expected[q].size()) << "query " << q;
            for (std::size_t i = 0; i < got.size(); ++i) {
                EXPECT_EQ(got[i].id, expected[q][i].id)
                    << "query " << q;
                EXPECT_EQ(got[i].distance, expected[q][i].distance)
                    << "query " << q;
            }
        }
        const storage::NodeCacheStats stats = index.nodeCacheStats();
        EXPECT_GT(stats.lookups, 0u);
        EXPECT_GT(stats.hits, 0u) << "medoid region should re-hit";
        EXPECT_GT(stats.warm_hits, 0u);
        EXPECT_EQ(stats.lookups, stats.hits + stats.misses);

        // Cache hits are excluded from the recorded I/O: a query
        // whose whole path is resident records zero sector reads.
        // Start from dropped dynamic frames — the query sweep above
        // made the small index fully resident.
        index.dropNodeCache();
        EXPECT_EQ(index.nodeCache()->residentSectors(), 0u);
        EXPECT_GT(index.nodeCache()->warmSectors(), 0u);
        SearchTraceRecorder first;
        index.search(data_->query(0), params, &first);
        SearchTraceRecorder second;
        index.search(data_->query(0), params, &second);
        EXPECT_GT(first.totalSectors(), 0u);
        EXPECT_EQ(second.totalSectors(), 0u)
            << "repeat of an identical query should be fully cached";

        // dropNodeCache() restores the cold-run I/O (the warm set
        // stays, so the cold run never exceeds the first).
        index.dropNodeCache();
        SearchTraceRecorder cold;
        index.search(data_->query(0), params, &cold);
        EXPECT_GT(cold.totalSectors(), 0u);
        EXPECT_LE(cold.totalSectors(), first.totalSectors())
            << "warm set still serves the entry region";
    }
}

/** Same contract for SPANN's posting-list reads (dynamic part only:
 *  the warm set is a graph notion). */
TEST_F(ParallelExecFixture, SpannNodeCacheBitIdentical)
{
    SpannIndex index;
    SpannBuildParams build;
    build.nlist = 16;
    index.build(data_->baseView(), build);

    SpannSearchParams params;
    params.k = 10;
    params.nprobe = 4;

    std::vector<SearchResult> expected;
    for (std::size_t q = 0; q < data_->num_queries; ++q)
        expected.push_back(index.search(data_->query(q), params));

    storage::IoOptions cached_file;
    cached_file.kind = storage::IoBackendKind::File;
    cached_file.spill_dir = cacheDir_->path();
    cached_file.node_cache.capacity_bytes = 8 * 1024 * 1024;
    cached_file.node_cache.warm_nodes = 100; // ignored by SPANN
    index.setIoMode(cached_file);
    ASSERT_NE(index.nodeCache(), nullptr);
    EXPECT_EQ(index.nodeCache()->warmSectors(), 0u);

    for (int round = 0; round < 2; ++round) {
        for (std::size_t q = 0; q < data_->num_queries; ++q) {
            const auto got = index.search(data_->query(q), params);
            ASSERT_EQ(got.size(), expected[q].size()) << "query " << q;
            for (std::size_t i = 0; i < got.size(); ++i) {
                EXPECT_EQ(got[i].id, expected[q][i].id)
                    << "round " << round << " query " << q;
                EXPECT_EQ(got[i].distance, expected[q][i].distance)
                    << "round " << round << " query " << q;
            }
        }
    }
    const storage::NodeCacheStats stats = index.nodeCacheStats();
    EXPECT_GT(stats.hits, 0u) << "second round should re-hit lists";

    // A repeated query's lists are resident: zero recorded reads.
    SearchTraceRecorder repeat;
    index.search(data_->query(0), params, &repeat);
    EXPECT_EQ(repeat.totalSectors(), 0u);

    index.dropNodeCache();
    EXPECT_EQ(index.nodeCache()->residentSectors(), 0u);
    SearchTraceRecorder cold;
    index.search(data_->query(0), params, &cold);
    EXPECT_GT(cold.totalSectors(), 0u);
}

/**
 * Engine-level check: a whole MilvusLike run (load path included)
 * produces identical outputs when the process-wide default backend is
 * file instead of memory — i.e. what `annbench --io-backend file`
 * executes matches the seed behaviour bit for bit.
 */
TEST_F(ParallelExecFixture, EngineOutputsIdenticalUnderFileBackend)
{
    engine::SearchSettings settings;
    const auto reference = core::runAllQueries(
        *diskann_, *data_, settings, data_->num_queries, 4);

    storage::IoOptions file_mode;
    file_mode.kind = storage::IoBackendKind::File;
    file_mode.spill_dir = cacheDir_->path();
    storage::setDefaultIoOptions(file_mode);
    // Fresh engine: prepare() reloads the cached index through the
    // streaming load path onto the file backend.
    engine::MilvusLikeEngine engine(engine::MilvusIndexKind::DiskAnn);
    engine.prepare(*data_, cacheDir_->path());
    const auto real_io = core::runAllQueries(engine, *data_, settings,
                                             data_->num_queries, 4);
    storage::IoOptions memory_mode;
    storage::setDefaultIoOptions(memory_mode);

    expectSameOutputs(reference, real_io);
}

// --------------------------------------- hot-path toggle bit-identity

/** Restore the env-seeded toggle defaults when a test exits. */
struct HotpathToggleGuard
{
    ~HotpathToggleGuard()
    {
        setScratchReuseEnabled(true);
        setPrefetchEnabled(true);
        setAdcBatchEnabled(true);
        ThreadPool::setPinByDefault(false);
    }
};

/**
 * The hot-path contract: scratch arenas, software prefetch, and the
 * batched ADC kernel trade allocations, cache misses, and instruction
 * counts — never arithmetic. Every combination of the three toggles
 * must reproduce the all-off baseline bit for bit, on the graph
 * (HNSW) and PQ-rerank (DiskANN) engines alike.
 */
TEST_F(ParallelExecFixture, ToggleCombinationsBitIdentical)
{
    HotpathToggleGuard guard;
    engine::SearchSettings settings;

    setScratchReuseEnabled(false);
    setPrefetchEnabled(false);
    setAdcBatchEnabled(false);
    const auto hnsw_base = core::runAllQueries(
        *hnsw_, *data_, settings, data_->num_queries, 1);
    const auto diskann_base = core::runAllQueries(
        *diskann_, *data_, settings, data_->num_queries, 1);

    for (unsigned mask = 1; mask < 8; ++mask) {
        setScratchReuseEnabled((mask & 1u) != 0);
        setPrefetchEnabled((mask & 2u) != 0);
        setAdcBatchEnabled((mask & 4u) != 0);
        SCOPED_TRACE("toggle mask " + std::to_string(mask));
        expectSameOutputs(hnsw_base,
                          core::runAllQueries(*hnsw_, *data_, settings,
                                              data_->num_queries, 1));
        expectSameOutputs(
            diskann_base,
            core::runAllQueries(*diskann_, *data_, settings,
                                data_->num_queries, 1));
    }
}

/** Same contract on a real-I/O backend: the registered-buffer uring
 *  fast path (and its file fallback) must not change a bit when the
 *  toggles flip. */
TEST_F(ParallelExecFixture, ToggleCombinationsBitIdenticalOnRealIo)
{
    HotpathToggleGuard guard;
    DiskAnnIndex index;
    DiskAnnBuildParams build;
    build.graph.max_degree = 16;
    build.graph.build_list = 32;
    build.pq.m = 8;
    index.build(data_->baseView(), build);

    DiskAnnSearchParams params;
    params.k = 10;
    params.search_list = 24;
    params.beam_width = 4;

    storage::IoOptions mode;
    mode.kind = storage::uringSupported()
                    ? storage::IoBackendKind::Uring
                    : storage::IoBackendKind::File;
    mode.spill_dir = cacheDir_->path();
    index.setIoMode(mode);

    setScratchReuseEnabled(false);
    setPrefetchEnabled(false);
    setAdcBatchEnabled(false);
    storage::setUringRegisterEnabled(false);
    std::vector<SearchResult> expected;
    for (std::size_t q = 0; q < data_->num_queries; ++q)
        expected.push_back(index.search(data_->query(q), params));

    for (unsigned mask = 1; mask < 16; ++mask) {
        setScratchReuseEnabled((mask & 1u) != 0);
        setPrefetchEnabled((mask & 2u) != 0);
        setAdcBatchEnabled((mask & 4u) != 0);
        storage::setUringRegisterEnabled((mask & 8u) != 0);
        SCOPED_TRACE("toggle mask " + std::to_string(mask));
        for (std::size_t q = 0; q < data_->num_queries; ++q) {
            const auto got = index.search(data_->query(q), params);
            ASSERT_EQ(got.size(), expected[q].size()) << "query " << q;
            for (std::size_t i = 0; i < got.size(); ++i) {
                EXPECT_EQ(got[i].id, expected[q][i].id)
                    << "query " << q;
                EXPECT_EQ(got[i].distance, expected[q][i].distance)
                    << "query " << q;
            }
        }
    }
    storage::setUringRegisterEnabled(true);
}

/** A pinned execution pool moves threads, not arithmetic: parallel
 *  runs under the pin default must match the serial baseline. */
TEST_F(ParallelExecFixture, PinnedExecutionMatchesSerial)
{
    HotpathToggleGuard guard;
    engine::SearchSettings settings;
    const auto serial = core::runAllQueries(*diskann_, *data_, settings,
                                            data_->num_queries, 1);
    ThreadPool::setPinByDefault(true);
    const auto pinned = core::runAllQueries(
        *diskann_, *data_, settings, data_->num_queries, 4);
    expectSameOutputs(serial, pinned);
}

} // namespace
} // namespace ann
