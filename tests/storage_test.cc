/**
 * @file
 * Tests for the storage substrate: SSD model calibration behaviours,
 * page cache, block tracer, trace analysis, and the storage backend.
 */

#include <gtest/gtest.h>

#include "common/error.hh"
#include "sim/cpu_model.hh"
#include "sim/simulator.hh"
#include "storage/block_tracer.hh"
#include "storage/page_cache.hh"
#include "storage/ssd_model.hh"
#include "storage/storage_backend.hh"
#include "storage/trace_analysis.hh"

namespace ann {
namespace {

using sim::Simulator;
using sim::Task;
using storage::BlockTracer;
using storage::IoOp;
using storage::PageCache;
using storage::SsdConfig;
using storage::SsdModel;
using storage::StorageBackend;
using storage::TraceEvent;

TEST(SsdModelTest, SingleReadLatencyIsTensOfMicroseconds)
{
    Simulator simulator;
    SsdModel ssd(simulator, SsdConfig::samsung990Pro());
    SimTime completed_at = 0;
    ssd.readAsync(0, 4096, 0, [&]() { completed_at = simulator.now(); });
    simulator.run();
    // Flash ~45 us +- jitter, plus sub-us transfer.
    EXPECT_GT(completed_at, 30'000u);
    EXPECT_LT(completed_at, 70'000u);
    EXPECT_EQ(ssd.completedReads(), 1u);
    EXPECT_EQ(ssd.bytesRead(), 4096u);
}

TEST(SsdModelTest, HighQueueDepthReaches4kRandomReadTarget)
{
    // QD64 closed loop for a simulated second must land near the
    // paper's 1.3 MIOPS fio measurement (no CPU cost in this test).
    Simulator simulator;
    SsdModel ssd(simulator, SsdConfig::samsung990Pro());
    const SimTime second = 1'000'000'000;

    auto worker = [](Simulator &s, SsdModel &d, SimTime until) -> Task {
        while (s.now() < until)
            co_await d.read(0, 4096, 0);
    };
    for (int i = 0; i < 64; ++i)
        worker(simulator, ssd, second);
    simulator.runUntil(second);

    const double miops =
        static_cast<double>(ssd.completedReads()) / 1e6;
    EXPECT_GT(miops, 1.1);
    EXPECT_LT(miops, 1.7);
    simulator.run(); // workers finish their reads and free their frames
}

TEST(SsdModelTest, SequentialLargeReadsSaturateLinkBandwidth)
{
    // 32 concurrent 128 KiB readers must approach 7.2 GiB/s.
    Simulator simulator;
    SsdModel ssd(simulator, SsdConfig::samsung990Pro());
    const SimTime second = 1'000'000'000;

    auto worker = [](Simulator &s, SsdModel &d, SimTime until) -> Task {
        std::uint64_t offset = 0;
        while (s.now() < until) {
            co_await d.read(offset, 128 * 1024, 0);
            offset += 128 * 1024;
        }
    };
    for (int i = 0; i < 32; ++i)
        worker(simulator, ssd, second);
    simulator.runUntil(second);

    const double gib = static_cast<double>(ssd.bytesRead()) /
                       (1024.0 * 1024.0 * 1024.0);
    EXPECT_GT(gib, 6.3);
    EXPECT_LT(gib, 7.3); // never above the configured link cap
    simulator.run(); // workers finish their reads and free their frames
}

TEST(SsdModelTest, BandwidthNeverExceedsLinkCap)
{
    Simulator simulator;
    SsdModel ssd(simulator, SsdConfig::samsung990Pro());
    const SimTime second = 1'000'000'000;
    auto worker = [](Simulator &s, SsdModel &d, SimTime until) -> Task {
        while (s.now() < until)
            co_await d.read(0, 1024 * 1024, 0);
    };
    for (int i = 0; i < 128; ++i)
        worker(simulator, ssd, second);
    simulator.runUntil(second);
    const double gib = static_cast<double>(ssd.bytesRead()) /
                       (1024.0 * 1024.0 * 1024.0);
    EXPECT_LE(gib, 7.21);
    simulator.run(); // workers finish their reads and free their frames
}

TEST(SsdModelTest, WritesAreSlowerThanReads)
{
    Simulator simulator;
    SsdModel ssd(simulator, SsdConfig::samsung990Pro());
    SimTime read_done = 0, write_done = 0;
    ssd.readAsync(0, 4096, 0, [&]() { read_done = simulator.now(); });
    simulator.run();
    ssd.writeAsync(0, 4096, 0, [&]() { write_done = simulator.now(); });
    simulator.run();
    EXPECT_GT(write_done - read_done, read_done);
    EXPECT_EQ(ssd.completedWrites(), 1u);
}

TEST(SsdModelTest, TracerSeesIssueEvents)
{
    Simulator simulator;
    BlockTracer tracer;
    SsdModel ssd(simulator, SsdConfig::samsung990Pro(), &tracer);
    ssd.readAsync(8192, 4096, 7, []() {});
    ssd.writeAsync(0, 8192, 9, []() {});
    simulator.run();
    ASSERT_EQ(tracer.size(), 2u);
    EXPECT_EQ(tracer.events()[0].op, IoOp::Read);
    EXPECT_EQ(tracer.events()[0].offset_bytes, 8192u);
    EXPECT_EQ(tracer.events()[0].size_bytes, 4096u);
    EXPECT_EQ(tracer.events()[0].stream_id, 7u);
    EXPECT_EQ(tracer.events()[1].op, IoOp::Write);
}

TEST(SsdModelTest, DeterministicAcrossRuns)
{
    auto run_once = []() {
        Simulator simulator;
        SsdModel ssd(simulator, SsdConfig::samsung990Pro());
        std::vector<SimTime> completions;
        for (int i = 0; i < 50; ++i)
            ssd.readAsync(static_cast<std::uint64_t>(i) * 4096, 4096, 0,
                          [&completions, &simulator]() {
                              completions.push_back(simulator.now());
                          });
        simulator.run();
        return completions;
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(PageCacheTest, LruEviction)
{
    PageCache cache(2);
    EXPECT_FALSE(cache.lookup(1));
    cache.insert(1);
    EXPECT_FALSE(cache.lookup(2));
    cache.insert(2);
    EXPECT_TRUE(cache.lookup(1)); // 1 most recent now
    cache.insert(3);              // evicts 2
    EXPECT_FALSE(cache.lookup(2));
    EXPECT_TRUE(cache.lookup(1));
    EXPECT_TRUE(cache.lookup(3));
    EXPECT_EQ(cache.residentPages(), 2u);
}

TEST(PageCacheTest, StatsAndDrop)
{
    PageCache cache(4);
    cache.insert(1);
    cache.lookup(1);
    cache.lookup(2);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    cache.dropCaches();
    EXPECT_EQ(cache.residentPages(), 0u);
    EXPECT_FALSE(cache.lookup(1));
    EXPECT_EQ(cache.hits(), 1u); // stats survive the drop
}

TEST(PageCacheTest, ReinsertRefreshesRecency)
{
    PageCache cache(2);
    cache.insert(1);
    cache.insert(2);
    cache.insert(1); // refresh, no eviction
    cache.insert(3); // evicts 2 (LRU), not 1
    EXPECT_TRUE(cache.lookup(1));
    EXPECT_FALSE(cache.lookup(2));
}

TEST(TraceAnalysisTest, SummaryAndSizeFractions)
{
    std::vector<TraceEvent> events{
        {0, IoOp::Read, 0, 4096, 0},
        {100, IoOp::Read, 4096, 4096, 0},
        {200, IoOp::Read, 0, 8192, 1},
        {300, IoOp::Write, 0, 4096, 1},
    };
    const auto summary = storage::summarizeTrace(events);
    EXPECT_EQ(summary.read_requests, 3u);
    EXPECT_EQ(summary.write_requests, 1u);
    EXPECT_EQ(summary.read_bytes, 16384u);
    EXPECT_NEAR(summary.fraction_4k_reads, 2.0 / 3.0, 1e-12);
}

TEST(TraceAnalysisTest, BandwidthTimeline)
{
    std::vector<TraceEvent> events;
    // 1 MiB of reads in second 0, 2 MiB in second 1.
    for (int i = 0; i < 256; ++i)
        events.push_back({static_cast<SimTime>(i), IoOp::Read, 0, 4096,
                          0});
    for (int i = 0; i < 512; ++i)
        events.push_back({1'000'000'000 + static_cast<SimTime>(i),
                          IoOp::Read, 0, 4096, 0});
    const auto timeline =
        storage::readBandwidthTimeline(events, 2'000'000'000);
    ASSERT_EQ(timeline.size(), 2u);
    EXPECT_NEAR(timeline[0], 1.0, 1e-9);
    EXPECT_NEAR(timeline[1], 2.0, 1e-9);
    EXPECT_NEAR(storage::meanReadBandwidthMib(events, 2'000'000'000),
                1.5, 1e-9);
}

TEST(TraceAnalysisTest, PerStreamAttribution)
{
    std::vector<TraceEvent> events{
        {0, IoOp::Read, 0, 4096, 1},
        {1, IoOp::Read, 0, 4096, 1},
        {2, IoOp::Read, 0, 8192, 2},
        {3, IoOp::Write, 0, 4096, 1},
    };
    const auto bytes = storage::perStreamReadBytes(events);
    EXPECT_EQ(bytes.at(1), 8192u);
    EXPECT_EQ(bytes.at(2), 8192u);
}

TEST(TraceAnalysisTest, SizeHistogram)
{
    std::vector<TraceEvent> events{
        {0, IoOp::Read, 0, 4096, 0},
        {1, IoOp::Read, 0, 4096, 0},
        {2, IoOp::Read, 0, 131072, 0},
    };
    const auto hist = storage::readSizeHistogram(events);
    EXPECT_EQ(hist.totalCount(), 3u);
    EXPECT_EQ(hist.bucketCount(0), 2u); // 4 KiB bucket
    EXPECT_DOUBLE_EQ(hist.fraction(0), 2.0 / 3.0);
}

TEST(StorageBackendTest, DirectModeIssuesEverySector)
{
    Simulator simulator;
    BlockTracer tracer;
    SsdModel ssd(simulator, SsdConfig::samsung990Pro(), &tracer);
    StorageBackend backend(ssd, nullptr, 0);

    bool done = false;
    std::vector<SectorRead> reads{{5, 1}, {9, 2}};
    backend.readBatchAsync(reads, 3, [&]() { done = true; });
    simulator.run();
    EXPECT_TRUE(done);
    ASSERT_EQ(tracer.size(), 2u);
    EXPECT_EQ(tracer.events()[0].offset_bytes, 5u * 4096u);
    EXPECT_EQ(tracer.events()[0].size_bytes, 4096u);
    EXPECT_EQ(tracer.events()[1].size_bytes, 8192u);
}

TEST(StorageBackendTest, BufferedModeSkipsCachedSectors)
{
    Simulator simulator;
    BlockTracer tracer;
    SsdModel ssd(simulator, SsdConfig::samsung990Pro(), &tracer);
    PageCache cache(128);
    StorageBackend backend(ssd, &cache, 0);

    std::vector<SectorRead> reads{{10, 4}};
    backend.readBatchAsync(backend.admit(reads), 0, []() {});
    simulator.run();
    EXPECT_EQ(tracer.size(), 1u); // one merged 16 KiB request

    // Second access: fully cached, admission absorbs everything.
    const auto second = backend.admit(reads);
    EXPECT_TRUE(second.empty());
    bool done = false;
    backend.readBatchAsync(second, 0, [&]() { done = true; });
    simulator.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(tracer.size(), 1u);
    EXPECT_GE(cache.hits(), 4u);
}

TEST(StorageBackendTest, BufferedModeMergesContiguousMisses)
{
    Simulator simulator;
    BlockTracer tracer;
    SsdModel ssd(simulator, SsdConfig::samsung990Pro(), &tracer);
    PageCache cache(128);
    StorageBackend backend(ssd, &cache, 0);

    // Warm sector 12 so run [10..14) splits into [10,2) and [13,1).
    std::vector<SectorRead> warm{{12, 1}};
    backend.readBatchAsync(backend.admit(warm), 0, []() {});
    simulator.run();
    tracer.clear();

    std::vector<SectorRead> reads{{10, 4}};
    backend.readBatchAsync(backend.admit(reads), 0, []() {});
    simulator.run();
    ASSERT_EQ(tracer.size(), 2u);
    EXPECT_EQ(tracer.events()[0].offset_bytes, 10u * 4096u);
    EXPECT_EQ(tracer.events()[0].size_bytes, 2u * 4096u);
    EXPECT_EQ(tracer.events()[1].offset_bytes, 13u * 4096u);
    EXPECT_EQ(tracer.events()[1].size_bytes, 4096u);
}

TEST(StorageBackendTest, AdmitDirectModePassesBatchThrough)
{
    Simulator simulator;
    SsdModel ssd(simulator, SsdConfig::samsung990Pro());
    StorageBackend backend(ssd, nullptr, 0);

    // No cache: admit() must return the batch unchanged, including
    // overlapping runs and whatever order the caller chose.
    const std::vector<SectorRead> reads{{9, 2}, {5, 1}, {9, 2}};
    const auto admitted = backend.admit(reads);
    ASSERT_EQ(admitted.size(), reads.size());
    for (std::size_t i = 0; i < reads.size(); ++i) {
        EXPECT_EQ(admitted[i].sector, reads[i].sector) << "run " << i;
        EXPECT_EQ(admitted[i].count, reads[i].count) << "run " << i;
    }
}

TEST(StorageBackendTest, AdmitEmptyBatch)
{
    Simulator simulator;
    SsdModel ssd(simulator, SsdConfig::samsung990Pro());
    PageCache cache(16);
    StorageBackend direct(ssd, nullptr, 0);
    StorageBackend buffered(ssd, &cache, 0);
    EXPECT_TRUE(direct.admit({}).empty());
    EXPECT_TRUE(buffered.admit({}).empty());
}

TEST(StorageBackendTest, AdmitSingleSectorMissThenHit)
{
    Simulator simulator;
    SsdModel ssd(simulator, SsdConfig::samsung990Pro());
    PageCache cache(16);
    StorageBackend backend(ssd, &cache, 0);

    const std::vector<SectorRead> reads{{7, 1}};
    const auto miss = backend.admit(reads);
    ASSERT_EQ(miss.size(), 1u);
    EXPECT_EQ(miss[0].sector, 7u);
    EXPECT_EQ(miss[0].count, 1u);

    // Admission marked it resident: the re-read is fully absorbed.
    EXPECT_TRUE(backend.admit(reads).empty());
    EXPECT_GE(cache.hits(), 1u);
}

TEST(StorageBackendTest, AdmitAlreadyResidentRunIsAbsorbed)
{
    Simulator simulator;
    SsdModel ssd(simulator, SsdConfig::samsung990Pro());
    PageCache cache(64);
    StorageBackend backend(ssd, &cache, 0);

    for (std::uint64_t s = 20; s < 28; ++s)
        cache.insert(s);
    EXPECT_TRUE(backend.admit({{20, 8}}).empty());
}

TEST(StorageBackendTest, AdmitPartiallyResidentRunSplits)
{
    Simulator simulator;
    SsdModel ssd(simulator, SsdConfig::samsung990Pro());
    PageCache cache(64);
    StorageBackend backend(ssd, &cache, 0);

    // Resident holes at 41 and 44 split [40..46) into three runs.
    cache.insert(41);
    cache.insert(44);
    const auto admitted = backend.admit({{40, 6}});
    ASSERT_EQ(admitted.size(), 3u);
    EXPECT_EQ(admitted[0].sector, 40u);
    EXPECT_EQ(admitted[0].count, 1u);
    EXPECT_EQ(admitted[1].sector, 42u);
    EXPECT_EQ(admitted[1].count, 2u);
    EXPECT_EQ(admitted[2].sector, 45u);
    EXPECT_EQ(admitted[2].count, 1u);
}

TEST(StorageBackendTest, WriteBatchIssuesWrites)
{
    Simulator simulator;
    BlockTracer tracer;
    SsdModel ssd(simulator, SsdConfig::samsung990Pro(), &tracer);
    StorageBackend backend(ssd, nullptr, 0);
    bool done = false;
    std::vector<SectorRead> writes{{100, 8}};
    backend.writeBatchAsync(writes, 5, [&]() { done = true; });
    simulator.run();
    EXPECT_TRUE(done);
    ASSERT_EQ(tracer.size(), 1u);
    EXPECT_EQ(tracer.events()[0].op, IoOp::Write);
    EXPECT_EQ(tracer.events()[0].size_bytes, 8u * 4096u);
    EXPECT_EQ(ssd.bytesWritten(), 8u * 4096u);
}

TEST(StorageBackendTest, BaseOffsetShiftsRequests)
{
    Simulator simulator;
    BlockTracer tracer;
    SsdModel ssd(simulator, SsdConfig::samsung990Pro(), &tracer);
    StorageBackend backend(ssd, nullptr, 1 << 20);
    std::vector<SectorRead> reads{{0, 1}};
    backend.readBatchAsync(reads, 0, []() {});
    simulator.run();
    EXPECT_EQ(tracer.events()[0].offset_bytes, 1u << 20);
}

TEST(StorageBackendTest, RejectsUnalignedBase)
{
    Simulator simulator;
    SsdModel ssd(simulator, SsdConfig::samsung990Pro());
    EXPECT_THROW(StorageBackend(ssd, nullptr, 100), FatalError);
}

} // namespace
} // namespace ann
