/**
 * @file
 * Cross-module property tests (parameterized sweeps): monotonicity
 * and boundedness invariants that must hold for any configuration,
 * not just the calibrated one.
 */

#include <gtest/gtest.h>

#include "cluster/kmeans.hh"
#include "core/replay.hh"
#include "distance/recall.hh"
#include "index/diskann_index.hh"
#include "sim/cpu_model.hh"
#include "sim/simulator.hh"
#include "storage/page_cache.hh"
#include "storage/ssd_model.hh"
#include "test_util.hh"

namespace ann {
namespace {

using sim::Simulator;
using sim::Task;
using storage::SsdConfig;
using storage::SsdModel;

/** Closed-loop 4 KiB random read IOPS at queue depth @p qd. */
double
iopsAtQueueDepth(std::size_t qd)
{
    Simulator simulator;
    SsdModel ssd(simulator, SsdConfig::samsung990Pro());
    const SimTime second = 300'000'000; // 0.3 s is enough
    auto worker = [](Simulator &s, SsdModel &d, SimTime until) -> Task {
        while (s.now() < until)
            co_await d.read(0, 4096, 0);
    };
    for (std::size_t i = 0; i < qd; ++i)
        worker(simulator, ssd, second);
    simulator.runUntil(second);
    const double iops = static_cast<double>(ssd.completedReads()) /
                        (static_cast<double>(second) / 1e9);
    simulator.run(); // workers finish their reads and free their frames
    return iops;
}

class SsdQueueDepthSweep
    : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(SsdQueueDepthSweep, ThroughputMonotoneAndBounded)
{
    const std::size_t qd = GetParam();
    const double iops = iopsAtQueueDepth(qd);
    const double iops_half = iopsAtQueueDepth(std::max<std::size_t>(
        1, qd / 2));
    // Monotone (within jitter tolerance) and never above the channel
    // bound: channels / min flash time.
    EXPECT_GE(iops * 1.02, iops_half) << "qd=" << qd;
    const SsdConfig config = SsdConfig::samsung990Pro();
    const double cap =
        static_cast<double>(config.channels) /
        (static_cast<double>(config.flash_read_ns) *
         (1.0 - config.jitter_frac) / 1e9);
    EXPECT_LE(iops, cap * 1.02);
}

INSTANTIATE_TEST_SUITE_P(QueueDepths, SsdQueueDepthSweep,
                         ::testing::Values(1, 2, 8, 32, 128, 512));

class CacheCapacitySweep
    : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(CacheCapacitySweep, HitRateReflectsCoverage)
{
    const std::size_t capacity = GetParam();
    storage::PageCache cache(capacity);
    const std::size_t working_set = 64;
    // Cyclic scan over the working set, several rounds.
    for (int round = 0; round < 8; ++round) {
        for (std::uint64_t p = 0; p < working_set; ++p) {
            if (!cache.lookup(p))
                cache.insert(p);
        }
    }
    const double hit_rate =
        static_cast<double>(cache.hits()) /
        static_cast<double>(cache.hits() + cache.misses());
    if (capacity >= working_set) {
        // Only the first round misses.
        EXPECT_GT(hit_rate, 0.8);
    } else {
        // Strict LRU + cyclic scan larger than the cache: every
        // access misses (the classic LRU pathological case).
        EXPECT_LT(hit_rate, 0.05);
    }
    EXPECT_LE(cache.residentPages(), capacity);
}

INSTANTIATE_TEST_SUITE_P(Capacities, CacheCapacitySweep,
                         ::testing::Values(4, 16, 48, 64, 128));

class KMeansKSweep : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(KMeansKSweep, InertiaDecreasesWithK)
{
    const std::size_t k = GetParam();
    const auto data = testutil::makeClusteredData(600, 1, 12, 99);
    auto inertia = [&](std::size_t clusters) {
        KMeansParams params;
        params.k = clusters;
        params.seed = 5;
        const auto model = kmeansFit(data.baseView(), params);
        const auto assign = assignToCentroids(model, data.baseView());
        double acc = 0.0;
        for (std::size_t r = 0; r < data.rows; ++r)
            acc += l2DistanceSq(data.baseView().row(r),
                                model.centroid(assign[r]), data.dim);
        return acc;
    };
    // More clusters never fit worse (allowing 2% seeding slack).
    EXPECT_LE(inertia(k), inertia(std::max<std::size_t>(1, k / 2)) *
                              1.02);
}

INSTANTIATE_TEST_SUITE_P(Ks, KMeansKSweep,
                         ::testing::Values(2, 4, 8, 16, 32));

class DiskAnnSearchListSweep
    : public ::testing::TestWithParam<std::size_t>
{
  protected:
    static void
    SetUpTestSuite()
    {
        data_ = new testutil::TestData(
            testutil::makeClusteredData(1500, 25, 24, 4242));
        index_ = new DiskAnnIndex();
        DiskAnnBuildParams params;
        params.graph.max_degree = 32;
        params.graph.build_list = 64;
        params.pq.m = 12;
        params.pq.ksub = 64;
        index_->build(data_->baseView(), params);
        truth_ = new std::vector<std::vector<VectorId>>(
            testutil::groundTruth(*data_, 10));
    }
    static void
    TearDownTestSuite()
    {
        delete index_;
        delete truth_;
        delete data_;
        index_ = nullptr;
        truth_ = nullptr;
        data_ = nullptr;
    }

    static testutil::TestData *data_;
    static DiskAnnIndex *index_;
    static std::vector<std::vector<VectorId>> *truth_;
};

testutil::TestData *DiskAnnSearchListSweep::data_ = nullptr;
DiskAnnIndex *DiskAnnSearchListSweep::index_ = nullptr;
std::vector<std::vector<VectorId>> *DiskAnnSearchListSweep::truth_ =
    nullptr;

TEST_P(DiskAnnSearchListSweep, RecallAndIoGrowTogether)
{
    const std::size_t search_list = GetParam();
    auto run = [&](std::size_t sl) {
        DiskAnnSearchParams params;
        params.search_list = sl;
        params.beam_width = 4;
        params.k = 10;
        double recall = 0.0;
        std::uint64_t sectors = 0;
        for (std::size_t q = 0; q < data_->num_queries; ++q) {
            SearchTraceRecorder recorder;
            const auto result = index_->search(
                data_->queryView().row(q), params, &recorder);
            recall += recallAtK((*truth_)[q], result, 10);
            sectors += recorder.totalSectors();
        }
        return std::pair<double, std::uint64_t>(
            recall / static_cast<double>(data_->num_queries), sectors);
    };
    const auto [recall_lo, sectors_lo] = run(10);
    const auto [recall_hi, sectors_hi] = run(search_list);
    EXPECT_GE(recall_hi + 0.02, recall_lo) << "L=" << search_list;
    if (search_list >= 20)
        EXPECT_GT(sectors_hi, sectors_lo);
}

INSTANTIATE_TEST_SUITE_P(SearchLists, DiskAnnSearchListSweep,
                         ::testing::Values(10, 20, 40, 80, 160));

class ReplayThreadSweep : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(ReplayThreadSweep, ClosedLoopThroughputIsMonotone)
{
    const std::size_t threads = GetParam();
    engine::QueryTrace trace;
    trace.rtt_ns = 200'000;
    trace.parallel_chains.push_back({{400'000, {}}});
    std::vector<engine::QueryTrace> traces{trace};

    engine::EngineProfile profile;
    profile.rtt_ns = 0;
    profile.serial_cpu_ns = 0;

    auto qps_at = [&](std::size_t n) {
        core::ReplayConfig config;
        config.client_threads = n;
        config.duration_ns = 300'000'000;
        config.num_cores = 8;
        config.cpu_jitter = 0.0;
        return core::replayWorkload(traces, profile, config).qps;
    };
    EXPECT_GE(qps_at(threads) * 1.02,
              qps_at(std::max<std::size_t>(1, threads / 2)));
}

INSTANTIATE_TEST_SUITE_P(Threads, ReplayThreadSweep,
                         ::testing::Values(2, 4, 16, 64, 256));

} // namespace
} // namespace ann
