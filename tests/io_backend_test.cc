/**
 * @file
 * Tests for the pluggable real-I/O layer (ann_io): backend selection,
 * sector-run coalescing, the spill sink, and the byte-identity
 * contract — every backend must serve exactly the bytes of the image
 * it was built from, in any batch shape.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "storage/io_backend.hh"
#include "test_util.hh"

namespace ann::storage {
namespace {

/** Shared spill directory, outside the checkout, removed at exit. */
const std::string &
testSpillDir()
{
    static const testutil::TempDir dir("io_backend_test_spill");
    return dir.path();
}

/** Deterministic pseudo-random image of @p sectors sectors. */
std::vector<std::uint8_t>
testImage(std::size_t sectors, std::uint64_t seed)
{
    std::vector<std::uint8_t> image(sectors * kIoSectorBytes);
    Rng rng(seed);
    for (auto &byte : image)
        byte = static_cast<std::uint8_t>(rng.next() & 0xff);
    return image;
}

/** Build a backend of @p kind serving @p image via an IoSink. */
std::unique_ptr<IoBackend>
buildBackend(IoBackendKind kind, const std::vector<std::uint8_t> &image,
             unsigned queue_depth = 8)
{
    IoOptions options;
    options.kind = kind;
    options.queue_depth = queue_depth;
    options.spill_dir = testSpillDir();
    auto sink = makeIoSink(options, image.size());
    // Append in uneven chunks to exercise the sink's buffering.
    std::size_t offset = 0;
    std::size_t step = 1000;
    while (offset < image.size()) {
        const std::size_t bytes =
            std::min(step, image.size() - offset);
        sink->append(image.data() + offset, bytes);
        offset += bytes;
        step = step * 2 + 1;
    }
    return sink->finish();
}

/** Read back every sector one batch of mixed-size runs at a time and
 *  compare against @p image. */
void
expectServesImage(IoBackend &backend,
                  const std::vector<std::uint8_t> &image)
{
    ASSERT_EQ(backend.sizeBytes(), image.size());
    const std::uint64_t sectors = image.size() / kIoSectorBytes;

    // Batch of single-sector reads in reverse order.
    {
        AlignedBuffer buf;
        std::uint8_t *out = buf.ensure(image.size());
        std::memset(out, 0, image.size());
        std::vector<IoRequest> requests;
        for (std::uint64_t s = sectors; s-- > 0;)
            requests.push_back({s, 1, out + s * kIoSectorBytes});
        backend.readBatch(requests.data(), requests.size());
        EXPECT_EQ(std::memcmp(out, image.data(), image.size()), 0);
    }

    // One multi-sector run covering the whole file.
    {
        AlignedBuffer buf;
        std::uint8_t *dst = buf.ensure(image.size());
        const IoRequest req{0, static_cast<std::uint32_t>(sectors),
                            dst};
        backend.readBatch(&req, 1);
        EXPECT_EQ(std::memcmp(dst, image.data(), image.size()), 0);
    }

    // Mixed runs: [0,2) [3,4) [5,8) ... (skip every third sector).
    {
        std::vector<std::uint64_t> wanted;
        for (std::uint64_t s = 0; s < sectors; ++s)
            if (s % 3 != 2)
                wanted.push_back(s);
        const auto runs = coalesceSectors(wanted);
        AlignedBuffer buf;
        std::uint8_t *dst =
            buf.ensure(wanted.size() * kIoSectorBytes);
        std::vector<IoRequest> requests;
        std::size_t offset = 0;
        for (const IoRun &run : runs) {
            requests.push_back({run.sector, run.count, dst + offset});
            offset += run.count * kIoSectorBytes;
        }
        backend.readBatch(requests.data(), requests.size());
        offset = 0;
        for (const std::uint64_t s : wanted) {
            EXPECT_EQ(std::memcmp(dst + offset,
                                  image.data() + s * kIoSectorBytes,
                                  kIoSectorBytes),
                      0)
                << "sector " << s;
            offset += kIoSectorBytes;
        }
    }
}

// ------------------------------------------------------------- naming

TEST(IoBackendKindTest, NamesRoundTrip)
{
    for (const auto kind :
         {IoBackendKind::Memory, IoBackendKind::File,
          IoBackendKind::Uring}) {
        IoBackendKind parsed{};
        ASSERT_TRUE(
            ioBackendKindFromName(ioBackendKindName(kind), &parsed));
        EXPECT_EQ(parsed, kind);
    }
    IoBackendKind parsed{};
    EXPECT_FALSE(ioBackendKindFromName("nvme-of", &parsed));
    EXPECT_FALSE(ioBackendKindFromName("", &parsed));
}

TEST(IoBackendKindTest, OptionsFromEnv)
{
    ::setenv("ANN_IO_BACKEND", "file", 1);
    ::setenv("ANN_IO_QUEUE_DEPTH", "7", 1);
    ::setenv("ANN_IO_DIRECT", "0", 1);
    const IoOptions options = IoOptions::fromEnv();
    EXPECT_EQ(options.kind, IoBackendKind::File);
    EXPECT_EQ(options.queue_depth, 7u);
    EXPECT_FALSE(options.direct_io);
    ::unsetenv("ANN_IO_BACKEND");
    ::unsetenv("ANN_IO_QUEUE_DEPTH");
    ::unsetenv("ANN_IO_DIRECT");
}

// --------------------------------------------------------- coalescing

TEST(CoalesceSectorsTest, MergesContiguousRuns)
{
    EXPECT_TRUE(coalesceSectors({}).empty());

    const auto single = coalesceSectors({42});
    ASSERT_EQ(single.size(), 1u);
    EXPECT_EQ(single[0].sector, 42u);
    EXPECT_EQ(single[0].count, 1u);

    const auto runs = coalesceSectors({1, 2, 3, 7, 9, 10});
    ASSERT_EQ(runs.size(), 3u);
    EXPECT_EQ(runs[0].sector, 1u);
    EXPECT_EQ(runs[0].count, 3u);
    EXPECT_EQ(runs[1].sector, 7u);
    EXPECT_EQ(runs[1].count, 1u);
    EXPECT_EQ(runs[2].sector, 9u);
    EXPECT_EQ(runs[2].count, 2u);
}

// ------------------------------------------------------ aligned buffer

TEST(AlignedBufferTest, AlignedAndGrowable)
{
    AlignedBuffer buf;
    std::uint8_t *small = buf.ensure(100);
    ASSERT_NE(small, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(small) % 4096, 0u);
    std::uint8_t *large = buf.ensure(1 << 20);
    ASSERT_NE(large, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(large) % 4096, 0u);
}

// ----------------------------------------------------------- backends

TEST(IoBackendTest, MemoryBackendIsZeroCopy)
{
    auto image = testImage(8, 1);
    const std::vector<std::uint8_t> reference = image;
    auto backend = makeMemoryBackend(std::move(image));
    ASSERT_NE(backend, nullptr);
    EXPECT_EQ(backend->kind(), IoBackendKind::Memory);
    ASSERT_NE(backend->data(), nullptr);
    EXPECT_EQ(std::memcmp(backend->data(), reference.data(),
                          reference.size()),
              0);
    expectServesImage(*backend, reference);
}

TEST(IoBackendTest, FileBackendServesExactBytes)
{
    const auto image = testImage(37, 2);
    auto backend = buildBackend(IoBackendKind::File, image);
    ASSERT_NE(backend, nullptr);
    EXPECT_EQ(backend->kind(), IoBackendKind::File);
    EXPECT_EQ(backend->data(), nullptr);
    expectServesImage(*backend, image);
}

TEST(IoBackendTest, FileBackendSerialQueueDepth)
{
    const auto image = testImage(16, 3);
    auto backend =
        buildBackend(IoBackendKind::File, image, /*queue_depth=*/1);
    ASSERT_NE(backend, nullptr);
    expectServesImage(*backend, image);
}

TEST(IoBackendTest, UringBackendServesExactBytesOrFallsBack)
{
    const auto image = testImage(37, 4);
    auto backend = buildBackend(IoBackendKind::Uring, image);
    ASSERT_NE(backend, nullptr);
    if (uringSupported())
        EXPECT_EQ(backend->kind(), IoBackendKind::Uring);
    else
        EXPECT_EQ(backend->kind(), IoBackendKind::File);
    expectServesImage(*backend, image);
}

TEST(IoBackendTest, UringSmallQueueDepthStillCompletes)
{
    if (!uringSupported())
        GTEST_SKIP() << "io_uring unavailable in this environment";
    const auto image = testImage(64, 5);
    auto backend =
        buildBackend(IoBackendKind::Uring, image, /*queue_depth=*/2);
    ASSERT_NE(backend, nullptr);
    // 64 single-sector requests through a depth-2 window.
    expectServesImage(*backend, image);
}

/**
 * A region-hinted batch 32 windows wide: READ_FIXED on the fixed file,
 * with each CQE's user_data indexing the request across windows. One
 * destination outside the region sends the whole batch down the plain
 * READ path instead. Both must serve the image's exact bytes.
 */
TEST(IoBackendTest, UringRegisteredBatchSpansWindows)
{
    if (!uringSupported())
        GTEST_SKIP() << "io_uring unavailable in this environment";
    const auto image = testImage(64, 11);
    auto backend =
        buildBackend(IoBackendKind::Uring, image, /*queue_depth=*/2);
    ASSERT_NE(backend, nullptr);
    ASSERT_EQ(backend->kind(), IoBackendKind::Uring);

    AlignedBuffer buf;
    std::uint8_t *out = buf.ensure(image.size());
    AlignedBuffer outside;
    std::uint8_t *stray = outside.ensure(kIoSectorBytes);
    for (const bool all_in_region : {true, false}) {
        std::memset(out, 0, image.size());
        std::memset(stray, 0, kIoSectorBytes);
        std::vector<IoRequest> requests;
        for (std::uint64_t s = image.size() / kIoSectorBytes; s-- > 0;)
            requests.push_back({s, 1, out + s * kIoSectorBytes});
        if (!all_in_region)
            requests[37].dest = stray;
        backend->readBatch(requests.data(), requests.size(),
                           buf.region());
        for (const IoRequest &req : requests)
            ASSERT_EQ(std::memcmp(req.dest,
                                  image.data() +
                                      req.sector * kIoSectorBytes,
                                  kIoSectorBytes),
                      0)
                << "sector " << req.sector
                << (all_in_region ? " (registered)" : " (plain)");
    }
}

TEST(IoBackendTest, SinkPadsPartialTrailingSector)
{
    // 2.5 sectors of payload: finish() must pad to 3 sectors.
    std::vector<std::uint8_t> payload(kIoSectorBytes * 5 / 2, 0xAB);
    IoOptions options;
    options.kind = IoBackendKind::File;
    options.spill_dir = testSpillDir();
    auto sink = makeIoSink(options, payload.size());
    sink->append(payload.data(), payload.size());
    auto backend = sink->finish();
    ASSERT_NE(backend, nullptr);
    EXPECT_EQ(backend->sizeBytes(), 3 * kIoSectorBytes);

    AlignedBuffer buf;
    std::uint8_t *dst = buf.ensure(3 * kIoSectorBytes);
    const IoRequest req{0, 3, dst};
    backend->readBatch(&req, 1);
    EXPECT_EQ(std::memcmp(dst, payload.data(), payload.size()), 0);
    for (std::size_t i = payload.size(); i < 3 * kIoSectorBytes; ++i)
        ASSERT_EQ(dst[i], 0) << "pad byte " << i;
}

TEST(IoBackendTest, ConcurrentReadersSeeConsistentBytes)
{
    const auto image = testImage(32, 6);
    auto backend = buildBackend(IoBackendKind::Uring, image);
    ASSERT_NE(backend, nullptr);

    std::vector<std::thread> readers;
    std::atomic<int> mismatches{0};
    for (int t = 0; t < 4; ++t) {
        readers.emplace_back([&backend, &image, &mismatches, t]() {
            AlignedBuffer buf;
            for (int round = 0; round < 20; ++round) {
                const std::uint64_t sector =
                    static_cast<std::uint64_t>((t * 7 + round) %
                                               32);
                std::uint8_t *dst = buf.ensure(kIoSectorBytes);
                const IoRequest req{sector, 1, dst};
                backend->readBatch(&req, 1);
                if (std::memcmp(dst,
                                image.data() +
                                    sector * kIoSectorBytes,
                                kIoSectorBytes) != 0)
                    mismatches.fetch_add(1);
            }
        });
    }
    for (auto &reader : readers)
        reader.join();
    EXPECT_EQ(mismatches.load(), 0);
}

// ---------------------------------------------------- queue teardown

/**
 * A queue may be destroyed the moment its last completion becomes
 * visible, so whichever thread posts that completion must be done
 * with the queue before it makes it visible. Thousands of one-read
 * queues per thread, busy-polled with min_complete = 0 and destroyed
 * straight away, keep that window open (TSan flags any touch of a
 * freed queue). Bytes are checked after destruction, which drains.
 */
void
hammerQueueTeardown(IoBackend &backend,
                    const std::vector<std::uint8_t> &image)
{
    constexpr int kThreads = 4;
    constexpr int kQueues = 2000;
    const std::uint64_t sectors = image.size() / kIoSectorBytes;
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            AlignedBuffer buf;
            std::uint8_t *dst = buf.ensure(kIoSectorBytes);
            for (int i = 0; i < kQueues; ++i) {
                const std::uint64_t sector =
                    static_cast<std::uint64_t>(t * 131 + i) % sectors;
                {
                    auto queue = backend.openQueue();
                    const IoRequest req{sector, 1, dst};
                    const auto tag = static_cast<std::uint64_t>(i);
                    queue->submitBatch(&req, 1, &tag);
                    std::uint64_t got = 0;
                    // Pure polls never reap the pooled ring, so bound
                    // the spin; the destructor drains what is left.
                    for (int spin = 0; spin < 1000; ++spin)
                        if (queue->pollCompletions(&got, 1, 0) == 1)
                            break;
                }
                if (std::memcmp(dst,
                                image.data() + sector * kIoSectorBytes,
                                kIoSectorBytes) != 0)
                    mismatches.fetch_add(1);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(mismatches.load(), 0);
}

TEST(IoQueueTeardownTest, FileQueuesSurviveImmediateDestruction)
{
    const auto image = testImage(64, 8);
    auto backend = buildBackend(IoBackendKind::File, image);
    hammerQueueTeardown(*backend, image);
}

TEST(IoQueueTeardownTest, PooledRingQueuesSurviveImmediateDestruction)
{
    if (!uringSupported())
        GTEST_SKIP() << "io_uring unavailable in this environment";
    const auto image = testImage(64, 9);
    auto backend = buildBackend(IoBackendKind::Uring, image);
    // The shared ring is created by the first openQueue() with the
    // toggle on.
    setIoPooledEnabled(true);
    hammerQueueTeardown(*backend, image);
    setIoPooledEnabled(false);
}

/**
 * A consumer that only ever polls (min_complete = 0) must still see
 * its reads complete, on a private ring and on the pooled one:
 * pipelined readers waiting on each other's reads alternate bounded
 * waits with pure polls, and would livelock if a pure poll never
 * reaped the completion queue.
 */
TEST(IoQueueTest, PurePollsReapUringCompletions)
{
    if (!uringSupported())
        GTEST_SKIP() << "io_uring unavailable in this environment";
    const auto image = testImage(16, 10);
    auto backend = buildBackend(IoBackendKind::Uring, image);
    for (const bool pooled : {false, true}) {
        setIoPooledEnabled(pooled);
        AlignedBuffer buf;
        std::uint8_t *dst = buf.ensure(kIoSectorBytes);
        auto queue = backend->openQueue();
        const IoRequest req{3, 1, dst};
        const std::uint64_t tag = 7;
        queue->submitBatch(&req, 1, &tag);
        std::uint64_t got = 0;
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (queue->pollCompletions(&got, 1, 0) == 0 &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
        EXPECT_EQ(got, tag) << (pooled ? "pooled" : "private") << " ring";
        EXPECT_EQ(std::memcmp(dst, image.data() + 3 * kIoSectorBytes,
                              kIoSectorBytes),
                  0);
    }
    setIoPooledEnabled(false);
}

} // namespace
} // namespace ann::storage
