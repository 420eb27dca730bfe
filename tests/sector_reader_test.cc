/**
 * @file
 * Tests for the one sector-fetch path (storage::SectorReader): request
 * shapes (a backend request is a maximal run of
 * owned misses inside one caller span), the pipelined mode and its
 * stash, and the single unwind path against a device whose read
 * fails while another reader is attached to it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "common/error.hh"
#include "common/rng.hh"
#include "storage/sector_reader.hh"

namespace ann::storage {
namespace {

std::vector<std::uint8_t>
testImage(std::size_t sectors, std::uint64_t seed)
{
    std::vector<std::uint8_t> image(sectors * kIoSectorBytes);
    Rng rng(seed);
    for (auto &byte : image)
        byte = static_cast<std::uint8_t>(rng.next() & 0xff);
    return image;
}

/**
 * Test device over an in-memory image that logs every request it
 * serves. Its read batch number @p fail_at (0-based) fails instead:
 * it signals failing(), blocks until release(), then throws — so a
 * second reader can attach to the failing read's claims first.
 */
class FailingBackend final : public IoBackend
{
  public:
    explicit FailingBackend(
        std::vector<std::uint8_t> image,
        std::size_t fail_at = std::numeric_limits<std::size_t>::max())
        : image_(std::move(image)), failAt_(fail_at)
    {
    }

    IoBackendKind kind() const override { return IoBackendKind::File; }
    std::uint64_t sizeBytes() const override { return image_.size(); }

    void
    readBatch(const IoRequest *requests, std::size_t n) override
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (ops_++ == failAt_) {
            failing_ = true;
            cv_.notify_all();
            cv_.wait(lock, [&] { return released_; });
            throw FatalError("injected device read failure");
        }
        for (std::size_t i = 0; i < n; ++i) {
            std::memcpy(requests[i].dest,
                        image_.data() + requests[i].sector * kIoSectorBytes,
                        requests[i].count * kIoSectorBytes);
            served_.push_back({requests[i].sector, requests[i].count});
        }
    }

    /** Block until the failing read has started. */
    void
    waitFailing()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return failing_; });
    }

    /** Let the failing read throw. */
    void
    release()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        released_ = true;
        cv_.notify_all();
    }

    /** (sector, count) of every request served so far. */
    std::vector<std::pair<std::uint64_t, std::uint32_t>>
    served()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return served_;
    }

    const std::uint8_t *
    sector(std::uint64_t s) const
    {
        return image_.data() + s * kIoSectorBytes;
    }

  private:
    std::vector<std::uint8_t> image_;
    std::size_t failAt_;
    std::mutex mutex_;
    std::condition_variable cv_;
    std::size_t ops_ = 0;
    bool failing_ = false;
    bool released_ = false;
    std::vector<std::pair<std::uint64_t, std::uint32_t>> served_;
};

SectorCache
makeCache()
{
    NodeCacheConfig config;
    config.capacity_bytes = 64 * kIoSectorBytes;
    return SectorCache(config);
}

using Shapes = std::vector<std::pair<std::uint64_t, std::uint32_t>>;

// --------------------------------------------------------- request shapes

TEST(SectorReaderTest, RequestsAreOwnedMissRunsInsideSpans)
{
    FailingBackend backend(testImage(32, 1));
    SectorCache cache = makeCache();
    // Sector 5 is cached: it splits span [3, 8) into two miss runs.
    cache.admit(5, backend.sector(5));

    AlignedBuffer buf;
    std::uint8_t *out = buf.ensure(8 * kIoSectorBytes);
    // Two adjacent spans: runs never cross a span boundary.
    const SectorSpan spans[] = {{3, 5, out},
                                {8, 3, out + 5 * kIoSectorBytes}};
    SectorReader reader(backend, &cache);
    reader.read(spans, 2);

    EXPECT_EQ(backend.served(), (Shapes{{3, 2}, {6, 2}, {8, 3}}));
    ASSERT_EQ(reader.issued().size(), 3u);
    EXPECT_EQ(std::memcmp(out, backend.sector(3), 8 * kIoSectorBytes), 0);
    // Landed reads were published: a second call is all hits.
    reader.read(spans, 2);
    EXPECT_TRUE(reader.issued().empty());
    EXPECT_EQ(backend.served().size(), 3u);
}

TEST(SectorReaderTest, NoCacheReadsEachSpanWhole)
{
    FailingBackend backend(testImage(16, 2));
    AlignedBuffer buf;
    std::uint8_t *out = buf.ensure(6 * kIoSectorBytes);
    const SectorSpan spans[] = {{0, 4, out},
                                {10, 2, out + 4 * kIoSectorBytes}};
    SectorReader(backend).read(spans, 2);
    EXPECT_EQ(backend.served(), (Shapes{{0, 4}, {10, 2}}));
    EXPECT_EQ(std::memcmp(out, backend.sector(0), 4 * kIoSectorBytes), 0);
    EXPECT_EQ(std::memcmp(out + 4 * kIoSectorBytes, backend.sector(10),
                          2 * kIoSectorBytes),
              0);
}

TEST(SectorReaderTest, CoalesceSpansKeepsListSlots)
{
    AlignedBuffer buf;
    std::uint8_t *base = buf.ensure(6 * kIoSectorBytes);
    std::vector<SectorSpan> spans;
    coalesceSpans({2, 3, 4, 9, 11, 12}, base, spans);
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[0].first, 2u);
    EXPECT_EQ(spans[0].count, 3u);
    EXPECT_EQ(spans[0].dest, base);
    EXPECT_EQ(spans[1].first, 9u);
    EXPECT_EQ(spans[1].dest, base + 3 * kIoSectorBytes);
    EXPECT_EQ(spans[2].first, 11u);
    EXPECT_EQ(spans[2].count, 2u);
    EXPECT_EQ(spans[2].dest, base + 4 * kIoSectorBytes);
}

// ---------------------------------------------------------- pipelined

TEST(SectorReaderTest, PrefetchedSectorsSkipTheDevice)
{
    FailingBackend backend(testImage(32, 3));
    SectorCache cache = makeCache();
    SectorReader reader(backend, &cache);

    AlignedBuffer buf;
    std::uint8_t *out = buf.ensure(4 * kIoSectorBytes);
    const SectorSpan first{0, 2, out};
    reader.submit(&first, 1);
    // Read sector 20 ahead; sector 1 is part of this call: skipped.
    EXPECT_TRUE(reader.prefetch(20, 1));
    EXPECT_TRUE(reader.prefetch(1, 1));
    reader.waitReady(0, 2);
    EXPECT_EQ(std::memcmp(out, backend.sector(0), 2 * kIoSectorBytes), 0);

    const SectorSpan second{19, 3, out};
    reader.submit(&second, 1);
    reader.waitReady(0, 3);
    // 20 came from the stash: the call issued 19 and 21 only.
    EXPECT_EQ(backend.served(), (Shapes{{0, 2}, {20, 1}, {19, 1},
                                        {21, 1}}));
    EXPECT_EQ(std::memcmp(out, backend.sector(19), 3 * kIoSectorBytes), 0);
}

// ------------------------------------------------------------- unwind

/**
 * Two threads miss sectors [2, 4) through readers over one backend
 * and cache. The owner's device read fails once the sharer has
 * attached to sector 2 (a reader looks up and claims sector by
 * sector, so its second lookup follows its first claim); the owner
 * must see the exception, its claims must be cancelled, and the
 * sharer must read the sectors itself and get exact bytes.
 * @p pipelined picks submit()/waitReady() over read().
 */
void
ownerFailureReleasesSharer(bool pipelined)
{
    FailingBackend backend(testImage(8, 4), /*fail_at=*/0);
    SectorCache cache = makeCache();
    const auto fetchSpan = [&](std::uint8_t *dest) {
        const SectorSpan span{2, 2, dest};
        SectorReader reader(backend, &cache);
        if (pipelined) {
            reader.submit(&span, 1);
            reader.waitReady(0, 2);
        } else {
            reader.read(&span, 1);
        }
    };

    AlignedBuffer owner_buf, sharer_buf;
    std::uint8_t *owner_out = owner_buf.ensure(2 * kIoSectorBytes);
    std::uint8_t *sharer_out = sharer_buf.ensure(2 * kIoSectorBytes);
    std::memset(sharer_out, 0, 2 * kIoSectorBytes);
    std::atomic<bool> owner_threw{false};
    std::thread owner([&] {
        try {
            fetchSpan(owner_out);
        } catch (const FatalError &) {
            owner_threw = true;
        }
    });
    backend.waitFailing(); // the owner holds both claims
    std::thread sharer([&] { fetchSpan(sharer_out); });
    while (cache.stats().lookups < 4) // the sharer claimed sector 2
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    backend.release();
    owner.join();
    sharer.join();

    EXPECT_TRUE(owner_threw.load());
    // The sharer read each sector alone: sector 2 as the fallback of
    // its cancelled attachment, sector 3 the same way or, when the
    // cancel beat its claim, as a fresh owner.
    auto served = backend.served();
    std::sort(served.begin(), served.end());
    EXPECT_EQ(served, (Shapes{{2, 1}, {3, 1}}));
    EXPECT_EQ(std::memcmp(sharer_out, backend.sector(2),
                          2 * kIoSectorBytes),
              0);
    // No flight outlives the failure: both sectors are claimable.
    std::vector<std::uint8_t> tmp(kIoSectorBytes);
    for (const std::uint64_t s : {2u, 3u}) {
        EXPECT_EQ(cache.beginFetch(s, tmp.data()), FetchClaim::Owner);
        cache.cancelFetch(s);
    }
}

TEST(SectorReaderFaultTest, BlockingOwnerFailureReleasesSharer)
{
    ownerFailureReleasesSharer(/*pipelined=*/false);
}

TEST(SectorReaderFaultTest, PipelinedOwnerFailureReleasesSharer)
{
    ownerFailureReleasesSharer(/*pipelined=*/true);
}

TEST(SectorReaderFaultTest, FailedReadLeavesNoClaimBehind)
{
    FailingBackend backend(testImage(8, 5), /*fail_at=*/0);
    backend.release(); // fail straight away
    SectorCache cache = makeCache();
    AlignedBuffer buf;
    std::uint8_t *out = buf.ensure(3 * kIoSectorBytes);
    const SectorSpan span{4, 3, out};
    EXPECT_THROW(SectorReader(backend, &cache).read(&span, 1), FatalError);
    // The retry owns the sectors again instead of waiting forever.
    SectorReader(backend, &cache).read(&span, 1);
    EXPECT_EQ(backend.served(), (Shapes{{4, 3}}));
    EXPECT_EQ(std::memcmp(out, backend.sector(4), 3 * kIoSectorBytes), 0);
}

} // namespace
} // namespace ann::storage
