/**
 * @file
 * The one sector-fetch path of the real-I/O layer.
 *
 * Every cached read of a node, posting-list, or code file runs one
 * sequence: look each sector up in the SectorCache, claim its miss
 * single-flight (or attach to another reader's in-flight read),
 * coalesce the owned misses into runs, submit them, then publish the
 * landed bytes — or wait for the attached sectors' owners and read a
 * sector itself when its owner gives up. SectorReader owns that
 * sequence; the indexes only say which sectors they need and where the
 * bytes go, so caching, single-flight, coalescing and pipelining are
 * stages of one path (the I/O design-space study in PAPERS.md).
 *
 * A backend request is a maximal contiguous run of owned misses inside
 * one caller span, so backends and trace recorders see exactly the
 * (sector, count) runs the simulator charges.
 */

#ifndef ANN_STORAGE_SECTOR_READER_HH
#define ANN_STORAGE_SECTOR_READER_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "storage/io_backend.hh"
#include "storage/node_cache.hh"

namespace ann::storage {

/** Caller-owned destination of @ref count sectors from @ref first. */
struct SectorSpan
{
    std::uint64_t first = 0;
    std::uint32_t count = 1;
    std::uint8_t *dest = nullptr;
};

/**
 * One span per contiguous run of @p sorted_unique, destinations back
 * to back from @p buf: the i-th listed sector lands at slot i, i.e. at
 * buf + i * kIoSectorBytes. @p spans is overwritten.
 */
void coalesceSpans(const std::vector<std::uint64_t> &sorted_unique,
                   std::uint8_t *buf, std::vector<SectorSpan> &spans);

/**
 * One consumer's reads of a backend through its optional cache: a
 * query's beam hops, a posting-list scan, a code-page fetch. Each
 * read() or submit() is a *call* over caller spans, whose sectors are
 * numbered by slot (position in the concatenated spans). One thread at
 * a time; any number of readers may share a backend and cache.
 *
 * The destructor is the single unwind path: claims never published are
 * cancelled (their sharers then read the sectors themselves),
 * attachments to other readers' reads are dropped, and the queue
 * drains before the buffers it writes can go. A reader whose call
 * threw must be destroyed, not reused.
 */
class SectorReader
{
  public:
    explicit SectorReader(IoBackend &backend, SectorCache *cache = nullptr)
        : backend_(backend), cache_(cache)
    {
    }
    ~SectorReader();

    SectorReader(const SectorReader &) = delete;
    SectorReader &operator=(const SectorReader &) = delete;

    /**
     * Blocking call: returns once every span holds its bytes. The
     * owned misses go down as one IoBackend::readBatch() carrying
     * @p region (the uring registered-buffer hint).
     */
    void read(const SectorSpan *spans, std::size_t n,
              const IoRegion &region = {});

    /** Pipelined call: submit the owned misses on this reader's
     *  IoQueue and return; ready()/poll()/wait() consume the call. */
    void submit(const SectorSpan *spans, std::size_t n);

    /** True once slots [slot, slot + count) hold their bytes. */
    bool ready(std::size_t slot, std::size_t count) const;

    /** Reap landed reads without blocking. @return true if any did. */
    bool poll();

    /**
     * Block for progress: a bounded wait on a sector another reader is
     * reading, else at least one own completion. Bounded so every
     * reader keeps reaping its own reads, which keeps waits across
     * readers deadlock-free.
     */
    void wait();

    /** poll()/wait() until slots [slot, slot + count) are ready. */
    void waitReady(std::size_t slot, std::size_t count);

    /**
     * Read @p count sectors from @p first ahead of need into the stash,
     * which later calls consult before the cache. Skipped when already
     * stashed, cached, or in the current call; a misprediction costs
     * bounded I/O, never a result bit. @return false when every stash
     * slot is in flight (stop prefetching).
     */
    bool prefetch(std::uint64_t first, std::uint32_t count);

    /** Backend requests of the current call, for trace recorders. */
    const std::vector<IoRequest> &issued() const { return requests_; }

  private:
    /** What a slot of the current call still waits for. */
    enum class Wait : std::uint8_t
    {
        None,
        Owned,   ///< our claim, in flight
        Shared,  ///< attached to another reader's read
        Stashed, ///< stash slot `aux`, in flight
    };

    struct Slot
    {
        std::uint64_t sector;
        std::uint8_t *dest;
        Wait wait;
        std::uint32_t aux;
    };

    struct StashSlot
    {
        enum State : std::uint8_t { Free, InFlight, Ready };
        std::uint64_t first = 0;
        std::uint32_t age = 0; ///< call of issue (eviction order)
        State state = Free;
        bool consumed = false; ///< served a call; freed by the next
    };

    void plan(const SectorSpan *spans, std::size_t n);
    /** Stash, cache hit, attach, or own. @return true when owned. */
    bool route(Slot &slot);
    void landRequest(std::size_t r);
    void copyFromStash(Slot &slot, std::size_t sl);
    std::size_t reap(std::size_t min_complete);
    int stashFind(std::uint64_t sector) const;
    IoQueue &queue();

    IoBackend &backend_;
    SectorCache *cache_;
    std::vector<Slot> slots_;
    std::vector<IoRequest> requests_;
    /** First slot of each request. */
    std::vector<std::size_t> requestSlot_;
    std::vector<std::uint64_t> tags_;
    std::size_t pending_ = 0; ///< slots of the call not yet ready
    std::uint32_t calls_ = 0;

    std::unique_ptr<IoQueue> queue_;
    std::size_t outstanding_ = 0; ///< submitted, not yet reaped
    std::uint64_t reaped_[128];

    std::vector<StashSlot> stash_;
    std::uint32_t stashSectors_ = 0;
    AlignedBuffer stashBytes_;
};

} // namespace ann::storage

#endif // ANN_STORAGE_SECTOR_READER_HH
