#include "quant/code_store.hh"

#include <algorithm>
#include <cstring>

#include "common/error.hh"
#include "storage/sector_reader.hh"

namespace ann {

namespace {

/** Sectors per chunk when streaming codes to/from the backend. */
constexpr std::size_t kStreamSectors = 256;

/**
 * Per-thread staging of one fetchSlots() call: the unique-sector list
 * and a 4 KiB-aligned buffer holding one slot per unique sector.
 * Returned code pointers alias this buffer, which is why they are
 * only valid until the thread's next fetch.
 */
struct CodeFetchScratch
{
    std::vector<std::uint64_t> sectors;
    storage::AlignedBuffer bytes;
    std::vector<storage::SectorSpan> spans;
};

thread_local CodeFetchScratch tls_code_fetch;

} // namespace

PqCodeStore::PqCodeStore(const std::uint8_t *slot_codes,
                         std::size_t count, std::size_t code_size,
                         const storage::IoOptions &options,
                         std::size_t cache_bytes)
    : count_(count), codeSize_(code_size)
{
    ANN_CHECK(count > 0, "code store needs codes");
    ANN_CHECK(code_size > 0 &&
                  code_size <= storage::kIoSectorBytes,
              "code size ", code_size, " cannot pack into sectors");
    codesPerSector_ = storage::kIoSectorBytes / code_size;
    fileSectors_ =
        (count + codesPerSector_ - 1) / codesPerSector_;

    // Spill: codes packed whole into sectors (the sector tail stays
    // zero), streamed chunk-wise so the image is never materialized.
    auto sink = storage::makeIoSink(
        options, fileSectors_ * storage::kIoSectorBytes);
    std::vector<std::uint8_t> chunk(
        kStreamSectors * storage::kIoSectorBytes);
    for (std::size_t s = 0; s < fileSectors_; s += kStreamSectors) {
        const std::size_t n =
            std::min(kStreamSectors, fileSectors_ - s);
        std::memset(chunk.data(), 0,
                    n * storage::kIoSectorBytes);
        for (std::size_t j = 0; j < n; ++j) {
            const std::size_t slot0 = (s + j) * codesPerSector_;
            const std::size_t slots =
                std::min(codesPerSector_, count - slot0);
            std::memcpy(chunk.data() + j * storage::kIoSectorBytes,
                        slot_codes + slot0 * code_size,
                        slots * code_size);
            if (slot0 + slots >= count)
                break;
        }
        sink->append(chunk.data(), n * storage::kIoSectorBytes);
    }
    io_ = sink->finish();

    // The memory backend keeps the image resident; a cache on top
    // would only add copies (and double-count the budget).
    if (io_->data() != nullptr || cache_bytes < storage::kIoSectorBytes)
        return;
    cacheBytes_ = std::min(cache_bytes,
                           fileSectors_ * storage::kIoSectorBytes);
    // Half the cache warms the leading code sectors — under a packed
    // layout that is the BFS-from-medoid region every query's first
    // hops score — and the rest is the CLOCK dynamic part.
    const std::size_t warm_sectors = std::min(
        fileSectors_, cacheBytes_ / storage::kIoSectorBytes / 2);
    storage::NodeCacheConfig config;
    config.capacity_bytes =
        cacheBytes_ - warm_sectors * storage::kIoSectorBytes;
    if (config.capacity_bytes == 0 && warm_sectors == 0)
        return;
    cache_ = std::make_unique<storage::SectorCache>(config);
    for (std::size_t s = 0; s < warm_sectors; ++s) {
        std::memset(chunk.data(), 0, storage::kIoSectorBytes);
        const std::size_t slot0 = s * codesPerSector_;
        const std::size_t slots =
            std::min(codesPerSector_, count - slot0);
        std::memcpy(chunk.data(), slot_codes + slot0 * code_size,
                    slots * code_size);
        cache_->warmInsert(s, chunk.data());
    }
}

std::size_t
PqCodeStore::memoryBytes() const
{
    if (io_ && io_->data() != nullptr)
        return static_cast<std::size_t>(io_->sizeBytes());
    return cacheBytes_;
}

std::size_t
PqCodeStore::diskBytes() const
{
    return io_ ? static_cast<std::size_t>(io_->sizeBytes()) : 0;
}

void
PqCodeStore::fetchSlots(const std::uint64_t *slots, std::size_t n,
                        const std::uint8_t **out) const
{
    if (n == 0)
        return;
    const std::uint8_t *image = io_->data();
    if (image != nullptr) {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = image +
                     sectorOfSlot(slots[i]) * storage::kIoSectorBytes +
                     (slots[i] % codesPerSector_) * codeSize_;
        return;
    }

    CodeFetchScratch &scratch = tls_code_fetch;
    std::vector<std::uint64_t> &sectors = scratch.sectors;
    sectors.clear();
    for (std::size_t i = 0; i < n; ++i)
        sectors.push_back(sectorOfSlot(slots[i]));
    std::sort(sectors.begin(), sectors.end());
    sectors.erase(std::unique(sectors.begin(), sectors.end()),
                  sectors.end());
    std::uint8_t *buf = scratch.bytes.ensure(
        sectors.size() * storage::kIoSectorBytes);

    // The graph fetch path's reader: cache hits copy in place, misses
    // dedupe single-flight and go out as one batched submission of
    // coalesced runs.
    storage::coalesceSpans(sectors, buf, scratch.spans);
    storage::SectorReader(*io_, cache_.get())
        .read(scratch.spans.data(), scratch.spans.size());

    for (std::size_t i = 0; i < n; ++i) {
        const auto it =
            std::lower_bound(sectors.begin(), sectors.end(),
                             sectorOfSlot(slots[i]));
        out[i] = buf +
                 static_cast<std::size_t>(it - sectors.begin()) *
                     storage::kIoSectorBytes +
                 (slots[i] % codesPerSector_) * codeSize_;
    }
}

const std::uint8_t *
PqCodeStore::fetchSlot(std::uint64_t slot) const
{
    const std::uint8_t *out = nullptr;
    fetchSlots(&slot, 1, &out);
    return out;
}

std::vector<std::uint8_t>
PqCodeStore::exportSlotOrder() const
{
    std::vector<std::uint8_t> codes(count_ * codeSize_);
    std::size_t slot0 = 0; // first slot of the next sector streamed
    storage::streamBackend(
        *io_, [&](const std::uint8_t *data, std::size_t bytes) {
            for (std::size_t off = 0; off < bytes && slot0 < count_;
                 off += storage::kIoSectorBytes) {
                const std::size_t slots =
                    std::min(codesPerSector_, count_ - slot0);
                std::memcpy(codes.data() + slot0 * codeSize_, data + off,
                            slots * codeSize_);
                slot0 += slots;
            }
        });
    return codes;
}

storage::NodeCacheStats
PqCodeStore::cacheStats() const
{
    return cache_ ? cache_->stats() : storage::NodeCacheStats{};
}

void
PqCodeStore::dropCache()
{
    if (cache_)
        cache_->dropCaches();
}

} // namespace ann
