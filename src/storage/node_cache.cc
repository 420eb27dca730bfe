#include "storage/node_cache.hh"

#include <chrono>
#include <cstring>

#include "common/env.hh"
#include "common/error.hh"
#include "storage/io_backend.hh"

namespace ann::storage {

namespace {

/** Frame-empty marker in Shard::sector_of. */
constexpr std::uint64_t kFreeFrame = ~std::uint64_t{0};

/**
 * Shard selector: splmix-style finalizer so consecutive sectors (one
 * node file region) spread across shards instead of piling onto one.
 */
std::size_t
mixSector(std::uint64_t sector)
{
    std::uint64_t x = sector + 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return static_cast<std::size_t>(x ^ (x >> 31));
}

constexpr char kSingleFlight[] = "ANN_SINGLE_FLIGHT";

} // namespace

std::uint64_t
NodeCacheStats::bytesSaved() const
{
    return hits * kIoSectorBytes;
}

std::uint64_t
NodeCacheStats::dedupBytesSaved() const
{
    return ios_deduped * kIoSectorBytes;
}

bool
singleFlightEnabled()
{
    return envToggle<kSingleFlight, true>().load(
        std::memory_order_relaxed);
}

void
setSingleFlightEnabled(bool enabled)
{
    envToggle<kSingleFlight, true>().store(enabled,
                                           std::memory_order_relaxed);
}

double
NodeCacheStats::hitRate() const
{
    return lookups > 0
               ? static_cast<double>(hits) / static_cast<double>(lookups)
               : 0.0;
}

double
NodeCacheStats::pageReuseRate() const
{
    return insertions > 0 ? static_cast<double>(pages_reused) /
                                static_cast<double>(insertions)
                          : 0.0;
}

NodeCacheStats &
NodeCacheStats::operator+=(const NodeCacheStats &other)
{
    lookups += other.lookups;
    hits += other.hits;
    warm_hits += other.warm_hits;
    misses += other.misses;
    insertions += other.insertions;
    evictions += other.evictions;
    pages_reused += other.pages_reused;
    ios_deduped += other.ios_deduped;
    return *this;
}

NodeCacheStats
NodeCacheStats::operator-(const NodeCacheStats &before) const
{
    NodeCacheStats delta;
    delta.lookups = lookups - before.lookups;
    delta.hits = hits - before.hits;
    delta.warm_hits = warm_hits - before.warm_hits;
    delta.misses = misses - before.misses;
    delta.insertions = insertions - before.insertions;
    delta.evictions = evictions - before.evictions;
    delta.pages_reused = pages_reused - before.pages_reused;
    delta.ios_deduped = ios_deduped - before.ios_deduped;
    return delta;
}

NodeCacheConfig
NodeCacheConfig::fromEnv()
{
    NodeCacheConfig config;
    config.capacity_bytes =
        static_cast<std::size_t>(
            std::max<std::int64_t>(0, envInt("ANN_NODE_CACHE_MB", 0))) *
        1024 * 1024;
    config.warm_nodes = static_cast<std::size_t>(
        std::max<std::int64_t>(0, envInt("ANN_WARM_NODES", 0)));
    return config;
}

SectorCache::SectorCache(const NodeCacheConfig &config)
{
    const std::size_t total_frames =
        config.capacity_bytes / kIoSectorBytes;
    capacityBytes_ = total_frames * kIoSectorBytes;
    if (total_frames == 0)
        return;
    // Every shard owns at least one frame; tiny capacities simply
    // get fewer shards.
    const std::size_t nshards =
        std::min(std::max<std::size_t>(1, config.shards), total_frames);
    shards_.reserve(nshards);
    for (std::size_t s = 0; s < nshards; ++s) {
        const std::size_t frames =
            total_frames / nshards + (s < total_frames % nshards);
        auto shard = std::make_unique<Shard>();
        shard->frames.resize(frames * kIoSectorBytes);
        shard->sector_of.assign(frames, kFreeFrame);
        shard->ref.assign(frames, 0);
        shard->hit_count.assign(frames, 0);
        shard->map.reserve(frames);
        shards_.push_back(std::move(shard));
    }
}

SectorCache::Shard &
SectorCache::shardOf(std::uint64_t sector)
{
    return *shards_[mixSector(sector) % shards_.size()];
}

bool
SectorCache::lookup(std::uint64_t sector, std::uint8_t *dest)
{
    lookups_.fetch_add(1, std::memory_order_relaxed);

    // Warm set: immutable after load, so no lock is needed.
    if (!warmIndex_.empty()) {
        const auto it = warmIndex_.find(sector);
        if (it != warmIndex_.end()) {
            std::memcpy(dest, warmBytes_.data() + it->second,
                        kIoSectorBytes);
            hits_.fetch_add(1, std::memory_order_relaxed);
            warmHits_.fetch_add(1, std::memory_order_relaxed);
            return true;
        }
    }

    if (!shards_.empty()) {
        Shard &shard = shardOf(sector);
        std::lock_guard<std::mutex> lock(shard.mutex);
        const auto it = shard.map.find(sector);
        if (it != shard.map.end()) {
            const std::uint32_t frame = it->second;
            std::memcpy(dest,
                        shard.frames.data() +
                            std::size_t{frame} * kIoSectorBytes,
                        kIoSectorBytes);
            shard.ref[frame] = 1; // second chance
            ++shard.hit_count[frame];
            hits_.fetch_add(1, std::memory_order_relaxed);
            return true;
        }
    }

    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
}

bool
SectorCache::probe(std::uint64_t sector) const
{
    if (!warmIndex_.empty() && warmIndex_.count(sector))
        return true;
    if (shards_.empty())
        return false;
    const Shard &shard =
        *shards_[mixSector(sector) % shards_.size()];
    std::lock_guard<std::mutex> lock(shard.mutex);
    return shard.map.count(sector) != 0;
}

FetchClaim
SectorCache::beginFetch(std::uint64_t sector, std::uint8_t *dest)
{
    if (!singleFlightEnabled())
        return FetchClaim::Owner;
    std::lock_guard<std::mutex> lock(flightMutex_);
    auto [it, inserted] = flights_.try_emplace(sector);
    Flight &flight = it->second;
    if (inserted)
        return FetchClaim::Owner;
    if (flight.done) {
        // Completed between our lookup() miss and this claim; serve
        // straight out of the flight buffer.
        std::memcpy(dest, flight.data.data(), kIoSectorBytes);
        iosDeduped_.fetch_add(1, std::memory_order_relaxed);
        return FetchClaim::Cached;
    }
    if (flight.cancelled) {
        // The previous owner unwound; adopt the entry. Waiters still
        // parked on it will either observe Cancelled and leave or
        // miss the window and be served by our publish — the bytes
        // are identical either way.
        flight.cancelled = false;
        return FetchClaim::Owner;
    }
    ++flight.waiters;
    return FetchClaim::Shared;
}

void
SectorCache::publishFetch(std::uint64_t sector,
                          const std::uint8_t *data)
{
    if (!singleFlightEnabled()) {
        admit(sector, data);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(flightMutex_);
        const auto it = flights_.find(sector);
        if (it != flights_.end()) {
            Flight &flight = it->second;
            if (flight.waiters == 0) {
                flights_.erase(it);
            } else {
                flight.data.assign(data, data + kIoSectorBytes);
                flight.done = true;
            }
        }
    }
    flightCv_.notify_all();
    admit(sector, data);
}

void
SectorCache::cancelFetch(std::uint64_t sector)
{
    if (!singleFlightEnabled())
        return;
    {
        std::lock_guard<std::mutex> lock(flightMutex_);
        const auto it = flights_.find(sector);
        if (it == flights_.end())
            return;
        if (it->second.waiters == 0) {
            flights_.erase(it);
            return;
        }
        it->second.cancelled = true;
    }
    flightCv_.notify_all();
}

FetchStatus
SectorCache::waitFetchFor(std::uint64_t sector, std::uint8_t *dest,
                          std::uint32_t micros)
{
    std::unique_lock<std::mutex> lock(flightMutex_);
    for (;;) {
        const auto it = flights_.find(sector);
        // An attached sharer keeps the entry alive; absence means the
        // contract was broken upstream.
        ANN_ASSERT(it != flights_.end(),
                   "waitFetch without a Shared claim");
        Flight &flight = it->second;
        if (flight.done) {
            std::memcpy(dest, flight.data.data(), kIoSectorBytes);
            if (--flight.waiters == 0)
                flights_.erase(it);
            iosDeduped_.fetch_add(1, std::memory_order_relaxed);
            return FetchStatus::Ready;
        }
        if (flight.cancelled) {
            if (--flight.waiters == 0)
                flights_.erase(it);
            return FetchStatus::Cancelled;
        }
        if (flightCv_.wait_for(lock,
                               std::chrono::microseconds(micros)) ==
            std::cv_status::timeout) {
            // Re-check once: the publish may have raced the deadline.
            const auto again = flights_.find(sector);
            ANN_ASSERT(again != flights_.end(),
                       "flight entry vanished under a waiter");
            if (!again->second.done && !again->second.cancelled)
                return FetchStatus::Timeout;
        }
    }
}

FetchStatus
SectorCache::waitFetch(std::uint64_t sector, std::uint8_t *dest)
{
    for (;;) {
        const FetchStatus status = waitFetchFor(sector, dest, 1000);
        if (status != FetchStatus::Timeout)
            return status;
    }
}

void
SectorCache::detachFetch(std::uint64_t sector)
{
    std::lock_guard<std::mutex> lock(flightMutex_);
    const auto it = flights_.find(sector);
    if (it == flights_.end() || it->second.waiters == 0)
        return;
    Flight &flight = it->second;
    // A flight still in progress is erased by its owner's publish or
    // cancel once nobody waits on it.
    if (--flight.waiters == 0 && (flight.done || flight.cancelled))
        flights_.erase(it);
}

void
SectorCache::admit(std::uint64_t sector, const std::uint8_t *data)
{
    if (shards_.empty() || warmIndex_.count(sector))
        return;
    Shard &shard = shardOf(sector);
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.map.count(sector))
        return; // raced with another reader admitting the same sector

    // CLOCK sweep: skip referenced frames once (clearing the bit),
    // take the first unreferenced or free frame. Bounded: after one
    // full revolution every ref bit is clear, so the second finds a
    // victim.
    const std::size_t nframes = shard.sector_of.size();
    std::uint32_t victim = 0;
    for (std::size_t step = 0;; ++step) {
        const auto frame = static_cast<std::uint32_t>(shard.hand);
        shard.hand = (shard.hand + 1) % nframes;
        if (shard.sector_of[frame] == kFreeFrame) {
            victim = frame;
            break;
        }
        if (shard.ref[frame] == 0 || step >= 2 * nframes) {
            victim = frame;
            break;
        }
        shard.ref[frame] = 0;
    }
    if (shard.sector_of[victim] != kFreeFrame) {
        shard.map.erase(shard.sector_of[victim]);
        evictions_.fetch_add(1, std::memory_order_relaxed);
        if (shard.hit_count[victim] > 0)
            retiredReused_.fetch_add(1, std::memory_order_relaxed);
    }
    shard.sector_of[victim] = sector;
    shard.ref[victim] = 1;
    shard.hit_count[victim] = 0;
    std::memcpy(shard.frames.data() +
                    std::size_t{victim} * kIoSectorBytes,
                data, kIoSectorBytes);
    shard.map[sector] = victim;
    insertions_.fetch_add(1, std::memory_order_relaxed);
}

void
SectorCache::warmInsert(std::uint64_t sector, const std::uint8_t *data)
{
    if (warmIndex_.count(sector))
        return;
    const std::size_t offset = warmBytes_.size();
    warmBytes_.insert(warmBytes_.end(), data, data + kIoSectorBytes);
    warmIndex_.emplace(sector, offset);
}

void
SectorCache::dropCaches()
{
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        // Dropping retires every occupant; settle its page account.
        for (std::size_t f = 0; f < shard->sector_of.size(); ++f)
            if (shard->sector_of[f] != kFreeFrame &&
                shard->hit_count[f] > 0)
                retiredReused_.fetch_add(1, std::memory_order_relaxed);
        shard->map.clear();
        shard->sector_of.assign(shard->sector_of.size(), kFreeFrame);
        shard->ref.assign(shard->ref.size(), 0);
        shard->hit_count.assign(shard->hit_count.size(), 0);
        shard->hand = 0;
    }
}

NodeCacheStats
SectorCache::stats() const
{
    NodeCacheStats stats;
    stats.lookups = lookups_.load(std::memory_order_relaxed);
    stats.hits = hits_.load(std::memory_order_relaxed);
    stats.warm_hits = warmHits_.load(std::memory_order_relaxed);
    stats.misses = misses_.load(std::memory_order_relaxed);
    stats.insertions = insertions_.load(std::memory_order_relaxed);
    stats.evictions = evictions_.load(std::memory_order_relaxed);
    stats.ios_deduped = iosDeduped_.load(std::memory_order_relaxed);
    // Retired reused pages plus the reused pages still resident; the
    // scan takes each shard lock, so stats() is not for hot paths.
    stats.pages_reused = retiredReused_.load(std::memory_order_relaxed);
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        for (std::size_t f = 0; f < shard->sector_of.size(); ++f)
            if (shard->sector_of[f] != kFreeFrame &&
                shard->hit_count[f] > 0)
                ++stats.pages_reused;
    }
    return stats;
}

void
SectorCache::resetStats()
{
    lookups_.store(0, std::memory_order_relaxed);
    hits_.store(0, std::memory_order_relaxed);
    warmHits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
    insertions_.store(0, std::memory_order_relaxed);
    evictions_.store(0, std::memory_order_relaxed);
    retiredReused_.store(0, std::memory_order_relaxed);
    iosDeduped_.store(0, std::memory_order_relaxed);
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        shard->hit_count.assign(shard->hit_count.size(), 0);
    }
}

std::size_t
SectorCache::residentSectors() const
{
    std::size_t resident = 0;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        resident += shard->map.size();
    }
    return resident;
}

} // namespace ann::storage
