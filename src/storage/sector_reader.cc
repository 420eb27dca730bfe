#include "storage/sector_reader.hh"

#include <cstring>
#include <iterator>

#include "common/error.hh"

namespace ann::storage {

namespace {

/** Stash slots per reader: bounds the I/O a misprediction wastes. */
constexpr std::size_t kStashSlots = 16;
/** Completion tags: request r of the call is tag r; stash slot s is
 *  kStashTag + s. */
constexpr std::uint64_t kStashTag = std::uint64_t{1} << 32;

} // namespace

void
coalesceSpans(const std::vector<std::uint64_t> &sorted_unique,
              std::uint8_t *buf, std::vector<SectorSpan> &spans)
{
    spans.clear();
    for (std::size_t i = 0, j = 1; i < sorted_unique.size(); i = j++) {
        while (j < sorted_unique.size() &&
               sorted_unique[j] == sorted_unique[j - 1] + 1)
            ++j;
        spans.push_back({sorted_unique[i],
                         static_cast<std::uint32_t>(j - i),
                         buf + i * kIoSectorBytes});
    }
}

SectorReader::~SectorReader()
{
    for (const Slot &slot : slots_) {
        if (cache_ && slot.wait == Wait::Owned)
            cache_->cancelFetch(slot.sector);
        else if (slot.wait == Wait::Shared)
            cache_->detachFetch(slot.sector);
    }
    queue_.reset(); // drains before stashBytes_ goes
}

void
SectorReader::read(const SectorSpan *spans, std::size_t n,
                   const IoRegion &region)
{
    plan(spans, n);
    if (!requests_.empty()) {
        backend_.readBatch(requests_.data(), requests_.size(), region);
        for (std::size_t r = 0; r < requests_.size(); ++r)
            landRequest(r);
    }
    while (pending_ > 0)
        wait();
}

void
SectorReader::submit(const SectorSpan *spans, std::size_t n)
{
    plan(spans, n);
    if (requests_.empty())
        return;
    tags_.resize(requests_.size());
    for (std::size_t r = 0; r < tags_.size(); ++r)
        tags_[r] = r;
    queue().submitBatch(requests_.data(), requests_.size(), tags_.data());
    outstanding_ += requests_.size();
}

bool
SectorReader::ready(std::size_t slot, std::size_t count) const
{
    for (std::size_t s = slot; s < slot + count; ++s)
        if (slots_[s].wait != Wait::None)
            return false;
    return true;
}

bool
SectorReader::poll()
{
    return outstanding_ > 0 && reap(0) > 0;
}

void
SectorReader::wait()
{
    for (Slot &slot : slots_) {
        if (slot.wait != Wait::Shared)
            continue;
        const FetchStatus status =
            cache_->waitFetchFor(slot.sector, slot.dest, 200);
        if (status == FetchStatus::Timeout)
            return;
        slot.wait = Wait::None; // detached either way
        --pending_;
        if (status == FetchStatus::Cancelled) {
            // The owner unwound: read the sector ourselves.
            const IoRequest req{slot.sector, 1, slot.dest};
            backend_.readBatch(&req, 1);
            cache_->admit(slot.sector, slot.dest);
        }
        return;
    }
    ANN_ASSERT(outstanding_ > 0,
               "sector reader stalled: sectors pending, none in flight");
    reap(1);
}

void
SectorReader::waitReady(std::size_t slot, std::size_t count)
{
    while (!ready(slot, count))
        if (!poll())
            wait();
}

bool
SectorReader::prefetch(std::uint64_t first, std::uint32_t count)
{
    if (stash_.empty()) {
        stash_.resize(kStashSlots);
        stashSectors_ = count;
        stashBytes_.ensure(kStashSlots * count * kIoSectorBytes);
    }
    ANN_ASSERT(count == stashSectors_, "stash slots are fixed-size");
    if (stashFind(first) >= 0 || (cache_ && cache_->probe(first)))
        return true;
    for (const Slot &slot : slots_)
        if (slot.sector == first)
            return true; // the current call reads it anyway
    // A free slot, else the oldest stashed read no call consumed.
    std::size_t pick = kStashSlots;
    for (std::size_t sl = 0; sl < kStashSlots; ++sl) {
        const StashSlot &ss = stash_[sl];
        if (ss.state == StashSlot::Free) {
            pick = sl;
            break;
        }
        if (ss.state == StashSlot::Ready && !ss.consumed &&
            (pick == kStashSlots || ss.age < stash_[pick].age))
            pick = sl;
    }
    if (pick == kStashSlots)
        return false;
    stash_[pick] = StashSlot{first, calls_, StashSlot::InFlight, false};
    const IoRequest req{
        first, count,
        stashBytes_.data() + pick * count * kIoSectorBytes};
    const std::uint64_t tag = kStashTag + pick;
    queue().submitBatch(&req, 1, &tag);
    ++outstanding_;
    return true;
}

void
SectorReader::plan(const SectorSpan *spans, std::size_t n)
{
    // A call starts once the previous one has landed; the stash slots
    // it consumed have then served their purpose.
    while (pending_ > 0)
        wait();
    for (StashSlot &ss : stash_)
        if (ss.state == StashSlot::Ready && ss.consumed)
            ss = StashSlot{};
    ++calls_;
    slots_.clear();
    requests_.clear();
    requestSlot_.clear();
    for (std::size_t i = 0; i < n; ++i) {
        bool in_run = false;
        for (std::uint32_t j = 0; j < spans[i].count; ++j) {
            Slot slot{spans[i].first + j,
                      spans[i].dest + std::size_t{j} * kIoSectorBytes,
                      Wait::None, 0};
            const bool owned = route(slot);
            if (owned && in_run) {
                ++requests_.back().count;
            } else if (owned) {
                requests_.push_back({slot.sector, 1, slot.dest});
                requestSlot_.push_back(slots_.size());
            }
            in_run = owned;
            pending_ += slot.wait != Wait::None;
            slots_.push_back(slot);
        }
    }
}

bool
SectorReader::route(Slot &slot)
{
    if (const int sl = stashFind(slot.sector); sl >= 0) {
        stash_[sl].consumed = true;
        if (stash_[sl].state == StashSlot::Ready) {
            copyFromStash(slot, sl);
        } else {
            slot.wait = Wait::Stashed;
            slot.aux = static_cast<std::uint32_t>(sl);
        }
        return false;
    }
    if (cache_ && cache_->lookup(slot.sector, slot.dest))
        return false;
    const FetchClaim claim = cache_
                                 ? cache_->beginFetch(slot.sector, slot.dest)
                                 : FetchClaim::Owner;
    if (claim == FetchClaim::Cached)
        return false;
    slot.wait = claim == FetchClaim::Owner ? Wait::Owned : Wait::Shared;
    return claim == FetchClaim::Owner;
}

void
SectorReader::landRequest(std::size_t r)
{
    for (std::size_t s = requestSlot_[r];
         s < requestSlot_[r] + requests_[r].count; ++s) {
        slots_[s].wait = Wait::None;
        --pending_;
        if (cache_)
            cache_->publishFetch(slots_[s].sector, slots_[s].dest);
    }
}

void
SectorReader::copyFromStash(Slot &slot, std::size_t sl)
{
    std::memcpy(slot.dest,
                stashBytes_.data() +
                    (sl * stashSectors_ + slot.sector - stash_[sl].first) *
                        kIoSectorBytes,
                kIoSectorBytes);
    if (cache_)
        cache_->admit(slot.sector, slot.dest);
}

std::size_t
SectorReader::reap(std::size_t min_complete)
{
    const std::size_t got = queue_->pollCompletions(
        reaped_, std::size(reaped_), min_complete);
    outstanding_ -= got;
    for (std::size_t t = 0; t < got; ++t) {
        if (reaped_[t] < kStashTag) {
            landRequest(static_cast<std::size_t>(reaped_[t]));
            continue;
        }
        const auto sl = static_cast<std::size_t>(reaped_[t] - kStashTag);
        stash_[sl].state = StashSlot::Ready;
        // A read ahead nobody consumed yet waits for a later call.
        for (Slot &slot : slots_) {
            if (slot.wait == Wait::Stashed && slot.aux == sl) {
                copyFromStash(slot, sl);
                slot.wait = Wait::None;
                --pending_;
            }
        }
    }
    return got;
}

int
SectorReader::stashFind(std::uint64_t sector) const
{
    for (std::size_t sl = 0; sl < stash_.size(); ++sl)
        if (stash_[sl].state != StashSlot::Free &&
            stash_[sl].first <= sector &&
            sector < stash_[sl].first + stashSectors_)
            return static_cast<int>(sl);
    return -1;
}

IoQueue &
SectorReader::queue()
{
    if (!queue_)
        queue_ = backend_.openQueue();
    return *queue_;
}

} // namespace ann::storage
