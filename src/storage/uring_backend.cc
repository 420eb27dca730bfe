/**
 * @file
 * io_uring-served node file: the whole beam goes down as one batched
 * submission (one SQE per contiguous sector run), the submission
 * window is queue-depth controlled, and completions are reaped from
 * the shared CQ ring without per-read syscalls — at most one
 * io_uring_enter(2) per queue-depth window versus one pread(2) per
 * sector run for the file backend.
 *
 * The ring is driven by raw io_uring_setup/io_uring_enter/
 * io_uring_register syscalls over hand-mmapped SQ/CQ rings, so the
 * build needs only <linux/io_uring.h>. Without it (or with
 * -DANN_DISABLE_URING=ON) makeUringBackend() returns nullptr and the
 * factory falls back to the file backend.
 */

#include "storage/io_backend.hh"

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "common/error.hh"
#include "common/logging.hh"

#if defined(ANN_HAVE_IO_URING_SYSCALL)
#include <linux/io_uring.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#endif

namespace ann::storage {

#if defined(ANN_HAVE_IO_URING_SYSCALL)

namespace {

/** Fix up one raw CQE result: full reads pass through, short reads
 *  (legal, just rare on regular files) are completed with pread,
 *  negative res is a hard error. */
bool
fixShortRead(int fd, const IoRequest &req, int res)
{
    const std::size_t want = req.count * kIoSectorBytes;
    if (res == static_cast<int>(want))
        return true;
    if (res < 0)
        return false;
    return ioPreadFull(fd, req.dest + res,
                       want - static_cast<std::size_t>(res),
                       req.sector * kIoSectorBytes +
                           static_cast<std::uint64_t>(res));
}

int
sysIoUringSetup(unsigned entries, io_uring_params *params)
{
    return static_cast<int>(
        ::syscall(__NR_io_uring_setup, entries, params));
}

int
sysIoUringEnter(int ring_fd, unsigned to_submit, unsigned min_complete,
                unsigned flags)
{
    return static_cast<int>(::syscall(__NR_io_uring_enter, ring_fd,
                                      to_submit, min_complete, flags,
                                      nullptr, 0));
}

int
sysIoUringRegister(int ring_fd, unsigned opcode, const void *arg,
                   unsigned nr_args)
{
    return static_cast<int>(::syscall(__NR_io_uring_register, ring_fd,
                                      opcode, arg, nr_args));
}

/** UringQueue::reap() result on a ring failure. */
constexpr std::size_t kReapFailed = static_cast<std::size_t>(-1);

/**
 * One submission/completion ring: the standard mmap dance over
 * io_uring_setup(2), SQEs filled by hand, and release/acquire fences
 * on the shared head/tail indices. Every submission is stage() per
 * read, then one submit(); every completion goes through reap().
 */
class UringQueue
{
  public:
    UringQueue() = default;
    ~UringQueue() { destroy(); }
    UringQueue(const UringQueue &) = delete;
    UringQueue &operator=(const UringQueue &) = delete;

    bool
    init(unsigned entries)
    {
        io_uring_params params;
        std::memset(&params, 0, sizeof(params));
        ringFd_ = sysIoUringSetup(entries, &params);
        if (ringFd_ < 0)
            return false;

        sqLen_ = params.sq_off.array +
                 params.sq_entries * sizeof(unsigned);
        cqLen_ = params.cq_off.cqes +
                 params.cq_entries * sizeof(io_uring_cqe);
        singleMmap_ = (params.features & IORING_FEAT_SINGLE_MMAP) != 0;
        if (singleMmap_)
            sqLen_ = cqLen_ = std::max(sqLen_, cqLen_);

        sqMem_ = ::mmap(nullptr, sqLen_, PROT_READ | PROT_WRITE,
                        MAP_SHARED | MAP_POPULATE, ringFd_,
                        IORING_OFF_SQ_RING);
        if (sqMem_ == MAP_FAILED) {
            sqMem_ = nullptr;
            destroy();
            return false;
        }
        cqMem_ = singleMmap_
                     ? sqMem_
                     : ::mmap(nullptr, cqLen_, PROT_READ | PROT_WRITE,
                              MAP_SHARED | MAP_POPULATE, ringFd_,
                              IORING_OFF_CQ_RING);
        if (cqMem_ == MAP_FAILED) {
            cqMem_ = nullptr;
            destroy();
            return false;
        }
        sqeLen_ = params.sq_entries * sizeof(io_uring_sqe);
        sqeMem_ = ::mmap(nullptr, sqeLen_, PROT_READ | PROT_WRITE,
                         MAP_SHARED | MAP_POPULATE, ringFd_,
                         IORING_OFF_SQES);
        if (sqeMem_ == MAP_FAILED) {
            sqeMem_ = nullptr;
            destroy();
            return false;
        }

        auto *sq = static_cast<std::uint8_t *>(sqMem_);
        sqTail_ = reinterpret_cast<unsigned *>(sq + params.sq_off.tail);
        sqMask_ = reinterpret_cast<unsigned *>(
            sq + params.sq_off.ring_mask);
        sqArray_ =
            reinterpret_cast<unsigned *>(sq + params.sq_off.array);
        sqes_ = static_cast<io_uring_sqe *>(sqeMem_);

        auto *cq = static_cast<std::uint8_t *>(cqMem_);
        cqHead_ = reinterpret_cast<unsigned *>(cq + params.cq_off.head);
        cqTail_ = reinterpret_cast<unsigned *>(cq + params.cq_off.tail);
        cqMask_ = reinterpret_cast<unsigned *>(
            cq + params.cq_off.ring_mask);
        cqes_ = reinterpret_cast<io_uring_cqe *>(
            cq + params.cq_off.cqes);
        return true;
    }

    /** Generation id of the buffer this ring has registered (0: none). */
    std::uint64_t registeredRegion() const { return regionId_; }

    /**
     * Make @p region the ring's registered buffer 0, re-registering
     * only when its generation id changed. @return false when
     * registration is unavailable (e.g. RLIMIT_MEMLOCK); the failed id
     * is remembered so the syscall is not retried every batch.
     */
    bool
    ensureBuffers(const IoRegion &region)
    {
        if (regionId_ == region.id)
            return true;
        if (failedRegionId_ == region.id)
            return false;
        if (regionId_ != 0)
            sysIoUringRegister(ringFd_, IORING_UNREGISTER_BUFFERS,
                               nullptr, 0);
        regionId_ = 0;
        iovec iov{region.base, region.bytes};
        if (sysIoUringRegister(ringFd_, IORING_REGISTER_BUFFERS, &iov,
                               1) != 0) {
            failedRegionId_ = region.id;
            return false;
        }
        regionId_ = region.id;
        return true;
    }

    /** Register @p fd as fixed file 0 (idempotent per ring). */
    bool
    ensureFiles(int fd)
    {
        if (fileFd_ == fd)
            return true;
        if (filesFailed_)
            return false;
        if (fileFd_ >= 0)
            sysIoUringRegister(ringFd_, IORING_UNREGISTER_FILES,
                               nullptr, 0);
        fileFd_ = -1;
        if (sysIoUringRegister(ringFd_, IORING_REGISTER_FILES, &fd,
                               1) != 0) {
            filesFailed_ = true;
            return false;
        }
        fileFd_ = fd;
        return true;
    }

    /**
     * Fill the next SQE with a read of @p req from @p fd; the kernel
     * sees it only at the next submit(). @p user_data comes back in
     * the read's CQE. @p fixed_buf reads into registered buffer 0
     * (READ_FIXED) and @p fixed_file targets registered file 0: no
     * per-read page pinning or fd refcounting in the kernel.
     */
    void
    stage(int fd, const IoRequest &req, std::uint64_t user_data,
          bool fixed_buf = false, bool fixed_file = false)
    {
        // Only this side writes the SQ tail.
        const unsigned idx = (*sqTail_ + staged_++) & *sqMask_;
        io_uring_sqe *sqe = &sqes_[idx];
        std::memset(sqe, 0, sizeof(*sqe)); // buf_index 0, no flags
        sqe->opcode = static_cast<std::uint8_t>(
            fixed_buf ? IORING_OP_READ_FIXED : IORING_OP_READ);
        sqe->fd = fixed_file ? 0 : fd;
        if (fixed_file)
            sqe->flags |= IOSQE_FIXED_FILE;
        sqe->addr = reinterpret_cast<std::uint64_t>(req.dest);
        sqe->len = req.count * static_cast<unsigned>(kIoSectorBytes);
        sqe->off = req.sector * kIoSectorBytes;
        sqe->user_data = user_data;
        sqArray_[idx] = idx;
    }

    /**
     * Publish every staged SQE with one release-store on the tail and
     * submit them in one io_uring_enter(2), which also waits for
     * @p wait completions. @return false on a ring failure.
     */
    bool
    submit(unsigned wait)
    {
        const unsigned n = staged_;
        staged_ = 0;
        __atomic_store_n(sqTail_, *sqTail_ + n, __ATOMIC_RELEASE);
        return enter(n, wait);
    }

    /**
     * Walk the CQ, handing up to @p max completions to
     * @p on_cqe(user_data, res) and blocking until at least
     * @p min_complete have been handed over. @return the count, or
     * kReapFailed on a ring failure.
     */
    template <typename OnCqe>
    std::size_t
    reap(std::size_t max, std::size_t min_complete, OnCqe &&on_cqe)
    {
        std::size_t got = 0;
        unsigned head = *cqHead_;
        for (;;) {
            const unsigned tail =
                __atomic_load_n(cqTail_, __ATOMIC_ACQUIRE);
            for (; head != tail && got < max; ++head, ++got) {
                const io_uring_cqe &cqe = cqes_[head & *cqMask_];
                on_cqe(cqe.user_data, cqe.res);
            }
            __atomic_store_n(cqHead_, head, __ATOMIC_RELEASE);
            if (got >= min_complete || got >= max)
                return got;
            if (!enter(0, static_cast<unsigned>(min_complete - got)))
                return kReapFailed;
        }
    }

    /**
     * One queue-depth window of the blocking path: requests
     * [begin, begin + count) of @p reqs go down and come back in one
     * io_uring_enter(2) (user_data indexes @p reqs). @return false on
     * a ring or read failure (caller falls back to pread).
     */
    bool
    submitAndReap(int fd, const IoRequest *reqs, std::size_t begin,
                  std::size_t count, bool fixed_buf, bool fixed_file)
    {
        for (std::size_t i = begin; i < begin + count; ++i)
            stage(fd, reqs[i], i, fixed_buf, fixed_file);
        if (!submit(static_cast<unsigned>(count)))
            return false;
        bool ok = true;
        const std::size_t got =
            reap(count, count, [&](std::uint64_t i, int res) {
                ok = fixShortRead(fd, reqs[i], res) && ok;
            });
        return got == count && ok;
    }

  private:
    /** io_uring_enter(2), retried on EINTR; waits for completions
     *  only when @p min_complete > 0. */
    bool
    enter(unsigned to_submit, unsigned min_complete)
    {
        const unsigned flags =
            min_complete > 0 ? IORING_ENTER_GETEVENTS : 0u;
        int ret;
        do {
            ret = sysIoUringEnter(ringFd_, to_submit, min_complete,
                                  flags);
        } while (ret < 0 && errno == EINTR);
        return ret >= 0;
    }

    void
    destroy()
    {
        if (sqeMem_)
            ::munmap(sqeMem_, sqeLen_);
        if (cqMem_ && cqMem_ != sqMem_)
            ::munmap(cqMem_, cqLen_);
        if (sqMem_)
            ::munmap(sqMem_, sqLen_);
        if (ringFd_ >= 0)
            ::close(ringFd_);
        sqeMem_ = cqMem_ = sqMem_ = nullptr;
        ringFd_ = -1;
    }

    int ringFd_ = -1;
    std::uint64_t regionId_ = 0;
    std::uint64_t failedRegionId_ = 0;
    int fileFd_ = -1;
    bool filesFailed_ = false;
    void *sqMem_ = nullptr;
    void *cqMem_ = nullptr;
    void *sqeMem_ = nullptr;
    std::size_t sqLen_ = 0;
    std::size_t cqLen_ = 0;
    std::size_t sqeLen_ = 0;
    bool singleMmap_ = false;
    /** SQEs filled since the last submit(). */
    unsigned staged_ = 0;

    unsigned *sqTail_ = nullptr;
    unsigned *sqMask_ = nullptr;
    unsigned *sqArray_ = nullptr;
    io_uring_sqe *sqes_ = nullptr;
    unsigned *cqHead_ = nullptr;
    unsigned *cqTail_ = nullptr;
    unsigned *cqMask_ = nullptr;
    io_uring_cqe *cqes_ = nullptr;
};

class SharedUringRing;

/**
 * The uring node-file backend. Rings are not thread-safe, so a small
 * pool hands one ring per in-flight readBatch(); rings are created
 * lazily and reused, so steady-state batches pay zero setup syscalls.
 */
class UringIoBackend final : public IoBackend
{
  public:
    UringIoBackend(int fd, std::uint64_t size, unsigned queue_depth,
                   bool direct)
        : fd_(fd), size_(size),
          queueDepth_(std::min(1024u, std::max(1u, queue_depth))),
          direct_(direct)
    {
    }

    ~UringIoBackend() override;

    std::unique_ptr<IoQueue> openQueue() override;

    IoBackendKind kind() const override { return IoBackendKind::Uring; }
    std::uint64_t sizeBytes() const override { return size_; }
    bool directIo() const override { return direct_; }

    void
    readBatch(const IoRequest *requests, std::size_t n) override
    {
        readBatchImpl(requests, n, IoRegion{});
    }

    void
    readBatch(const IoRequest *requests, std::size_t n,
              const IoRegion &region) override
    {
        // The registered fast path only applies when every dest
        // really lies inside the advertised region; anything else
        // (including the toggle being off) takes the plain READ path.
        IoRegion effective = region;
        if (!uringRegisterEnabled() || region.id == 0 ||
            region.base == nullptr) {
            effective = IoRegion{};
        } else {
            for (std::size_t i = 0; i < n; ++i) {
                const std::uint8_t *dest = requests[i].dest;
                const std::size_t bytes =
                    requests[i].count * kIoSectorBytes;
                if (dest < region.base ||
                    dest + bytes > region.base + region.bytes) {
                    effective = IoRegion{};
                    break;
                }
            }
        }
        readBatchImpl(requests, n, effective);
    }

  private:
    void
    readBatchImpl(const IoRequest *requests, std::size_t n,
                  const IoRegion &region)
    {
        if (n == 0)
            return;
        std::size_t sectors = 0;
        for (std::size_t i = 0; i < n; ++i) {
            ANN_CHECK(requests[i].sector * kIoSectorBytes +
                              requests[i].count * kIoSectorBytes <=
                          size_,
                      "read past end of node file");
            sectors += requests[i].count;
        }
        ioGaugeSubmit(n, sectors);

        std::size_t completed = 0;
        std::unique_ptr<UringQueue> queue = acquire(region.id);
        if (queue) {
            // Registration is best-effort per feature: fixed file and
            // fixed buffer degrade independently to their plain forms.
            const bool fixed_file =
                region.id != 0 && queue->ensureFiles(fd_);
            const bool fixed_buf =
                region.id != 0 && queue->ensureBuffers(region);
            bool ok = true;
            for (std::size_t done = 0; done < n && ok;) {
                const std::size_t window =
                    std::min<std::size_t>(queueDepth_, n - done);
                ok = queue->submitAndReap(fd_, requests, done, window,
                                          fixed_buf, fixed_file);
                done += window;
                if (ok) {
                    ioGaugeComplete(window);
                    completed += window;
                }
            }
            release(std::move(queue));
            if (ok)
                return;
            warnFallback();
        }
        // Ring creation or submission failed: serve the batch with
        // plain preads so callers never observe the difference.
        for (std::size_t i = 0; i < n; ++i)
            ANN_CHECK(
                ioPreadFull(fd_, requests[i].dest,
                            requests[i].count * kIoSectorBytes,
                            requests[i].sector * kIoSectorBytes),
                "pread fallback failed on node file");
        ioGaugeComplete(n - completed);
    }

    /**
     * Hand out an idle ring, preferring one whose registered buffer
     * already matches @p prefer_region — steady-state threads get
     * "their" ring back and pay zero registration syscalls per batch.
     */
    std::unique_ptr<UringQueue>
    acquire(std::uint64_t prefer_region)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!idle_.empty()) {
                std::size_t pick = idle_.size() - 1;
                if (prefer_region != 0) {
                    for (std::size_t i = idle_.size(); i-- > 0;) {
                        if (idle_[i]->registeredRegion() ==
                            prefer_region) {
                            pick = i;
                            break;
                        }
                    }
                }
                auto queue = std::move(idle_[pick]);
                idle_.erase(idle_.begin() +
                            static_cast<std::ptrdiff_t>(pick));
                return queue;
            }
        }
        auto queue = std::make_unique<UringQueue>();
        if (!queue->init(queueDepth_))
            return nullptr;
        return queue;
    }

    void
    release(std::unique_ptr<UringQueue> queue)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        idle_.push_back(std::move(queue));
    }

    static void
    warnFallback()
    {
        static std::once_flag warned;
        std::call_once(warned, [] {
            logWarn("io_uring submission failed at runtime; serving "
                    "reads with pread instead");
        });
    }

    friend class SharedUringRing;

    int fd_;
    std::uint64_t size_;
    unsigned queueDepth_;
    bool direct_;
    std::mutex mutex_;
    std::vector<std::unique_ptr<UringQueue>> idle_;
    std::once_flag sharedOnce_;
    std::unique_ptr<SharedUringRing> shared_;
};

/**
 * The submit/poll engine of the uring backend: one ring, plain READ
 * SQEs (destinations move between submissions, so registered buffers
 * do not apply), and a slot table that caps reads in flight at the
 * ring's entry count; user_data carries the slot index so short reads
 * complete against the original request. Submission serializes on
 * ringMutex_; any thread short on completions becomes the reaper and
 * dispatches CQEs to their queues' mailboxes.
 *
 * A ring serves either one queue, borrowed from the backend's ring
 * pool for the queue's lifetime, or every queue of the backend
 * ($ANN_IO_POOLED): then the per-query beams of a micro-batch merge
 * into pooled submissions and the device sees the sum of their depths.
 */
class SharedUringRing
{
  public:
    struct Box
    {
        std::mutex mutex;
        std::condition_variable cv;
        std::vector<std::uint64_t> ready;
        std::size_t outstanding = 0;
        bool failed = false; ///< a read failed; surfaced by poll()
    };

    SharedUringRing(UringIoBackend &backend,
                    std::unique_ptr<UringQueue> ring,
                    std::uint32_t capacity)
        : backend_(backend), cap_(capacity), ring_(std::move(ring))
    {
        slots_.resize(cap_);
        freeSlots_.reserve(cap_);
        for (std::uint32_t s = 0; s < cap_; ++s)
            freeSlots_.push_back(cap_ - 1 - s);
    }

    /** Return the (drained) ring to the backend's pool. */
    void releaseRing() { backend_.release(std::move(ring_)); }

    void
    submit(Box *box, const IoRequest *requests, std::size_t n,
           const std::uint64_t *tags)
    {
        std::size_t sectors = 0;
        for (std::size_t i = 0; i < n; ++i) {
            ANN_CHECK(requests[i].sector * kIoSectorBytes +
                              requests[i].count * kIoSectorBytes <=
                          backend_.size_,
                      "read past end of node file");
            sectors += requests[i].count;
        }
        ioGaugeSubmit(n, sectors);
        {
            std::lock_guard<std::mutex> bl(box->mutex);
            box->outstanding += n;
        }
        std::unique_lock<std::mutex> rl(ringMutex_);
        std::size_t i = 0;
        while (i < n) {
            while (inflight_ >= cap_)
                reapLocked(1);
            const std::size_t chunk =
                std::min<std::size_t>(cap_ - inflight_, n - i);
            chunkSlots_.clear();
            for (std::size_t j = i; j < i + chunk; ++j) {
                const std::uint32_t slot = freeSlots_.back();
                freeSlots_.pop_back();
                slots_[slot] = Slot{requests[j], tags[j], box};
                ring_->stage(backend_.fd_, requests[j], slot);
                chunkSlots_.push_back(slot);
            }
            if (ring_->submit(0)) {
                inflight_ += chunk;
            } else {
                for (std::size_t j = 0; j < chunk; ++j) {
                    const IoRequest &req = slots_[chunkSlots_[j]].req;
                    finishSlot(chunkSlots_[j],
                               ioPreadFull(backend_.fd_, req.dest,
                                           req.count * kIoSectorBytes,
                                           req.sector * kIoSectorBytes));
                }
            }
            i += chunk;
        }
    }

    std::size_t
    poll(Box *box, std::uint64_t *out, std::size_t max,
         std::size_t min_complete)
    {
        if (min_complete == 0) {
            // Even a pure poll dispatches what the CQ already holds:
            // consumers that only ever poll must still see their reads
            // complete.
            std::unique_lock<std::mutex> rl(ringMutex_, std::try_to_lock);
            if (rl.owns_lock() && inflight_ > 0)
                reapLocked(0);
        }
        for (;;) {
            {
                std::unique_lock<std::mutex> bl(box->mutex);
                if (box->ready.size() >= min_complete ||
                    box->outstanding == 0) {
                    ANN_CHECK(!box->failed,
                              "io_uring read failed on node file");
                    const std::size_t take =
                        std::min(max, box->ready.size());
                    for (std::size_t i = 0; i < take; ++i)
                        out[i] = box->ready[i];
                    box->ready.erase(
                        box->ready.begin(),
                        box->ready.begin() +
                            static_cast<std::ptrdiff_t>(take));
                    return take;
                }
            }
            pump(box, [&] {
                return box->ready.size() < min_complete &&
                       box->outstanding > 0;
            });
        }
    }

    /** Block until every read owned by @p box has completed, then
     *  discard its undelivered tags (queue teardown). */
    void
    drain(Box *box)
    {
        for (;;) {
            {
                std::unique_lock<std::mutex> bl(box->mutex);
                if (box->outstanding == 0) {
                    box->ready.clear();
                    return;
                }
            }
            pump(box, [&] { return box->outstanding > 0; });
        }
    }

  private:
    /**
     * @p box is short on completions: become the reaper, or wait
     * briefly for whoever currently is while @p still_short holds
     * (evaluated under the box lock).
     */
    template <typename Pred>
    void
    pump(Box *box, Pred still_short)
    {
        std::unique_lock<std::mutex> rl(ringMutex_, std::try_to_lock);
        if (rl.owns_lock()) {
            if (inflight_ > 0)
                reapLocked(1);
            return;
        }
        std::unique_lock<std::mutex> bl(box->mutex);
        if (still_short())
            box->cv.wait_for(bl, std::chrono::microseconds(50));
    }

    struct Slot
    {
        IoRequest req;
        std::uint64_t tag = 0;
        Box *box = nullptr;
    };

    /** ringMutex_ held. Publish one completed slot to its box; a
     *  failed read completes too, so no queue waits on it forever. */
    void
    finishSlot(std::uint32_t slot, bool ok)
    {
        Slot &s = slots_[slot];
        Box *box = s.box;
        {
            // Notify under the lock: drain() may return and free the
            // box the moment it observes outstanding == 0.
            std::lock_guard<std::mutex> bl(box->mutex);
            box->ready.push_back(s.tag);
            --box->outstanding;
            box->failed = box->failed || !ok;
            box->cv.notify_all();
        }
        freeSlots_.push_back(slot);
        ioGaugeComplete(1);
    }

    /** ringMutex_ held. Reap ≥ @p min_complete CQEs (bounded by what
     *  is in flight) and dispatch them to their owners. */
    void
    reapLocked(std::size_t min_complete)
    {
        const std::size_t got = ring_->reap(
            cap_, std::min<std::size_t>(min_complete, inflight_),
            [this](std::uint64_t slot, int res) {
                finishSlot(static_cast<std::uint32_t>(slot),
                           fixShortRead(backend_.fd_,
                                        slots_[slot].req, res));
                --inflight_;
            });
        ANN_CHECK(got != kReapFailed, "io_uring completion reap failed");
    }

    UringIoBackend &backend_;
    std::uint32_t cap_;
    std::unique_ptr<UringQueue> ring_;
    std::mutex ringMutex_;
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> freeSlots_;
    std::size_t inflight_ = 0;
    /** Slots staged by the submission in progress. */
    std::vector<std::uint32_t> chunkSlots_;
};

/** Per-consumer handle onto a ring: the backend's pooled one, or a
 *  private one it owns and returns to the ring pool when done. */
class UringAsyncQueue final : public IoQueue
{
  public:
    explicit UringAsyncQueue(SharedUringRing &ring) : ring_(ring) {}
    explicit UringAsyncQueue(std::unique_ptr<SharedUringRing> own)
        : own_(std::move(own)), ring_(*own_)
    {
    }
    ~UringAsyncQueue() override
    {
        try {
            ring_.drain(&box_);
            if (own_)
                own_->releaseRing();
        } catch (...) {
            // Ring failure while draining: a private ring is destroyed
            // with own_, which cancels whatever was still in flight.
        }
    }

    void
    submitBatch(const IoRequest *requests, std::size_t n,
                const std::uint64_t *tags) override
    {
        ring_.submit(&box_, requests, n, tags);
    }

    std::size_t
    pollCompletions(std::uint64_t *out, std::size_t max,
                    std::size_t min_complete) override
    {
        return ring_.poll(&box_, out, max, min_complete);
    }

  private:
    std::unique_ptr<SharedUringRing> own_;
    SharedUringRing &ring_;
    SharedUringRing::Box box_;
};

UringIoBackend::~UringIoBackend()
{
    shared_.reset(); // shared ring closes before the file it reads
    idle_.clear();   // rings close before the file they read
    ::close(fd_);
}

std::unique_ptr<IoQueue>
UringIoBackend::openQueue()
{
    if (ioPooledEnabled()) {
        std::call_once(sharedOnce_, [this] {
            // The pooled ring merges many queries' beams, so size it
            // for the fleet, not one query's queue depth.
            const std::uint32_t cap = std::min<std::uint32_t>(
                1024, std::max<std::uint32_t>(64, queueDepth_));
            auto ring = std::make_unique<UringQueue>();
            if (ring->init(cap))
                shared_ = std::make_unique<SharedUringRing>(
                    *this, std::move(ring), cap);
        });
        if (shared_)
            return std::make_unique<UringAsyncQueue>(*shared_);
    }
    std::unique_ptr<UringQueue> ring = acquire(0);
    if (!ring)
        return IoBackend::openQueue(); // emulated over readBatch()
    return std::make_unique<UringAsyncQueue>(
        std::make_unique<SharedUringRing>(*this, std::move(ring),
                                          queueDepth_));
}

} // namespace

bool
uringSupported()
{
    static const bool supported = [] {
        UringQueue probe;
        return probe.init(8);
    }();
    return supported;
}

std::unique_ptr<IoBackend>
makeUringBackend(int fd, std::uint64_t size, unsigned queue_depth,
                 bool direct)
{
    if (!uringSupported())
        return nullptr;
    return std::make_unique<UringIoBackend>(fd, size, queue_depth,
                                            direct);
}

#else // no io_uring support compiled in

bool
uringSupported()
{
    return false;
}

std::unique_ptr<IoBackend>
makeUringBackend(int, std::uint64_t, unsigned, bool)
{
    return nullptr;
}

#endif

} // namespace ann::storage
