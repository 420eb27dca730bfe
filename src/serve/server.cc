#include "serve/server.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>

#include "common/error.hh"
#include "common/rss.hh"
#include "learn/policy.hh"

namespace ann::serve {
namespace {

/** epoll user-data tags of the two non-connection fds. */
constexpr std::uint64_t kListenTag = 0;
constexpr std::uint64_t kWakeTag = 1;

constexpr std::size_t kReadChunk = 16 * 1024;
/** Per-connection buffered-bytes ceiling (read + write side each). */
constexpr std::size_t kMaxBufferedBytes = 64u << 20;

std::uint64_t
elapsedNs(std::chrono::steady_clock::time_point from,
          std::chrono::steady_clock::time_point to)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
            .count());
}

} // namespace

/** Socket state owned exclusively by the I/O thread. */
struct AnnServer::Connection
{
    int fd = -1;
    std::uint64_t id = 0;
    /** Bytes received but not yet consumed (inOff = parse cursor). */
    std::vector<std::uint8_t> in;
    std::size_t inOff = 0;
    /** Encoded frames awaiting send (outOff = send cursor). */
    std::vector<std::uint8_t> out;
    std::size_t outOff = 0;
    bool wantWrite = false;
};

AnnServer::AnnServer(engine::VectorDbEngine &engine,
                     ServerConfig config)
    : gate_(engine), config_(std::move(config))
{
    ANN_CHECK(config_.queue_limit > 0, "queue_limit must be positive");
    ANN_CHECK(config_.max_batch > 0, "max_batch must be positive");
}

AnnServer::~AnnServer()
{
    requestStop();
    waitStopped();
}

void
AnnServer::start()
{
    ANN_CHECK(!running_.load(), "server already started");

    listenFd_ = ::socket(AF_INET,
                         SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    ANN_CHECK(listenFd_ >= 0, "socket: ", std::strerror(errno));
    int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.port);
    ANN_CHECK(::inet_pton(AF_INET, config_.bind_address.c_str(),
                          &addr.sin_addr) == 1,
              "bad bind address: ", config_.bind_address);
    ANN_CHECK(::bind(listenFd_,
                     reinterpret_cast<const sockaddr *>(&addr),
                     sizeof(addr)) == 0,
              "bind ", config_.bind_address, ":", config_.port, ": ",
              std::strerror(errno));
    ANN_CHECK(::listen(listenFd_, 128) == 0,
              "listen: ", std::strerror(errno));
    socklen_t len = sizeof(addr);
    ANN_CHECK(::getsockname(listenFd_,
                            reinterpret_cast<sockaddr *>(&addr),
                            &len) == 0,
              "getsockname: ", std::strerror(errno));
    port_ = ntohs(addr.sin_port);

    wakeFd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    ANN_CHECK(wakeFd_ >= 0, "eventfd: ", std::strerror(errno));
    epollFd_ = ::epoll_create1(EPOLL_CLOEXEC);
    ANN_CHECK(epollFd_ >= 0, "epoll_create1: ", std::strerror(errno));

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kListenTag;
    ANN_CHECK(::epoll_ctl(epollFd_, EPOLL_CTL_ADD, listenFd_, &ev) ==
                  0,
              "epoll_ctl(listen): ", std::strerror(errno));
    ev.data.u64 = kWakeTag;
    ANN_CHECK(::epoll_ctl(epollFd_, EPOLL_CTL_ADD, wakeFd_, &ev) == 0,
              "epoll_ctl(wake): ", std::strerror(errno));

    pool_ = std::make_unique<ThreadPool>(config_.exec_threads,
                                         ThreadPool::pinByDefault());
    nextConnId_ = 2; // 0/1 are the listen/wake tags
    started_ = std::chrono::steady_clock::now();
    ioGaugeStart_ = storage::ioGaugeSnapshot();
    running_.store(true);
    ioThread_ = std::thread(&AnnServer::ioLoop, this);
    workerThread_ = std::thread(&AnnServer::workerLoop, this);
}

void
AnnServer::requestStop()
{
    // Async-signal-safe: an atomic store plus one eventfd write.
    stopRequested_.store(true);
    if (wakeFd_ >= 0) {
        const std::uint64_t tick = 1;
        [[maybe_unused]] const ssize_t n =
            ::write(wakeFd_, &tick, sizeof(tick));
    }
}

void
AnnServer::waitStopped()
{
    if (ioThread_.joinable())
        ioThread_.join();
    if (workerThread_.joinable())
        workerThread_.join();
    if (epollFd_ >= 0) {
        ::close(epollFd_);
        epollFd_ = -1;
    }
    if (wakeFd_ >= 0) {
        ::close(wakeFd_);
        wakeFd_ = -1;
    }
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    running_.store(false);
}

// ------------------------------------------------------------- I/O

void
AnnServer::ioLoop()
{
    bool draining = false;
    std::chrono::steady_clock::time_point drain_start;
    epoll_event events[64];

    for (;;) {
        const int timeout_ms = draining ? 20 : 200;
        const int n =
            ::epoll_wait(epollFd_, events, 64, timeout_ms);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        for (int i = 0; i < n; ++i) {
            const std::uint64_t tag = events[i].data.u64;
            if (tag == kListenTag) {
                acceptAll();
                continue;
            }
            if (tag == kWakeTag) {
                std::uint64_t junk;
                while (::read(wakeFd_, &junk, sizeof(junk)) ==
                       static_cast<ssize_t>(sizeof(junk)))
                    ;
                continue;
            }
            const auto it = conns_.find(tag);
            if (it == conns_.end())
                continue;
            Connection &conn = *it->second;
            bool alive = !(events[i].events & (EPOLLHUP | EPOLLERR));
            if (alive && (events[i].events & EPOLLIN))
                alive = handleReadableOk(conn);
            if (alive && (events[i].events & EPOLLOUT))
                alive = handleWritableOk(conn);
            if (!alive)
                closeConnection(tag);
        }
        drainOutbox();

        if (stopRequested_.load() && !draining) {
            draining = true;
            drain_start = std::chrono::steady_clock::now();
            if (listenFd_ >= 0) {
                ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, listenFd_,
                            nullptr);
                ::close(listenFd_);
                listenFd_ = -1;
            }
        }
        if (draining) {
            // Read before outbox_: once the queue is empty and no
            // batch is out, its responses are already in outbox_.
            bool all_answered;
            {
                std::lock_guard<std::mutex> lock(queueMutex_);
                all_answered = queue_.empty() && !batchOut_;
            }
            bool outbox_empty;
            {
                std::lock_guard<std::mutex> lock(outboxMutex_);
                outbox_empty = outbox_.empty();
            }
            bool flushed = true;
            for (const auto &entry : conns_)
                if (entry.second->outOff < entry.second->out.size()) {
                    flushed = false;
                    break;
                }
            if ((all_answered && outbox_empty && flushed) ||
                std::chrono::steady_clock::now() - drain_start >
                    config_.drain_timeout)
                break;
        }
    }

    for (const auto &entry : conns_)
        ::close(entry.second->fd);
    conns_.clear();
    openConns_.store(0);

    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        workerStop_ = true;
    }
    queueCv_.notify_all();
}

void
AnnServer::acceptAll()
{
    for (;;) {
        const int fd = ::accept4(listenFd_, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            break; // EAGAIN or transient accept error
        }
        if (conns_.size() >= config_.max_connections ||
            stopRequested_.load()) {
            ::close(fd);
            continue;
        }
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        auto conn = std::make_unique<Connection>();
        conn->fd = fd;
        conn->id = nextConnId_++;
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = conn->id;
        if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
            ::close(fd);
            continue;
        }
        conns_.emplace(conn->id, std::move(conn));
        acceptedConns_.fetch_add(1);
        openConns_.fetch_add(1);
    }
}

bool
AnnServer::handleReadableOk(Connection &conn)
{
    std::uint8_t buf[kReadChunk];
    for (;;) {
        const ssize_t r = ::recv(conn.fd, buf, sizeof(buf), 0);
        if (r > 0) {
            conn.in.insert(conn.in.end(), buf,
                           buf + static_cast<std::size_t>(r));
            if (conn.in.size() - conn.inOff > kMaxBufferedBytes) {
                protocolErrors_.fetch_add(1);
                return false;
            }
            if (!consumeFrames(conn))
                return false;
            continue;
        }
        if (r == 0)
            return false; // peer closed (mid-request or not)
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        if (errno == EINTR)
            continue;
        return false;
    }
    return true;
}

bool
AnnServer::consumeFrames(Connection &conn)
{
    for (;;) {
        const std::size_t avail = conn.in.size() - conn.inOff;
        FrameHeader header;
        const DecodeResult hr =
            decodeHeader(conn.in.data() + conn.inOff, avail, &header);
        if (hr == DecodeResult::NeedMore)
            break;
        if (hr == DecodeResult::Malformed) {
            protocolErrors_.fetch_add(1);
            return false;
        }
        if (avail < kHeaderBytes + header.payload_bytes)
            break; // truncated frame: wait for the rest
        const std::uint8_t *payload =
            conn.in.data() + conn.inOff + kHeaderBytes;

        switch (header.type) {
          case FrameType::SearchRequest: {
            SearchRequest request;
            if (decodeSearchRequest(payload, header.payload_bytes,
                                    &request) != DecodeResult::Ok) {
                protocolErrors_.fetch_add(1);
                return false;
            }
            handleSearchFrame(conn, std::move(request));
            break;
          }
          case FrameType::MetricsRequest: {
            if (header.payload_bytes != 0) {
                protocolErrors_.fetch_add(1);
                return false;
            }
            std::vector<std::uint8_t> frame;
            encodeMetricsResponse(metrics(), &frame);
            queueToConnection(conn, std::move(frame));
            break;
          }
          case FrameType::ShutdownRequest: {
            if (header.payload_bytes != 0) {
                protocolErrors_.fetch_add(1);
                return false;
            }
            std::vector<std::uint8_t> frame;
            encodeShutdownAck(&frame);
            queueToConnection(conn, std::move(frame));
            requestStop();
            break;
          }
          default:
            // Clients must not send response/ack frames.
            protocolErrors_.fetch_add(1);
            return false;
        }
        conn.inOff += kHeaderBytes + header.payload_bytes;
    }

    if (conn.inOff == conn.in.size()) {
        conn.in.clear();
        conn.inOff = 0;
    } else if (conn.inOff > (1u << 20)) {
        conn.in.erase(conn.in.begin(),
                      conn.in.begin() +
                          static_cast<std::ptrdiff_t>(conn.inOff));
        conn.inOff = 0;
    }
    return true;
}

void
AnnServer::handleSearchFrame(Connection &conn, SearchRequest request)
{
    received_.fetch_add(1);

    const auto reject = [&](Status status) {
        SearchResponse response;
        response.request_id = request.request_id;
        response.status = status;
        std::vector<std::uint8_t> frame;
        encodeSearchResponse(response, &frame);
        queueToConnection(conn, std::move(frame));
    };

    if (request.settings.k == 0 || request.query.empty() ||
        (config_.expected_dim != 0 &&
         request.query.size() != config_.expected_dim)) {
        reject(Status::BadRequest);
        return;
    }
    if (stopRequested_.load()) {
        reject(Status::ShuttingDown);
        return;
    }

    bool admitted;
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        admitted = queue_.size() < config_.queue_limit;
        if (admitted) {
            queue_.push_back({conn.id, std::move(request),
                              std::chrono::steady_clock::now()});
            queueDepth_.store(queue_.size());
        }
    }
    if (!admitted) {
        shed_.fetch_add(1);
        reject(Status::Overloaded);
        return;
    }
    queueCv_.notify_one();
}

void
AnnServer::queueToConnection(Connection &conn,
                             std::vector<std::uint8_t> frame)
{
    // Appends only; the actual send happens on the next EPOLLOUT
    // (level-triggered, so it fires immediately while writable).
    conn.out.insert(conn.out.end(), frame.begin(), frame.end());
    if (!conn.wantWrite) {
        conn.wantWrite = true;
        updateEpoll(conn);
    }
}

bool
AnnServer::handleWritableOk(Connection &conn)
{
    while (conn.outOff < conn.out.size()) {
        const ssize_t w =
            ::send(conn.fd, conn.out.data() + conn.outOff,
                   conn.out.size() - conn.outOff, MSG_NOSIGNAL);
        if (w > 0) {
            conn.outOff += static_cast<std::size_t>(w);
            continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        if (errno == EINTR)
            continue;
        return false;
    }
    if (conn.outOff == conn.out.size()) {
        conn.out.clear();
        conn.outOff = 0;
        if (conn.wantWrite) {
            conn.wantWrite = false;
            updateEpoll(conn);
        }
    }
    return true;
}

void
AnnServer::updateEpoll(Connection &conn)
{
    epoll_event ev{};
    ev.events = EPOLLIN | (conn.wantWrite ? EPOLLOUT : 0u);
    ev.data.u64 = conn.id;
    ::epoll_ctl(epollFd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void
AnnServer::closeConnection(std::uint64_t conn_id)
{
    const auto it = conns_.find(conn_id);
    if (it == conns_.end())
        return;
    ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, it->second->fd, nullptr);
    ::close(it->second->fd);
    conns_.erase(it);
    openConns_.fetch_sub(1);
}

void
AnnServer::drainOutbox()
{
    std::vector<OutMessage> ready;
    {
        std::lock_guard<std::mutex> lock(outboxMutex_);
        ready.swap(outbox_);
    }
    for (OutMessage &message : ready) {
        const auto it = conns_.find(message.conn_id);
        if (it == conns_.end()) {
            droppedResponses_.fetch_add(1);
            continue;
        }
        queueToConnection(*it->second, std::move(message.frame));
    }
}

// ------------------------------------------------------------ worker

void
AnnServer::workerLoop()
{
    std::vector<Pending> batch;
    for (;;) {
        batch.clear();
        {
            std::unique_lock<std::mutex> lock(queueMutex_);
            batchOut_ = false; // the last batch's responses are queued
            queueCv_.wait(lock, [&] {
                return workerStop_ || !queue_.empty();
            });
            if (workerStop_)
                return;
            const std::size_t take =
                std::min(config_.max_batch, queue_.size());
            for (std::size_t i = 0; i < take; ++i) {
                batch.push_back(std::move(queue_.front()));
                queue_.pop_front();
            }
            queueDepth_.store(queue_.size());
            batchOut_ = true;
            // Gauge counts requests actually executing: incremented
            // here, decremented per request as each one completes
            // inside runBatch — not zeroed wholesale after the batch,
            // which made the gauge read batch.size() while the last
            // straggler ran and 0 the instant it finished.
            inFlight_.fetch_add(batch.size());
        }
        runBatch(batch);
    }
}

void
AnnServer::runBatch(std::vector<Pending> &batch)
{
    struct Done
    {
        std::uint64_t conn_id = 0;
        std::uint64_t total_ns = 0;
        SearchResponse response;
    };
    const auto dispatched = std::chrono::steady_clock::now();
    std::vector<Done> done(batch.size());

    // One runAllQueries-style dispatch: the whole micro-batch fans
    // out over the execution pool in per-index slots.
    pool_->parallelFor(
        batch.size(), 1, [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
                Pending &pending = batch[i];
                Done &out = done[i];
                out.conn_id = pending.conn_id;
                out.response.request_id = pending.request.request_id;
                out.response.queue_ns =
                    elapsedNs(pending.enqueued, dispatched);
                const auto t0 = std::chrono::steady_clock::now();
                if (config_.slow_every > 0 &&
                    execSeq_.fetch_add(1) % config_.slow_every ==
                        config_.slow_every - 1)
                    std::this_thread::sleep_for(config_.slow_us);
                try {
                    out.response.results =
                        gate_.search(pending.request.query.data(),
                                     pending.request.settings);
                    for (Neighbor &neighbor : out.response.results)
                        neighbor.id += static_cast<VectorId>(
                            config_.id_offset);
                    out.response.status = Status::Ok;
                } catch (const OverloadedError &) {
                    // A routed engine ran out of downstream capacity:
                    // relay the back-pressure instead of reporting a
                    // bad request.
                    out.response.results.clear();
                    out.response.status = Status::Overloaded;
                    shed_.fetch_add(1);
                } catch (const std::exception &) {
                    // Settings the engine rejects (FatalError) must
                    // not take the server down with them.
                    out.response.results.clear();
                    out.response.status = Status::BadRequest;
                }
                const auto t1 = std::chrono::steady_clock::now();
                out.response.exec_ns = elapsedNs(t0, t1);
                out.total_ns = elapsedNs(pending.enqueued, t1);
                inFlight_.fetch_sub(1);
            }
        });

    batches_.fetch_add(1);
    if (batch.size() > maxBatch_.load())
        maxBatch_.store(batch.size());
    {
        std::lock_guard<std::mutex> lock(histMutex_);
        for (const Done &d : done)
            latencyNs_.add(d.total_ns);
    }
    completed_.fetch_add(batch.size());
    {
        std::lock_guard<std::mutex> lock(outboxMutex_);
        for (Done &d : done) {
            OutMessage message;
            message.conn_id = d.conn_id;
            encodeSearchResponse(d.response, &message.frame);
            outbox_.push_back(std::move(message));
        }
    }
    const std::uint64_t tick = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(wakeFd_, &tick, sizeof(tick));
}

MetricsSnapshot
AnnServer::metrics() const
{
    MetricsSnapshot snapshot;
    const auto now = std::chrono::steady_clock::now();
    snapshot.uptime_ns = elapsedNs(started_, now);
    snapshot.accepted_connections = acceptedConns_.load();
    snapshot.open_connections = openConns_.load();
    snapshot.received = received_.load();
    snapshot.completed = completed_.load();
    snapshot.shed = shed_.load();
    snapshot.protocol_errors = protocolErrors_.load();
    snapshot.dropped_responses = droppedResponses_.load();
    snapshot.in_flight = inFlight_.load();
    snapshot.queue_depth = queueDepth_.load();
    snapshot.batches = batches_.load();
    snapshot.max_batch = maxBatch_.load();
    {
        // Lock-free: the cache counters are atomics, and the
        // shared-read contract covers concurrent searches.
        const storage::NodeCacheStats cache =
            gate_.engine().nodeCacheStats();
        snapshot.cache_lookups = cache.lookups;
        snapshot.cache_hits = cache.hits;
        snapshot.cache_bytes_saved = cache.bytesSaved();
        snapshot.cache_deduped = cache.ios_deduped;
        const storage::NodeCacheStats codes =
            gate_.engine().codeCacheStats();
        snapshot.code_cache_lookups = codes.lookups;
        snapshot.code_cache_hits = codes.hits;
    }
    snapshot.resident_index_bytes = gate_.engine().memoryBytes();
    snapshot.peak_rss_bytes = peakRssBytes();
    snapshot.eff_queue_depth =
        storage::ioGaugeSnapshot().meanDepthSince(ioGaugeStart_);
    {
        // Learned-policy echo: a toggle only acts when a model is
        // loaded, so report the effective (toggle AND model) state.
        const bool model_active = learn::activeModel() != nullptr;
        snapshot.learned_entry =
            model_active && learn::learnedEntryEnabled() ? 1 : 0;
        snapshot.learned_early_stop =
            model_active && learn::earlyStopEnabled() ? 1 : 0;
        snapshot.learned_model = learn::activeModelPath();
    }
    {
        std::lock_guard<std::mutex> lock(histMutex_);
        snapshot.mean_us = latencyNs_.mean() / 1000.0;
        snapshot.p50_us = latencyNs_.percentile(50.0) / 1000.0;
        snapshot.p99_us = latencyNs_.percentile(99.0) / 1000.0;
        snapshot.p999_us = latencyNs_.percentile(99.9) / 1000.0;
    }
    const double uptime_s =
        static_cast<double>(snapshot.uptime_ns) / 1e9;
    snapshot.qps = uptime_s > 0.0
                       ? static_cast<double>(snapshot.completed) /
                             uptime_s
                       : 0.0;
    return snapshot;
}

} // namespace ann::serve
