/**
 * @file
 * AnnServer: non-blocking epoll TCP server fronting one engine.
 *
 * Architecture (two service threads plus the execution pool):
 *
 *   epoll I/O thread   owns every socket: accepts connections, parses
 *                      frames, runs admission control, and performs
 *                      all writes. Complete search requests go into a
 *                      bounded FIFO; when the queue is at its limit
 *                      the request is answered immediately with
 *                      Status::Overloaded instead of queueing without
 *                      bound (the paper's engines differ exactly in
 *                      how they handle this regime — O-2).
 *   batch worker       drains up to max_batch queued requests into
 *                      one micro-batch and executes it with a
 *                      parallelFor over the execution pool — the
 *                      runAllQueries dispatch shape — then hands the
 *                      encoded responses back to the I/O thread
 *                      through an outbox + eventfd wakeup. Batches
 *                      form naturally under load: while one batch
 *                      executes, new arrivals accumulate.
 *
 * Graceful drain: requestStop() (async-signal-safe; call it from a
 * SIGTERM handler) stops accepting, answers new requests with
 * ShuttingDown, finishes everything queued or executing, flushes
 * write buffers, then exits the loops. waitStopped() joins.
 *
 * Latency tails are tracked in a mergeable log-bucketed
 * LatencyHistogram (P50/P99/P99.9 in the metrics snapshot).
 */

#ifndef ANN_SERVE_SERVER_HH
#define ANN_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/stats.hh"
#include "common/thread_pool.hh"
#include "serve/engine_gate.hh"
#include "serve/protocol.hh"
#include "storage/io_backend.hh"

namespace ann::serve {

struct ServerConfig
{
    std::string bind_address = "127.0.0.1";
    /** TCP port; 0 picks an ephemeral port (see AnnServer::port()). */
    std::uint16_t port = 0;
    /** Admission limit: queued requests beyond this are shed. */
    std::size_t queue_limit = 64;
    /** Micro-batch drain size per dispatch. */
    std::size_t max_batch = 8;
    /**
     * Execution pool width (ExecOptions semantics: 0 = hardware
     * concurrency, 1 = serial in the batch worker).
     */
    std::size_t exec_threads = 0;
    std::size_t max_connections = 1024;
    /**
     * Expected query dimensionality; requests with any other dim get
     * Status::BadRequest (0 disables the check).
     */
    std::size_t expected_dim = 0;
    /** Forced connection close if a drain cannot flush in time. */
    std::chrono::milliseconds drain_timeout{5000};
    /**
     * Added to every returned neighbour id. A shard process serving
     * rows [base, base+n) of a larger dataset sets this to `base` so
     * its results land in the global id space and the router's merged
     * top-k is directly comparable to a single-process run.
     */
    std::uint64_t id_offset = 0;
    /**
     * Debug straggler injection: every @p slow_every 'th request on
     * this server sleeps @p slow_us before executing (0 = off). Gives
     * cluster benches a deterministic tail to hedge away — the
     * stand-in for GC pauses, compaction, and noisy neighbours.
     */
    std::size_t slow_every = 0;
    std::chrono::microseconds slow_us{0};
};

/** Epoll server executing search requests on a gated engine. */
class AnnServer
{
  public:
    AnnServer(engine::VectorDbEngine &engine, ServerConfig config);
    ~AnnServer();

    AnnServer(const AnnServer &) = delete;
    AnnServer &operator=(const AnnServer &) = delete;

    /** Bind, listen, and spawn the I/O and batch-worker threads. */
    void start();

    /** Actual bound port (after start(), resolves port 0). */
    std::uint16_t port() const { return port_; }

    /**
     * Begin a graceful drain. Async-signal-safe: only an atomic
     * store and an eventfd write, so SIGTERM handlers may call it.
     */
    void requestStop();

    /** Join the service threads (returns once the drain finished). */
    void waitStopped();

    bool running() const { return running_.load(); }

    /** Point-in-time metrics (callable from any thread). */
    MetricsSnapshot metrics() const;

    /** Mutation/search gate around the served engine. */
    EngineGate &gate() { return gate_; }

  private:
    struct Connection;

    /** One admitted request waiting for a micro-batch slot. */
    struct Pending
    {
        std::uint64_t conn_id = 0;
        SearchRequest request;
        std::chrono::steady_clock::time_point enqueued;
    };

    /** Encoded frame addressed to a (possibly gone) connection. */
    struct OutMessage
    {
        std::uint64_t conn_id = 0;
        std::vector<std::uint8_t> frame;
    };

    void ioLoop();
    void workerLoop();
    void runBatch(std::vector<Pending> &batch);

    void acceptAll();
    /** @return false when the connection must be closed. */
    bool handleReadableOk(Connection &conn);
    bool handleWritableOk(Connection &conn);
    /** Parse complete frames out of the connection's read buffer. */
    bool consumeFrames(Connection &conn);
    void handleSearchFrame(Connection &conn, SearchRequest request);
    void queueToConnection(Connection &conn,
                           std::vector<std::uint8_t> frame);
    void closeConnection(std::uint64_t conn_id);
    void drainOutbox();
    void updateEpoll(Connection &conn);

    EngineGate gate_;
    ServerConfig config_;

    int epollFd_ = -1;
    int listenFd_ = -1;
    int wakeFd_ = -1;
    std::uint16_t port_ = 0;

    std::thread ioThread_;
    std::thread workerThread_;
    std::atomic<bool> running_{false};
    std::atomic<bool> stopRequested_{false};

    // Request queue (I/O thread -> batch worker).
    mutable std::mutex queueMutex_;
    std::condition_variable queueCv_;
    std::deque<Pending> queue_;
    bool workerStop_ = false;
    /**
     * Set when the worker takes a batch, cleared at its next locked
     * section, which follows the batch's outbox push: with the queue
     * empty and this clear, every admitted request's response has
     * reached outbox_.
     */
    bool batchOut_ = false;

    // Responses (batch worker -> I/O thread), delivered via wakeFd_.
    mutable std::mutex outboxMutex_;
    std::vector<OutMessage> outbox_;

    // Connections: owned by the I/O thread only, keyed by a
    // monotonically increasing id so responses can never hit a
    // recycled fd.
    std::unordered_map<std::uint64_t,
                       std::unique_ptr<Connection>> conns_;
    std::uint64_t nextConnId_ = 1;

    std::unique_ptr<ThreadPool> pool_;

    // Metrics.
    std::chrono::steady_clock::time_point started_;
    /** Gauge baseline at start(): metrics() reports the mean
     *  effective I/O queue depth since then. */
    storage::IoGaugeSnapshot ioGaugeStart_{};
    std::atomic<std::uint64_t> acceptedConns_{0};
    std::atomic<std::uint64_t> openConns_{0};
    std::atomic<std::uint64_t> received_{0};
    std::atomic<std::uint64_t> completed_{0};
    std::atomic<std::uint64_t> shed_{0};
    std::atomic<std::uint64_t> protocolErrors_{0};
    std::atomic<std::uint64_t> droppedResponses_{0};
    std::atomic<std::uint64_t> inFlight_{0};
    std::atomic<std::uint64_t> queueDepth_{0};
    std::atomic<std::uint64_t> batches_{0};
    std::atomic<std::uint64_t> maxBatch_{0};
    /** Running request index driving slow_every injection. */
    std::atomic<std::uint64_t> execSeq_{0};
    mutable std::mutex histMutex_;
    LatencyHistogram latencyNs_;
};

} // namespace ann::serve

#endif // ANN_SERVE_SERVER_HH
