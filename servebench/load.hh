/**
 * @file
 * The benchmark's load generators: closed-loop search clients, and the
 * churn writer that mutates the served engine through
 * AnnServer::gate() on a fixed schedule, timed from that schedule.
 * Every operation is kept as a record for scoring; spans are recorded
 * only for operations that start inside a traced window.
 */

#ifndef SERVEBENCH_LOAD_HH
#define SERVEBENCH_LOAD_HH

#include <array>
#include <cstdint>
#include <vector>

#include "engine/engine.hh"
#include "metrics.hh"

namespace ann::engine {
class MilvusLikeEngine;
}
namespace ann::serve {
class AnnServer;
}

namespace servebench {

/** Span names; kSpanNames holds their text. */
enum SpanName : std::uint16_t
{
    kClientSearch,
    kServeQueue,
    kServeExec,
    kClientWrite,
    kGateMutate,
    kGateWait,
    kGateHold,
    kEngineSearchLive,
    kIndexSearch,
    kNumSpanNames,
};
extern const char *const kSpanNames[kNumSpanNames];

Ns nowNs();
void sleepUntil(Ns t);

/** Operations starting in odd windows of a traced run record spans. */
struct TracePlan
{
    bool enabled = false;
    Ns t0 = 0;
    Ns window_ns = 1;
    int windows = 0;

    bool traced(Ns start) const;
};

/** One search as the client saw it. */
struct Request
{
    Ns sent = 0;
    Ns received = 0;
    std::uint64_t queue_ns = 0;
    std::uint64_t exec_ns = 0;
    std::uint32_t query = 0;
    Outcome outcome = Outcome::Pending;
    std::uint8_t n_ids = 0;
    std::array<ann::VectorId, kTopK> ids{};
};

/** One write through AnnServer::gate().mutate(). */
struct Write
{
    Ns scheduled = 0;
    /** mutate() called, lambda entered and left, mutate() returned. */
    Ns called = 0;
    Ns locked = 0;
    Ns unlocked = 0;
    Ns returned = 0;
    bool insert = false;
    /** Engine id inserted (== generated row index) or deleted. */
    ann::VectorId id = ann::kInvalidVector;
    Outcome outcome = Outcome::Pending;
};

struct SearchLoad
{
    std::uint16_t port = 0;
    const float *queries = nullptr;
    std::size_t num_queries = 0;
    std::size_t dim = 0;
    ann::engine::SearchSettings settings;
    std::size_t connections = 1;
    /** Sends happen in [start, stop). */
    Ns start = 0;
    Ns stop = 0;
    TracePlan trace;
};

struct SearchLog
{
    std::vector<Request> requests;
    std::vector<Span> spans;
};

/**
 * Drive closed-loop searches against the server on loopback: one
 * thread per connection, one request outstanding each. Returns once
 * every connection thread has joined.
 */
SearchLog runSearches(const SearchLoad &load);

struct WriteLoad
{
    ann::serve::AnnServer *server = nullptr;
    /** The engine the server fronts (a Milvus-like DiskANN). */
    ann::engine::MilvusLikeEngine *engine = nullptr;
    /** Held-out rows to insert, in order. */
    const float *pool = nullptr;
    std::size_t pool_rows = 0;
    std::size_t dim = 0;
    std::size_t base_rows = 0;
    /** Base ids in the order the writer deletes them. */
    std::vector<ann::VectorId> base_deletes;
    double rate = 0.0;
    Ns start = 0;
    Ns stop = 0;
    TracePlan trace;
};

struct WriteLog
{
    std::vector<Write> writes;
    std::vector<Span> spans;
};

/**
 * The churn writer: on a fixed schedule, cycles insert, delete an
 * earlier insert, insert, delete a base row, each one gate().mutate()
 * call.
 */
WriteLog runWrites(const WriteLoad &load);

} // namespace servebench

#endif // SERVEBENCH_LOAD_HH
