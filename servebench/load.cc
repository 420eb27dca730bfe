#include "load.hh"

#include <chrono>
#include <cmath>
#include <exception>
#include <memory>
#include <thread>

#include "engine/milvus_like.hh"
#include "serve/client.hh"
#include "serve/server.hh"

namespace servebench {

const char *const kSpanNames[kNumSpanNames] = {
    "client.search", "serve.queue", "serve.exec",
    "client.write",  "gate.mutate", "gate.wait",
    "gate.hold",     "engine.searchLive", "index.search",
};

namespace {

using Clock = std::chrono::steady_clock;

constexpr char kHost[] = "127.0.0.1";
/** Request id = connection << kConnShift | sequence number. */
constexpr unsigned kConnShift = 40;
/** Record slots reserved per connection and second of load, so the
 *  record vector never reallocates (and never doubles the RSS it
 *  touches) mid-run. */
constexpr std::size_t kReservePerSecond = 10000;
/** How long after the stop an answer may still arrive. */
constexpr Ns kAnswerGraceNs = 2'000'000'000;
/** Receive poll window while waiting for an answer. */
constexpr int kRecvPollMs = 50;
/** The churn writer deletes the insert made this many inserts ago. */
constexpr std::size_t kDeleteLag = 16;
/** Trace ids of writes, disjoint from request ids. */
constexpr std::uint64_t kWriteTraceBit = std::uint64_t{1} << 63;

void
takeResponse(Request &r, const ann::serve::SearchResponse &response,
             Ns received)
{
    r.received = received;
    r.queue_ns = response.queue_ns;
    r.exec_ns = response.exec_ns;
    switch (response.status) {
      case ann::serve::Status::Ok:
        r.outcome = response.results.size() <= kTopK ? Outcome::Ok
                                                      : Outcome::Wrong;
        r.n_ids = static_cast<std::uint8_t>(
            std::min(response.results.size(), kTopK));
        for (std::size_t i = 0; i < r.n_ids; ++i)
            r.ids[i] = response.results[i].id;
        break;
      case ann::serve::Status::Overloaded:
        r.outcome = Outcome::Shed;
        break;
      default:
        r.outcome = Outcome::Rejected;
        break;
    }
}

/**
 * client.search over the round trip, with serve.queue and serve.exec
 * rebuilt from the response. The server reports durations only, so
 * they sit centred in the round trip; self time does not depend on
 * where.
 */
void
recordSearchSpans(const Request &r, std::uint64_t id,
                  std::vector<Span> &spans)
{
    const auto root = static_cast<std::int32_t>(spans.size());
    spans.push_back({id, kClientSearch, -1, r.sent, r.received});
    const auto server = static_cast<Ns>(r.queue_ns + r.exec_ns);
    const Ns wire = std::max<Ns>(0, r.received - r.sent - server);
    const Ns queued = r.sent + wire / 2;
    const Ns executed = queued + static_cast<Ns>(r.queue_ns);
    spans.push_back({id, kServeQueue, root, queued, executed});
    spans.push_back({id, kServeExec, root, executed,
                     executed + static_cast<Ns>(r.exec_ns)});
}

void
closedLoop(const SearchLoad &load, std::size_t conn, SearchLog &log)
{
    log.requests.reserve(static_cast<std::size_t>(
        static_cast<double>(load.stop - load.start) / 1e9 *
        kReservePerSecond));
    ann::serve::AnnClient client;
    try {
        client.connect(kHost, load.port);
    } catch (const std::exception &) {
        Request failed;
        failed.sent = failed.received = load.start;
        failed.outcome = Outcome::Transport;
        log.requests.push_back(failed);
        return;
    }
    sleepUntil(load.start);
    for (std::size_t seq = 0;; ++seq) {
        Request r;
        r.sent = nowNs();
        if (r.sent >= load.stop)
            break;
        r.query = static_cast<std::uint32_t>(
            (seq * load.connections + conn) % load.num_queries);
        const std::uint64_t id =
            (static_cast<std::uint64_t>(conn) << kConnShift) | seq;
        try {
            client.sendSearch(load.queries + std::size_t{r.query} * load.dim,
                              load.dim, load.settings, id);
            ann::serve::SearchResponse response;
            bool answered = false;
            while (!answered && nowNs() < load.stop + kAnswerGraceNs)
                answered = client.tryRecvSearchResponse(&response,
                                                        kRecvPollMs);
            if (!answered) {
                // Still unanswered when the run ends: stays Pending.
                log.requests.push_back(r);
                return;
            }
            takeResponse(r, response, nowNs());
            if (response.request_id != id)
                r.outcome = Outcome::Transport;
        } catch (const std::exception &) {
            r.received = nowNs();
            r.outcome = Outcome::Transport;
        }
        log.requests.push_back(r);
        // A broken connection loses the rest of its time.
        if (r.outcome == Outcome::Transport)
            return;
        if (load.trace.traced(r.sent))
            recordSearchSpans(r, id, log.spans);
    }
}

} // namespace

Ns
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

void
sleepUntil(Ns t)
{
    std::this_thread::sleep_until(
        Clock::time_point(std::chrono::nanoseconds(t)));
}

bool
TracePlan::traced(Ns start) const
{
    if (!enabled)
        return false;
    const int window = windowOf(start, t0, window_ns, windows);
    return window >= 0 && window % 2 == 1;
}

SearchLog
runSearches(const SearchLoad &load)
{
    std::vector<SearchLog> parts(load.connections);
    std::vector<std::exception_ptr> errors(load.connections);
    {
        std::vector<std::jthread> threads;
        for (std::size_t c = 0; c < load.connections; ++c)
            threads.emplace_back([&, c] {
                try {
                    closedLoop(load, c, parts[c]);
                } catch (...) {
                    errors[c] = std::current_exception();
                }
            });
    }
    for (const std::exception_ptr &error : errors)
        if (error)
            std::rethrow_exception(error);

    SearchLog log;
    for (const SearchLog &part : parts) {
        log.requests.insert(log.requests.end(), part.requests.begin(),
                            part.requests.end());
        appendSpans(log.spans, part.spans);
    }
    return log;
}

WriteLog
runWrites(const WriteLoad &load)
{
    WriteLog log;
    const double period_ns = 1e9 / load.rate;
    std::size_t inserts = 0;
    std::size_t deleted_inserts = 0;
    std::size_t deleted_base = 0;
    for (std::size_t seq = 0;; ++seq) {
        const Ns due =
            load.start +
            static_cast<Ns>(std::llround(static_cast<double>(seq) *
                                         period_ns));
        if (due >= load.stop)
            break;
        sleepUntil(due);

        Write w;
        w.scheduled = due;
        const std::size_t slot = seq % 4;
        if ((slot == 0 || slot == 2) && inserts < load.pool_rows) {
            w.insert = true;
        } else if (slot == 1 && deleted_inserts + kDeleteLag <= inserts) {
            w.id = static_cast<ann::VectorId>(load.base_rows +
                                              deleted_inserts++);
        } else {
            w.id = load.base_deletes[deleted_base++ %
                                     load.base_deletes.size()];
        }
        const auto expected =
            static_cast<ann::VectorId>(load.base_rows + inserts);
        const float *row =
            w.insert ? load.pool + inserts * load.dim : nullptr;

        w.called = nowNs();
        try {
            load.server->gate().mutate([&](ann::engine::VectorDbEngine &) {
                w.locked = nowNs();
                if (w.insert)
                    w.id = load.engine->liveAdd(row);
                else
                    load.engine->liveMarkDeleted(w.id);
                w.unlocked = nowNs();
            });
            w.returned = nowNs();
            // Inserts take the generated rows in order, so the engine
            // must hand out the ids the scorer maps them to.
            w.outcome = !w.insert || w.id == expected ? Outcome::Ok
                                                      : Outcome::Wrong;
        } catch (const std::exception &) {
            w.returned = nowNs();
            w.outcome = Outcome::Rejected;
        }
        if (w.insert)
            ++inserts;
        log.writes.push_back(w);

        if (load.trace.traced(due) && w.outcome != Outcome::Rejected) {
            const std::uint64_t id = kWriteTraceBit | seq;
            const auto root = static_cast<std::int32_t>(log.spans.size());
            log.spans.push_back({id, kClientWrite, -1, due, w.returned});
            log.spans.push_back(
                {id, kGateMutate, root, w.called, w.returned});
            log.spans.push_back(
                {id, kGateWait, root + 1, w.called, w.locked});
            log.spans.push_back(
                {id, kGateHold, root + 1, w.locked, w.unlocked});
        }
    }
    return log;
}

} // namespace servebench
