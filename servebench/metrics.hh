/**
 * @file
 * The serving benchmark's own arithmetic: schedule-based latency,
 * failure accounting, live-set recall, counter deltas, percentiles
 * and span self time. Pure functions over plain records, so
 * selftest.cc can check every formula the reported numbers rest on.
 */

#ifndef SERVEBENCH_METRICS_HH
#define SERVEBENCH_METRICS_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/types.hh"
#include "storage/io_backend.hh"

namespace servebench {

/** Steady-clock nanoseconds. */
using Ns = std::int64_t;

inline constexpr Ns kNever = std::numeric_limits<Ns>::max();
inline constexpr Ns kAlways = std::numeric_limits<Ns>::min();

/** Latency sample of an operation that failed: it misses any limit. */
inline constexpr double kMiss = std::numeric_limits<double>::infinity();

/** Results per search (recall@10). */
inline constexpr std::size_t kTopK = 10;

// ------------------------------------------------------- percentiles

/**
 * Nearest-rank percentile @p p in (0, 100] of @p samples: the
 * smallest value with at least p% of the samples at or below it.
 * Misses (kMiss) sort last, so failures push the tail up. 0 when
 * empty.
 */
double percentile(std::vector<double> samples, double p);

/**
 * Samples strictly beyond the nearest-rank @p p percentile of @p n
 * samples. A percentile is supported when at least ten lie beyond.
 */
std::size_t samplesBeyond(std::size_t n, double p);

/** Median (mean of the two middle values when the count is even). */
double median(std::vector<double> values);

// ----------------------------------------------------- load schedule

/** Client-observed latency in ms, timed from the scheduled send. */
double scheduledLatencyMs(Ns scheduled, Ns received);

/** How far behind its schedule a send left, in ms (never negative). */
double latenessMs(Ns scheduled, Ns sent);

/**
 * Window of @p t when [t0, t0 + windows * window_ns) is cut into
 * equal windows; -1 outside the measured phase.
 */
int windowOf(Ns t, Ns t0, Ns window_ns, int windows);

// ---------------------------------------------------------- outcomes

/** What happened to one attempted read or write. */
enum class Outcome : std::uint8_t
{
    Pending,   ///< sent, never answered before the run ended
    Ok,        ///< answered and the answer checked out
    Shed,      ///< Status::Overloaded
    Rejected,  ///< Status::BadRequest / ShuttingDown, or a failed write
    Transport, ///< socket or protocol error
    Wrong,     ///< answered Ok with an invalid result
};

/** Tally of outcomes over one set of attempted operations. */
struct Outcomes
{
    std::uint64_t attempted = 0;
    std::uint64_t ok = 0;
    std::uint64_t shed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t unanswered = 0;
    std::uint64_t transport = 0;
    std::uint64_t wrong = 0;

    void add(Outcome outcome);
    /** Every attempted operation that did not end Ok. */
    std::uint64_t failed() const;
    /** failed() / attempted, 0 when nothing was attempted. */
    double failedFrac() const;
};

// --------------------------------------------------- live-set recall

/**
 * When one row became and stopped being visible. Base rows are live
 * from kAlways; rows never inserted have insert_start == kNever. A
 * write takes effect somewhere inside [start, end], the interval of
 * its gate().mutate() call.
 */
struct RowLife
{
    Ns insert_start = kAlways;
    Ns insert_end = kAlways;
    Ns delete_start = kNever;
    Ns delete_end = kNever;
};

enum class Liveness
{
    Dead,      ///< certainly not visible to the search
    Live,      ///< certainly visible to the search
    Ambiguous, ///< a write to it overlapped the search
};

/** Visibility of @p row to a search sent at @p sent and answered at
 *  @p received. */
Liveness livenessDuring(const RowLife &row, Ns sent, Ns received);

/** One answer scored against the rows live when it was sent. */
struct LiveScore
{
    double recall = 0.0;
    /** A returned id was dead, unknown or repeated, or the answer was
     *  not exactly k long. */
    bool wrong = false;
    /** The exact order ran out before k possibly-live rows. */
    bool exhausted = false;
};

/**
 * Score @p ids, a k-NN answer, against @p exact: row ids in
 * ascending exact distance to the query (a prefix of the full order
 * suffices unless the result is exhausted). The truth is the first k
 * rows of @p exact that are not Dead. A truth row that is Ambiguous
 * and missing from the answer leaves the denominator, since the
 * server may rightly not have seen it; an Ambiguous row in the answer
 * is never wrong.
 */
LiveScore scoreLive(const ann::VectorId *ids, std::size_t n_ids,
                    const std::vector<ann::VectorId> &exact,
                    const std::vector<RowLife> &rows, Ns sent,
                    Ns received, std::size_t k);

// --------------------------------------------------- counter deltas

/** Cumulative counters read at one boundary of the measured phase. */
struct Counters
{
    Ns at = 0;
    /** Server MetricsSnapshot counters. */
    std::uint64_t completed = 0;
    std::uint64_t batches = 0;
    ann::storage::NodeCacheStats cache;
    ann::storage::IoGaugeSnapshot gauge;
    /** Process user + system CPU. */
    double cpu_s = 0.0;
    /** Voluntary + involuntary context switches. */
    std::uint64_t ctxsw = 0;
};

/** Counter growth over one or more intervals (summed). */
struct CounterDelta
{
    double wall_s = 0.0;
    std::uint64_t completed = 0;
    std::uint64_t batches = 0;
    ann::storage::NodeCacheStats cache;
    std::uint64_t io_ops = 0;
    std::uint64_t io_sectors = 0;
    /** Integral of in-flight backend reads over time. */
    double io_inflight_ns = 0.0;
    double cpu_s = 0.0;
    std::uint64_t ctxsw = 0;

    CounterDelta &operator+=(const CounterDelta &other);

    /** @p amount per completed search, 0 when none completed. */
    double perQuery(double amount) const;
    double readKibPerQuery() const;
    double cpuMsPerQuery() const;
    /** Mean backend reads in flight over the wall time. */
    double effQueueDepth() const;
    /** Mean time one backend read was in flight, ms. */
    double opMs() const;
    /** Searches per executed micro-batch. */
    double batchMean() const;
};

/** Growth from @p before to @p after. */
CounterDelta delta(const Counters &before, const Counters &after);

// ------------------------------------------------------------ spans

/** One timed interval; @ref parent indexes the same span vector. */
struct Span
{
    std::uint64_t trace = 0;
    std::uint16_t name = 0;
    std::int32_t parent = -1;
    Ns start = 0;
    Ns end = 0;
};

/**
 * Self time of every span: its duration minus the part of its
 * interval its children cover (overlapping children count once).
 */
std::vector<Ns> selfTimes(const std::vector<Span> &spans);

/** Append @p from to @p into, re-pointing parents into @p into. */
void appendSpans(std::vector<Span> &into, const std::vector<Span> &from);

} // namespace servebench

#endif // SERVEBENCH_METRICS_HH
