/**
 * @file
 * Checks of the serving benchmark's own arithmetic (metrics.hh):
 * schedule-based latency and lateness, failure accounting, live-set
 * recall scoring, counter deltas, percentile sample counts and span
 * self time. run.py runs this before every benchmark run; it exits
 * non-zero when any check fails.
 */

#include <cmath>
#include <cstdio>
#include <numeric>
#include <vector>

#include "metrics.hh"

using namespace servebench;

namespace {

int g_checks = 0;
int g_failures = 0;

void
check(bool ok, const char *what)
{
    ++g_checks;
    if (!ok) {
        ++g_failures;
        std::fprintf(stderr, "selftest FAILED: %s\n", what);
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

constexpr Ns kMs = 1'000'000;

void
scheduleChecks()
{
    // Due at 0, sent at 3 ms, answered at 5 ms: the user waited 5 ms,
    // 3 of them in the generator.
    check(near(scheduledLatencyMs(0, 5 * kMs), 5.0),
          "latency is timed from the scheduled send");
    check(near(latenessMs(0, 3 * kMs), 3.0), "lateness is send - due");
    check(latenessMs(3 * kMs, 2 * kMs) == 0.0, "an early send is not late");

    // A sender stalled until 10 ms: five requests due every ms all
    // leave at 10 ms and are answered at 11 ms. Timed from the send
    // each would look like 1 ms; timed from the schedule every one
    // pays the stall.
    std::vector<double> latency;
    std::vector<double> late;
    for (Ns i = 0; i < 5; ++i) {
        latency.push_back(scheduledLatencyMs(i * kMs, 11 * kMs));
        late.push_back(latenessMs(i * kMs, 10 * kMs));
    }
    check(near(percentile(latency, 50), 9.0),
          "a stall delays every request due behind it");
    check(near(percentile(latency, 99), 11.0),
          "the stall sets the latency tail");
    check(near(percentile(late, 99), 10.0), "late p99 shows the stall");

    check(windowOf(-1, 0, 10, 3) == -1, "before t0 is no window");
    check(windowOf(0, 0, 10, 3) == 0, "t0 opens window 0");
    check(windowOf(29, 0, 10, 3) == 2, "last instant of the last window");
    check(windowOf(30, 0, 10, 3) == -1, "the stop is outside");
}

void
outcomeChecks()
{
    Outcomes o;
    for (int i = 0; i < 94; ++i)
        o.add(Outcome::Ok);
    o.add(Outcome::Shed);
    o.add(Outcome::Shed);
    o.add(Outcome::Rejected);
    o.add(Outcome::Pending);
    o.add(Outcome::Transport);
    o.add(Outcome::Wrong);
    check(o.attempted == 100, "every outcome is attempted");
    check(o.failed() == 6, "shed, rejected, unanswered, transport and "
                           "wrong answers all fail");
    check(o.unanswered == 1 && o.wrong == 1 && o.shed == 2,
          "each failure kind is tallied");
    check(near(o.failedFrac(), 0.06), "failed_frac = failed / attempted");
    check(Outcomes{}.failedFrac() == 0.0, "nothing attempted, no failures");

    // Two failures among 100 samples: they are the two slowest, so
    // p99 (rank 99) is a miss while the median is untouched.
    std::vector<double> samples(98, 1.0);
    samples.push_back(kMiss);
    samples.push_back(kMiss);
    check(std::isinf(percentile(samples, 99)),
          "failed requests count as misses in the tail");
    check(near(percentile(samples, 50), 1.0), "misses leave the median");
}

void
liveRecallChecks()
{
    // Rows 0..5 are base rows; 6 is inserted during [10, 12] ms; 7 was
    // deleted during [2, 3] ms; 8 is never inserted; 9 was inserted
    // during [1, 2] ms.
    std::vector<RowLife> rows(10);
    rows[6].insert_start = 10 * kMs;
    rows[6].insert_end = 12 * kMs;
    rows[7].delete_start = 2 * kMs;
    rows[7].delete_end = 3 * kMs;
    rows[8].insert_start = kNever;
    rows[8].insert_end = kNever;
    rows[9].insert_start = 1 * kMs;
    rows[9].insert_end = 2 * kMs;
    const std::vector<ann::VectorId> exact = {7, 0, 6, 1, 8, 2, 9, 3, 4, 5};

    check(livenessDuring(rows[0], 5 * kMs, 8 * kMs) == Liveness::Live,
          "base rows are live");
    check(livenessDuring(rows[7], 5 * kMs, 8 * kMs) == Liveness::Dead,
          "deleted before the send is dead");
    check(livenessDuring(rows[6], 5 * kMs, 8 * kMs) == Liveness::Dead,
          "inserted after the answer is dead");
    check(livenessDuring(rows[6], 11 * kMs, 13 * kMs) ==
              Liveness::Ambiguous,
          "a write overlapping the search is ambiguous");
    check(livenessDuring(rows[8], 5 * kMs, 8 * kMs) == Liveness::Dead,
          "never inserted is dead");
    check(livenessDuring(rows[9], 5 * kMs, 8 * kMs) == Liveness::Live,
          "inserted before the send is live");

    // Sent at 5 ms, answered at 8 ms: truth is {0, 1, 2}.
    const ann::VectorId two_of_three[] = {0, 1, 3};
    LiveScore s = scoreLive(two_of_three, 3, exact, rows, 5 * kMs,
                            8 * kMs, 3);
    check(near(s.recall, 2.0 / 3.0) && !s.wrong && !s.exhausted,
          "recall against the rows live at send time");
    const ann::VectorId deleted[] = {7, 0, 1};
    check(scoreLive(deleted, 3, exact, rows, 5 * kMs, 8 * kMs, 3).wrong,
          "an id deleted before the send is a wrong answer");
    const ann::VectorId unborn[] = {8, 0, 1};
    check(scoreLive(unborn, 3, exact, rows, 5 * kMs, 8 * kMs, 3).wrong,
          "an id never inserted is a wrong answer");
    const ann::VectorId unknown[] = {42, 0, 1};
    check(scoreLive(unknown, 3, exact, rows, 5 * kMs, 8 * kMs, 3).wrong,
          "an unknown id is a wrong answer");
    const ann::VectorId repeated[] = {0, 0, 1};
    check(scoreLive(repeated, 3, exact, rows, 5 * kMs, 8 * kMs, 3).wrong,
          "a repeated id is a wrong answer");
    const ann::VectorId short_answer[] = {0, 1};
    check(scoreLive(short_answer, 2, exact, rows, 5 * kMs, 8 * kMs, 3)
              .wrong,
          "a short answer is wrong");

    // Sent at 11 ms, answered at 13 ms, while row 6 was being
    // inserted: truth is {0, 6, 1}; row 6 counts either way.
    const ann::VectorId without6[] = {0, 1, 2};
    s = scoreLive(without6, 3, exact, rows, 11 * kMs, 13 * kMs, 3);
    check(near(s.recall, 1.0) && !s.wrong,
          "an overlapping insert may be missing");
    const ann::VectorId with6[] = {0, 6, 1};
    s = scoreLive(with6, 3, exact, rows, 11 * kMs, 13 * kMs, 3);
    check(near(s.recall, 1.0) && !s.wrong,
          "an overlapping insert may be present");

    const std::vector<ann::VectorId> prefix = {7, 0};
    check(scoreLive(two_of_three, 3, prefix, rows, 5 * kMs, 8 * kMs, 3)
              .exhausted,
          "a too-short exact prefix is reported, not scored as truth");
}

void
counterChecks()
{
    Counters a;
    Counters b;
    a.at = 0;
    b.at = 2'000'000'000;
    a.completed = 100;
    b.completed = 300;
    a.batches = 10;
    b.batches = 60;
    a.cache.lookups = 1000;
    b.cache.lookups = 3000;
    a.cache.hits = 500;
    b.cache.hits = 1500;
    b.cache.evictions = 100;
    b.cache.ios_deduped = 10;
    b.gauge.ops = 400;
    b.gauge.sectors = 400;
    // 400 reads, each 0.1 ms in flight.
    b.gauge.depth_integral_ns = 400 * 100'000.0;
    a.cpu_s = 1.0;
    b.cpu_s = 1.5;
    b.ctxsw = 2000;

    CounterDelta d = delta(a, b);
    check(near(d.wall_s, 2.0) && d.completed == 200,
          "deltas subtract the earlier boundary");
    check(near(d.readKibPerQuery(), 8.0), "400 sectors x 4 KiB / 200");
    check(near(d.cpuMsPerQuery(), 2.5), "0.5 s CPU / 200 searches");
    check(near(d.opMs(), 0.1), "in-flight integral / ops");
    check(near(d.effQueueDepth(), 0.02), "in-flight integral / wall");
    check(near(d.batchMean(), 4.0), "200 searches / 50 batches");
    check(near(d.cache.hitRate(), 0.5), "cache hit-rate delta");
    check(near(d.perQuery(static_cast<double>(d.cache.evictions)), 0.5),
          "evictions per query");
    check(near(d.perQuery(static_cast<double>(d.ctxsw)), 10.0),
          "context switches per query");

    CounterDelta sum = d;
    sum += d;
    check(sum.completed == 400 && near(sum.wall_s, 4.0) &&
              near(sum.readKibPerQuery(), 8.0),
          "summed windows keep their ratios");

    const CounterDelta idle;
    check(idle.readKibPerQuery() == 0.0 && idle.opMs() == 0.0 &&
              idle.effQueueDepth() == 0.0 && idle.batchMean() == 0.0,
          "empty intervals divide to zero, not NaN");
}

void
percentileChecks()
{
    std::vector<double> values(1000);
    std::iota(values.begin(), values.end(), 1.0);
    check(percentile(values, 99) == 990.0, "nearest-rank p99 of 1..1000");
    check(percentile(values, 50) == 500.0, "nearest-rank p50 of 1..1000");
    check(percentile(values, 100) == 1000.0, "p100 is the maximum");
    check(percentile({}, 50) == 0.0, "no samples, zero");
    check(samplesBeyond(1000, 99) == 10, "p99 of 1000 has 10 beyond");
    check(samplesBeyond(500, 99) == 5, "p99 of 500 has only 5 beyond");
    check(samplesBeyond(0, 99) == 0, "no samples, none beyond");
    check(median({3.0, 1.0, 2.0}) == 2.0, "odd median");
    check(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even median averages");
    check(median({}) == 0.0, "empty median");
}

void
selfTimeChecks()
{
    // root [0, 10] with children [1, 3], [2, 5], [8, 12]; the first
    // child has a child [1, 2].
    const std::vector<Span> spans = {
        {1, 0, -1, 0, 10},
        {1, 1, 0, 1, 3},
        {1, 2, 0, 2, 5},
        {1, 3, 0, 8, 12},
        {1, 4, 1, 1, 2},
    };
    const std::vector<Ns> self = selfTimes(spans);
    check(self[0] == 4, "overlapping children count once; a child past "
                        "the parent is clipped");
    check(self[1] == 1, "a grandchild only reduces its own parent");
    check(self[2] == 3 && self[3] == 4 && self[4] == 1,
          "leaves keep their whole duration");
}

} // namespace

int
main()
{
    scheduleChecks();
    outcomeChecks();
    liveRecallChecks();
    counterChecks();
    percentileChecks();
    selfTimeChecks();
    if (g_failures > 0) {
        std::fprintf(stderr, "selftest: %d of %d checks failed\n",
                     g_failures, g_checks);
        return 1;
    }
    std::fprintf(stderr, "selftest: all %d checks passed\n", g_checks);
    return 0;
}
