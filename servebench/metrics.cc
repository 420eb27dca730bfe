#include "metrics.hh"

#include <algorithm>
#include <cmath>

namespace servebench {

namespace {

/** 1-based nearest rank of percentile @p p among @p n samples. */
std::size_t
nearestRank(std::size_t n, double p)
{
    // The epsilon keeps p * n / 100 from rounding up past an exact
    // integer (0.99 * 1000 must give rank 990, not 991).
    const double exact = p * static_cast<double>(n) / 100.0;
    const auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
    return std::clamp<std::size_t>(rank, 1, n);
}

} // namespace

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    const std::size_t rank = nearestRank(samples.size(), p);
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                     samples.end());
    return samples[rank - 1];
}

std::size_t
samplesBeyond(std::size_t n, double p)
{
    return n == 0 ? 0 : n - nearestRank(n, p);
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double
scheduledLatencyMs(Ns scheduled, Ns received)
{
    return static_cast<double>(received - scheduled) / 1e6;
}

double
latenessMs(Ns scheduled, Ns sent)
{
    return static_cast<double>(std::max<Ns>(0, sent - scheduled)) / 1e6;
}

int
windowOf(Ns t, Ns t0, Ns window_ns, int windows)
{
    if (t < t0 || window_ns <= 0)
        return -1;
    const Ns index = (t - t0) / window_ns;
    return index < windows ? static_cast<int>(index) : -1;
}

void
Outcomes::add(Outcome outcome)
{
    ++attempted;
    switch (outcome) {
      case Outcome::Ok:
        ++ok;
        break;
      case Outcome::Pending:
        ++unanswered;
        break;
      case Outcome::Shed:
        ++shed;
        break;
      case Outcome::Rejected:
        ++rejected;
        break;
      case Outcome::Transport:
        ++transport;
        break;
      case Outcome::Wrong:
        ++wrong;
        break;
    }
}

std::uint64_t
Outcomes::failed() const
{
    return attempted - ok;
}

double
Outcomes::failedFrac() const
{
    return attempted > 0 ? static_cast<double>(failed()) /
                               static_cast<double>(attempted)
                         : 0.0;
}

Liveness
livenessDuring(const RowLife &row, Ns sent, Ns received)
{
    if (row.insert_start > received || row.delete_end < sent)
        return Liveness::Dead;
    if (row.insert_end < sent && row.delete_start > received)
        return Liveness::Live;
    return Liveness::Ambiguous;
}

LiveScore
scoreLive(const ann::VectorId *ids, std::size_t n_ids,
          const std::vector<ann::VectorId> &exact,
          const std::vector<RowLife> &rows, Ns sent, Ns received,
          std::size_t k)
{
    LiveScore score;
    score.wrong = n_ids != k;
    for (std::size_t i = 0; i < n_ids; ++i) {
        if (ids[i] >= rows.size() ||
            livenessDuring(rows[ids[i]], sent, received) ==
                Liveness::Dead)
            score.wrong = true;
        for (std::size_t j = 0; j < i; ++j)
            if (ids[j] == ids[i])
                score.wrong = true;
    }

    std::size_t found = 0;
    std::size_t hits = 0;
    std::size_t denominator = 0;
    for (const ann::VectorId id : exact) {
        if (found == k)
            break;
        const Liveness liveness =
            id < rows.size() ? livenessDuring(rows[id], sent, received)
                             : Liveness::Dead;
        if (liveness == Liveness::Dead)
            continue;
        ++found;
        if (std::find(ids, ids + n_ids, id) != ids + n_ids) {
            ++hits;
            ++denominator;
        } else if (liveness == Liveness::Live) {
            ++denominator;
        }
    }
    score.exhausted = found < k;
    score.recall = denominator > 0 ? static_cast<double>(hits) /
                                         static_cast<double>(denominator)
                                   : 1.0;
    return score;
}

CounterDelta &
CounterDelta::operator+=(const CounterDelta &other)
{
    wall_s += other.wall_s;
    completed += other.completed;
    batches += other.batches;
    cache += other.cache;
    io_ops += other.io_ops;
    io_sectors += other.io_sectors;
    io_inflight_ns += other.io_inflight_ns;
    cpu_s += other.cpu_s;
    ctxsw += other.ctxsw;
    return *this;
}

double
CounterDelta::perQuery(double amount) const
{
    return completed > 0 ? amount / static_cast<double>(completed) : 0.0;
}

double
CounterDelta::readKibPerQuery() const
{
    return perQuery(static_cast<double>(io_sectors) *
                    static_cast<double>(ann::storage::kIoSectorBytes) /
                    1024.0);
}

double
CounterDelta::cpuMsPerQuery() const
{
    return perQuery(cpu_s * 1e3);
}

double
CounterDelta::effQueueDepth() const
{
    return wall_s > 0.0 ? io_inflight_ns / (wall_s * 1e9) : 0.0;
}

double
CounterDelta::opMs() const
{
    return io_ops > 0
               ? io_inflight_ns / static_cast<double>(io_ops) / 1e6
               : 0.0;
}

double
CounterDelta::batchMean() const
{
    return batches > 0 ? static_cast<double>(completed) /
                             static_cast<double>(batches)
                       : 0.0;
}

CounterDelta
delta(const Counters &before, const Counters &after)
{
    CounterDelta d;
    d.wall_s = static_cast<double>(after.at - before.at) / 1e9;
    d.completed = after.completed - before.completed;
    d.batches = after.batches - before.batches;
    d.cache = after.cache - before.cache;
    d.io_ops = after.gauge.ops - before.gauge.ops;
    d.io_sectors = after.gauge.sectors - before.gauge.sectors;
    d.io_inflight_ns =
        after.gauge.depth_integral_ns - before.gauge.depth_integral_ns;
    d.cpu_s = after.cpu_s - before.cpu_s;
    d.ctxsw = after.ctxsw - before.ctxsw;
    return d;
}

std::vector<Ns>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<Ns> self(spans.size());
    std::vector<std::size_t> children;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        self[i] = std::max<Ns>(0, spans[i].end - spans[i].start);
        if (spans[i].parent >= 0 &&
            static_cast<std::size_t>(spans[i].parent) < spans.size())
            children.push_back(i);
    }
    std::sort(children.begin(), children.end(),
              [&](std::size_t a, std::size_t b) {
                  if (spans[a].parent != spans[b].parent)
                      return spans[a].parent < spans[b].parent;
                  return spans[a].start < spans[b].start;
              });

    // Children of one parent are contiguous and sorted by start: merge
    // their intervals, clipped to the parent, and subtract the union.
    for (std::size_t a = 0; a < children.size();) {
        const auto parent = static_cast<std::size_t>(spans[children[a]].parent);
        const Ns lo = spans[parent].start;
        const Ns hi = spans[parent].end;
        Ns covered = 0;
        bool open = false;
        Ns run_start = 0;
        Ns run_end = 0;
        std::size_t b = a;
        for (; b < children.size() &&
               static_cast<std::size_t>(spans[children[b]].parent) == parent;
             ++b) {
            const Ns s = std::max(lo, spans[children[b]].start);
            const Ns e = std::min(hi, spans[children[b]].end);
            if (e <= s)
                continue;
            if (open && s <= run_end) {
                run_end = std::max(run_end, e);
                continue;
            }
            if (open)
                covered += run_end - run_start;
            open = true;
            run_start = s;
            run_end = e;
        }
        if (open)
            covered += run_end - run_start;
        self[parent] = std::max<Ns>(0, self[parent] - covered);
        a = b;
    }
    return self;
}

void
appendSpans(std::vector<Span> &into, const std::vector<Span> &from)
{
    const auto offset = static_cast<std::int32_t>(into.size());
    for (Span span : from) {
        if (span.parent >= 0)
            span.parent += offset;
        into.push_back(span);
    }
}

} // namespace servebench
