#include "core/replay.hh"

#include <algorithm>
#include <memory>

#include "common/error.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "sim/cpu_model.hh"
#include "sim/resource.hh"
#include "sim/simulator.hh"
#include "storage/page_cache.hh"
#include "storage/storage_backend.hh"

namespace ann::core {

namespace {

using engine::EngineProfile;
using engine::QueryTrace;
using engine::TimedStep;

/** Everything one replay shares between its coroutines. */
struct ReplayState
{
    ReplayState(const ReplayConfig &config, const EngineProfile &profile)
        : cfg(config),
          cpu(sim, config.num_cores, config.cpu_bucket_ns),
          ssd(sim, config.ssd,
              config.collect_trace ? &tracer : nullptr),
          cache(profile.direct_io
                    ? nullptr
                    : std::make_unique<storage::PageCache>(
                          profile.cache_pages)),
          backend(ssd, cache.get(), 0),
          serialLock(sim, 1),
          workers(sim, profile.worker_slots
                           ? profile.worker_slots
                           : config.num_cores),
          jitter(config.seed)
    {}

    const ReplayConfig &cfg;
    sim::Simulator sim;
    sim::CpuModel cpu;
    storage::BlockTracer tracer;
    storage::SsdModel ssd;
    std::unique_ptr<storage::PageCache> cache;
    storage::StorageBackend backend;
    sim::Resource serialLock;
    sim::Resource workers;
    Rng jitter;

    std::size_t inflight = 0;
    std::uint32_t nextStream = 0;
    std::uint64_t completed = 0;
    std::uint64_t ingestCompleted = 0;
    std::vector<double> latencies_us;

    SimTime
    jittered(SimTime ns)
    {
        if (ns == 0 || cfg.cpu_jitter <= 0.0)
            return ns;
        const double f =
            1.0 + cfg.cpu_jitter * (2.0 * jitter.nextDouble() - 1.0);
        return static_cast<SimTime>(static_cast<double>(ns) * f);
    }
};

/**
 * Per-query CPU amortization from server-side request coalescing:
 * (1 - f) + f / inflight.
 */
double
batchFactor(const EngineProfile &profile, std::size_t inflight)
{
    if (profile.batch_fraction <= 0.0 || inflight <= 1)
        return 1.0;
    return (1.0 - profile.batch_fraction) +
           profile.batch_fraction / static_cast<double>(inflight);
}

/** Execute one chain of timed steps on a worker slot. */
sim::Task
chainTask(ReplayState &st, const EngineProfile &profile,
          const std::vector<TimedStep> &chain, std::uint32_t stream,
          double cpu_factor, sim::JoinCounter &join)
{
    co_await st.workers.acquire();
    // Consecutive CPU bursts (including steps whose reads all hit
    // the page cache) are coalesced into one CPU occupation; timing
    // is identical but fully-cached chains cost O(1) events.
    SimTime pending_cpu = 0;
    for (const TimedStep &step : chain) {
        if (step.cpu_ns > 0) {
            pending_cpu += static_cast<SimTime>(
                static_cast<double>(st.jittered(step.cpu_ns)) *
                cpu_factor);
        }
        if (!step.reads.empty()) {
            // Cache admission happens at request time (shared cache
            // state across all concurrent queries).
            const auto requests = st.backend.admit(step.reads);
            if (!requests.empty()) {
                // Host submission cost: one io_submit per beam plus
                // a small per-request increment.
                pending_cpu += st.cfg.ssd.cpu_submit_ns +
                               (requests.size() - 1) *
                                   st.cfg.ssd.cpu_submit_extra_ns;
                co_await st.cpu.run(pending_cpu);
                pending_cpu = 0;
                if (profile.async_io) {
                    // AIO: the worker slot is free while the beam's
                    // reads are in flight.
                    st.workers.release();
                    co_await st.backend.readBatch(requests, stream);
                    co_await st.workers.acquire();
                } else {
                    co_await st.backend.readBatch(requests, stream);
                }
                if (profile.io_poll_cpu_fraction > 0.0) {
                    // Completion-polling CPU per beam, charged at the
                    // device's nominal service time (the poll loop
                    // spins for about one flash access per round).
                    co_await st.cpu.run(static_cast<SimTime>(
                        static_cast<double>(
                            st.cfg.ssd.flash_read_ns) *
                        profile.io_poll_cpu_fraction));
                }
            }
        }
        if (!step.writes.empty()) {
            pending_cpu += step.writes.size() *
                           st.cfg.ssd.cpu_submit_ns;
            co_await st.cpu.run(pending_cpu);
            pending_cpu = 0;
            co_await st.backend.writeBatch(step.writes, stream);
        }
    }
    if (pending_cpu > 0)
        co_await st.cpu.run(pending_cpu);
    st.workers.release();
    join.arrive();
}

/**
 * One closed-loop client. Query clients record latency and completion
 * counts; ingest clients record into the ingest counter.
 */
sim::Task
clientThread(ReplayState &st, const EngineProfile &profile,
             const std::vector<QueryTrace> &traces,
             std::size_t thread_id, std::size_t stride, bool is_ingest)
{
    std::size_t query_idx = thread_id;
    while (st.sim.now() < st.cfg.duration_ns) {
        const QueryTrace &trace = traces[query_idx % traces.size()];
        query_idx += stride;

        const SimTime start = st.sim.now();
        const std::uint32_t stream = st.nextStream++;
        ++st.inflight;
        const double cpu_factor = batchFactor(profile, st.inflight);

        co_await st.sim.delay(trace.rtt_ns / 2);

        if (trace.serial_cpu_ns > 0) {
            co_await st.serialLock.acquire();
            co_await st.cpu.run(st.jittered(trace.serial_cpu_ns));
            st.serialLock.release();
        }
        for (const TimedStep &step : trace.prologue)
            if (step.cpu_ns > 0)
                co_await st.cpu.run(st.jittered(step.cpu_ns));

        {
            sim::JoinCounter join(trace.parallel_chains.size());
            for (const auto &chain : trace.parallel_chains)
                chainTask(st, profile, chain, stream, cpu_factor, join);
            co_await join.wait();
        }

        for (const TimedStep &step : trace.epilogue)
            if (step.cpu_ns > 0)
                co_await st.cpu.run(st.jittered(step.cpu_ns));

        co_await st.sim.delay(trace.rtt_ns - trace.rtt_ns / 2);

        --st.inflight;
        if (is_ingest) {
            ++st.ingestCompleted;
        } else {
            ++st.completed;
            st.latencies_us.push_back(
                static_cast<double>(st.sim.now() - start) / 1000.0);
        }
    }
}

} // namespace

ReplayResult
replayMixedWorkload(const std::vector<QueryTrace> &traces,
                    const std::vector<QueryTrace> &ingest_traces,
                    std::size_t ingest_threads,
                    const EngineProfile &profile,
                    const ReplayConfig &config)
{
    ANN_CHECK(!traces.empty(), "replay needs at least one trace");
    ANN_CHECK(config.client_threads > 0, "replay needs clients");
    ANN_CHECK(ingest_threads == 0 || !ingest_traces.empty(),
              "ingest threads need ingest traces");

    ReplayResult result;
    if (profile.max_client_threads != 0 &&
        config.client_threads > profile.max_client_threads) {
        // The paper could not run this point (out-of-memory).
        result.oom = true;
        return result;
    }

    ReplayState state(config, profile);
    for (std::size_t t = 0; t < config.client_threads; ++t)
        clientThread(state, profile, traces, t, config.client_threads,
                     /*is_ingest=*/false);
    for (std::size_t t = 0; t < ingest_threads; ++t)
        clientThread(state, profile, ingest_traces, t, ingest_threads,
                     /*is_ingest=*/true);
    state.sim.runUntil(config.duration_ns);

    const double seconds =
        static_cast<double>(config.duration_ns) / 1e9;
    result.completed = state.completed;
    result.ingest_completed = state.ingestCompleted;
    result.qps = static_cast<double>(state.completed) / seconds;
    result.mean_latency_us = mean(state.latencies_us);
    result.p99_latency_us = percentile(state.latencies_us, 99.0);
    result.p999_latency_us = percentile(state.latencies_us, 99.9);
    result.mean_cpu_util = state.cpu.meanUtilization(config.duration_ns);
    result.cpu_timeline =
        state.cpu.utilizationTimeline(config.duration_ns);
    result.read_bytes = state.ssd.bytesRead();
    result.read_bw_mib =
        static_cast<double>(result.read_bytes) / (1024.0 * 1024.0) /
        seconds;
    result.write_bytes = state.ssd.bytesWritten();
    result.write_bw_mib =
        static_cast<double>(result.write_bytes) / (1024.0 * 1024.0) /
        seconds;
    if (config.collect_trace)
        result.trace = state.tracer.events();

    // Past the deadline every client finishes the query it is in and
    // leaves its loop, so each coroutine frame frees itself. Everything
    // above was read first, so the drain changes no result.
    state.sim.run();
    return result;
}

ReplayResult
replayWorkload(const std::vector<QueryTrace> &traces,
               const EngineProfile &profile, const ReplayConfig &config)
{
    return replayMixedWorkload(traces, {}, 0, profile, config);
}

} // namespace ann::core
