/**
 * @file
 * Raw SSD calibration — reproduces the paper's SS III-A fio
 * measurements of the Samsung 990 Pro:
 *
 *   - 4 KiB random read on a single CPU core:   324.3 KIOPS
 *   - 4 KiB random read, 64 concurrent, 4 cores: 1.3 MIOPS
 *   - 128 KiB sequential read, 32 threads:        7.2 GiB/s
 *
 * Each row runs the fio-equivalent access pattern against the device
 * model, including the host-side submission CPU cost that makes the
 * single-core case CPU-bound.
 */

#include <iostream>

#include "common/rng.hh"
#include "common/table.hh"
#include "core/experiments.hh"
#include "core/report.hh"
#include "sim/cpu_model.hh"
#include "sim/simulator.hh"
#include "storage/ssd_model.hh"

namespace {

using namespace ann;

struct FioResult
{
    double kiops = 0.0;
    double gib_per_s = 0.0;
    double mean_latency_us = 0.0;
};

/** Closed-loop fio-like job: jobs x queue-depth-1 workers. */
FioResult
runFio(std::size_t jobs, std::size_t cores, std::uint32_t block_bytes,
       bool sequential, SimTime duration_ns)
{
    sim::Simulator simulator;
    sim::CpuModel cpu(simulator, cores);
    storage::SsdModel ssd(simulator,
                          storage::SsdConfig::samsung990Pro());

    struct Shared
    {
        std::uint64_t completed = 0;
        double latency_acc_us = 0.0;
    } shared;

    auto worker = [](sim::Simulator &sim, sim::CpuModel &c,
                     storage::SsdModel &d, Shared &sh, std::size_t id,
                     std::uint32_t block, bool seq,
                     SimTime until) -> sim::Task {
        Rng rng(1234 + id);
        std::uint64_t offset = id * (1ULL << 30);
        const std::uint64_t span = 1ULL << 36; // 64 GiB working set
        while (sim.now() < until) {
            const SimTime start = sim.now();
            // Host submission + completion CPU per request.
            co_await c.run(d.config().cpu_submit_ns);
            if (seq) {
                offset += block;
            } else {
                offset = (rng.next() % span) / block * block;
            }
            co_await d.read(offset, block, static_cast<std::uint32_t>(id));
            ++sh.completed;
            sh.latency_acc_us +=
                static_cast<double>(sim.now() - start) / 1000.0;
        }
    };

    for (std::size_t j = 0; j < jobs; ++j)
        worker(simulator, cpu, ssd, shared, j, block_bytes, sequential,
               duration_ns);
    simulator.runUntil(duration_ns);

    const double seconds = static_cast<double>(duration_ns) / 1e9;
    FioResult result;
    result.kiops =
        static_cast<double>(shared.completed) / seconds / 1000.0;
    result.gib_per_s = static_cast<double>(shared.completed) *
                       block_bytes / seconds /
                       (1024.0 * 1024.0 * 1024.0);
    result.mean_latency_us =
        shared.completed
            ? shared.latency_acc_us /
                  static_cast<double>(shared.completed)
            : 0.0;
    simulator.run(); // workers finish their reads and free their frames
    return result;
}

} // namespace

int
main()
{
    using namespace ann;
    core::printBenchHeader(
        "Raw SSD baseline (fio-equivalent)",
        "SS III-A: 324.3 KIOPS @ 4 KiB/1 core; 1.3 MIOPS @ QD64/4 "
        "cores; 7.2 GiB/s @ 128 KiB seq/32 threads");

    const SimTime second = 1'000'000'000;
    TextTable table("Device calibration vs paper");
    table.setHeader({"workload", "jobs", "cores", "block", "measured",
                     "paper"});

    {
        // Single worker, one core: latency view.
        const auto r = runFio(1, 1, 4096, false, second);
        table.addRow({"4 KiB randread QD1", "1", "1", "4 KiB",
                      formatDouble(r.mean_latency_us, 1) + " us",
                      "<100 us"});
    }
    {
        // As many QD1 jobs as one core can drive: CPU-bound IOPS.
        const auto r = runFio(512, 1, 4096, false, second);
        table.addRow({"4 KiB randread, 1 core", "512", "1", "4 KiB",
                      formatDouble(r.kiops, 1) + " KIOPS",
                      "324.3 KIOPS"});
    }
    {
        // 64 concurrent requests on 4 cores.
        const auto r = runFio(64, 4, 4096, false, second);
        table.addRow({"4 KiB randread QD64", "64", "4", "4 KiB",
                      formatDouble(r.kiops / 1000.0, 2) + " MIOPS",
                      "1.3 MIOPS"});
    }
    {
        // 32 sequential 128 KiB streams.
        const auto r = runFio(32, 8, 128 * 1024, true, second);
        table.addRow({"128 KiB seqread, 32 jobs", "32", "8", "128 KiB",
                      formatDouble(r.gib_per_s, 2) + " GiB/s",
                      "7.2 GiB/s"});
    }

    table.print(std::cout);
    table.writeCsv(core::resultsDir() + "/ssd_baseline.csv");
    return 0;
}
