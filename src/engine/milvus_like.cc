#include "engine/milvus_like.hh"

#include <algorithm>
#include <cmath>

#include "common/env.hh"
#include "common/error.hh"
#include "common/thread_pool.hh"
#include "distance/topk.hh"
#include "engine/index_cache.hh"
#include "index/layout.hh"

namespace ann::engine {

namespace {

const char *
kindName(MilvusIndexKind kind)
{
    switch (kind) {
      case MilvusIndexKind::Ivf:
        return "ivf";
      case MilvusIndexKind::Hnsw:
        return "hnsw";
      case MilvusIndexKind::DiskAnn:
        return "diskann";
    }
    return "?";
}

} // namespace

MilvusLikeEngine::MilvusLikeEngine(MilvusIndexKind kind)
    : kind_(kind)
{
    profile_.name = std::string("milvus-") + kindName(kind);
    // Efficient C++ segcore: low overheads, modest request batching.
    profile_.rtt_ns = 500'000;   // Python client + gRPC round trip
    profile_.proxy_cpu_ns = 45'000;
    profile_.merge_cpu_ns = 15'000;  // per merged segment
    profile_.serial_cpu_ns = 6'000;
    profile_.batch_fraction = 0.35;
    profile_.worker_slots = 0;       // = cores
    profile_.storage_based = kind == MilvusIndexKind::DiskAnn;
    profile_.direct_io = true;       // DiskANN uses O_DIRECT...
    profile_.async_io = true;        // ...submitted through AIO...
    profile_.io_poll_cpu_fraction = 0.5; // ...with polled completions
}

std::size_t
MilvusLikeEngine::segmentRows(std::size_t dim)
{
    const std::size_t by_bytes = kSegmentBytes / (dim * sizeof(float));
    return std::min(kSegmentRows, by_bytes) *
           static_cast<std::size_t>(workloadScale());
}

void
MilvusLikeEngine::prepare(const workload::Dataset &dataset,
                          const std::string &cache_dir)
{
    dim_ = dataset.dim;
    cost_.effective_dim = dataset.dim;
    const std::size_t paper_dim = paperDimForDataset(dataset.name);
    cost_.dim_multiplier =
        paper_dim ? static_cast<double>(paper_dim) /
                        static_cast<double>(dataset.dim)
                  : 1.0;
    // Quant work is charged at the paper-equivalent PQ shape:
    // Milvus-DiskANN's default code budget is half a byte per raw
    // float (PQCodeBudgetGBRatio=0.125), i.e. m = paper_dim / 2.
    cost_.effective_pq_m =
        (paper_dim ? paper_dim : dataset.dim) / 2;
    cost_.effective_pq_ksub = 256;

    const std::size_t seg_rows = segmentRows(dataset.dim);
    segmentBase_.clear();
    segmentSectorBase_.clear();
    ivfSegments_.clear();
    hnswSegments_.clear();
    diskannSegments_.clear();

    std::uint64_t next_sector = 0;
    for (std::size_t base = 0; base < dataset.rows; base += seg_rows) {
        const std::size_t rows =
            std::min(seg_rows, dataset.rows - base);
        segmentBase_.push_back(base);
        const MatrixView segment{dataset.base.data() + base * dim_,
                                 rows, dim_};
        // Non-default layouts get their own cache entries so a
        // packed run never serves (or clobbers) id-order archives.
        const LayoutPolicy layout =
            kind_ == MilvusIndexKind::DiskAnn
                ? resolveLayoutPolicy(LayoutPolicy::Default)
                : LayoutPolicy::IdOrder;
        const std::string layout_tag =
            layout == LayoutPolicy::IdOrder
                ? ""
                : std::string("-") + layoutPolicyName(layout);
        const std::string key =
            cache_dir + "/" + profile_.name + "-" + dataset.name + "-" +
            std::to_string(dataset.rows) + "-seg" +
            std::to_string(segmentBase_.size() - 1) + layout_tag +
            ".bin";

        switch (kind_) {
          case MilvusIndexKind::Ivf: {
            ivfSegments_.push_back(
                loadOrBuildIndex<IvfIndex>(key, [&](IvfIndex &index) {
                    IvfBuildParams params;
                    // nlist preserving the paper's rows-per-list
                    // under the faiss nlist=4*sqrt(n) rule.
                    params.nlist = scaledNlist(dataset.name, rows);
                    params.seed = 42 + segmentBase_.size();
                    index.build(segment, params);
                }));
            // DiskANN segments tier themselves at load; IVF applies
            // the budget explicitly over the finished posting lists.
            ivfSegments_.back().applyMemoryBudget(
                storage::defaultIoOptions());
            break;
          }
          case MilvusIndexKind::Hnsw: {
            hnswSegments_.push_back(
                loadOrBuildIndex<HnswIndex>(key, [&](HnswIndex &index) {
                    HnswBuildParams params;
                    params.m = 16;
                    params.ef_construction = 200;
                    params.seed = 42 + segmentBase_.size();
                    index.build(segment, params);
                }));
            break;
          }
          case MilvusIndexKind::DiskAnn: {
            diskannSegments_.push_back(loadOrBuildIndex<DiskAnnIndex>(
                key, [&](DiskAnnIndex &index) {
                    // DiskANN-paper build quality (R=64, L=125-ish)
                    // with Milvus's one-byte-per-dim PQ budget: this
                    // is what lets search_list=10 already exceed the
                    // 0.9 recall target (Table II).
                    DiskAnnBuildParams params;
                    params.graph.max_degree = 64;
                    params.graph.build_list = 128;
                    params.graph.seed = 42 + segmentBase_.size();
                    params.pq.m = dim_;
                    params.pq.ksub = 256;
                    index.build(segment, params);
                }));
            segmentSectorBase_.push_back(next_sector);
            next_sector += diskannSegments_.back().numSectors();
            break;
          }
        }
    }
    ANN_CHECK(!segmentBase_.empty(), "dataset produced no segments");
}

SearchResult
MilvusLikeEngine::searchSegment(std::size_t s, const float *query,
                                const SearchSettings &settings,
                                SearchTraceRecorder *recorder) const
{
    ANN_CHECK(s < segmentBase_.size(), "segment out of range: ", s);
    SearchResult local;
    switch (kind_) {
      case MilvusIndexKind::Ivf: {
        IvfSearchParams params;
        params.k = settings.k;
        params.nprobe = settings.nprobe;
        local = ivfSegments_[s].search(query, params, recorder);
        break;
      }
      case MilvusIndexKind::Hnsw: {
        HnswSearchParams params;
        params.k = settings.k;
        params.ef_search = settings.ef_search;
        local = hnswSegments_[s].search(query, params, recorder);
        break;
      }
      case MilvusIndexKind::DiskAnn: {
        DiskAnnSearchParams params;
        params.k = settings.k;
        params.search_list = std::max(settings.search_list, settings.k);
        params.beam_width = settings.beam_width;
        local = diskannSegments_[s].search(query, params, recorder);
        break;
      }
    }
    const auto base = static_cast<VectorId>(segmentBase_[s]);
    for (Neighbor &n : local)
        n.id += base;
    return local;
}

SearchResult
MilvusLikeEngine::searchSegments(const float *query,
                                 const SearchSettings &settings,
                                 SearchTraceRecorder *recorders,
                                 ThreadPool *pool) const
{
    ANN_CHECK(!segmentBase_.empty(), "engine not prepared");
    // Each segment is searched into its own slot and the slots are
    // merged in segment order, so the answer does not depend on which
    // thread searched which segment.
    std::vector<SearchResult> slots(segmentBase_.size());
    const auto body = [&](std::size_t begin, std::size_t end) {
        for (std::size_t s = begin; s < end; ++s)
            slots[s] = searchSegment(s, query, settings,
                                     recorders ? &recorders[s] : nullptr);
    };
    if (pool)
        pool->parallelFor(slots.size(), 1, body);
    else
        body(0, slots.size());
    TopK merged(settings.k);
    for (const SearchResult &local : slots)
        for (const Neighbor &n : local)
            merged.push(n.id, n.distance);
    return merged.take();
}

VectorDbEngine::SearchOutput
MilvusLikeEngine::search(const float *query,
                         const SearchSettings &settings)
{
    std::vector<SearchTraceRecorder> recorders(segmentBase_.size());
    SearchOutput output;
    // Walk the segments on the caller: the simulator replays the
    // per-segment chains side by side itself, and BenchRunner spreads
    // queries over its own threads ($ANN_EXEC_THREADS, 1 = serial).
    output.results =
        searchSegments(query, settings, recorders.data(), nullptr);

    output.trace.rtt_ns = profile_.rtt_ns;
    output.trace.serial_cpu_ns = profile_.serial_cpu_ns;
    output.trace.prologue.push_back({profile_.proxy_cpu_ns, {}});
    for (std::size_t s = 0; s < recorders.size(); ++s) {
        auto chain = timeSteps(recorders[s].takeSteps());
        if (kind_ == MilvusIndexKind::DiskAnn) {
            // Per-sector AIO at a per-segment file offset.
            splitToSingleSectors(chain);
            offsetSectors(chain, segmentSectorBase_[s]);
        }
        output.trace.parallel_chains.push_back(std::move(chain));
    }
    output.trace.epilogue.push_back(
        {profile_.merge_cpu_ns *
             static_cast<SimTime>(segmentBase_.size()),
         {}});
    return output;
}

SearchResult
MilvusLikeEngine::searchLive(const float *query,
                             const SearchSettings &settings)
{
    // Side by side on the global pool, so one query's per-segment
    // reads overlap; inline when the pool has one thread or the
    // engine one segment.
    return searchSegments(query, settings, nullptr,
                          &ThreadPool::global());
}

VectorId
MilvusLikeEngine::liveAdd(const float *vec)
{
    ANN_CHECK(kind_ == MilvusIndexKind::Hnsw ||
                  kind_ == MilvusIndexKind::DiskAnn,
              "live inserts are supported for the HNSW and DiskANN "
              "kinds");
    ANN_CHECK(!segmentBase_.empty(), "engine not prepared");
    const VectorId local = kind_ == MilvusIndexKind::Hnsw
                               ? hnswSegments_.back().add(vec)
                               : diskannSegments_.back().addDelta(vec);
    return static_cast<VectorId>(segmentBase_.back()) + local;
}

void
MilvusLikeEngine::liveMarkDeleted(VectorId id)
{
    ANN_CHECK(kind_ == MilvusIndexKind::Hnsw ||
                  kind_ == MilvusIndexKind::DiskAnn,
              "live deletes are supported for the HNSW and DiskANN "
              "kinds");
    ANN_CHECK(!segmentBase_.empty(), "engine not prepared");
    std::size_t s = segmentBase_.size() - 1;
    while (s > 0 && segmentBase_[s] > id)
        --s;
    const auto local =
        static_cast<VectorId>(id - segmentBase_[s]);
    if (kind_ == MilvusIndexKind::Hnsw) {
        ANN_CHECK(local < hnswSegments_[s].size(),
                  "vector id out of range: ", id);
        hnswSegments_[s].markDeleted(local);
    } else {
        ANN_CHECK(local < diskannSegments_[s].totalSize(),
                  "vector id out of range: ", id);
        diskannSegments_[s].markDeleted(local);
    }
}

engine::QueryTrace
MilvusLikeEngine::buildIngestTrace(std::size_t rows)
{
    ANN_CHECK(kind_ == MilvusIndexKind::DiskAnn,
              "ingest traces are modelled for the DiskANN kind");
    ANN_CHECK(!diskannSegments_.empty(), "engine not prepared");
    ANN_CHECK(rows > 0, "ingest needs rows");

    const DiskAnnIndex &segment = diskannSegments_.front();

    QueryTrace trace;
    trace.rtt_ns = profile_.rtt_ns;
    trace.serial_cpu_ns = profile_.serial_cpu_ns;
    trace.prologue.push_back({profile_.proxy_cpu_ns, {}});

    // CPU: PQ-encode each row (≈ one ADC-table's worth of subspace
    // scans) and insert it into the in-memory delta graph (≈ one
    // greedy search's worth of quant distances).
    OpCounts ingest_ops;
    ingest_ops.adc_tables = rows;
    ingest_ops.quant_distances = rows * 600;
    ingest_ops.heap_ops = rows * 600;

    // Writes: the amortized merge rewrites each row's node record
    // sequentially, twice (log + merged segment).
    const std::size_t nps = std::max<std::size_t>(
        1, segment.nodesPerSector());
    const auto sectors = static_cast<std::uint32_t>(
        2 * ((rows + nps - 1) / nps));

    // Rotate through a log region placed after the index files.
    const std::uint64_t log_base = diskSectors() + 1;
    const std::uint64_t log_span = 1ULL << 20; // 4 GiB log window
    const std::uint64_t at = log_base + (ingestCursor_ % log_span);
    ingestCursor_ += sectors;

    TimedStep step;
    step.cpu_ns = cost_.cpuNs(ingest_ops);
    step.writes.push_back({at, sectors});
    trace.parallel_chains.push_back({std::move(step)});
    trace.epilogue.push_back({profile_.merge_cpu_ns, {}});
    return trace;
}

std::size_t
MilvusLikeEngine::memoryBytes() const
{
    std::size_t bytes = 0;
    for (const auto &index : ivfSegments_)
        bytes += index.memoryBytes();
    for (const auto &index : hnswSegments_)
        bytes += index.memoryBytes();
    for (const auto &index : diskannSegments_)
        bytes += index.memoryBytes();
    return bytes;
}

std::uint64_t
MilvusLikeEngine::diskSectors() const
{
    std::uint64_t sectors = 0;
    for (const auto &index : diskannSegments_)
        sectors += index.numSectors();
    return sectors;
}

storage::NodeCacheStats
MilvusLikeEngine::nodeCacheStats() const
{
    storage::NodeCacheStats stats;
    for (const auto &index : diskannSegments_)
        stats += index.nodeCacheStats();
    return stats;
}

storage::NodeCacheStats
MilvusLikeEngine::codeCacheStats() const
{
    storage::NodeCacheStats stats;
    for (const auto &index : diskannSegments_)
        stats += index.codeCacheStats();
    return stats;
}

void
MilvusLikeEngine::dropNodeCache()
{
    for (auto &index : diskannSegments_)
        index.dropNodeCache();
}

} // namespace ann::engine
