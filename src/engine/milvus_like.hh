/**
 * @file
 * Milvus-like engine.
 *
 * Architectural features modelled after Milvus 2.5 (the paper's
 * best-throughput engine) and responsible for its measured behaviour:
 *
 *  - *Segmented collections*: data is sealed into fixed-row segments,
 *    each with its own index; every query fans out across all
 *    segments and merges. This is why Milvus shows the largest
 *    throughput drop when datasets grow 10x (O-6) — per-query work
 *    scales with segment count — and why its per-query I/O grows
 *    ~10x on the 10x datasets with DiskANN (O-14).
 *  - *Worker-pool admission* for segment tasks: throughput and CPU
 *    plateau at low client concurrency on multi-segment datasets
 *    (O-5, Fig. 4) because a few queries already fill the pool.
 *  - *Efficient C++ core*: lowest per-query overheads of the four
 *    engines; supports IVF, HNSW, and DiskANN (the only storage-based
 *    graph index in the study).
 *  - DiskANN runs with direct I/O (per-sector AIO), so every node
 *    fetch appears as 4 KiB block-layer reads (O-15).
 */

#ifndef ANN_ENGINE_MILVUS_LIKE_HH
#define ANN_ENGINE_MILVUS_LIKE_HH

#include <memory>
#include <vector>

#include "common/thread_pool.hh"
#include "engine/engine.hh"
#include "index/diskann_index.hh"
#include "index/hnsw_index.hh"
#include "index/ivf_index.hh"

namespace ann::engine {

/** Index kinds Milvus is benchmarked with in the paper. */
enum class MilvusIndexKind { Ivf, Hnsw, DiskAnn };

/** Milvus-like segmented vector database. */
class MilvusLikeEngine : public VectorDbEngine
{
  public:
    explicit MilvusLikeEngine(MilvusIndexKind kind);

    void prepare(const workload::Dataset &dataset,
                 const std::string &cache_dir) override;
    /** Traced simulator path: walks the segments on the caller. */
    SearchOutput search(const float *query,
                        const SearchSettings &settings) override;
    /**
     * Trace-free serving path: no recorder, no timed-step assembly;
     * the segments are searched side by side on ThreadPool::global().
     */
    SearchResult searchLive(const float *query,
                            const SearchSettings &settings) override;
    std::size_t memoryBytes() const override;
    std::uint64_t diskSectors() const override;
    /** Sum over the DiskANN segments' sector caches. */
    storage::NodeCacheStats nodeCacheStats() const override;
    /** Sum over the DiskANN segments' spilled code-page caches. */
    storage::NodeCacheStats codeCacheStats() const override;
    void dropNodeCache() override;

    /**
     * Streaming insert into the growing tail segment (HNSW and
     * DiskANN kinds; DiskANN takes the FreshDiskANN delta-store
     * path); @return the new vector's engine-global id. Requires
     * external exclusion against concurrent search()/searchLive()
     * (the serving layer's EngineGate provides it) — index mutations
     * are not search-safe.
     */
    VectorId liveAdd(const float *vec);

    /** Tombstone an engine-global id (same kinds and exclusion). */
    void liveMarkDeleted(VectorId id);

    std::size_t numSegments() const { return segmentBase_.size(); }
    MilvusIndexKind kind() const { return kind_; }

    /**
     * Search segment @p s alone (< numSegments()); ids are
     * engine-global. search() and searchLive() are this over every
     * segment, merged in segment order.
     */
    SearchResult searchSegment(std::size_t s, const float *query,
                               const SearchSettings &settings,
                               SearchTraceRecorder *recorder =
                                   nullptr) const;

    /**
     * Timed trace of ingesting @p rows vectors (DiskANN kind only).
     *
     * Models FreshDiskANN-style streaming ingestion: vectors are
     * PQ-encoded and inserted into an in-memory delta graph (CPU),
     * and the amortized background merge rewrites their node records
     * to a log region on the SSD (sequential sector writes, with a
     * 2x merge write amplification). Used by the hybrid read/write
     * experiments the paper names as future work (SS VIII).
     */
    QueryTrace buildIngestTrace(std::size_t rows);

    /**
     * Milvus seals segments by *bytes* (512 MB by default), so wider
     * vectors mean fewer rows per segment; there is also a row cap.
     * Scaled equivalents: a 3 MiB byte budget (6,000 rows at 128-d,
     * 3,000 at 256-d) and a 6,000-row cap, times ANN_SCALE.
     */
    static constexpr std::size_t kSegmentBytes = 6000 * 128 * 4;
    static constexpr std::size_t kSegmentRows = 6000;

    /** Rows per sealed segment for vectors of dimension @p dim. */
    static std::size_t segmentRows(std::size_t dim);

  private:
    /**
     * The segment loop of search() and searchLive(): every segment
     * searched into its own slot — side by side on @p pool, or one
     * after another on the caller when @p pool is null — then merged
     * through one TopK in segment order. @p recorders is null or one
     * per segment.
     */
    SearchResult searchSegments(const float *query,
                                const SearchSettings &settings,
                                SearchTraceRecorder *recorders,
                                ThreadPool *pool) const;

    MilvusIndexKind kind_;
    std::size_t dim_ = 0;

    /** First global row id of each segment. */
    std::vector<std::size_t> segmentBase_;
    /** First device sector of each segment's DiskANN file. */
    std::vector<std::uint64_t> segmentSectorBase_;

    std::vector<IvfIndex> ivfSegments_;
    std::vector<HnswIndex> hnswSegments_;
    std::vector<DiskAnnIndex> diskannSegments_;

    /** Rotating write cursor of the ingest log region. */
    std::uint64_t ingestCursor_ = 0;
};

} // namespace ann::engine

#endif // ANN_ENGINE_MILVUS_LIKE_HH
