/**
 * @file
 * Tests for the Vamana graph builder and the DiskANN index: graph
 * invariants, disk layout, beam-search behaviour, recall, the I/O
 * trace instrumentation, and serialization.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <set>

#include "common/error.hh"
#include "common/serialize.hh"
#include "distance/recall.hh"
#include "index/diskann_index.hh"
#include "index/vamana.hh"
#include "test_util.hh"

namespace ann {
namespace {

using testutil::groundTruth;
using testutil::makeClusteredData;
using testutil::TestData;

class VamanaFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        data_ = new TestData(makeClusteredData(1500, 30, 24, 999));
        VamanaBuildParams params;
        params.max_degree = 24;
        params.build_list = 48;
        graph_ = new VamanaGraph(buildVamana(data_->baseView(), params));
    }
    static void
    TearDownTestSuite()
    {
        delete data_;
        delete graph_;
        data_ = nullptr;
        graph_ = nullptr;
    }

    static TestData *data_;
    static VamanaGraph *graph_;
};

TestData *VamanaFixture::data_ = nullptr;
VamanaGraph *VamanaFixture::graph_ = nullptr;

TEST_F(VamanaFixture, DegreeBoundHolds)
{
    for (const auto &adj : graph_->adjacency)
        EXPECT_LE(adj.size(), graph_->max_degree);
}

TEST_F(VamanaFixture, NoSelfLoopsOrDuplicateEdges)
{
    for (std::size_t v = 0; v < graph_->adjacency.size(); ++v) {
        std::set<VectorId> uniq;
        for (VectorId nb : graph_->adjacency[v]) {
            EXPECT_NE(nb, v);
            EXPECT_LT(nb, graph_->adjacency.size());
            uniq.insert(nb);
        }
        EXPECT_EQ(uniq.size(), graph_->adjacency[v].size());
    }
}

TEST_F(VamanaFixture, MedoidIsValid)
{
    EXPECT_LT(graph_->medoid, graph_->adjacency.size());
    EXPECT_FALSE(graph_->adjacency[graph_->medoid].empty());
}

TEST_F(VamanaFixture, GreedySearchFindsNearNeighbors)
{
    const auto truth = groundTruth(*data_, 10);
    double recall = 0.0;
    for (std::size_t q = 0; q < data_->num_queries; ++q) {
        const auto visited = vamanaGreedySearch(
            data_->baseView(), *graph_, data_->queryView().row(q), 48);
        std::vector<VectorId> found;
        for (std::size_t i = 0; i < std::min<std::size_t>(10,
                                                          visited.size());
             ++i)
            found.push_back(visited[i].id);
        recall += recallAtK(truth[q], found, 10);
    }
    recall /= static_cast<double>(data_->num_queries);
    EXPECT_GT(recall, 0.85);
}

class DiskAnnFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        data_ = new TestData(makeClusteredData(1500, 30, 32, 321));
        truth_ = new std::vector<std::vector<VectorId>>(
            groundTruth(*data_, 10));
        index_ = new DiskAnnIndex();
        DiskAnnBuildParams params;
        params.graph.max_degree = 24;
        params.graph.build_list = 48;
        // One sub-quantizer per two dims, as Milvus-DiskANN defaults
        // to a byte per dimension-or-two of PQ budget.
        params.pq.m = 16;
        params.pq.ksub = 256;
        index_->build(data_->baseView(), params);
    }
    static void
    TearDownTestSuite()
    {
        delete data_;
        delete truth_;
        delete index_;
        data_ = nullptr;
        truth_ = nullptr;
        index_ = nullptr;
    }

    double
    meanRecall(const DiskAnnSearchParams &params) const
    {
        double acc = 0.0;
        for (std::size_t q = 0; q < data_->num_queries; ++q) {
            const auto result =
                index_->search(data_->queryView().row(q), params);
            acc += recallAtK((*truth_)[q], result, 10);
        }
        return acc / static_cast<double>(data_->num_queries);
    }

    static TestData *data_;
    static std::vector<std::vector<VectorId>> *truth_;
    static DiskAnnIndex *index_;
};

TestData *DiskAnnFixture::data_ = nullptr;
std::vector<std::vector<VectorId>> *DiskAnnFixture::truth_ = nullptr;
DiskAnnIndex *DiskAnnFixture::index_ = nullptr;

TEST_F(DiskAnnFixture, LayoutPacksNodesIntoSectors)
{
    // dim=32: node = 128 + 4 + 24*4 = 228 bytes -> 17 nodes/sector.
    EXPECT_EQ(index_->nodeBytes(), 32 * 4 + 4 + 24 * 4);
    EXPECT_EQ(index_->nodesPerSector(), 4096 / index_->nodeBytes());
    EXPECT_EQ(index_->sectorsPerNode(), 1u);
    EXPECT_EQ(index_->sectorOfNode(0), 1u); // sector 0 is the header
    const auto nps = index_->nodesPerSector();
    EXPECT_EQ(index_->sectorOfNode(static_cast<VectorId>(nps)), 2u);
    EXPECT_EQ(index_->diskBytes(), index_->numSectors() * kSectorBytes);
}

TEST_F(DiskAnnFixture, MemoryFootprintIsCompressed)
{
    // The in-memory part (PQ) must be much smaller than raw vectors.
    const std::size_t raw = 1500 * 32 * sizeof(float);
    EXPECT_LT(index_->memoryBytes(), raw / 2);
    EXPECT_GT(index_->diskBytes(), raw); // disk holds vectors + graph
}

TEST_F(DiskAnnFixture, ReachesTargetRecall)
{
    DiskAnnSearchParams params;
    params.search_list = 20;
    params.beam_width = 4;
    params.k = 10;
    EXPECT_GT(meanRecall(params), 0.9);
}

TEST_F(DiskAnnFixture, RecallGrowsWithSearchList)
{
    DiskAnnSearchParams params;
    params.beam_width = 4;
    params.k = 10;
    params.search_list = 10;
    const double low = meanRecall(params);
    params.search_list = 100;
    const double high = meanRecall(params);
    EXPECT_GE(high + 1e-9, low);
    EXPECT_GT(high, 0.93);
}

TEST_F(DiskAnnFixture, IoGrowsWithSearchList)
{
    auto sectors_for = [&](std::size_t search_list) {
        DiskAnnSearchParams params;
        params.search_list = search_list;
        params.beam_width = 4;
        params.k = 10;
        std::uint64_t total = 0;
        for (std::size_t q = 0; q < 10; ++q) {
            SearchTraceRecorder recorder;
            index_->search(data_->queryView().row(q), params, &recorder);
            total += recorder.totalSectors();
        }
        return total;
    };
    // The paper's O-20/O-21: larger search_list -> more I/O.
    EXPECT_GT(sectors_for(100), 2 * sectors_for(10));
}

TEST_F(DiskAnnFixture, BeamBatchRespectsBeamWidth)
{
    DiskAnnSearchParams params;
    params.search_list = 50;
    params.beam_width = 2;
    params.k = 10;
    SearchTraceRecorder recorder;
    index_->search(data_->queryView().row(0), params, &recorder);
    for (const SearchStep &step : recorder.steps()) {
        std::uint64_t batch_sectors = 0;
        for (const SectorRead &read : step.reads)
            batch_sectors += read.count;
        // A beam of W nodes touches at most W sectors here
        // (sectors_per_node == 1).
        EXPECT_LE(batch_sectors, 2u);
    }
}

TEST_F(DiskAnnFixture, TraceStepsAlternateCpuAndIo)
{
    DiskAnnSearchParams params;
    params.search_list = 20;
    params.beam_width = 4;
    SearchTraceRecorder recorder;
    index_->search(data_->queryView().row(1), params, &recorder);
    const auto &steps = recorder.steps();
    ASSERT_GT(steps.size(), 1u);
    // Every step except possibly the last carries reads; hop count in
    // the trace matches the number of I/O batches.
    std::size_t io_steps = 0;
    for (const SearchStep &step : steps)
        io_steps += step.reads.empty() ? 0 : 1;
    EXPECT_EQ(io_steps, recorder.totals().hops);
}

TEST_F(DiskAnnFixture, SectorReadsAreWithinFile)
{
    DiskAnnSearchParams params;
    params.search_list = 30;
    params.beam_width = 4;
    SearchTraceRecorder recorder;
    index_->search(data_->queryView().row(2), params, &recorder);
    for (const SearchStep &step : recorder.steps()) {
        for (const SectorRead &read : step.reads) {
            EXPECT_GE(read.sector, 1u); // never the header
            EXPECT_LT(read.sector + read.count, index_->numSectors() + 1);
        }
    }
}

TEST_F(DiskAnnFixture, SaveLoadPreservesResults)
{
    const std::string path = "diskann_test.bin";
    {
        BinaryWriter writer(path, "DAT", 1);
        index_->save(writer);
        writer.close();
    }
    DiskAnnIndex loaded;
    {
        BinaryReader reader(path, "DAT", 1);
        loaded.load(reader);
    }
    DiskAnnSearchParams params;
    params.search_list = 20;
    for (std::size_t q = 0; q < 10; ++q) {
        const float *query = data_->queryView().row(q);
        EXPECT_EQ(index_->search(query, params),
                  loaded.search(query, params));
    }
    std::remove(path.c_str());
}

TEST_F(DiskAnnFixture, RejectsBadSearchParams)
{
    DiskAnnSearchParams params;
    params.search_list = 5;
    params.k = 10; // search_list < k
    EXPECT_THROW(index_->search(data_->queryView().row(0), params),
                 FatalError);
    params.search_list = 20;
    params.beam_width = 0;
    EXPECT_THROW(index_->search(data_->queryView().row(0), params),
                 FatalError);
}

/** Nodes larger than a sector must span multiple sectors. */
TEST(DiskAnnLayoutTest, WideVectorsSpanSectors)
{
    // dim=1536 mimics OpenAI embeddings: node > 4 KiB.
    TestData data = makeClusteredData(60, 4, 1536, 31);
    DiskAnnIndex index;
    DiskAnnBuildParams params;
    params.graph.max_degree = 16;
    params.graph.build_list = 24;
    params.pq.m = 96;
    params.pq.ksub = 16;
    index.build(data.baseView(), params);

    EXPECT_GT(index.nodeBytes(), kSectorBytes);
    EXPECT_EQ(index.nodesPerSector(), 0u);
    EXPECT_EQ(index.sectorsPerNode(), 2u);
    EXPECT_EQ(index.sectorOfNode(3), 1u + 3u * 2u);

    // Searches must read both sectors of each expanded node.
    DiskAnnSearchParams search;
    search.search_list = 10;
    search.beam_width = 1;
    search.k = 5;
    SearchTraceRecorder recorder;
    index.search(data.queryView().row(0), search, &recorder);
    for (const SearchStep &step : recorder.steps()) {
        if (step.reads.empty())
            continue;
        std::uint64_t batch = 0;
        for (const SectorRead &read : step.reads)
            batch += read.count;
        EXPECT_EQ(batch, 2u);
    }
}

TEST(DiskAnnSmallTest, TinyDatasetStillWorks)
{
    TestData data = makeClusteredData(40, 5, 16, 7);
    DiskAnnIndex index;
    DiskAnnBuildParams params;
    params.graph.max_degree = 8;
    params.graph.build_list = 16;
    params.pq.m = 4;
    params.pq.ksub = 16;
    index.build(data.baseView(), params);

    DiskAnnSearchParams search;
    search.search_list = 20;
    search.k = 5;
    const auto truth = groundTruth(data, 5);
    double recall = 0.0;
    for (std::size_t q = 0; q < data.num_queries; ++q)
        recall += recallAtK(truth[q],
                            index.search(data.queryView().row(q), search),
                            5);
    EXPECT_GT(recall / 5.0, 0.9);
}

// ------------------------------------------------ corrupted archives

/**
 * Archives whose bytes disagree with themselves must be rejected at
 * load with FatalError (which loadOrBuildIndex turns into a rebuild)
 * instead of letting the beam index memory with on-disk values. Each
 * test flips one field of a valid archive.
 *
 * Field offsets follow the stream layout: the BinaryWriter header
 * ([u64 3]["DAT"][u32]) is 15 bytes and the index's own
 * ([u64 4]["DANN"][u32]) 16 more, then the u64 geometry fields and
 * the u32 medoid. Version-3 (id order) archives continue with six
 * build parameters (44 bytes), the empty delta vector and the delta
 * count before the tombstone vector; version-4 (packed) archives with
 * the u32 layout tag and the permutation vector. The node image ends
 * the archive, right behind the code vector and the image size.
 */
class DiskAnnArchiveTest : public ::testing::Test
{
  protected:
    static constexpr std::size_t kNodeBytes = 55;
    static constexpr std::size_t kMedoid = 79;
    static constexpr std::size_t kV3Tombstones = 143;
    static constexpr std::size_t kV4Permutation = 95;
    static constexpr std::size_t kCodeSize = 8;

    static void
    SetUpTestSuite()
    {
        data_ = new TestData(makeClusteredData(400, 1, 16, 41));
        dir_ = new testutil::TempDir("diskann_archive_test");
        for (const LayoutPolicy layout :
             {LayoutPolicy::IdOrder, LayoutPolicy::PackedBfs}) {
            DiskAnnIndex index;
            DiskAnnBuildParams params;
            params.graph.max_degree = 16;
            params.graph.build_list = 32;
            params.pq.m = kCodeSize;
            params.pq.ksub = 256;
            params.layout = layout;
            index.build(data_->baseView(), params);
            const std::string path = dir_->sub("valid.bin");
            {
                BinaryWriter writer(path, "DAT", 1);
                index.save(writer);
                writer.close();
            }
            std::ifstream in(path, std::ios::binary);
            const std::vector<char> bytes(
                std::istreambuf_iterator<char>(in), {});
            if (layout == LayoutPolicy::IdOrder) {
                idOrder_ = bytes;
                imageBytes_ = index.numSectors() * kSectorBytes;
                dim_ = index.dim();
            } else {
                packed_ = bytes;
            }
        }
    }
    static void
    TearDownTestSuite()
    {
        delete data_;
        delete dir_;
        data_ = nullptr;
        dir_ = nullptr;
    }

    template <typename T>
    static void
    poke(std::vector<char> &bytes, std::size_t offset, T value)
    {
        std::memcpy(bytes.data() + offset, &value, sizeof(T));
    }

    template <typename T>
    static T
    peek(const std::vector<char> &bytes, std::size_t offset)
    {
        T value{};
        std::memcpy(&value, bytes.data() + offset, sizeof(T));
        return value;
    }

    /** Offset of the node image (the tail of an id-order archive). */
    static std::size_t
    imageOffset(const std::vector<char> &bytes)
    {
        return bytes.size() - imageBytes_;
    }

    /** Load @p bytes as an archive; FatalError when rejected. */
    static void
    load(const std::vector<char> &bytes)
    {
        const std::string path = dir_->sub("corrupt.bin");
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out.write(bytes.data(),
                      static_cast<std::streamsize>(bytes.size()));
        }
        BinaryReader reader(path, "DAT", 1);
        DiskAnnIndex index;
        index.load(reader);
    }

    static TestData *data_;
    static testutil::TempDir *dir_;
    static std::vector<char> idOrder_;
    static std::vector<char> packed_;
    static std::size_t imageBytes_;
    static std::size_t dim_;
};

TestData *DiskAnnArchiveTest::data_ = nullptr;
testutil::TempDir *DiskAnnArchiveTest::dir_ = nullptr;
std::vector<char> DiskAnnArchiveTest::idOrder_;
std::vector<char> DiskAnnArchiveTest::packed_;
std::size_t DiskAnnArchiveTest::imageBytes_ = 0;
std::size_t DiskAnnArchiveTest::dim_ = 0;

TEST_F(DiskAnnArchiveTest, RejectsMedoidOutOfRange)
{
    auto bytes = idOrder_;
    poke<std::uint32_t>(bytes, kMedoid, 400);
    EXPECT_THROW(load(bytes), FatalError);
}

TEST_F(DiskAnnArchiveTest, RejectsTombstoneCountMismatch)
{
    auto bytes = idOrder_;
    ASSERT_EQ(peek<std::uint64_t>(bytes, kV3Tombstones), 400u);
    poke<std::uint64_t>(bytes, kV3Tombstones, 399);
    EXPECT_THROW(load(bytes), FatalError);
}

TEST_F(DiskAnnArchiveTest, RejectsCodeArraySizeMismatch)
{
    auto bytes = idOrder_;
    // [u64 count][codes][u64 image size][image]
    const std::size_t count_at =
        imageOffset(bytes) - sizeof(std::uint64_t) - 400 * kCodeSize -
        sizeof(std::uint64_t);
    ASSERT_EQ(peek<std::uint64_t>(bytes, count_at), 400 * kCodeSize);
    poke<std::uint64_t>(bytes, count_at, 400 * kCodeSize - 1);
    EXPECT_THROW(load(bytes), FatalError);
}

TEST_F(DiskAnnArchiveTest, RejectsRecordGeometryMismatch)
{
    auto bytes = idOrder_;
    poke<std::uint64_t>(bytes, kNodeBytes,
                        peek<std::uint64_t>(bytes, kNodeBytes) + 4);
    EXPECT_THROW(load(bytes), FatalError);
}

TEST_F(DiskAnnArchiveTest, RejectsNonBijectivePermutation)
{
    auto bytes = packed_;
    ASSERT_EQ(peek<std::uint64_t>(bytes, kV4Permutation - 8), 400u);
    // Two nodes claiming the same record position.
    poke<std::uint32_t>(bytes, kV4Permutation + 4,
                        peek<std::uint32_t>(bytes, kV4Permutation));
    EXPECT_THROW(load(bytes), FatalError);
}

TEST_F(DiskAnnArchiveTest, RejectsDegreeAboveMaxDegree)
{
    auto bytes = idOrder_;
    // Record 0 starts the data region (sector 1 under id order).
    const std::size_t degree_at =
        imageOffset(bytes) + kSectorBytes + dim_ * sizeof(float);
    poke<std::uint32_t>(bytes, degree_at, 17);
    EXPECT_THROW(load(bytes), FatalError);
}

TEST_F(DiskAnnArchiveTest, RejectsNeighbourIdOutOfRange)
{
    auto bytes = idOrder_;
    const std::size_t degree_at =
        imageOffset(bytes) + kSectorBytes + dim_ * sizeof(float);
    ASSERT_GT(peek<std::uint32_t>(bytes, degree_at), 0u);
    poke<std::uint32_t>(bytes, degree_at + sizeof(std::uint32_t), 400);
    EXPECT_THROW(load(bytes), FatalError);
}

} // namespace
} // namespace ann
