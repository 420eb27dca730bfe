/**
 * @file
 * Unit tests for src/common: errors, RNG, serialization, stats, tables.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/args.hh"
#include "common/env.hh"
#include "common/error.hh"
#include "common/rng.hh"
#include "common/serialize.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "test_util.hh"

namespace ann {
namespace {

TEST(ErrorTest, CheckThrowsFatalWithContext)
{
    try {
        ANN_CHECK(false, "value was ", 42);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("value was 42"), std::string::npos);
        EXPECT_NE(what.find("common_test.cc"), std::string::npos);
    }
}

TEST(ErrorTest, AssertThrowsInternal)
{
    EXPECT_THROW(ANN_ASSERT(1 == 2, "broken"), InternalError);
}

TEST(ErrorTest, PassingChecksDoNotThrow)
{
    EXPECT_NO_THROW(ANN_CHECK(true, "fine"));
    EXPECT_NO_THROW(ANN_ASSERT(true, "fine"));
}

TEST(RngTest, DeterministicForEqualSeeds)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        equal += a.next() == b.next();
    EXPECT_LT(equal, 4);
}

TEST(RngTest, NextBelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBelow(17), 17u);
}

TEST(RngTest, NextDoubleInUnitInterval)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(RngTest, GaussianHasReasonableMoments)
{
    Rng rng(11);
    double sum = 0.0, sum_sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.nextGaussian();
        sum += g;
        sum_sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, ForkIsIndependentOfParentUse)
{
    Rng parent(5);
    Rng child1 = parent.fork(3);
    parent.next();
    parent.next();
    Rng child2 = parent.fork(3);
    // Forks depend only on (seed, stream id), not on parent state.
    EXPECT_EQ(child1.next(), child2.next());
}

TEST(RngTest, ForksWithDifferentStreamsDiffer)
{
    Rng parent(5);
    Rng a = parent.fork(1);
    Rng b = parent.fork(2);
    EXPECT_NE(a.next(), b.next());
}

TEST(SerializeTest, RoundTripsPodsStringsVectors)
{
    const std::string path = "serialize_test.bin";
    {
        BinaryWriter writer(path, "TEST", 3);
        writer.writePod<std::uint32_t>(0xdeadbeef);
        writer.writePod<double>(2.5);
        writer.writeString("hello world");
        writer.writeVector<float>({1.0f, 2.0f, 3.0f});
        writer.writeVector<std::uint64_t>({});
        writer.close();
    }
    {
        BinaryReader reader(path, "TEST", 3);
        EXPECT_EQ(reader.readPod<std::uint32_t>(), 0xdeadbeefu);
        EXPECT_EQ(reader.readPod<double>(), 2.5);
        EXPECT_EQ(reader.readString(), "hello world");
        const auto floats = reader.readVector<float>();
        ASSERT_EQ(floats.size(), 3u);
        EXPECT_EQ(floats[2], 3.0f);
        EXPECT_TRUE(reader.readVector<std::uint64_t>().empty());
    }
    std::remove(path.c_str());
}

TEST(SerializeTest, RejectsWrongMagicAndVersion)
{
    const std::string path = "serialize_magic_test.bin";
    {
        BinaryWriter writer(path, "GOOD", 1);
        writer.writePod<int>(1);
        writer.close();
    }
    EXPECT_THROW(BinaryReader(path, "EVIL", 1), FatalError);
    EXPECT_THROW(BinaryReader(path, "GOOD", 2), FatalError);
    EXPECT_NO_THROW(BinaryReader(path, "GOOD", 1));
    std::remove(path.c_str());
}

TEST(SerializeTest, MissingFileThrows)
{
    EXPECT_THROW(BinaryReader("/nonexistent/nowhere.bin", "X", 1),
                 FatalError);
}

TEST(SerializeTest, ShortReadThrows)
{
    const std::string path = "serialize_short_test.bin";
    {
        BinaryWriter writer(path, "SH", 1);
        writer.writePod<std::uint8_t>(1);
        writer.close();
    }
    BinaryReader reader(path, "SH", 1);
    EXPECT_EQ(reader.readPod<std::uint8_t>(), 1);
    EXPECT_THROW(reader.readPod<std::uint64_t>(), FatalError);
    std::remove(path.c_str());
}

/** Whole file at @p path as bytes. */
std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

/** Entries of @p dir other than @p keep (temporary files left over). */
std::size_t
strayFiles(const std::string &dir, const std::string &keep)
{
    std::size_t stray = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        if (entry.path().filename() != keep)
            ++stray;
    return stray;
}

TEST(SerializeTest, AbandonedWriterKeepsPreviousArchive)
{
    const testutil::TempDir dir("serialize_abandon");
    const std::string path = dir.sub("archive.bin");
    {
        BinaryWriter writer(path, "ARC", 1);
        writer.writeVector<std::uint32_t>({1, 2, 3});
        writer.close();
    }
    const std::string before = fileBytes(path);
    {
        // Destroyed without close(), as when a save() throws midway.
        BinaryWriter writer(path, "ARC", 1);
        writer.writeVector(std::vector<std::uint32_t>(1 << 16, 7));
        writer.writePod<std::uint64_t>(9);
    }
    EXPECT_TRUE(fileBytes(path) == before) << "previous archive changed";
    EXPECT_EQ(strayFiles(dir.path(), "archive.bin"), 0u);
    BinaryReader reader(path, "ARC", 1);
    EXPECT_EQ(reader.readVector<std::uint32_t>(),
              (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(SerializeTest, ReadersNeverSeeAPartialArchive)
{
    // One thread republishes a 2 MiB archive 200 times while another
    // opens it and reads it to the end in a loop. Every read must see
    // one whole generation: header, payload, and trailer. A writer
    // that truncates and rewrites in place fails this with short or
    // mixed reads.
    const testutil::TempDir dir("serialize_publish");
    const std::string path = dir.sub("archive.bin");
    constexpr std::size_t kWords = std::size_t{1} << 19;
    constexpr std::uint32_t kGenerations = 200;
    const auto publish = [&](std::uint32_t generation) {
        BinaryWriter writer(path, "GEN", 1);
        writer.writePod(generation);
        writer.writeVector(std::vector<std::uint32_t>(kWords, generation));
        writer.writePod<std::uint32_t>(~generation);
        writer.close();
    };
    publish(0);

    std::atomic<bool> stop{false};
    std::size_t reads = 0;
    std::size_t bad_reads = 0;
    std::string first_error;
    std::thread reader([&] {
        while (!stop.load()) {
            ++reads;
            try {
                BinaryReader in(path, "GEN", 1);
                const auto generation = in.readPod<std::uint32_t>();
                const auto words = in.readVector<std::uint32_t>();
                const auto trailer = in.readPod<std::uint32_t>();
                if (words.size() != kWords ||
                    std::count(words.begin(), words.end(), generation) !=
                        static_cast<std::ptrdiff_t>(kWords) ||
                    trailer != ~generation) {
                    if (bad_reads++ == 0)
                        first_error = "torn archive";
                }
            } catch (const FatalError &e) {
                if (bad_reads++ == 0)
                    first_error = e.what();
            }
        }
    });
    for (std::uint32_t generation = 1; generation <= kGenerations;
         ++generation)
        publish(generation);
    stop = true;
    reader.join();

    EXPECT_GT(reads, 0u);
    EXPECT_EQ(bad_reads, 0u) << "of " << reads << " reads; first: "
                             << first_error;
    EXPECT_EQ(strayFiles(dir.path(), "archive.bin"), 0u);
}

TEST(StatsTest, MeanAndStddev)
{
    EXPECT_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_EQ(stddev({5.0}), 0.0);
    EXPECT_NEAR(stddev({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}),
                2.138, 0.01);
}

TEST(StatsTest, PercentileInterpolates)
{
    std::vector<double> v{10, 20, 30, 40, 50};
    EXPECT_DOUBLE_EQ(percentile(v, 0), 10.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100), 50.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50), 30.0);
    EXPECT_DOUBLE_EQ(percentile(v, 25), 20.0);
    EXPECT_DOUBLE_EQ(percentile(v, 99), 49.6);
}

TEST(StatsTest, PercentileHandlesUnsortedInput)
{
    EXPECT_DOUBLE_EQ(percentile({50, 10, 30, 20, 40}, 50), 30.0);
}

TEST(StatsTest, PercentileRejectsBadP)
{
    EXPECT_THROW(percentile({1.0}, -1), FatalError);
    EXPECT_THROW(percentile({1.0}, 101), FatalError);
}

TEST(StatsTest, OnlineStatsTracksExtremes)
{
    OnlineStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    s.add(3.0);
    s.add(-1.0);
    s.add(4.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), -1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(StatsTest, HistogramBucketsAndOverflow)
{
    BucketHistogram hist({4096, 8192, 65536});
    hist.add(4096);        // bucket 0 (inclusive upper bound)
    hist.add(4097);        // bucket 1
    hist.add(100);         // bucket 0
    hist.add(1 << 20);     // overflow
    EXPECT_EQ(hist.totalCount(), 4u);
    EXPECT_EQ(hist.bucketCount(0), 2u);
    EXPECT_EQ(hist.bucketCount(1), 1u);
    EXPECT_EQ(hist.bucketCount(2), 0u);
    EXPECT_EQ(hist.bucketCount(3), 1u);
    EXPECT_DOUBLE_EQ(hist.fraction(0), 0.5);
}

TEST(StatsTest, HistogramRejectsUnsortedBounds)
{
    EXPECT_THROW(BucketHistogram({10, 5}), FatalError);
    EXPECT_THROW(BucketHistogram({}), FatalError);
}

TEST(TableTest, PrintsAlignedRows)
{
    TextTable table("title");
    table.setHeader({"name", "qps"});
    table.addRow({"milvus", "123.4"});
    std::ostringstream os;
    table.print(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("title"), std::string::npos);
    EXPECT_NE(text.find("milvus"), std::string::npos);
    EXPECT_NE(text.find("qps"), std::string::npos);
}

TEST(TableTest, RejectsArityMismatch)
{
    TextTable table;
    table.setHeader({"a", "b"});
    EXPECT_THROW(table.addRow({"only one"}), FatalError);
}

TEST(TableTest, WritesCsvWithQuoting)
{
    TextTable table;
    table.setHeader({"k", "v"});
    table.addRow({"x,y", "plain"});
    const std::string path = "table_test_out.csv";
    table.writeCsv(path);
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "k,v");
    std::getline(in, line);
    EXPECT_EQ(line, "\"x,y\",plain");
    std::remove(path.c_str());
}

TEST(TableTest, FormatHelpers)
{
    EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
    EXPECT_EQ(formatBytes(4096.0), "4.00 KiB");
    EXPECT_EQ(formatBytes(1.5 * 1024 * 1024 * 1024), "1.50 GiB");
}

TEST(EnvTest, FallbacksApply)
{
    EXPECT_EQ(envString("ANN_SURELY_UNSET_VAR", "dflt"), "dflt");
    EXPECT_EQ(envInt("ANN_SURELY_UNSET_VAR", 42), 42);
}

TEST(ArgsTest, ParsesOptionsFlagsAndPositionals)
{
    ArgParser args({"alpha", "beta"}, {"verbose"});
    const char *argv[] = {"prog", "--alpha", "3", "--beta=x",
                          "--verbose", "file.bin"};
    args.parse(6, argv);
    EXPECT_EQ(args.getInt("alpha", 0), 3);
    EXPECT_EQ(args.get("beta", ""), "x");
    EXPECT_TRUE(args.flag("verbose"));
    ASSERT_EQ(args.positional().size(), 1u);
    EXPECT_EQ(args.positional()[0], "file.bin");
    EXPECT_EQ(args.getInt("missing", 7), 7);
    EXPECT_FALSE(args.has("missing"));
}

TEST(ArgsTest, RejectsUnknownAndMalformed)
{
    {
        ArgParser args({"alpha"}, {});
        const char *argv[] = {"prog", "--bogus", "1"};
        EXPECT_THROW(args.parse(3, argv), FatalError);
    }
    {
        ArgParser args({"alpha"}, {});
        const char *argv[] = {"prog", "--alpha"};
        EXPECT_THROW(args.parse(2, argv), FatalError);
    }
    {
        ArgParser args({"alpha"}, {});
        const char *argv[] = {"prog", "--alpha", "notanint"};
        args.parse(3, argv);
        EXPECT_THROW(args.getInt("alpha", 0), FatalError);
    }
    {
        ArgParser args({}, {"verbose"});
        const char *argv[] = {"prog", "--verbose=1"};
        EXPECT_THROW(args.parse(2, argv), FatalError);
    }
}

TEST(LatencyHistogramTest, BucketsPartitionTheRange)
{
    // Every bucket's range must start right after the previous one.
    std::uint64_t expected_low = 0;
    for (std::size_t i = 0; i < LatencyHistogram::numBuckets(); ++i) {
        EXPECT_EQ(LatencyHistogram::bucketLow(i), expected_low)
            << "bucket " << i;
        EXPECT_GE(LatencyHistogram::bucketHigh(i),
                  LatencyHistogram::bucketLow(i));
        expected_low = LatencyHistogram::bucketHigh(i) + 1;
        if (expected_low == 0)
            break; // wrapped: covered the full uint64 range
    }
    // Spot-check that values map into the bucket that contains them.
    for (const std::uint64_t v :
         {0ULL, 1ULL, 31ULL, 32ULL, 33ULL, 1000ULL, 123456789ULL,
          (1ULL << 40) + 12345ULL, ~0ULL}) {
        const auto idx = LatencyHistogram::bucketIndex(v);
        ASSERT_LT(idx, LatencyHistogram::numBuckets());
        EXPECT_GE(v, LatencyHistogram::bucketLow(idx));
        EXPECT_LE(v, LatencyHistogram::bucketHigh(idx));
    }
}

TEST(LatencyHistogramTest, PercentilesWithinRelativeError)
{
    LatencyHistogram hist;
    for (std::uint64_t v = 1; v <= 100'000; ++v)
        hist.add(v);
    EXPECT_EQ(hist.count(), 100'000u);
    EXPECT_EQ(hist.minValue(), 1u);
    EXPECT_EQ(hist.maxValue(), 100'000u);
    EXPECT_NEAR(hist.mean(), 50'000.5, 1e-6);
    const double tol = 1.0 / (1 << LatencyHistogram::kSubBits);
    for (const double p : {50.0, 90.0, 99.0, 99.9}) {
        const double exact = p / 100.0 * 100'000.0;
        EXPECT_NEAR(hist.percentile(p), exact, exact * tol)
            << "p" << p;
    }
    EXPECT_EQ(hist.percentile(0.0), 1.0);
    EXPECT_EQ(hist.percentile(100.0), 100'000.0);
}

TEST(LatencyHistogramTest, MergeMatchesSingleHistogram)
{
    LatencyHistogram parts[4];
    LatencyHistogram whole;
    Rng rng(99);
    for (int i = 0; i < 40'000; ++i) {
        const auto v = rng.nextBelow(10'000'000);
        parts[i % 4].add(v);
        whole.add(v);
    }
    LatencyHistogram merged;
    for (const auto &part : parts)
        merged.merge(part);
    EXPECT_EQ(merged.count(), whole.count());
    EXPECT_EQ(merged.minValue(), whole.minValue());
    EXPECT_EQ(merged.maxValue(), whole.maxValue());
    EXPECT_DOUBLE_EQ(merged.mean(), whole.mean());
    for (const double p : {1.0, 50.0, 99.0, 99.9})
        EXPECT_DOUBLE_EQ(merged.percentile(p), whole.percentile(p));
}

TEST(LatencyHistogramTest, EmptyAndClear)
{
    LatencyHistogram hist;
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_EQ(hist.percentile(99.0), 0.0);
    EXPECT_EQ(hist.mean(), 0.0);
    hist.add(42);
    hist.clear();
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_EQ(hist.maxValue(), 0u);
}

TEST(LatencyHistogramTest, MergeWithEmptyIsIdentity)
{
    // The router's rolling hedge-delay estimate merges the previous
    // epoch into the current one; at startup either side may be empty
    // and the merge must be an exact identity, not a perturbation.
    LatencyHistogram filled;
    for (std::uint64_t v = 1; v <= 1000; ++v)
        filled.add(v * 7);
    const double p99_before = filled.percentile(99.0);

    LatencyHistogram empty;
    filled.merge(empty);
    EXPECT_EQ(filled.count(), 1000u);
    EXPECT_DOUBLE_EQ(filled.percentile(99.0), p99_before);

    empty.merge(filled);
    EXPECT_EQ(empty.count(), 1000u);
    EXPECT_EQ(empty.minValue(), filled.minValue());
    EXPECT_EQ(empty.maxValue(), filled.maxValue());
    EXPECT_DOUBLE_EQ(empty.percentile(99.0), p99_before);
}

TEST(LatencyHistogramTest, MergedTailDominatedByslowSource)
{
    // Hedging scenario: one epoch of fast replies (~100 us) merged
    // with a straggler epoch (~40 ms). The merged tail must surface
    // the stragglers while the median stays near the fast mode —
    // exactly what makes a P99-derived hedge delay meaningful.
    LatencyHistogram fast;
    for (int i = 0; i < 990; ++i)
        fast.add(100 + static_cast<std::uint64_t>(i) % 7);
    LatencyHistogram slow;
    for (int i = 0; i < 10; ++i)
        slow.add(40'000 + static_cast<std::uint64_t>(i));

    LatencyHistogram merged;
    merged.merge(fast);
    merged.merge(slow);
    EXPECT_EQ(merged.count(), 1000u);
    EXPECT_LT(merged.percentile(50.0), 200.0);
    EXPECT_GT(merged.percentile(99.5), 30'000.0);
    // Quantiles are monotone in p on the merged histogram.
    double prev = 0.0;
    for (const double p : {10.0, 50.0, 90.0, 99.0, 99.9}) {
        const double q = merged.percentile(p);
        EXPECT_GE(q, prev) << "p" << p;
        prev = q;
    }
    // Merge order is immaterial (element-wise bucket addition).
    LatencyHistogram reversed;
    reversed.merge(slow);
    reversed.merge(fast);
    for (const double p : {50.0, 99.0, 99.9})
        EXPECT_DOUBLE_EQ(reversed.percentile(p),
                         merged.percentile(p));
}

TEST(EnvTest, ParsesIntegers)
{
    ::setenv("ANN_TEST_INT_VAR", "17", 1);
    EXPECT_EQ(envInt("ANN_TEST_INT_VAR", 0), 17);
    ::setenv("ANN_TEST_INT_VAR", "junk", 1);
    EXPECT_EQ(envInt("ANN_TEST_INT_VAR", 5), 5);
    ::unsetenv("ANN_TEST_INT_VAR");
}

} // namespace
} // namespace ann
