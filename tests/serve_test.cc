/**
 * @file
 * Tests for the serving subsystem: wire-protocol robustness, the
 * loopback server (results, admission control, metrics, graceful
 * drain), and concurrent searches racing streaming mutations through
 * the engine gate (the TSan target).
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <thread>

#include "common/error.hh"
#include "common/rng.hh"
#include "distance/recall.hh"
#include "engine/milvus_like.hh"
#include "learn/policy.hh"
#include "serve/client.hh"
#include "serve/engine_gate.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "storage/io_backend.hh"
#include "test_util.hh"
#include "workload/generator.hh"

namespace ann {
namespace {

using engine::MilvusIndexKind;
using engine::MilvusLikeEngine;
using engine::SearchSettings;
using workload::Dataset;
using workload::GeneratorSpec;

// ------------------------------------------------------- protocol

TEST(ProtocolTest, ShortValidPrefixNeedsMore)
{
    std::vector<std::uint8_t> frame;
    serve::encodeMetricsRequest(&frame);
    serve::FrameHeader header;
    for (std::size_t len = 0; len < serve::kHeaderBytes; ++len)
        EXPECT_EQ(serve::decodeHeader(frame.data(), len, &header),
                  serve::DecodeResult::NeedMore)
            << "prefix length " << len;
    EXPECT_EQ(serve::decodeHeader(frame.data(), serve::kHeaderBytes,
                                  &header),
              serve::DecodeResult::Ok);
    EXPECT_EQ(header.type, serve::FrameType::MetricsRequest);
    EXPECT_EQ(header.payload_bytes, 0u);
}

TEST(ProtocolTest, BadMagicRejectedBeforeFullHeader)
{
    const std::uint8_t garbage[] = {'G', 'E', 'T', ' ', '/'};
    serve::FrameHeader header;
    // One wrong byte is enough — no waiting for 12 bytes.
    EXPECT_EQ(serve::decodeHeader(garbage, 1, &header),
              serve::DecodeResult::Malformed);
    EXPECT_EQ(serve::decodeHeader(garbage, sizeof(garbage), &header),
              serve::DecodeResult::Malformed);
}

TEST(ProtocolTest, HeaderFieldValidation)
{
    std::vector<std::uint8_t> frame;
    serve::encodeMetricsRequest(&frame);
    serve::FrameHeader header;

    auto mutated = frame;
    mutated[4] = 99; // unknown frame type
    EXPECT_EQ(serve::decodeHeader(mutated.data(), mutated.size(),
                                  &header),
              serve::DecodeResult::Malformed);

    mutated = frame;
    mutated[6] = 1; // reserved bits must be zero
    EXPECT_EQ(serve::decodeHeader(mutated.data(), mutated.size(),
                                  &header),
              serve::DecodeResult::Malformed);

    mutated = frame;
    mutated[8] = 0xFF; // oversized payload prefix
    mutated[9] = 0xFF;
    mutated[10] = 0xFF;
    mutated[11] = 0x7F;
    EXPECT_EQ(serve::decodeHeader(mutated.data(), mutated.size(),
                                  &header),
              serve::DecodeResult::Malformed);
}

TEST(ProtocolTest, SearchRequestRoundTrip)
{
    serve::SearchRequest request;
    request.request_id = 0x0123456789ABCDEFull;
    request.settings.k = 7;
    request.settings.nprobe = 3;
    request.settings.ef_search = 41;
    request.settings.search_list = 23;
    request.settings.beam_width = 5;
    request.query = {1.5f, -2.25f, 0.0f, 3.0f};

    std::vector<std::uint8_t> frame;
    serve::encodeSearchRequest(request, &frame);
    serve::FrameHeader header;
    ASSERT_EQ(serve::decodeHeader(frame.data(), frame.size(), &header),
              serve::DecodeResult::Ok);
    ASSERT_EQ(header.type, serve::FrameType::SearchRequest);
    ASSERT_EQ(frame.size(), serve::kHeaderBytes + header.payload_bytes);

    serve::SearchRequest decoded;
    ASSERT_EQ(serve::decodeSearchRequest(
                  frame.data() + serve::kHeaderBytes,
                  header.payload_bytes, &decoded),
              serve::DecodeResult::Ok);
    EXPECT_EQ(decoded.request_id, request.request_id);
    EXPECT_EQ(decoded.settings.k, request.settings.k);
    EXPECT_EQ(decoded.settings.nprobe, request.settings.nprobe);
    EXPECT_EQ(decoded.settings.ef_search, request.settings.ef_search);
    EXPECT_EQ(decoded.settings.search_list,
              request.settings.search_list);
    EXPECT_EQ(decoded.settings.beam_width,
              request.settings.beam_width);
    EXPECT_EQ(decoded.query, request.query);
}

TEST(ProtocolTest, SearchRequestLengthMismatchIsMalformed)
{
    serve::SearchRequest request;
    request.query = {1.0f, 2.0f};
    std::vector<std::uint8_t> frame;
    serve::encodeSearchRequest(request, &frame);
    const std::uint8_t *payload = frame.data() + serve::kHeaderBytes;
    const std::size_t len = frame.size() - serve::kHeaderBytes;

    serve::SearchRequest decoded;
    // Truncated payload (the last float is cut short).
    EXPECT_EQ(serve::decodeSearchRequest(payload, len - 1, &decoded),
              serve::DecodeResult::Malformed);
    // Empty payload.
    EXPECT_EQ(serve::decodeSearchRequest(payload, 0, &decoded),
              serve::DecodeResult::Malformed);
    // Trailing bytes beyond the declared vector.
    auto padded = frame;
    padded.push_back(0);
    EXPECT_EQ(serve::decodeSearchRequest(
                  padded.data() + serve::kHeaderBytes, len + 1,
                  &decoded),
              serve::DecodeResult::Malformed);
    // dim field claiming more floats than the payload carries.
    auto lying = frame;
    lying[serve::kHeaderBytes + 28] = 0xFF; // dim is at payload+28
    EXPECT_EQ(serve::decodeSearchRequest(
                  lying.data() + serve::kHeaderBytes, len, &decoded),
              serve::DecodeResult::Malformed);
}

TEST(ProtocolTest, SearchResponseRoundTripAndValidation)
{
    serve::SearchResponse response;
    response.request_id = 42;
    response.status = serve::Status::Overloaded;
    response.queue_ns = 1234;
    response.exec_ns = 5678;
    response.results = {{3, 0.5f}, {9, 1.25f}};

    std::vector<std::uint8_t> frame;
    serve::encodeSearchResponse(response, &frame);
    serve::FrameHeader header;
    ASSERT_EQ(serve::decodeHeader(frame.data(), frame.size(), &header),
              serve::DecodeResult::Ok);
    serve::SearchResponse decoded;
    ASSERT_EQ(serve::decodeSearchResponse(
                  frame.data() + serve::kHeaderBytes,
                  header.payload_bytes, &decoded),
              serve::DecodeResult::Ok);
    EXPECT_EQ(decoded.request_id, 42u);
    EXPECT_EQ(decoded.status, serve::Status::Overloaded);
    EXPECT_EQ(decoded.queue_ns, 1234u);
    EXPECT_EQ(decoded.exec_ns, 5678u);
    ASSERT_EQ(decoded.results.size(), 2u);
    EXPECT_EQ(decoded.results[1].id, 9u);
    EXPECT_FLOAT_EQ(decoded.results[1].distance, 1.25f);

    // An out-of-range status value must not decode.
    auto bad = frame;
    bad[serve::kHeaderBytes + 8] = 0x77;
    EXPECT_EQ(serve::decodeSearchResponse(
                  bad.data() + serve::kHeaderBytes,
                  header.payload_bytes, &decoded),
              serve::DecodeResult::Malformed);
}

TEST(ProtocolTest, MetricsRoundTrip)
{
    serve::MetricsSnapshot snapshot;
    snapshot.uptime_ns = 1;
    snapshot.received = 100;
    snapshot.completed = 90;
    snapshot.shed = 10;
    snapshot.qps = 123.5;
    snapshot.p999_us = 42.25;
    snapshot.cache_deduped = 7;
    snapshot.eff_queue_depth = 3.75;

    std::vector<std::uint8_t> frame;
    serve::encodeMetricsResponse(snapshot, &frame);
    serve::FrameHeader header;
    ASSERT_EQ(serve::decodeHeader(frame.data(), frame.size(), &header),
              serve::DecodeResult::Ok);
    serve::MetricsSnapshot decoded;
    ASSERT_EQ(serve::decodeMetricsResponse(
                  frame.data() + serve::kHeaderBytes,
                  header.payload_bytes, &decoded),
              serve::DecodeResult::Ok);
    EXPECT_EQ(decoded.received, 100u);
    EXPECT_EQ(decoded.completed, 90u);
    EXPECT_EQ(decoded.shed, 10u);
    EXPECT_DOUBLE_EQ(decoded.qps, 123.5);
    EXPECT_DOUBLE_EQ(decoded.p999_us, 42.25);
    EXPECT_EQ(decoded.cache_deduped, 7u);
    EXPECT_DOUBLE_EQ(decoded.eff_queue_depth, 3.75);
}

// -------------------------------------------------- protocol fuzzing

/**
 * Run every payload decoder on @p payload. Each must answer Ok or
 * Malformed (never NeedMore: a payload is complete by contract), and
 * a payload that decodes Ok must re-encode to exactly its bytes.
 * @return what went wrong, empty when nothing did.
 */
std::string
payloadProblem(const std::vector<std::uint8_t> &payload)
{
    std::string problem;
    const auto check = [&](auto decoded, auto decode, auto encode,
                           const char *name) {
        switch (decode(payload.data(), payload.size(), &decoded)) {
          case serve::DecodeResult::NeedMore:
            problem = std::string(name) + " asked for more bytes";
            break;
          case serve::DecodeResult::Ok: {
            std::vector<std::uint8_t> frame;
            encode(decoded, &frame);
            if (frame.size() != serve::kHeaderBytes + payload.size() ||
                !std::equal(payload.begin(), payload.end(),
                            frame.begin() + serve::kHeaderBytes))
                problem = std::string(name) +
                          " payload does not re-encode to its bytes";
            break;
          }
          case serve::DecodeResult::Malformed:
            break;
        }
    };
    check(serve::SearchRequest{}, serve::decodeSearchRequest,
          serve::encodeSearchRequest, "decodeSearchRequest");
    check(serve::SearchResponse{}, serve::decodeSearchResponse,
          serve::encodeSearchResponse, "decodeSearchResponse");
    check(serve::MetricsSnapshot{}, serve::decodeMetricsResponse,
          serve::encodeMetricsResponse, "decodeMetricsResponse");
    return problem;
}

/**
 * Decode @p bytes (exactly sized, so a sanitizer sees any over-read)
 * as a peer would: the header, then every payload decoder on all the
 * bytes after it and on the header's payload_bytes of them.
 * @return what went wrong, empty when nothing did.
 */
std::string
decodeProblem(const std::vector<std::uint8_t> &bytes)
{
    serve::FrameHeader header;
    const serve::DecodeResult head =
        serve::decodeHeader(bytes.data(), bytes.size(), &header);
    if (bytes.size() < serve::kHeaderBytes)
        return head == serve::DecodeResult::Ok ? "short header is Ok"
                                               : "";
    if (head == serve::DecodeResult::NeedMore)
        return "full header asked for more bytes";
    if (head == serve::DecodeResult::Ok) {
        const auto type = static_cast<std::uint16_t>(header.type);
        const std::uint8_t again[serve::kHeaderBytes] = {
            static_cast<std::uint8_t>(serve::kMagic),
            static_cast<std::uint8_t>(serve::kMagic >> 8),
            static_cast<std::uint8_t>(serve::kMagic >> 16),
            static_cast<std::uint8_t>(serve::kMagic >> 24),
            static_cast<std::uint8_t>(type),
            static_cast<std::uint8_t>(type >> 8), 0, 0,
            static_cast<std::uint8_t>(header.payload_bytes),
            static_cast<std::uint8_t>(header.payload_bytes >> 8),
            static_cast<std::uint8_t>(header.payload_bytes >> 16),
            static_cast<std::uint8_t>(header.payload_bytes >> 24)};
        if (!std::equal(std::begin(again), std::end(again),
                        bytes.begin()))
            return "header does not re-encode to its bytes";
    }
    const std::vector<std::uint8_t> rest(
        bytes.begin() + serve::kHeaderBytes, bytes.end());
    std::string problem = payloadProblem(rest);
    if (problem.empty() && head == serve::DecodeResult::Ok &&
        header.payload_bytes < rest.size())
        problem = payloadProblem(std::vector<std::uint8_t>(
            rest.begin(), rest.begin() + header.payload_bytes));
    return problem;
}

/** A little-endian u32 field of a frame and the bound its decoder
 *  enforces. */
struct FuzzField
{
    std::size_t at;
    std::uint32_t bound;
};

/**
 * Seeded mutations of a valid @p frame: a random bit flipped at every
 * byte, truncation at every length, 1-16 appended random bytes, and
 * each of @p fields (plus the header's payload_bytes) set to 0, its
 * bound, bound +/- 1 and random values. Every mutant must decode
 * without a problem (see decodeProblem()).
 */
void
fuzzFrame(const std::vector<std::uint8_t> &frame,
          std::vector<FuzzField> fields, std::uint64_t seed)
{
    ASSERT_EQ(decodeProblem(frame), "") << "unmutated frame";
    Rng rng(seed);
    std::vector<std::uint8_t> bytes = frame;
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        const auto bit = static_cast<std::uint8_t>(1u << rng.nextBelow(8));
        bytes[i] ^= bit;
        ASSERT_EQ(decodeProblem(bytes), "") << "bit flip at byte " << i;
        bytes[i] ^= bit;
    }
    for (std::size_t len = 0; len < frame.size(); ++len)
        ASSERT_EQ(decodeProblem(std::vector<std::uint8_t>(
                      frame.begin(),
                      frame.begin() + static_cast<std::ptrdiff_t>(len))),
                  "")
            << "truncated to " << len << " bytes";
    for (int extra = 1; extra <= 16; ++extra) {
        bytes.push_back(static_cast<std::uint8_t>(rng.next()));
        ASSERT_EQ(decodeProblem(bytes), "")
            << extra << " bytes appended";
    }
    fields.push_back({8, serve::kMaxPayloadBytes});
    for (const FuzzField &field : fields) {
        std::vector<std::uint32_t> values = {0, field.bound - 1,
                                             field.bound,
                                             field.bound + 1};
        for (int r = 0; r < 8; ++r)
            values.push_back(static_cast<std::uint32_t>(rng.next()));
        for (const std::uint32_t value : values) {
            bytes = frame;
            for (std::size_t b = 0; b < 4; ++b)
                bytes[field.at + b] =
                    static_cast<std::uint8_t>(value >> (8 * b));
            ASSERT_EQ(decodeProblem(bytes), "")
                << "field at byte " << field.at << " set to " << value;
        }
    }
}

/** Frame offsets (header included) of the fuzzed count fields. */
constexpr std::size_t kRequestKAt = serve::kHeaderBytes + 8;
constexpr std::size_t kRequestDimAt = serve::kHeaderBytes + 28;
constexpr std::size_t kResponseStatusAt = serve::kHeaderBytes + 8;
constexpr std::size_t kResponseCountAt = serve::kHeaderBytes + 28;
constexpr std::size_t kMetricsModelLenAt = serve::kHeaderBytes + 22 * 8;

TEST(ProtocolFuzzTest, SearchRequestMutantsDecodeSafely)
{
    Rng rng(101);
    serve::SearchRequest small;
    small.request_id = 1;
    small.settings.k = 1; // and an empty query
    serve::SearchRequest large;
    large.request_id = rng.next();
    large.settings.k = serve::kMaxK;
    large.settings.nprobe = 17;
    large.settings.ef_search = 300;
    large.settings.search_list = 90;
    large.settings.beam_width = 8;
    for (int d = 0; d < 128; ++d)
        large.query.push_back(rng.nextFloat(-4.0f, 4.0f));
    std::uint64_t seed = 11;
    for (const serve::SearchRequest *request : {&small, &large}) {
        SCOPED_TRACE("dim " + std::to_string(request->query.size()));
        std::vector<std::uint8_t> frame;
        serve::encodeSearchRequest(*request, &frame);
        fuzzFrame(frame,
                  {{kRequestKAt, serve::kMaxK},
                   {kRequestDimAt, serve::kMaxDim}},
                  seed++);
    }
}

TEST(ProtocolFuzzTest, SearchResponseMutantsDecodeSafely)
{
    Rng rng(102);
    serve::SearchResponse empty;
    empty.request_id = 7;
    empty.status = serve::Status::ShuttingDown;
    serve::SearchResponse full;
    full.request_id = rng.next();
    full.queue_ns = 12345;
    full.exec_ns = 67890;
    for (VectorId id = 0; id < 100; ++id)
        full.results.push_back(
            {static_cast<VectorId>(rng.next()), rng.nextFloat(0, 9)});
    std::uint64_t seed = 21;
    for (const serve::SearchResponse *response : {&empty, &full}) {
        SCOPED_TRACE(std::to_string(response->results.size()) +
                     " results");
        std::vector<std::uint8_t> frame;
        serve::encodeSearchResponse(*response, &frame);
        fuzzFrame(frame,
                  {{kResponseStatusAt,
                    static_cast<std::uint32_t>(
                        serve::Status::BadRequest)},
                   {kResponseCountAt, serve::kMaxK}},
                  seed++);
    }
}

TEST(ProtocolFuzzTest, MetricsResponseMutantsDecodeSafely)
{
    serve::MetricsSnapshot bare;
    serve::MetricsSnapshot busy;
    busy.received = 100;
    busy.completed = 90;
    busy.qps = 1234.5;
    busy.p999_us = 42.25;
    busy.learned_model =
        std::string(serve::kMaxModelPathBytes, 'm');
    std::uint64_t seed = 31;
    for (const serve::MetricsSnapshot *snapshot : {&bare, &busy}) {
        SCOPED_TRACE("model path of " +
                     std::to_string(snapshot->learned_model.size()) +
                     " bytes");
        std::vector<std::uint8_t> frame;
        serve::encodeMetricsResponse(*snapshot, &frame);
        fuzzFrame(frame,
                  {{kMetricsModelLenAt, serve::kMaxModelPathBytes}},
                  seed++);
    }
}

TEST(ProtocolFuzzTest, HeaderOnlyMutantsDecodeSafely)
{
    std::vector<std::uint8_t> frame;
    serve::encodeMetricsRequest(&frame);
    fuzzFrame(frame, {}, 41);
    frame.clear();
    serve::encodeShutdownAck(&frame);
    fuzzFrame(frame, {}, 42);
}

// ------------------------------------------------------- loopback

/** Small shared dataset + prepared engine for the loopback tests. */
class ServeFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        cacheDir_ = new testutil::TempDir("serve_test_cache");
        GeneratorSpec spec;
        spec.name = "serve-test";
        spec.rows = 4000;
        spec.dim = 16;
        spec.num_queries = 50;
        spec.clusters = 12;
        spec.gt_k = 10;
        spec.seed = 11;
        data_ = new Dataset(generateDataset(spec));
        engine_ = new MilvusLikeEngine(MilvusIndexKind::Hnsw);
        engine_->prepare(*data_, cacheDir_->path());
    }

    static void
    TearDownTestSuite()
    {
        delete engine_;
        delete data_;
        delete cacheDir_;
        engine_ = nullptr;
        data_ = nullptr;
        cacheDir_ = nullptr;
    }

    serve::ServerConfig
    baseConfig() const
    {
        serve::ServerConfig config;
        config.port = 0; // ephemeral
        config.expected_dim = data_->dim;
        config.exec_threads = 2;
        return config;
    }

    SearchSettings
    settings() const
    {
        SearchSettings s;
        s.k = 10;
        s.ef_search = 50;
        return s;
    }

    /** Raw (non-protocol) TCP connection for robustness tests. */
    static int
    rawConnect(std::uint16_t port)
    {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        EXPECT_GE(fd, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        EXPECT_EQ(::connect(fd,
                            reinterpret_cast<const sockaddr *>(&addr),
                            sizeof(addr)),
                  0);
        return fd;
    }

    /** @return true when the server closed the connection. */
    static bool
    peerClosed(int fd)
    {
        std::uint8_t byte;
        const ssize_t r = ::recv(fd, &byte, 1, 0);
        return r == 0;
    }

    static Dataset *data_;
    static MilvusLikeEngine *engine_;
    static testutil::TempDir *cacheDir_;
};

Dataset *ServeFixture::data_ = nullptr;
MilvusLikeEngine *ServeFixture::engine_ = nullptr;
testutil::TempDir *ServeFixture::cacheDir_ = nullptr;

TEST_F(ServeFixture, SearchMatchesInProcessResults)
{
    serve::AnnServer server(*engine_, baseConfig());
    server.start();
    serve::AnnClient client;
    client.connect("127.0.0.1", server.port());

    double remote_recall = 0.0;
    double local_recall = 0.0;
    for (std::size_t q = 0; q < 20; ++q) {
        const auto response =
            client.search(data_->query(q), data_->dim, settings(), q);
        ASSERT_EQ(response.status, serve::Status::Ok);
        const SearchResult local =
            engine_->searchLive(data_->query(q), settings());
        ASSERT_EQ(response.results.size(), local.size());
        for (std::size_t i = 0; i < local.size(); ++i) {
            EXPECT_EQ(response.results[i].id, local[i].id);
            EXPECT_FLOAT_EQ(response.results[i].distance,
                            local[i].distance);
        }
        remote_recall += recallAtK(data_->ground_truth[q],
                                   response.results, settings().k);
        local_recall +=
            recallAtK(data_->ground_truth[q], local, settings().k);
        EXPECT_GT(response.exec_ns, 0u);
    }
    // The network layer must be recall-neutral by construction.
    EXPECT_DOUBLE_EQ(remote_recall, local_recall);
    EXPECT_GT(remote_recall / 20.0, 0.85);
}

TEST_F(ServeFixture, PipelinedRequestsMatchByRequestId)
{
    serve::AnnServer server(*engine_, baseConfig());
    server.start();
    serve::AnnClient client;
    client.connect("127.0.0.1", server.port());

    constexpr std::uint64_t kCount = 24;
    for (std::uint64_t id = 0; id < kCount; ++id)
        client.sendSearch(data_->query(id % data_->num_queries),
                          data_->dim, settings(), id);
    std::vector<bool> seen(kCount, false);
    for (std::uint64_t i = 0; i < kCount; ++i) {
        const auto response = client.recvSearchResponse();
        ASSERT_EQ(response.status, serve::Status::Ok);
        ASSERT_LT(response.request_id, kCount);
        EXPECT_FALSE(seen[response.request_id]);
        seen[response.request_id] = true;
    }
}

TEST_F(ServeFixture, MalformedSearchSettingsGetBadRequest)
{
    serve::AnnServer server(*engine_, baseConfig());
    server.start();
    serve::AnnClient client;
    client.connect("127.0.0.1", server.port());

    // Wrong dimensionality (the server expects data_->dim).
    std::vector<float> short_query(8, 0.0f);
    auto response =
        client.search(short_query.data(), short_query.size(),
                      settings(), 1);
    EXPECT_EQ(response.status, serve::Status::BadRequest);
    EXPECT_TRUE(response.results.empty());

    // k = 0 is semantically invalid.
    SearchSettings zero_k = settings();
    zero_k.k = 0;
    response = client.search(data_->query(0), data_->dim, zero_k, 2);
    EXPECT_EQ(response.status, serve::Status::BadRequest);

    // The connection survives bad requests.
    response = client.search(data_->query(0), data_->dim, settings(), 3);
    EXPECT_EQ(response.status, serve::Status::Ok);
}

TEST_F(ServeFixture, AdmissionControlShedsBeyondQueueLimit)
{
    serve::ServerConfig config = baseConfig();
    config.queue_limit = 2;
    config.max_batch = 1;
    serve::AnnServer server(*engine_, config);
    server.start();

    // Hold the engine gate exclusively so the batch worker blocks on
    // its first request and the queue stays full behind it.
    std::mutex m;
    std::condition_variable cv;
    bool release = false;
    std::atomic<bool> holding{false};
    std::thread holder([&] {
        server.gate().mutate([&](engine::VectorDbEngine &) {
            holding.store(true);
            std::unique_lock<std::mutex> lock(m);
            cv.wait(lock, [&] { return release; });
        });
    });
    while (!holding.load())
        std::this_thread::yield();

    serve::AnnClient client;
    client.connect("127.0.0.1", server.port());
    constexpr std::uint64_t kCount = 40;
    for (std::uint64_t id = 0; id < kCount; ++id)
        client.sendSearch(data_->query(id % data_->num_queries),
                          data_->dim, settings(), id);

    // Wait until every request reached admission control, then let
    // the blocked batch run.
    while (server.metrics().received < kCount)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    {
        std::lock_guard<std::mutex> lock(m);
        release = true;
    }
    cv.notify_all();
    holder.join();

    std::uint64_t ok = 0;
    std::uint64_t overloaded = 0;
    for (std::uint64_t i = 0; i < kCount; ++i) {
        const auto response = client.recvSearchResponse();
        if (response.status == serve::Status::Ok)
            ok++;
        else if (response.status == serve::Status::Overloaded)
            overloaded++;
    }
    EXPECT_EQ(ok + overloaded, kCount);
    EXPECT_GE(overloaded, 1u);
    // queue_limit admitted + the one the worker already held.
    EXPECT_LE(ok, config.queue_limit + config.max_batch);

    const auto m2 = server.metrics();
    EXPECT_EQ(m2.shed, overloaded);
    EXPECT_EQ(m2.completed, ok);
    EXPECT_EQ(m2.received, kCount);
}

TEST_F(ServeFixture, GarbageBytesCloseOnlyThatConnection)
{
    serve::AnnServer server(*engine_, baseConfig());
    server.start();

    const int fd = rawConnect(server.port());
    const char garbage[] = "GET / HTTP/1.1\r\n\r\n";
    ASSERT_GT(::send(fd, garbage, sizeof(garbage) - 1, 0), 0);
    EXPECT_TRUE(peerClosed(fd));
    ::close(fd);

    // The server keeps serving protocol-speaking clients.
    serve::AnnClient client;
    client.connect("127.0.0.1", server.port());
    const auto response =
        client.search(data_->query(0), data_->dim, settings(), 1);
    EXPECT_EQ(response.status, serve::Status::Ok);
    EXPECT_GE(server.metrics().protocol_errors, 1u);
}

TEST_F(ServeFixture, OversizedLengthPrefixClosesConnection)
{
    serve::AnnServer server(*engine_, baseConfig());
    server.start();

    const int fd = rawConnect(server.port());
    // Valid magic + type, payload_bytes far beyond kMaxPayloadBytes.
    std::uint8_t header[serve::kHeaderBytes] = {
        'A', 'N', 'N', '1', 1, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0x7F};
    ASSERT_EQ(::send(fd, header, sizeof(header), 0),
              static_cast<ssize_t>(sizeof(header)));
    EXPECT_TRUE(peerClosed(fd));
    ::close(fd);
    EXPECT_GE(server.metrics().protocol_errors, 1u);
}

TEST_F(ServeFixture, MidRequestDisconnectLeavesServerHealthy)
{
    serve::AnnServer server(*engine_, baseConfig());
    server.start();

    // A header promising 120 payload bytes, then 10 bytes, then gone.
    {
        const int fd = rawConnect(server.port());
        std::uint8_t header[serve::kHeaderBytes] = {
            'A', 'N', 'N', '1', 1, 0, 0, 0, 120, 0, 0, 0};
        ASSERT_EQ(::send(fd, header, sizeof(header), 0),
                  static_cast<ssize_t>(sizeof(header)));
        const std::uint8_t partial[10] = {};
        ASSERT_EQ(::send(fd, partial, sizeof(partial), 0),
                  static_cast<ssize_t>(sizeof(partial)));
        ::close(fd);
    }
    // A partial header, then gone.
    {
        const int fd = rawConnect(server.port());
        ASSERT_EQ(::send(fd, "ANN", 3, 0), 3);
        ::close(fd);
    }

    serve::AnnClient client;
    client.connect("127.0.0.1", server.port());
    for (std::uint64_t id = 0; id < 5; ++id) {
        const auto response =
            client.search(data_->query(id), data_->dim, settings(), id);
        EXPECT_EQ(response.status, serve::Status::Ok);
    }
}

TEST_F(ServeFixture, MetricsEndpointCountsTraffic)
{
    serve::AnnServer server(*engine_, baseConfig());
    server.start();
    serve::AnnClient client;
    client.connect("127.0.0.1", server.port());

    constexpr std::uint64_t kCount = 12;
    for (std::uint64_t id = 0; id < kCount; ++id)
        ASSERT_EQ(client
                      .search(data_->query(id % data_->num_queries),
                              data_->dim, settings(), id)
                      .status,
                  serve::Status::Ok);

    const auto snapshot = client.metrics();
    EXPECT_EQ(snapshot.received, kCount);
    EXPECT_EQ(snapshot.completed, kCount);
    EXPECT_EQ(snapshot.shed, 0u);
    EXPECT_EQ(snapshot.open_connections, 1u);
    EXPECT_GE(snapshot.batches, 1u);
    EXPECT_GT(snapshot.p50_us, 0.0);
    EXPECT_GE(snapshot.p999_us, snapshot.p50_us);
    EXPECT_GT(snapshot.qps, 0.0);
}

TEST_F(ServeFixture, GracefulDrainAnswersQueuedWork)
{
    serve::ServerConfig config = baseConfig();
    config.max_batch = 1;
    serve::AnnServer server(*engine_, config);
    server.start();

    // Block the worker mid-batch, queue more work, then stop: the
    // drain must answer everything already admitted.
    std::mutex m;
    std::condition_variable cv;
    bool release = false;
    std::atomic<bool> holding{false};
    std::thread holder([&] {
        server.gate().mutate([&](engine::VectorDbEngine &) {
            holding.store(true);
            std::unique_lock<std::mutex> lock(m);
            cv.wait(lock, [&] { return release; });
        });
    });
    while (!holding.load())
        std::this_thread::yield();

    serve::AnnClient client;
    client.connect("127.0.0.1", server.port());
    constexpr std::uint64_t kCount = 3;
    for (std::uint64_t id = 0; id < kCount; ++id)
        client.sendSearch(data_->query(id), data_->dim, settings(), id);
    while (server.metrics().received < kCount)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    server.requestStop();
    {
        std::lock_guard<std::mutex> lock(m);
        release = true;
    }
    cv.notify_all();
    holder.join();

    std::uint64_t ok = 0;
    for (std::uint64_t i = 0; i < kCount; ++i) {
        const auto response = client.recvSearchResponse();
        if (response.status == serve::Status::Ok)
            ok++;
    }
    EXPECT_EQ(ok, kCount);

    server.waitStopped();
    EXPECT_FALSE(server.running());
    // The listen socket is gone: new connections must fail.
    serve::AnnClient late;
    EXPECT_THROW(late.connect("127.0.0.1", server.port()), FatalError);
}

/**
 * A drain must not close a connection while the last batch's responses
 * are on their way to the outbox. That window is a few instructions
 * wide, so repeat: stop each server once every pipelined request is
 * in while its batches execute, with a metrics poller waking the I/O
 * thread into its drain check over and over; every request must then
 * be answered (Ok when admitted) before its connection closes.
 */
TEST_F(ServeFixture, RepeatedDrainsAnswerEveryRequest)
{
    constexpr int kRounds = 50;
    constexpr std::size_t kConns = 4;
    constexpr std::uint64_t kBurst = 8;
    for (int round = 0; round < kRounds; ++round) {
        serve::ServerConfig config = baseConfig();
        config.max_batch = 2;
        config.queue_limit = kConns * kBurst;
        serve::AnnServer server(*engine_, config);
        server.start();
        std::vector<serve::AnnClient> clients(kConns);
        for (std::size_t c = 0; c < kConns; ++c) {
            clients[c].connect("127.0.0.1", server.port());
            for (std::uint64_t id = 0; id < kBurst; ++id)
                clients[c].sendSearch(
                    data_->query((c * kBurst + id) % data_->num_queries),
                    data_->dim, settings(), id);
        }
        while (server.metrics().received < kConns * kBurst)
            std::this_thread::yield();
        serve::AnnClient poller;
        poller.connect("127.0.0.1", server.port());
        std::thread poke([&poller] {
            try {
                for (;;)
                    poller.metrics();
            } catch (const FatalError &) {
                // The drain finished and closed the connection.
            }
        });
        server.requestStop();

        std::size_t answered = 0;
        std::size_t ok = 0;
        for (serve::AnnClient &client : clients) {
            try {
                for (std::uint64_t i = 0; i < kBurst; ++i) {
                    const serve::SearchResponse response =
                        client.recvSearchResponse();
                    ++answered;
                    // A request the stop overtook on its way to
                    // admission is answered ShuttingDown; every
                    // admitted one is Ok.
                    EXPECT_TRUE(response.status == serve::Status::Ok ||
                                response.status ==
                                    serve::Status::ShuttingDown)
                        << "round " << round << ": "
                        << serve::statusName(response.status);
                    ok += response.status == serve::Status::Ok;
                }
            } catch (const FatalError &) {
                // Closed early: counted as unanswered below.
            }
        }
        server.waitStopped();
        poke.join();
        ASSERT_EQ(answered, kConns * kBurst)
            << "round " << round
            << ": a connection closed with requests unanswered";
        EXPECT_EQ(ok, server.metrics().completed) << "round " << round;
    }
}

TEST_F(ServeFixture, ShutdownRequestFrameDrainsServer)
{
    serve::AnnServer server(*engine_, baseConfig());
    server.start();
    serve::AnnClient client;
    client.connect("127.0.0.1", server.port());
    ASSERT_EQ(client.search(data_->query(0), data_->dim, settings(), 1)
                  .status,
              serve::Status::Ok);
    client.shutdownServer(); // waits for the ack
    server.waitStopped();
    EXPECT_FALSE(server.running());
}

TEST_F(ServeFixture, IdOffsetShiftsResultsIntoGlobalSpace)
{
    // A shard process serving rows [base, base+n) reports neighbour
    // ids offset by base so the router's merged top-k lives in the
    // global id space.
    serve::ServerConfig config = baseConfig();
    config.id_offset = 100'000;
    serve::AnnServer server(*engine_, config);
    server.start();
    serve::AnnClient client;
    client.connect("127.0.0.1", server.port());

    for (std::size_t q = 0; q < 5; ++q) {
        const auto response =
            client.search(data_->query(q), data_->dim, settings(), q);
        ASSERT_EQ(response.status, serve::Status::Ok);
        const SearchResult local =
            engine_->searchLive(data_->query(q), settings());
        ASSERT_EQ(response.results.size(), local.size());
        for (std::size_t i = 0; i < local.size(); ++i) {
            EXPECT_EQ(response.results[i].id, local[i].id + 100'000u);
            EXPECT_FLOAT_EQ(response.results[i].distance,
                            local[i].distance);
        }
    }
}

TEST_F(ServeFixture, MetricsEchoLearnedPolicyState)
{
    serve::AnnServer server(*engine_, baseConfig());
    server.start();
    serve::AnnClient client;
    client.connect("127.0.0.1", server.port());

    // Toggles without an active model echo as off: the policies only
    // engage when a model is loaded, and the echo must match what the
    // search path actually does.
    learn::setActiveModel(nullptr);
    learn::setActiveModelPath("");
    learn::setLearnedEntryEnabled(true);
    learn::setEarlyStopEnabled(true);
    auto snapshot = client.metrics();
    EXPECT_EQ(snapshot.learned_entry, 0u);
    EXPECT_EQ(snapshot.learned_early_stop, 0u);
    EXPECT_TRUE(snapshot.learned_model.empty());

    // With a model active the toggles and its path round-trip through
    // the metrics wire frame.
    learn::setActiveModel(std::make_shared<learn::Model>());
    learn::setActiveModelPath("/models/hop-mlp.bin");
    snapshot = client.metrics();
    EXPECT_EQ(snapshot.learned_entry, 1u);
    EXPECT_EQ(snapshot.learned_early_stop, 1u);
    EXPECT_EQ(snapshot.learned_model, "/models/hop-mlp.bin");

    learn::setLearnedEntryEnabled(false);
    snapshot = client.metrics();
    EXPECT_EQ(snapshot.learned_entry, 0u);
    EXPECT_EQ(snapshot.learned_early_stop, 1u);

    learn::setEarlyStopEnabled(false);
    learn::setActiveModel(nullptr);
    learn::setActiveModelPath("");
}

TEST_F(ServeFixture, ConnectRetryWaitsOutStartupRace)
{
    // Immediate success: an established listener costs no retries.
    serve::AnnServer server(*engine_, baseConfig());
    server.start();
    {
        serve::AnnClient client;
        serve::ConnectRetry retry;
        retry.max_wait_ms = 1000;
        std::uint64_t retries = 77;
        client.connect("127.0.0.1", server.port(), retry, &retries);
        EXPECT_TRUE(client.connected());
        EXPECT_EQ(retries, 0u);
    }

    // Reserve a port nothing listens on, then connect with a small
    // budget: the dial must fail with FatalError after >= 1 refused
    // attempt (the retry counter survives the throw).
    std::uint16_t idle_port = 0;
    {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
                         sizeof(addr)),
                  0);
        socklen_t len = sizeof(addr);
        ASSERT_EQ(::getsockname(
                      fd, reinterpret_cast<sockaddr *>(&addr), &len),
                  0);
        idle_port = ntohs(addr.sin_port);
        ::close(fd); // bound but never listening -> ECONNREFUSED
    }
    {
        serve::AnnClient client;
        serve::ConnectRetry retry;
        retry.max_wait_ms = 50;
        std::uint64_t retries = 0;
        EXPECT_THROW(client.connect("127.0.0.1", idle_port, retry,
                                    &retries),
                     FatalError);
        EXPECT_GE(retries, 1u);
    }

    // Startup race: the listener appears ~100 ms after the client
    // starts dialing; the retry loop must absorb the gap.
    serve::ServerConfig late_config = baseConfig();
    late_config.port = idle_port;
    serve::AnnServer late_server(*engine_, late_config);
    std::thread starter([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        late_server.start();
    });
    serve::AnnClient client;
    serve::ConnectRetry retry;
    retry.max_wait_ms = 5000;
    std::uint64_t retries = 0;
    client.connect("127.0.0.1", idle_port, retry, &retries);
    starter.join();
    EXPECT_TRUE(client.connected());
    EXPECT_GE(retries, 1u);
    const auto response =
        client.search(data_->query(0), data_->dim, settings(), 1);
    EXPECT_EQ(response.status, serve::Status::Ok);
}

// ---------------------------------------- mutation / search races

TEST_F(ServeFixture, ConcurrentSearchesRaceStreamingMutations)
{
    // Fresh engine: liveAdd/liveMarkDeleted change its contents.
    MilvusLikeEngine engine(MilvusIndexKind::Hnsw);
    engine.prepare(*data_, cacheDir_->path());
    serve::EngineGate gate(engine);

    constexpr std::size_t kSearchers = 4;
    constexpr std::size_t kSearches = 150;
    constexpr std::size_t kMutations = 60;
    const std::size_t base_rows = data_->rows;

    std::atomic<bool> failed{false};
    std::vector<std::thread> searchers;
    searchers.reserve(kSearchers);
    for (std::size_t t = 0; t < kSearchers; ++t)
        searchers.emplace_back([&, t] {
            for (std::size_t i = 0; i < kSearches; ++i) {
                const std::size_t q =
                    (t * kSearches + i) % data_->num_queries;
                const SearchResult result =
                    gate.search(data_->query(q), settings());
                if (result.size() != settings().k)
                    failed.store(true);
                for (const Neighbor &n : result)
                    if (n.id >= base_rows + kMutations)
                        failed.store(true);
            }
        });

    std::thread mutator([&] {
        for (std::size_t i = 0; i < kMutations; ++i) {
            // Insert a copy of an existing vector, then tombstone an
            // old one — FreshDiskANN's streaming pattern in miniature.
            const float *vec =
                data_->base.data() + (i % data_->rows) * data_->dim;
            const VectorId added = gate.mutate(
                [&](engine::VectorDbEngine &) {
                    return engine.liveAdd(vec);
                });
            if (added < base_rows)
                failed.store(true);
            if (i % 2 == 0)
                gate.mutate([&](engine::VectorDbEngine &) {
                    engine.liveMarkDeleted(
                        static_cast<VectorId>(i));
                });
        }
    });

    for (std::thread &t : searchers)
        t.join();
    mutator.join();
    EXPECT_FALSE(failed.load());

    // Deleted ids must no longer surface once mutations settled.
    for (std::size_t q = 0; q < 10; ++q) {
        const SearchResult result =
            gate.search(data_->query(q), settings());
        for (const Neighbor &n : result)
            EXPECT_FALSE(n.id < kMutations && n.id % 2 == 0)
                << "tombstoned id " << n.id << " returned";
    }
}

TEST_F(ServeFixture, ConcurrentSearchesShareNodeCacheUnderMutations)
{
    // DiskANN segments on the file backend share one sector cache per
    // segment across all searcher threads; a mutator interleaves
    // FreshDiskANN-style delta inserts and tombstones behind the
    // gate's exclusive lock. The TSan build of this test is the
    // cache's concurrency contract.
    const storage::IoOptions saved = storage::defaultIoOptions();
    storage::IoOptions io = saved;
    io.kind = storage::IoBackendKind::File;
    const testutil::TempDir nodecache_dir("serve_test_nodecache");
    io.spill_dir = nodecache_dir.path();
    io.node_cache.capacity_bytes = 4u << 20;
    io.node_cache.warm_nodes = 32;
    storage::setDefaultIoOptions(io);

    MilvusLikeEngine engine(MilvusIndexKind::DiskAnn);
    engine.prepare(*data_, io.spill_dir);
    storage::setDefaultIoOptions(saved);
    serve::EngineGate gate(engine);

    constexpr std::size_t kSearchers = 4;
    constexpr std::size_t kSearches = 100;
    constexpr std::size_t kMutations = 40;
    const std::size_t base_rows = data_->rows;

    std::atomic<bool> failed{false};
    std::vector<std::thread> searchers;
    searchers.reserve(kSearchers);
    for (std::size_t t = 0; t < kSearchers; ++t)
        searchers.emplace_back([&, t] {
            for (std::size_t i = 0; i < kSearches; ++i) {
                const std::size_t q =
                    (t * kSearches + i) % data_->num_queries;
                const SearchResult result =
                    gate.search(data_->query(q), settings());
                if (result.size() != settings().k)
                    failed.store(true);
            }
        });

    std::thread mutator([&] {
        for (std::size_t i = 0; i < kMutations; ++i) {
            const float *vec =
                data_->base.data() + (i % data_->rows) * data_->dim;
            const VectorId added = gate.mutate(
                [&](engine::VectorDbEngine &) {
                    return engine.liveAdd(vec);
                });
            if (added < base_rows)
                failed.store(true);
            if (i % 2 == 0)
                gate.mutate([&](engine::VectorDbEngine &) {
                    engine.liveMarkDeleted(
                        static_cast<VectorId>(i));
                });
        }
    });

    for (std::thread &t : searchers)
        t.join();
    mutator.join();
    EXPECT_FALSE(failed.load());

    // Every searcher ran against file-backed segments, so the shared
    // caches must have seen traffic — and repeated queries must hit.
    const storage::NodeCacheStats stats = engine.nodeCacheStats();
    EXPECT_GT(stats.lookups, 0u);
    EXPECT_GT(stats.hits, 0u);
    EXPECT_EQ(stats.lookups, stats.hits + stats.misses);

}

TEST_F(ServeFixture, ServerSearchesDuringLiveMutations)
{
    MilvusLikeEngine engine(MilvusIndexKind::Hnsw);
    engine.prepare(*data_, cacheDir_->path());
    serve::AnnServer server(engine, baseConfig());
    server.start();

    std::atomic<bool> failed{false};
    std::vector<std::thread> clients;
    for (std::size_t t = 0; t < 2; ++t)
        clients.emplace_back([&, t] {
            serve::AnnClient client;
            client.connect("127.0.0.1", server.port());
            for (std::uint64_t id = 0; id < 60; ++id) {
                const auto response = client.search(
                    data_->query((t * 60 + id) % data_->num_queries),
                    data_->dim, settings(), id);
                if (response.status != serve::Status::Ok)
                    failed.store(true);
            }
        });

    for (std::size_t i = 0; i < 25; ++i) {
        const float *vec =
            data_->base.data() + (i % data_->rows) * data_->dim;
        server.gate().mutate([&](engine::VectorDbEngine &) {
            return engine.liveAdd(vec);
        });
    }
    for (std::thread &t : clients)
        t.join();
    EXPECT_FALSE(failed.load());
    EXPECT_EQ(server.metrics().protocol_errors, 0u);
}

} // namespace
} // namespace ann
