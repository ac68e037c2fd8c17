/**
 * @file
 * End-to-end tests for the lvp-serve server: per-session predictor
 * isolation and byte-identity against the offline pipeline, the
 * hot-trace LRU replay path, bounded-queue backpressure, mid-stream
 * metrics, error containment, graceful drain, and a chaos-armed soak
 * over injected socket faults.
 *
 * The load-bearing assertion everywhere: a session's final LvpStats
 * must equal RunCache::predictorOnly for the same (workload, codegen,
 * scale, config, predictor) — field for field, which is byte for byte
 * on the wire. "The server agrees with lvpload" means "the server
 * agrees with the paper pipeline".
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "chaos/chaos.hh"
#include "core/value_predictor.hh"
#include "obs/metrics.hh"
#include "serve/client.hh"
#include "serve/loadgen.hh"
#include "serve/server.hh"
#include "sim/run_cache.hh"
#include "workloads/workload.hh"

namespace
{

using namespace lvplib;
using namespace lvplib::serve;

constexpr auto Cg = workloads::CodeGen::Ppc;

/** A unique unix socket path under the test temp dir. */
std::string
socketPath(const char *tag)
{
    return (std::filesystem::path(::testing::TempDir()) /
            (std::string("lvpserve_") + tag + ".sock"))
        .string();
}

ServeOptions
unixOptions(const char *tag)
{
    ServeOptions o;
    o.socketPath = socketPath(tag);
    return o;
}

/** Process-wide stream library: encoding a workload once is enough
 *  for every test in this binary. */
StreamLibrary &
library()
{
    static StreamLibrary lib(sim::RunCache::instance());
    return lib;
}

std::shared_ptr<const LoadStream>
stream(const char *workload)
{
    return library().get(workloads::findWorkload(workload), Cg, 1,
                         sim::RunConfig{});
}

core::LvpStats
offline(const char *workload, const core::PredictorInfo &info)
{
    return sim::RunCache::instance().predictorOnly(
        workloads::findWorkload(workload), Cg, 1, info,
        sim::RunConfig{});
}

/** Stream @p s into an open session in @p chunkRecords-sized chunks. */
void
streamChunks(ServeClient &client, const LoadStream &s,
             std::size_t chunkRecords)
{
    const std::size_t chunkBytes = chunkRecords * ServeRecordBytes;
    for (std::size_t off = 0; off < s.bytes.size(); off += chunkBytes) {
        std::size_t n = std::min(chunkBytes, s.bytes.size() - off);
        client.sendChunkRaw({s.bytes.data() + off, n});
    }
}

/** One full verified session: open, stream, close, compare. */
void
runVerifiedSession(ServeClient &client, const char *workload,
                   const core::PredictorInfo &info,
                   std::size_t chunkRecords = 1024)
{
    auto s = stream(workload);
    OpenRequest req;
    req.predictor = info.name;
    req.fingerprint = s->fingerprint;
    req.records = s->records;
    auto open = client.open(req);
    if (open.cached)
        client.runCached();
    else
        streamChunks(client, *s, chunkRecords);
    SessionMetrics fin = client.closeSession();
    EXPECT_TRUE(fin.final_);
    EXPECT_EQ(fin.recordsProcessed, s->records)
        << workload << '/' << info.name;
    EXPECT_TRUE(fin.stats == offline(workload, info))
        << workload << '/' << info.name
        << ": served stats diverged from the offline pipeline";
}

TEST(Serve, EveryPredictorFamilyMatchesOfflineStats)
{
    LvpServer server(unixOptions("families"));
    server.start();
    ServeClient client =
        ServeClient::connectUnix(server.options().socketPath);
    client.hello();
    for (const auto &info : core::predictorRegistry())
        runVerifiedSession(client, "quick", info);
    client.goodbye();
    server.stop();
    EXPECT_EQ(server.activeSessions(), 0u);
    EXPECT_GE(server.connectionsAccepted(), 1u);
}

TEST(Serve, TcpEndpointResolvesEphemeralPortAndServes)
{
    ServeOptions o;
    o.port = 0; // kernel picks; boundPort() resolves it
    LvpServer server(o);
    server.start();
    ASSERT_NE(server.boundPort(), 0);
    EXPECT_EQ(server.endpoint(),
              "tcp:127.0.0.1:" + std::to_string(server.boundPort()));
    ServeClient client = ServeClient::connectTcp(server.boundPort());
    client.hello();
    runVerifiedSession(client, "quick",
                       core::predictorRegistry().front());
    client.goodbye();
    server.stop();
}

TEST(Serve, ConcurrentInterleavedSessionsStayIsolated)
{
    // Satellite 4's core claim: N threads interleaving chunks of
    // different workloads through one server, every per-session
    // result byte-identical to the offline replay. Tiny chunks
    // maximize interleaving; TSan runs this test too.
    LvpServer server(unixOptions("concurrent"));
    server.start();

    const auto &registry = core::predictorRegistry();
    const char *workloads[] = {"grep", "quick"};
    // Pre-warm shared artifacts so threads only exercise the server.
    for (const char *w : workloads) {
        stream(w);
        for (const auto &info : registry)
            offline(w, info);
    }

    constexpr unsigned kThreads = 8;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            ServeClient client =
                ServeClient::connectUnix(server.options().socketPath);
            client.hello();
            const auto &info = registry[t % registry.size()];
            runVerifiedSession(client, workloads[t % 2], info,
                               /*chunkRecords=*/257);
            runVerifiedSession(client, workloads[(t + 1) % 2], info,
                               /*chunkRecords=*/257);
            client.goodbye();
        });
    for (auto &th : threads)
        th.join();
    server.stop();
    EXPECT_EQ(server.activeSessions(), 0u);
    EXPECT_GE(server.connectionsAccepted(), kThreads);
}

TEST(Serve, LruCachedReplayMatchesStreamedReplay)
{
    LvpServer server(unixOptions("lru"));
    server.start();
    auto s = stream("quick");
    const auto &lvp = *core::findPredictor("lvp");
    const auto &stride = *core::findPredictor("stride");

    ServeClient client =
        ServeClient::connectUnix(server.options().socketPath);
    client.hello();

    // First session pays the transfer...
    OpenRequest req;
    req.predictor = lvp.name;
    req.fingerprint = s->fingerprint;
    req.records = s->records;
    auto first = client.open(req);
    EXPECT_FALSE(first.cached);
    streamChunks(client, *s, 1024);
    auto firstStats = client.closeSession().stats;
    EXPECT_TRUE(server.lru().contains(s->fingerprint));

    // ...every later session replays the shared copy without moving
    // a byte, under any predictor, with identical statistics.
    req.predictor = stride.name;
    auto second = client.open(req);
    EXPECT_TRUE(second.cached);
    client.runCached();
    auto cachedStats = client.closeSession();
    EXPECT_EQ(cachedStats.recordsProcessed, s->records);
    EXPECT_TRUE(cachedStats.stats == offline("quick", stride));

    req.predictor = lvp.name;
    auto third = client.open(req);
    EXPECT_TRUE(third.cached);
    client.runCached();
    EXPECT_TRUE(client.closeSession().stats == firstStats);

    client.goodbye();
    server.stop();
    EXPECT_GE(server.lru().hits(), 2u);
}

TEST(Serve, BackpressureWithSingleChunkQueueStaysExact)
{
    // queueChunks=1: the handler blocks in push() after every chunk
    // until the worker drains it, exercising the full backpressure
    // path. Many tiny chunks, identical result.
    ServeOptions o = unixOptions("backpressure");
    o.queueChunks = 1;
    LvpServer server(o);
    server.start();
    ServeClient client =
        ServeClient::connectUnix(server.options().socketPath);
    client.hello();
    runVerifiedSession(client, "quick",
                       core::predictorRegistry().front(),
                       /*chunkRecords=*/64);
    client.goodbye();
    server.stop();
}

TEST(Serve, MidStreamMetricsLandOnChunkBoundaries)
{
    LvpServer server(unixOptions("metrics"));
    server.start();
    auto s = stream("quick");
    ServeClient client =
        ServeClient::connectUnix(server.options().socketPath);
    client.hello();
    OpenRequest req;
    req.predictor = "lvp";
    auto open = client.open(req);

    constexpr std::size_t kChunk = 500;
    const std::size_t chunkBytes = kChunk * ServeRecordBytes;
    std::uint64_t sent = 0, lastSeen = 0;
    for (std::size_t off = 0; off < s->bytes.size(); off += chunkBytes) {
        std::size_t n = std::min(chunkBytes, s->bytes.size() - off);
        client.sendChunkRaw({s->bytes.data() + off, n});
        sent += n / ServeRecordBytes;
        SessionMetrics m = client.metrics();
        EXPECT_EQ(m.sessionId, open.sessionId);
        EXPECT_FALSE(m.final_);
        // Snapshots are chunk-boundary consistent: a whole number of
        // chunks, monotone, never ahead of what was sent.
        EXPECT_EQ(m.recordsProcessed % kChunk == 0 ||
                      m.recordsProcessed == sent,
                  true)
            << m.recordsProcessed;
        EXPECT_GE(m.recordsProcessed, lastSeen);
        EXPECT_LE(m.recordsProcessed, sent);
        lastSeen = m.recordsProcessed;
    }
    SessionMetrics fin = client.closeSession();
    EXPECT_TRUE(fin.final_);
    EXPECT_EQ(fin.recordsProcessed, s->records);
    EXPECT_EQ(fin.chunksProcessed,
              (s->records + kChunk - 1) / kChunk);
    client.goodbye();
    server.stop();
}

TEST(Serve, ErrorsAreScopedToTheirSession)
{
    ServeOptions o = unixOptions("errors");
    o.maxSessions = 1;
    LvpServer server(o);
    server.start();

    ServeClient a =
        ServeClient::connectUnix(server.options().socketPath);
    a.hello();

    // Unknown predictor: a typed error, and the connection survives.
    OpenRequest bad;
    bad.predictor = "psychic";
    try {
        a.open(bad);
        FAIL() << "expected a server error for an unknown predictor";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("psychic"),
                  std::string::npos)
            << e.what();
    }

    // Session cap: with a's session holding the only slot, b's open
    // is refused with RetryExhausted; b's connection survives too.
    OpenRequest good;
    good.predictor = "lvp";
    auto open = a.open(good);
    EXPECT_NE(open.sessionId, 0u);
    EXPECT_EQ(server.activeSessions(), 1u);

    ServeClient b =
        ServeClient::connectUnix(server.options().socketPath);
    b.hello();
    try {
        b.open(good);
        FAIL() << "expected the session cap to refuse the open";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::RetryExhausted) << e.what();
    }

    a.closeSession();
    EXPECT_EQ(server.activeSessions(), 0u);
    runVerifiedSession(b, "quick", *core::findPredictor("lvp"));
    a.goodbye();
    b.goodbye();
    server.stop();
}

TEST(Serve, StopDrainsIdleConnectionsAndRestartsCleanly)
{
    ServeOptions o = unixOptions("drain");
    o.drainMs = 100; // idle peers only get a short natural window
    {
        LvpServer server(o);
        server.start();
        ServeClient client =
            ServeClient::connectUnix(server.options().socketPath);
        client.hello();
        server.stop(); // shuts the idle connection down past drainMs
        EXPECT_THROW(client.metrics(), SimError);
    }
    // The socket path is reusable immediately after a clean stop.
    LvpServer server(o);
    server.start();
    ServeClient client =
        ServeClient::connectUnix(server.options().socketPath);
    client.hello();
    runVerifiedSession(client, "quick",
                       core::predictorRegistry().front());
    client.goodbye();
    server.stop();
}

/** Poll until @p server parks @p want sessions (bounded wait: parking
 *  happens on the handler thread after it notices the drop). */
void
awaitParked(LvpServer &server, std::uint64_t want)
{
    for (int i = 0; i < 400 && server.parkedSessions() < want; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_GE(server.parkedSessions(), want);
}

TEST(Serve, ResumeAfterClientCrashIsByteIdentical)
{
    // The tentpole claim: a client that vanishes mid-stream and comes
    // back finishes with statistics byte-identical to an uninterrupted
    // run — the parked checkpoint (snapshotState + stats + offset) and
    // LvpStats::operator+= stitching carry the whole burden.
    LvpServer server(unixOptions("resume"));
    server.start();
    auto s = stream("quick");
    const auto &info = *core::findPredictor("lvp");

    constexpr std::size_t kChunk = 512;
    const std::size_t chunkBytes = kChunk * ServeRecordBytes;
    std::uint64_t sessionId = 0, token = 0;
    std::size_t sentBytes = 0;
    {
        ServeClient client =
            ServeClient::connectUnix(server.options().socketPath);
        client.hello();
        OpenRequest req;
        req.predictor = info.name;
        req.fingerprint = s->fingerprint;
        req.records = s->records;
        auto open = client.open(req);
        sessionId = open.sessionId;
        token = open.resumeToken;
        ASSERT_NE(token, 0u);
        // Half the stream, then the client "crashes": no goodbye, no
        // close, just a dead socket.
        while (sentBytes < s->bytes.size() / 2) {
            std::size_t n =
                std::min(chunkBytes, s->bytes.size() - sentBytes);
            client.sendChunkRaw({s->bytes.data() + sentBytes, n});
            sentBytes += n;
        }
        client.abortConnection();
    }
    awaitParked(server, 1);

    ServeClient back =
        ServeClient::connectUnix(server.options().socketPath);
    back.hello();
    ResumeReply rr = back.resume(sessionId, token);
    EXPECT_EQ(rr.sessionId, sessionId);
    // The server drained every whole chunk it received before parking;
    // the reply names the exact record to continue from.
    EXPECT_EQ(rr.recordsProcessed % kChunk, 0u);
    EXPECT_LE(rr.recordsProcessed * ServeRecordBytes, sentBytes);
    for (std::size_t off = static_cast<std::size_t>(rr.recordsProcessed) *
                           ServeRecordBytes;
         off < s->bytes.size(); off += chunkBytes) {
        std::size_t n = std::min(chunkBytes, s->bytes.size() - off);
        back.sendChunkRaw({s->bytes.data() + off, n});
    }
    SessionMetrics fin = back.closeSession();
    EXPECT_TRUE(fin.final_);
    EXPECT_EQ(fin.recordsProcessed, s->records);
    EXPECT_TRUE(fin.stats == offline("quick", info))
        << "resumed session diverged from an uninterrupted run";
    EXPECT_EQ(server.parkedSessions(), 0u);
    back.goodbye();
    server.stop();
}

TEST(Serve, SlowPeerIsEvictedParkedAndResumable)
{
    // A peer that makes no frame progress past --idle-ms is evicted
    // with a typed Watchdog error — but its session is parked, so a
    // merely-slow client can come back and finish exactly.
    ServeOptions o = unixOptions("evict");
    o.idleMs = 150;
    LvpServer server(o);
    server.start();
    auto s = stream("quick");
    const auto &info = *core::findPredictor("stride");

    constexpr std::size_t kChunk = 1024;
    const std::size_t chunkBytes = kChunk * ServeRecordBytes;
    std::uint64_t sessionId = 0, token = 0;
    {
        ServeClient client =
            ServeClient::connectUnix(server.options().socketPath);
        client.hello();
        OpenRequest req;
        req.predictor = info.name;
        auto open = client.open(req);
        sessionId = open.sessionId;
        token = open.resumeToken;
        client.sendChunkRaw(
            {s->bytes.data(), std::min(chunkBytes, s->bytes.size())});
        // Stall well past the deadline: the server evicts and parks.
        awaitParked(server, 1);
    }

    ServeClient back =
        ServeClient::connectUnix(server.options().socketPath);
    back.hello();
    ResumeReply rr = back.resume(sessionId, token);
    for (std::size_t off = static_cast<std::size_t>(rr.recordsProcessed) *
                           ServeRecordBytes;
         off < s->bytes.size(); off += chunkBytes) {
        std::size_t n = std::min(chunkBytes, s->bytes.size() - off);
        back.sendChunkRaw({s->bytes.data() + off, n});
    }
    SessionMetrics fin = back.closeSession();
    EXPECT_EQ(fin.recordsProcessed, s->records);
    EXPECT_TRUE(fin.stats == offline("quick", info))
        << "post-eviction resume diverged";
    back.goodbye();
    server.stop();
}

TEST(Serve, HeartbeatsKeepASlowSessionAlive)
{
    // Heartbeats reset the idle deadline: a client that is slow but
    // alive never gets evicted, and the session completes normally.
    ServeOptions o = unixOptions("heartbeat");
    o.idleMs = 150;
    LvpServer server(o);
    server.start();
    auto s = stream("quick");
    const auto &info = *core::findPredictor("lvp");

    ServeClient client =
        ServeClient::connectUnix(server.options().socketPath);
    client.hello();
    OpenRequest req;
    req.predictor = info.name;
    client.open(req);
    const std::size_t chunkBytes =
        ((s->bytes.size() / 3 + ServeRecordBytes) / ServeRecordBytes) *
        ServeRecordBytes;
    for (std::size_t off = 0; off < s->bytes.size(); off += chunkBytes) {
        // Straddle several deadline windows between chunks, heartbeat
        // often enough to stay alive.
        for (int i = 0; i < 4; ++i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(60));
            client.heartbeat();
        }
        std::size_t n = std::min(chunkBytes, s->bytes.size() - off);
        client.sendChunkRaw({s->bytes.data() + off, n});
    }
    SessionMetrics fin = client.closeSession();
    EXPECT_EQ(fin.recordsProcessed, s->records);
    EXPECT_TRUE(fin.stats == offline("quick", info));
    EXPECT_EQ(server.parkedSessions(), 0u)
        << "a heartbeating client was evicted";
    client.goodbye();
    server.stop();
}

TEST(Serve, ResumeRejectionIsTypedAndConnectionPreserving)
{
    // An unknown or expired token (or a resume landing on the wrong
    // worker process) gets a typed RetryExhausted rejection that
    // leaves the connection usable: the client falls back to a fresh
    // session on the spot.
    LvpServer server(unixOptions("reject"));
    server.start();
    ServeClient client =
        ServeClient::connectUnix(server.options().socketPath);
    client.hello();
    try {
        client.resume(999, 0xdeadbeef);
        FAIL() << "expected the resume to be rejected";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::RetryExhausted) << e.what();
        EXPECT_NE(std::string(e.what()).find("record 0"),
                  std::string::npos)
            << e.what();
    }
    runVerifiedSession(client, "quick",
                       core::predictorRegistry().front());
    client.goodbye();
    server.stop();
}

TEST(Serve, ParkedSessionsAreBoundedByCapAndTtl)
{
    ServeOptions o = unixOptions("parkcap");
    o.maxParked = 1;
    o.resumeTtlMs = 100;
    LvpServer server(o);
    server.start();
    const auto &info = *core::findPredictor("lvp");

    auto crashOne = [&] {
        ServeClient c =
            ServeClient::connectUnix(server.options().socketPath);
        c.hello();
        OpenRequest req;
        req.predictor = info.name;
        auto open = c.open(req);
        c.abortConnection();
        return std::pair<std::uint64_t, std::uint64_t>(
            open.sessionId, open.resumeToken);
    };
    auto first = crashOne();
    awaitParked(server, 1);
    // The park count, not the parked-set size, says when the second
    // checkpoint has landed: the size is already 1 before it does.
    obs::Counter &parks = obs::metrics().counter("serve.resume.parked");
    const std::uint64_t parksBefore = parks.value();
    auto second = crashOne();
    for (int i = 0; i < 400 && parks.value() == parksBefore; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_GT(parks.value(), parksBefore);
    // The cap evicted the first checkpoint to make room.
    EXPECT_EQ(server.parkedSessions(), 1u);

    ServeClient back =
        ServeClient::connectUnix(server.options().socketPath);
    back.hello();
    EXPECT_THROW(back.resume(first.first, first.second), SimError);
    // Past the TTL the second checkpoint expires too.
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    EXPECT_THROW(back.resume(second.first, second.second), SimError);
    runVerifiedSession(back, "quick", info);
    back.goodbye();
    server.stop();
}

TEST(Serve, DrainWindowLetsAStraddlingClientFinish)
{
    // The SIGTERM contract: stop() keeps in-flight sessions alive for
    // --drain-ms. A client mid-stream when the drain begins — slow
    // enough to straddle the stop, fast enough to beat the window —
    // finishes with exact statistics.
    ServeOptions o = unixOptions("straddle");
    o.drainMs = 3000;
    LvpServer server(o);
    server.start();
    auto s = stream("quick");
    const auto &info = *core::findPredictor("lvp");

    ServeClient client =
        ServeClient::connectUnix(server.options().socketPath);
    client.hello();
    OpenRequest req;
    req.predictor = info.name;
    client.open(req);
    const std::size_t chunkBytes = 2048 * ServeRecordBytes;
    client.sendChunkRaw(
        {s->bytes.data(), std::min(chunkBytes, s->bytes.size())});

    std::thread stopper([&] { server.stop(); });
    // Give stop() time to close the listener and enter its window,
    // then keep streaming through the drain.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    for (std::size_t off = std::min(chunkBytes, s->bytes.size());
         off < s->bytes.size(); off += chunkBytes) {
        std::size_t n = std::min(chunkBytes, s->bytes.size() - off);
        client.sendChunkRaw({s->bytes.data() + off, n});
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    SessionMetrics fin = client.closeSession();
    EXPECT_TRUE(fin.final_);
    EXPECT_EQ(fin.recordsProcessed, s->records);
    EXPECT_TRUE(fin.stats == offline("quick", info))
        << "a session straddling the drain window diverged";
    stopper.join();
}

/** Connect a raw unix-socket fd (so tests can pick the chaos key). */
int
connectUnixFd(const std::string &path)
{
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_un sa = {};
    sa.sun_family = AF_UNIX;
    std::strncpy(sa.sun_path, path.c_str(), sizeof(sa.sun_path) - 1);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&sa),
                        sizeof sa),
              0);
    return fd;
}

TEST(Serve, ChaosSoakInjectedFaultsNeverCorruptSurvivors)
{
    // Satellite 4's soak: with Point::ServeFrame armed, socket-path
    // faults fire on both sides of many concurrent connections. A
    // faulted session must die with a typed SimError; every session
    // that completes must still verify byte-identically; the server
    // must keep serving throughout and afterwards.
    stream("quick"); // pre-warm outside the armed window
    const auto &info = *core::findPredictor("lvp");
    offline("quick", info);

    ServeOptions o = unixOptions("soak");
    LvpServer server(o);
    server.start();

    chaos::engine().disarm();
    chaos::engine().resetCounts();
    chaos::engine().arm({7, chaos::ServePoints, 16});

    constexpr unsigned kThreads = 4, kIters = 6;
    std::atomic<unsigned> verified{0}, faulted{0};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (unsigned i = 0; i < kIters; ++i) {
                try {
                    // Distinct chaos keys decorrelate the client-side
                    // injection streams across users.
                    ServeClient client(
                        connectUnixFd(o.socketPath), 16ull << 20,
                        /*chaosKey=*/1000 + t * kIters + i);
                    client.hello();
                    auto s = stream("quick");
                    OpenRequest req;
                    req.predictor = info.name;
                    auto open = client.open(req);
                    (void)open;
                    streamChunks(client, *s, 512);
                    SessionMetrics fin = client.closeSession();
                    ASSERT_EQ(fin.recordsProcessed, s->records);
                    ASSERT_TRUE(fin.stats == offline("quick", info))
                        << "a surviving session was corrupted";
                    verified.fetch_add(1);
                    client.goodbye();
                } catch (const SimError &) {
                    faulted.fetch_add(1); // typed failure: acceptable
                }
                // Anything else (bad_alloc, logic_error, a wrong
                // stats comparison) propagates and fails the test.
            }
        });
    for (auto &th : threads)
        th.join();

    chaos::engine().disarm();
    EXPECT_EQ(verified + faulted, kThreads * kIters);
    EXPECT_GT(chaos::engine().injected(chaos::Point::ServeFrame), 0u)
        << "the soak never exercised an injected fault";

    // The server is still healthy: a clean post-soak session verifies.
    ServeClient client = ServeClient::connectUnix(o.socketPath);
    client.hello();
    runVerifiedSession(client, "quick", info);
    client.goodbye();
    server.stop();
    EXPECT_EQ(server.activeSessions(), 0u);
}

} // namespace
