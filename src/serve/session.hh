/**
 * @file
 * One serving session: the per-client unit of predictor state.
 *
 * This is the server half of the per-session/shared split (ROADMAP
 * item 3): immutable artifacts — programs, on-disk traces, hot
 * decoded streams — stay shared process-wide (RunCache, TraceLru),
 * while everything mutable a client touches lives here, instantiated
 * per OPEN_SESSION from the PR 7 predictor registry. Two sessions
 * never share a table, a counter, or a lock beyond the obs registry's
 * atomics, so one client's stream (or crash, or injected fault)
 * cannot perturb another's statistics — the isolation property the
 * soak test asserts byte for byte.
 *
 * Each session runs a dedicated worker thread fed through a bounded
 * chunk queue. The connection handler blocks in push() when the queue
 * is full, which stops it reading the socket, which fills the kernel
 * buffer, which blocks the client's send: backpressure end to end
 * with no unbounded buffering anywhere in the server.
 */

#ifndef LVPLIB_SERVE_SESSION_HH
#define LVPLIB_SERVE_SESSION_HH

#include <any>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

#include "core/value_predictor.hh"
#include "serve/protocol.hh"
#include "serve/trace_lru.hh"

namespace lvplib::serve
{

/**
 * Everything needed to revive a session on a new connection: the
 * predictor's type-erased table state (ValuePredictor::snapshotState,
 * whose contract value_predictor_test checks for every predictor),
 * the statistics accumulated so far, and the record/chunk offsets the
 * client must continue streaming from. Stats restore as a base added
 * via LvpStats::operator+=, which sums every field.
 */
struct SessionCheckpoint
{
    std::string predictor;
    std::any state; ///< ValuePredictor::snapshotState()
    core::LvpStats stats;
    std::uint64_t recordsProcessed = 0;
    std::uint64_t chunksProcessed = 0;
};

/** A per-client predictor run; see file comment. */
class Session
{
  public:
    /**
     * @param id Server-unique session id (echoed in MetricsReply).
     * @param info Registry entry to instantiate the predictor from.
     * @param maxQueuedChunks Bounded-queue depth; push() blocks when
     * this many chunks are waiting.
     * @param resume Revive from this checkpoint (restoreState before
     * the worker starts); nullptr opens a fresh session.
     */
    Session(std::uint64_t id, const core::PredictorInfo &info,
            std::size_t maxQueuedChunks,
            const SessionCheckpoint *resume = nullptr);

    /** Aborts any queued work and joins the worker. */
    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /**
     * Enqueue one chunk for the worker, blocking while the queue is
     * full. Shared LRU blobs and freshly streamed chunks ride the
     * same path, so a cached replay sees the exact per-chunk
     * processing order a streamed one does.
     * @return false when the session was aborted (the chunk is
     * dropped); the caller should stop feeding.
     */
    bool push(TraceBlob chunk);

    /**
     * Close the queue and wait until the worker has processed
     * everything already pushed (idempotent). After drain() the
     * final snapshot is stable.
     */
    void drain();

    /** Unblock pushers and discard queued chunks (server teardown). */
    void abort();

    /**
     * Point-in-time statistics. Mid-stream snapshots land on a chunk
     * boundary (the worker holds the stats lock per chunk); after
     * drain() the snapshot is the session's final answer and is
     * byte-identical to the offline run of the same stream.
     */
    SessionMetrics snapshot() const;

    /**
     * Extract a resume checkpoint. Call after drain() so everything
     * already pushed is applied: the checkpoint then covers exactly
     * records [0, recordsProcessed) and a session revived from it is
     * byte-identical to one that never disconnected.
     */
    SessionCheckpoint checkpoint() const;

    std::uint64_t id() const { return id_; }
    const std::string &predictor() const { return predictorName_; }

    /** Current queue depth (serve.queue_depth telemetry). */
    std::size_t queueDepth() const;

  private:
    void workerLoop();

    const std::uint64_t id_;
    const std::string predictorName_;

    mutable std::mutex statsMutex_; ///< guards unit_ and the counters
    std::unique_ptr<core::ValuePredictor> unit_;
    core::LvpStats baseStats_; ///< pre-resume stats (zero when fresh)
    std::uint64_t recordsProcessed_ = 0;
    std::uint64_t chunksProcessed_ = 0;

    mutable std::mutex queueMutex_;
    std::condition_variable queueNotFull_;
    std::condition_variable queueChanged_;
    std::deque<TraceBlob> queue_;
    const std::size_t maxQueuedChunks_;
    bool closed_ = false;  ///< no further push(); worker exits when dry
    bool aborted_ = false; ///< discard queued work
    bool workerDone_ = false;

    std::thread worker_;
};

} // namespace lvplib::serve

#endif // LVPLIB_SERVE_SESSION_HH
