#include "serve/session.hh"

#include <utility>

#include "core/lvp_unit.hh"
#include "util/logging.hh"

namespace lvplib::serve
{

Session::Session(std::uint64_t id, const core::PredictorInfo &info,
                 std::size_t maxQueuedChunks,
                 const SessionCheckpoint *resume)
    : id_(id), predictorName_(info.name), unit_(core::makePredictor(info.spec)),
      maxQueuedChunks_(maxQueuedChunks == 0 ? 1 : maxQueuedChunks)
{
    if (resume) {
        lvp_assert(resume->predictor == info.name,
                   "resume checkpoint is for predictor '%s', not '%s'",
                   resume->predictor.c_str(), info.name.c_str());
        // Table state restores in place; stats restore as a base the
        // snapshot adds back on (restoreState leaves stats untouched).
        unit_->restoreState(resume->state);
        baseStats_ = resume->stats;
        recordsProcessed_ = resume->recordsProcessed;
        chunksProcessed_ = resume->chunksProcessed;
    }
    worker_ = std::thread([this] { workerLoop(); });
}

Session::~Session()
{
    abort();
    if (worker_.joinable())
        worker_.join();
}

bool
Session::push(TraceBlob chunk)
{
    if (!chunk)
        return true; // nothing to do, not an error
    std::unique_lock<std::mutex> lock(queueMutex_);
    queueNotFull_.wait(lock, [this] {
        return aborted_ || closed_ || queue_.size() < maxQueuedChunks_;
    });
    if (aborted_ || closed_)
        return false;
    queue_.push_back(std::move(chunk));
    queueChanged_.notify_all();
    return true;
}

void
Session::drain()
{
    std::unique_lock<std::mutex> lock(queueMutex_);
    closed_ = true;
    queueChanged_.notify_all();
    queueNotFull_.notify_all();
    queueChanged_.wait(lock, [this] { return workerDone_; });
}

void
Session::abort()
{
    std::lock_guard<std::mutex> lock(queueMutex_);
    aborted_ = true;
    closed_ = true;
    queue_.clear();
    queueChanged_.notify_all();
    queueNotFull_.notify_all();
}

SessionMetrics
Session::snapshot() const
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    SessionMetrics m;
    m.sessionId = id_;
    m.recordsProcessed = recordsProcessed_;
    m.chunksProcessed = chunksProcessed_;
    // Segment stitching: base (pre-resume) + this incarnation's run.
    // Every LvpStats field is an event count, so the sum is exactly
    // one uninterrupted pass (lvp_unit_test pins operator+= to every
    // field); for a fresh session the base is zero and this is a
    // plain copy.
    m.stats = baseStats_;
    m.stats += unit_->stats();
    return m;
}

SessionCheckpoint
Session::checkpoint() const
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    SessionCheckpoint cp;
    cp.predictor = predictorName_;
    cp.state = unit_->snapshotState();
    cp.stats = baseStats_;
    cp.stats += unit_->stats();
    cp.recordsProcessed = recordsProcessed_;
    cp.chunksProcessed = chunksProcessed_;
    return cp;
}

std::size_t
Session::queueDepth() const
{
    std::lock_guard<std::mutex> lock(queueMutex_);
    return queue_.size();
}

void
Session::workerLoop()
{
    for (;;) {
        TraceBlob chunk;
        {
            std::unique_lock<std::mutex> lock(queueMutex_);
            queueChanged_.wait(lock, [this] {
                return aborted_ || closed_ || !queue_.empty();
            });
            if (aborted_ || (closed_ && queue_.empty()))
                break;
            chunk = std::move(queue_.front());
            queue_.pop_front();
            queueNotFull_.notify_all();
        }
        // One chunk is one critical section: METRICS snapshots always
        // observe a chunk boundary, never a half-fed chunk.
        std::lock_guard<std::mutex> lock(statsMutex_);
        for (const ServeRecord &rec : *chunk) {
            switch (static_cast<ServeKind>(rec.kind)) {
              case ServeKind::Load:
                unit_->onLoad(rec.pc, rec.addr, rec.value, rec.size);
                break;
              case ServeKind::Store:
                unit_->onStore(rec.addr, rec.size);
                break;
              case ServeKind::Branch:
                unit_->onBranch(rec.taken != 0);
                break;
            }
        }
        recordsProcessed_ += chunk->size();
        ++chunksProcessed_;
    }
    std::lock_guard<std::mutex> lock(queueMutex_);
    workerDone_ = true;
    queueChanged_.notify_all();
}

} // namespace lvplib::serve
