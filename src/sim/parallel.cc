#include "sim/parallel.hh"

#include <cstdlib>
#include <memory>

#include "chaos/chaos.hh"
#include "obs/metrics.hh"
#include "util/env.hh"
#include "util/logging.hh"

namespace lvplib::sim
{

TaskPool::TaskPool(unsigned jobs)
    : submitted_(obs::metrics().counter("taskpool.submitted")),
      executed_(obs::metrics().counter("taskpool.executed")),
      queuePeak_(obs::metrics().gauge("taskpool.queue_peak",
                                      /*isVolatile=*/true))
{
    if (jobs == 0)
        jobs = defaultJobs();
    idle_ = jobs;
    workers_.reserve(jobs);
    for (unsigned i = 0; i < jobs; ++i)
        workers_.emplace_back(
            [this](std::stop_token st) { worker(st); });
    obs::metrics()
        .gauge("taskpool.workers", /*isVolatile=*/true)
        .set(static_cast<double>(jobs));
}

TaskPool::~TaskPool()
{
    for (auto &w : workers_)
        w.request_stop();
    cv_.notify_all();
    // std::jthread joins in its destructor.
}

unsigned
TaskPool::idle() const
{
    std::lock_guard<std::mutex> lock(m_);
    return idle_ > queue_.size()
               ? idle_ - static_cast<unsigned>(queue_.size())
               : 0;
}

std::future<void>
TaskPool::submit(std::function<void()> fn)
{
    if (chaos::engine().enabled()) {
        // Model a worker task dying: the injected task replaces the
        // real one and its exception reaches the submitter through
        // the returned future (the path map() must survive).
        std::uint64_t n =
            chaosSeq_.fetch_add(1, std::memory_order_relaxed);
        if (chaos::engine().shouldInject(chaos::Point::TaskThrow, 0,
                                         n)) {
            fn = [] {
                throw SimError(ErrorKind::Injected,
                               "chaos: injected worker-task failure");
            };
        }
    }
    std::packaged_task<void()> task(std::move(fn));
    auto fut = task.get_future();
    {
        std::lock_guard<std::mutex> lock(m_);
        queue_.push_back(std::move(task));
        if (queue_.size() > localQueuePeak_) {
            localQueuePeak_ = queue_.size();
            // Keep the process-wide peak across pool replacements
            // (setExperimentJobs): only ever raise the gauge.
            if (static_cast<double>(localQueuePeak_) >
                queuePeak_.value())
                queuePeak_.set(static_cast<double>(localQueuePeak_));
        }
    }
    submitted_.add();
    cv_.notify_one();
    return fut;
}

void
TaskPool::worker(std::stop_token st)
{
    std::unique_lock<std::mutex> lock(m_);
    while (true) {
        cv_.wait(lock, st, [this] { return !queue_.empty(); });
        if (queue_.empty())
            return; // stop requested and nothing left to drain
        auto task = std::move(queue_.front());
        queue_.pop_front();
        --idle_;
        lock.unlock();
        task();
        executed_.add();
        lock.lock();
        ++idle_;
    }
}

unsigned
TaskPool::defaultJobs()
{
    if (auto v = envUnsigned("LVPLIB_JOBS", 1, 1024))
        return static_cast<unsigned>(*v);
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

namespace
{

std::mutex g_pool_mutex;
std::unique_ptr<TaskPool> g_pool;

std::atomic<unsigned> g_replay_limit{0}; ///< setShardJobs(); 0 = no limit

/**
 * Join every pool worker before the metric registry can be torn
 * down. The pool's namespace-scope static is constructed at load
 * time, but the registry its workers' counters live in is
 * constructed lazily, later — so plain static destruction destroys
 * the registry FIRST, and a worker still draining its queue would
 * touch a freed counter (a use-after-free that surfaced as flaky
 * teardown aborts in replay tests). An atexit handler registered
 * AFTER the registry exists runs before the registry's destructor,
 * closing the window: force the registry into existence, THEN
 * register the handler.
 */
void
registerPoolTeardown()
{
    static const int once = (obs::metrics(), std::atexit([] {
        std::lock_guard<std::mutex> lock(g_pool_mutex);
        g_pool.reset();
    }));
    (void)once;
}

} // namespace

TaskPool &
experimentPool()
{
    registerPoolTeardown();
    std::lock_guard<std::mutex> lock(g_pool_mutex);
    if (!g_pool)
        g_pool = std::make_unique<TaskPool>();
    return *g_pool;
}

void
setExperimentJobs(unsigned jobs)
{
    registerPoolTeardown();
    std::lock_guard<std::mutex> lock(g_pool_mutex);
    g_pool.reset(); // join the old workers before starting new ones
    g_pool = std::make_unique<TaskPool>(jobs);
}

unsigned
shardJobs()
{
    return g_replay_limit.load(std::memory_order_relaxed);
}

void
setShardJobs(unsigned jobs)
{
    g_replay_limit.store(jobs, std::memory_order_relaxed);
}

struct HandOff::State
{
    std::atomic<bool> claimed{false};
    std::function<void()> fn;
    std::exception_ptr error;

    void
    run()
    {
        try {
            fn();
        } catch (...) {
            error = std::current_exception();
        }
    }
};

HandOff::HandOff(TaskPool &pool, std::function<void()> fn)
    : state_(std::make_shared<State>())
{
    state_->fn = std::move(fn);
    done_ = pool.submit([s = state_] {
        if (!s->claimed.exchange(true))
            s->run();
    });
}

std::exception_ptr
HandOff::settle()
{
    if (!state_->claimed.exchange(true))
        state_->run();
    else
        done_.wait();
    return state_->error;
}

} // namespace lvplib::sim
