/**
 * @file
 * The parallel experiment engine's task pool: a fixed set of
 * std::jthread workers draining a FIFO queue, plus a deterministic
 * map() that fans work items out across the pool and hands results
 * back in submission order — so a table assembled from map() output
 * is byte-identical no matter how many workers ran it.
 *
 * Sizing: LVPLIB_JOBS when set (parsed strictly, see util/env.hh),
 * otherwise std::thread::hardware_concurrency().
 */

#ifndef LVPLIB_SIM_PARALLEL_HH
#define LVPLIB_SIM_PARALLEL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

namespace lvplib::obs
{
class Counter;
class Gauge;
} // namespace lvplib::obs

namespace lvplib::sim
{

/** A fixed-size worker pool with FIFO scheduling. */
class TaskPool
{
  public:
    /** @param jobs Worker count; 0 means defaultJobs(). */
    explicit TaskPool(unsigned jobs = 0);

    /** Requests stop, drains queued tasks, and joins the workers. */
    ~TaskPool();

    TaskPool(const TaskPool &) = delete;
    TaskPool &operator=(const TaskPool &) = delete;

    /** Number of worker threads. */
    unsigned
    jobs() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /**
     * Enqueue one task. The returned future becomes ready when the
     * task finishes and rethrows any exception the task threw.
     */
    std::future<void> submit(std::function<void()> fn);

    /**
     * Run fn(item) for every item on the pool and return the results
     * in input order (deterministic regardless of worker count or
     * completion order). A throwing task never wedges the call: every
     * job settles first — whether its exception was caught by the
     * item wrapper or surfaced through the task's future — and then
     * the first failing item's exception (in input order) is
     * rethrown. Must not be called from inside a pool task.
     */
    template <typename In, typename Fn>
    auto
    map(const std::vector<In> &items, Fn fn)
        -> std::vector<std::invoke_result_t<Fn &, const In &>>
    {
        using Out = std::invoke_result_t<Fn &, const In &>;
        std::vector<std::optional<Out>> slots(items.size());
        std::vector<std::exception_ptr> errors(items.size());
        std::vector<std::future<void>> done;
        done.reserve(items.size());
        try {
            for (std::size_t i = 0; i < items.size(); ++i) {
                done.push_back(
                    submit([&slots, &errors, &items, &fn, i] {
                        try {
                            slots[i].emplace(fn(items[i]));
                        } catch (...) {
                            errors[i] = std::current_exception();
                        }
                    }));
            }
        } catch (...) {
            // submit() failed mid-fan-out: settle what was already
            // queued before unwinding the frame the in-flight jobs
            // still reference.
            for (auto &f : done) {
                try {
                    f.get();
                } catch (...) {
                }
            }
            throw;
        }
        // Settle every job before touching slots/errors: an early
        // rethrow would unwind stack the in-flight jobs still
        // reference. A future can itself hold an exception (a task
        // that died outside the item wrapper, e.g. an injected
        // worker fault); fold it into the same submission-order slot.
        for (std::size_t i = 0; i < done.size(); ++i) {
            try {
                done[i].get();
            } catch (...) {
                if (!errors[i])
                    errors[i] = std::current_exception();
            }
        }
        for (auto &e : errors)
            if (e)
                std::rethrow_exception(e);
        std::vector<Out> out;
        out.reserve(items.size());
        for (auto &s : slots)
            out.push_back(std::move(*s));
        return out;
    }

    /** LVPLIB_JOBS when validly set, else hardware_concurrency. */
    static unsigned defaultJobs();

  private:
    void worker(std::stop_token st);

    std::mutex m_;
    std::condition_variable_any cv_;
    std::deque<std::packaged_task<void()>> queue_;
    std::vector<std::jthread> workers_;

    // Pool telemetry (taskpool.* in the metric registry), resolved
    // once in the constructor; all volatile.
    obs::Counter &submitted_;
    obs::Counter &executed_;
    obs::Gauge &queuePeak_;
    std::size_t localQueuePeak_ = 0; ///< guarded by m_
    /** lvpchaos TaskThrow stream: one decision per submission. */
    std::atomic<std::uint64_t> chaosSeq_{0};
};

/**
 * The process-wide pool every experiment runner submits through.
 * Created on first use with defaultJobs() workers.
 */
TaskPool &experimentPool();

/**
 * Replace the shared pool with one of @p jobs workers (0 restores
 * the LVPLIB_JOBS / hardware-concurrency default). Not thread-safe
 * against concurrently running experiments; call between runs.
 */
void setExperimentJobs(unsigned jobs);

/**
 * The pool a RunCache sweep's variant groups replay on. Kept separate
 * from experimentPool() because shard fan-out happens from *inside*
 * an experiment task, and TaskPool::map must not be called from a
 * task running on the same pool (the mapping task would wait on
 * workers that are all busy waiting on it).
 * Created on first use with shardJobs() workers.
 */
TaskPool &shardPool();

/**
 * The most variant groups one sweep replays in parallel: the explicit
 * override from setShardJobs() when set, otherwise LVPLIB_SHARDS when
 * validly set (1..1024, strict parse — see util/env.hh), otherwise
 * TaskPool::defaultJobs(). A value of 1 disables sharding entirely
 * (serial replay, shard pool untouched).
 */
unsigned shardJobs();

/**
 * Override the shard count (0 restores the LVPLIB_SHARDS /
 * defaultJobs() resolution) and drop any existing shard pool so the
 * next shardPool() call rebuilds it at the new width. Call between
 * runs, like setExperimentJobs().
 */
void setShardJobs(unsigned jobs);

} // namespace lvplib::sim

#endif // LVPLIB_SIM_PARALLEL_HH
