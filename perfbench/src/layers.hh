/**
 * @file
 * Layer timing from outside the library: a TimedSink decorator around
 * any trace::TraceSink, the self-time arithmetic over a tree of them,
 * stable digests of every layer's statistics, and the roll-up of the
 * library's own timeline spans.
 *
 * A TimedSink reads one steady-clock pair per consumeBatch() (one
 * 8 Ki-record block on the trace-replay path), so wrapping every stage
 * of a pipeline costs a few clock reads per block. A stage's self time
 * is its wrapped time minus the wrapped time of the stages it feeds:
 *
 *   replay wall  - wrapped(MultiSink)           = trace decode
 *   wrapped(MultiSink) - sum wrapped(children)  = fan-out
 *   wrapped(annotator) - wrapped(model)         = core (predictor)
 *   wrapped(model)                              = uarch (timing model)
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/lvp_unit.hh"
#include "trace/trace.hh"
#include "uarch/alpha21164.hh"
#include "uarch/ppc620.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
inline double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Forwards everything to an inner sink, timing each call. */
class TimedSink final : public lvplib::trace::TraceSink
{
  public:
    explicit TimedSink(lvplib::trace::TraceSink &inner) : inner_(inner) {}

    void
    consume(const lvplib::trace::TraceRecord &rec) override
    {
        auto t0 = Clock::now();
        inner_.consume(rec);
        ns_ += elapsedNs(t0);
        ++records_;
    }

    void
    consumeBatch(std::span<const lvplib::trace::TraceRecord> recs) override
    {
        auto t0 = Clock::now();
        inner_.consumeBatch(recs);
        ns_ += elapsedNs(t0);
        records_ += recs.size();
    }

    void
    finish() override
    {
        auto t0 = Clock::now();
        inner_.finish();
        ns_ += elapsedNs(t0);
    }

    /** Wrapped time: every call into the inner sink, in seconds. */
    double seconds() const { return static_cast<double>(ns_) * 1e-9; }

    /** Records delivered to the inner sink. */
    std::uint64_t records() const { return records_; }

  private:
    static std::uint64_t
    elapsedNs(Clock::time_point t0)
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0)
                .count());
    }

    lvplib::trace::TraceSink &inner_;
    std::uint64_t ns_ = 0;
    std::uint64_t records_ = 0;
};

/** A stage's self time: its wrapped time minus its children's. */
double selfSeconds(double wrapped,
                   std::span<const TimedSink *const> children);

/** @{ FNV-1a digests over every statistics field, in declaration
 *  order. Two runs agree on a digest exactly when they agree on every
 *  counter the paper's tables and figures are computed from. */
std::uint64_t digest(std::uint64_t records,
                     const lvplib::core::LvpStats &lvp,
                     const lvplib::uarch::OooStats &ooo);
std::uint64_t digest(std::uint64_t records,
                     const lvplib::core::LvpStats &lvp,
                     const lvplib::uarch::InOrderStats &io);
std::uint64_t digest(std::uint64_t records,
                     const lvplib::core::LvpStats &lvp);
/** @} */

/** Lower-case hex of @p d, zero-padded to 16 digits. */
std::string hex(std::uint64_t d);

/** One complete span of the library's timeline. */
struct Span
{
    std::string name;
    std::string cat;
    double start = 0; ///< seconds
    double dur = 0;   ///< seconds
    int tid = 0;
};

/** Parse the Chrome trace_event document obs::Timeline writes. */
std::vector<Span> parseTimeline(const std::string &json);

/**
 * Self time per span kind (the name up to its first ':', e.g.
 * "ppc620" for "ppc620:grep"): each span's duration minus the
 * durations of the spans nested directly inside it on the same
 * thread. Spans of category @p skipCat are ignored.
 */
std::map<std::string, double>
selfTimeByKind(const std::vector<Span> &spans, const std::string &skipCat);

/** Seconds of [t0, t1] during which no span (outside @p skipCat) was
 *  open on any thread. */
double uncoveredSeconds(const std::vector<Span> &spans,
                        const std::string &skipCat, double t0, double t1);

/** Per-thread busy seconds (union of that thread's spans outside
 *  @p skipCat), keyed by timeline tid. */
std::map<int, double> busyByThread(const std::vector<Span> &spans,
                                   const std::string &skipCat);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Time samples per unit of work (a program, an experiment), one per
 *  pass. */
using UnitSamples = std::map<std::string, std::vector<double>>;

/**
 * The typical duration of a pass: the sum over its units of each
 * unit's median time across passes. A burst of host noise that slows
 * one unit in a minority of passes drops out, where the median of
 * whole passes would keep it whenever it touched most passes.
 */
double sumOfMedians(const UnitSamples &samples);

/**
 * Tracing overhead from alternating passes: the median over pairs of
 * (traced pass / the plain pass just before it) - 1. Pairing adjacent
 * passes keeps host speed drift over the run out of the ratio.
 */
double pairedOverhead(const std::vector<double> &plainWalls,
                      const std::vector<double> &tracedWalls);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
