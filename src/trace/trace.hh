/**
 * @file
 * Dynamic-trace record types and the streaming sink interface that
 * connects the three phases of the paper's framework (Section 5):
 * trace generation -> LVP-unit simulation -> timing simulation.
 */

#ifndef LVPLIB_TRACE_TRACE_HH
#define LVPLIB_TRACE_TRACE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "isa/instruction.hh"
#include "util/types.hh"

namespace lvplib::trace
{

/**
 * Per-load prediction annotation: the paper's two bits of state per
 * load handed to the timing simulators. Only a chain's predictor
 * annotator (core::Annotator) stamps it, into its own copy of each
 * record, for the timing model right behind it; traces never store
 * it.
 */
enum class PredState : std::uint8_t
{
    None,      ///< LCT said "don't predict" (or no LVP unit present)
    Incorrect, ///< predicted, verification failed
    Correct,   ///< predicted, verified against the memory value
    Constant,  ///< predicted and verified by the CVU (no cache access)
};

/**
 * One retired dynamic instruction. The static instruction is referenced
 * by pointer; the Program outlives every simulation phase.
 */
struct TraceRecord
{
    SeqNum seq = 0;      ///< dynamic sequence number, from 0
    Addr pc = 0;         ///< instruction address
    const isa::Instruction *inst = nullptr;
    Addr effAddr = 0;    ///< effective address (memory ops only)
    Word value = 0;      ///< loaded value / stored value (memory ops)
    Word destValue = 0;  ///< value written to destReg() (any producer)
    bool taken = false;  ///< branch outcome (branches only)
    Addr nextPc = 0;     ///< architectural successor pc
    PredState pred = PredState::None; ///< stamped by an annotator
};

/**
 * A consumer of a dynamic-instruction stream. Phases compose by
 * chaining sinks; finish() flushes at end-of-trace.
 *
 * Producers that already hold records in memory (the block-buffered
 * trace reader, the interpreter's retire buffer) hand whole spans to
 * consumeBatch(), amortizing one virtual call over thousands of
 * records. The default forwards record-at-a-time, so a sink only
 * implementing consume() observes the exact same sequence; hot sinks
 * override consumeBatch() to keep the per-record loop non-virtual.
 * Overrides must preserve record order and per-record effects (an
 * exception thrown at record k must leave records [0, k) consumed).
 */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Consume one retired instruction. */
    virtual void consume(const TraceRecord &rec) = 0;

    /** Consume a span of retired instructions, in order. */
    virtual void
    consumeBatch(std::span<const TraceRecord> recs)
    {
        for (const TraceRecord &rec : recs)
            consume(rec);
    }

    /** End of trace. */
    virtual void finish() {}
};

/** A sink that discards every record: the end of a predictor-only
 *  chain, whose result is the predictor's statistics. */
class NullSink : public TraceSink
{
  public:
    void consume(const TraceRecord &) override {}
    void consumeBatch(std::span<const TraceRecord>) override {}
};

/**
 * A sink that forwards every record (and batch) to N downstream
 * sinks, in the order given. One trace replay through a MultiSink
 * feeds a whole configuration sweep in a single pass over the file —
 * each downstream sees exactly the stream it would have seen from its
 * own private replay.
 */
class MultiSink : public TraceSink
{
  public:
    explicit MultiSink(std::vector<TraceSink *> sinks)
        : sinks_(std::move(sinks))
    {}

    void
    consume(const TraceRecord &rec) override
    {
        for (TraceSink *s : sinks_)
            s->consume(rec);
    }

    void
    consumeBatch(std::span<const TraceRecord> recs) override
    {
        for (TraceSink *s : sinks_)
            s->consumeBatch(recs);
    }

    void
    finish() override
    {
        for (TraceSink *s : sinks_)
            s->finish();
    }

  protected:
    std::vector<TraceSink *> sinks_;
};

} // namespace lvplib::trace

#endif // LVPLIB_TRACE_TRACE_HH
