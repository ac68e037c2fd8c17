#include "layers.hh"

#include <algorithm>
#include <cstdio>

#include "obs/json.hh"

namespace perfbench
{

using namespace lvplib;

double
selfSeconds(double wrapped, std::span<const TimedSink *const> children)
{
    for (const TimedSink *c : children)
        wrapped -= c->seconds();
    return wrapped;
}

namespace
{

/** Incremental FNV-1a over 64-bit words. */
class Fnv
{
  public:
    Fnv &
    operator<<(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ull;
        }
        return *this;
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

Fnv &
operator<<(Fnv &h, const core::LvpStats &s)
{
    return h << s.loads << s.noPred << s.incorrect << s.correct
             << s.constants << s.actualUnpred << s.actualPred
             << s.unpredIdentified << s.predIdentified << s.cvuInsertions
             << s.cvuStoreInvalidations << s.cvuDisplaceInvalidations
             << s.cvuStaleHits;
}

Fnv &
operator<<(Fnv &h, const Histogram &hist)
{
    h << hist.buckets() << hist.total() << hist.overflow();
    for (std::size_t b = 0; b < hist.buckets(); ++b)
        h << hist.bucket(b);
    return h;
}

} // namespace

std::uint64_t
digest(std::uint64_t records, const core::LvpStats &lvp,
       const uarch::OooStats &s)
{
    Fnv h;
    h << records << lvp << s.cycles << s.instructions << s.loads
      << s.stores << s.verifyLatency;
    for (std::size_t i = 0; i < s.rsWaitCycles.size(); ++i)
        h << s.rsWaitCycles[i] << s.rsWaitInsts[i];
    h << s.bankConflictCycles << s.l1Misses << s.l1Accesses
      << s.constMissesAvoided << s.branchMispredicts << s.predictedLoads
      << s.reissuedInsts;
    return h.value();
}

std::uint64_t
digest(std::uint64_t records, const core::LvpStats &lvp,
       const uarch::InOrderStats &s)
{
    Fnv h;
    h << records << lvp << s.cycles << s.instructions << s.loads
      << s.stores << s.l1Accesses << s.l1Misses << s.predictedLoads
      << s.droppedPredictions << s.constLoads << s.squashes
      << s.branchMispredicts;
    return h.value();
}

std::uint64_t
digest(std::uint64_t records, const core::LvpStats &lvp)
{
    Fnv h;
    h << records << lvp;
    return h.value();
}

std::string
hex(std::uint64_t d)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(d));
    return buf;
}

std::vector<Span>
parseTimeline(const std::string &json)
{
    std::string error;
    auto doc = obs::parseJson(json, error);
    std::vector<Span> out;
    const obs::JsonValue *events = doc ? doc->find("traceEvents") : nullptr;
    if (!events)
        return out;
    for (const auto &e : events->items()) {
        const auto *name = e.find("name");
        const auto *cat = e.find("cat");
        const auto *ts = e.find("ts");
        const auto *dur = e.find("dur");
        const auto *tid = e.find("tid");
        if (!name || !cat || !ts || !dur || !tid)
            continue;
        out.push_back({name->asString(), cat->asString(),
                       ts->asDouble() * 1e-6, dur->asDouble() * 1e-6,
                       static_cast<int>(tid->asDouble())});
    }
    return out;
}

namespace
{

/** Spans outside @p skipCat grouped by thread, each group ordered by
 *  start (outer span first on ties). */
std::map<int, std::vector<const Span *>>
byThread(const std::vector<Span> &spans, const std::string &skipCat)
{
    std::map<int, std::vector<const Span *>> out;
    for (const auto &s : spans)
        if (s.cat != skipCat)
            out[s.tid].push_back(&s);
    for (auto &[tid, v] : out)
        std::sort(v.begin(), v.end(), [](const Span *a, const Span *b) {
            return a->start != b->start ? a->start < b->start
                                        : a->dur > b->dur;
        });
    return out;
}

/** Merge [start, end) intervals and return their total length. */
double
unionLength(std::vector<std::pair<double, double>> iv)
{
    std::sort(iv.begin(), iv.end());
    double total = 0, lo = 0, hi = -1;
    for (const auto &[a, b] : iv) {
        if (a > hi) {
            if (hi > lo)
                total += hi - lo;
            lo = a;
            hi = b;
        } else {
            hi = std::max(hi, b);
        }
    }
    if (hi > lo)
        total += hi - lo;
    return total;
}

} // namespace

std::map<std::string, double>
selfTimeByKind(const std::vector<Span> &spans, const std::string &skipCat)
{
    std::map<std::string, double> out;
    for (const auto &[tid, v] : byThread(spans, skipCat)) {
        // Walk in start order with a stack of open ancestors; each
        // span's duration is charged to itself and debited from its
        // direct parent.
        std::vector<const Span *> open;
        for (const Span *s : v) {
            while (!open.empty() &&
                   open.back()->start + open.back()->dur <= s->start)
                open.pop_back();
            std::string kind = s->name.substr(0, s->name.find(':'));
            out[kind] += s->dur;
            if (!open.empty()) {
                const Span *p = open.back();
                out[p->name.substr(0, p->name.find(':'))] -= s->dur;
            }
            open.push_back(s);
        }
    }
    return out;
}

double
uncoveredSeconds(const std::vector<Span> &spans, const std::string &skipCat,
                 double t0, double t1)
{
    std::vector<std::pair<double, double>> iv;
    for (const auto &s : spans)
        if (s.cat != skipCat)
            iv.emplace_back(std::max(s.start, t0),
                            std::min(s.start + s.dur, t1));
    std::erase_if(iv, [](const auto &p) { return p.second <= p.first; });
    return std::max(0.0, (t1 - t0) - unionLength(std::move(iv)));
}

std::map<int, double>
busyByThread(const std::vector<Span> &spans, const std::string &skipCat)
{
    std::map<int, double> out;
    for (const auto &[tid, v] : byThread(spans, skipCat)) {
        std::vector<std::pair<double, double>> iv;
        for (const Span *s : v)
            iv.emplace_back(s->start, s->start + s->dur);
        out[tid] = unionLength(std::move(iv));
    }
    return out;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
pairedOverhead(const std::vector<double> &plainWalls,
               const std::vector<double> &tracedWalls)
{
    std::vector<double> ratios;
    for (std::size_t k = 0;
         k < std::min(plainWalls.size(), tracedWalls.size()); ++k)
        ratios.push_back(tracedWalls[k] / plainWalls[k]);
    return ratios.empty() ? 0 : median(std::move(ratios)) - 1;
}

double
sumOfMedians(const UnitSamples &samples)
{
    double total = 0;
    for (const auto &[unit, v] : samples)
        total += median(v);
    return total;
}

} // namespace perfbench
