/**
 * @file
 * Lightweight statistics containers: counters, ratios, bucketed
 * histograms, and geometric means (the paper reports GM rows in every
 * table).
 */

#ifndef LVPLIB_UTIL_STATS_HH
#define LVPLIB_UTIL_STATS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace lvplib
{

/** Percentage of @p num over @p den; 0 when the denominator is zero. */
double pct(std::uint64_t num, std::uint64_t den);

/** Ratio of @p num over @p den; 0 when the denominator is zero. */
double ratio(std::uint64_t num, std::uint64_t den);

/** Geometric mean of a sample; 0 for an empty sample. Values <= 0 are
 *  clamped to a small epsilon so a single zero doesn't nuke the mean. */
double geomean(const std::vector<double> &xs);

/** Arithmetic mean of a sample; 0 for an empty sample. */
double mean(const std::vector<double> &xs);

/**
 * A histogram over small integer keys with an overflow bucket, used
 * e.g. for the load-verification-latency distribution of Figure 7.
 */
class Histogram
{
  public:
    /**
     * @param buckets Number of directly indexed buckets [0, buckets).
     * Samples >= buckets land in the overflow bucket.
     */
    explicit Histogram(std::size_t buckets);

    /** Record one sample of value @p v. */
    void record(std::uint64_t v);

    /** Record @p count samples of value @p v. */
    void record(std::uint64_t v, std::uint64_t count);

    /** Count in bucket @p b (b < buckets()). */
    std::uint64_t bucket(std::size_t b) const;

    /** Count of samples >= buckets(). */
    std::uint64_t overflow() const { return overflow_; }

    /** Number of directly indexed buckets. */
    std::size_t buckets() const { return counts_.size(); }

    /** Total samples recorded. */
    std::uint64_t total() const { return total_; }

    /** Fraction (0..100) of samples falling in bucket @p b. */
    double bucketPct(std::size_t b) const;

    /** Fraction (0..100) of samples in the overflow bucket. */
    double overflowPct() const;

    /** Mean sample value (overflow samples counted at their value). */
    double sampleMean() const;

    /**
     * The @p q-quantile (q clamped to [0, 1]) of the recorded
     * samples as a bucket value: the smallest bucket b such that at
     * least ceil(q * total) samples are <= b. Samples that landed in
     * the overflow bucket have no exact value, so a quantile falling
     * there is reported as buckets() (the first out-of-range value).
     * An empty histogram reports 0.
     */
    std::size_t quantile(double q) const;

    /** One directly indexed bucket, as seen through the iterator. */
    struct BucketEntry
    {
        std::size_t value;        ///< the bucket's sample value
        std::uint64_t count;      ///< samples recorded at that value
    };

    /**
     * Read-only forward iterator over the directly indexed buckets
     * (the overflow bucket is not included; read it via overflow()).
     */
    class const_iterator
    {
      public:
        using value_type = BucketEntry;
        using difference_type = std::ptrdiff_t;

        const_iterator() = default;
        const_iterator(const Histogram *h, std::size_t i)
            : h_(h), i_(i)
        {}

        BucketEntry
        operator*() const
        {
            return {i_, h_->bucket(i_)};
        }

        const_iterator &
        operator++()
        {
            ++i_;
            return *this;
        }

        const_iterator
        operator++(int)
        {
            const_iterator old = *this;
            ++i_;
            return old;
        }

        bool
        operator==(const const_iterator &o) const
        {
            return h_ == o.h_ && i_ == o.i_;
        }

      private:
        const Histogram *h_ = nullptr;
        std::size_t i_ = 0;
    };

    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, counts_.size()}; }

    /** Merge another histogram of identical shape into this one. */
    void merge(const Histogram &other);

    /** Forget all samples. */
    void clear();

    /** Same shape, same samples. */
    bool operator==(const Histogram &o) const = default;

  private:
    std::vector<std::uint64_t> counts_;
    std::uint64_t overflow_ = 0;
    std::uint64_t total_ = 0;
    double sum_ = 0.0;
};

} // namespace lvplib

#endif // LVPLIB_UTIL_STATS_HH
