/**
 * @file
 * Configuration of every predictor family: the paper's LVP Unit,
 * including its four Table 2 presets (Simple, Constant, Limit,
 * Perfect), and the stride, FCM, VTAGE and skewed-stride extensions.
 * core::PredictorSpec (core/value_predictor.hh) is a variant over
 * these five structs. Each compares member by member (a defaulted
 * operator<=>), so a spec is its own run-cache key: a field joins the
 * key by being declared.
 */

#ifndef LVPLIB_CORE_CONFIG_HH
#define LVPLIB_CORE_CONFIG_HH

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

namespace lvplib::core
{

class LvpUnit;
class StrideLvpUnit;
class FcmUnit;
class VtageUnit;
class SkewStrideUnit;

/**
 * Parameters of one LVP Unit instance (paper Table 2).
 *
 * A history depth greater than one implies the paper's hypothetical
 * perfect selection mechanism: a prediction counts as correct whenever
 * the loaded value appears anywhere in the entry's history.
 * perfectPrediction makes every load predict correctly and classifies
 * none as constants (the paper's "Perfect" row).
 */
struct LvpConfig
{
    using Unit = LvpUnit; ///< the unit this config builds

    std::string name = "custom";
    std::uint32_t lvptEntries = 1024; ///< direct-mapped, untagged
    std::uint32_t historyDepth = 1;   ///< values kept per LVPT entry
    std::uint32_t lctEntries = 256;   ///< direct-mapped counters
    std::uint32_t lctBits = 2;        ///< saturating-counter width
    std::uint32_t cvuEntries = 32;    ///< fully-associative CAM size
    std::uint32_t cvuWays = 0;        ///< ablation: 0 = full CAM
    bool perfectPrediction = false;   ///< oracle: all loads correct
    bool taggedLvpt = false;          ///< ablation: tag LVPT entries

    /**
     * Extension (paper Section 7): XOR this many global
     * branch-history bits into the LVPT lookup index, giving a static
     * load multiple table entries — one per recent control-flow
     * context — so context-dependent values stop destroying each
     * other. 0 (the paper's design) disables it.
     */
    std::uint32_t bhrBits = 0;

    /** Table 2 "Simple": LVPT 1024x1, LCT 256x2-bit, CVU 32. */
    static LvpConfig simple();

    /** Table 2 "Constant": LVPT 1024x1, LCT 256x1-bit, CVU 128. */
    static LvpConfig constant();

    /** Table 2 "Limit": LVPT 4096x16 (perfect selection), LCT 1024x2,
     *  CVU 128. */
    static LvpConfig limit();

    /** Table 2 "Perfect": every load predicted correctly, no
     *  constants. */
    static LvpConfig perfect();

    /** The four paper configurations, in Table 2 order. */
    static std::vector<LvpConfig> paperConfigs();

    /** Validate parameters (powers of two where required). */
    void validate() const;

    auto operator<=>(const LvpConfig &) const = default;
};

/** Parameters of a stride prediction unit. */
struct StrideConfig
{
    using Unit = StrideLvpUnit;

    std::uint32_t entries = 1024; ///< direct-mapped, untagged
    std::uint32_t lctEntries = 256;
    std::uint32_t lctBits = 2;
    std::uint32_t cvuEntries = 32;
    unsigned strideConfBits = 2; ///< confidence before using a stride

    /** Same table budget as the paper's Simple configuration. */
    static StrideConfig simple();

    /** lvp_fatal on any parameter the table math cannot support. */
    void validate() const;

    auto operator<=>(const StrideConfig &) const = default;
};

/** Parameters of an FCM prediction unit. */
struct FcmConfig
{
    using Unit = FcmUnit;

    std::uint32_t level1Entries = 1024; ///< per-pc context hashes
    std::uint32_t level2Entries = 4096; ///< context -> value table
    unsigned order = 2;                 ///< values folded into the context
    std::uint32_t lctEntries = 256;
    std::uint32_t lctBits = 2;

    /** A budget comparable to the paper's Simple configuration. */
    static FcmConfig simple();

    /** lvp_fatal on any parameter the table math cannot support. */
    void validate() const;

    auto operator<=>(const FcmConfig &) const = default;
};

/** Parameters of a VTAGE prediction unit. */
struct VtageConfig
{
    using Unit = VtageUnit;

    std::uint32_t baseEntries = 1024; ///< untagged last-value bank
    std::uint32_t bankEntries = 256;  ///< entries per tagged bank
    unsigned banks = 4;               ///< tagged banks (1..8)
    unsigned tagBits = 11;            ///< partial tag width (1..16)
    unsigned confBits = 3;            ///< prediction confidence width
    unsigned minHistory = 2;  ///< branch-history bits, shortest bank
    unsigned throttle = 128;  ///< no-predict window after a mispredict

    /** A budget comparable to the paper's Simple configuration. */
    static VtageConfig simple();

    /** lvp_fatal on any parameter the table math cannot support. */
    void validate() const;

    /** Branch-history bits folded into tagged bank @p b (0-based):
     *  geometric series minHistory * 2^b, capped at 64. */
    unsigned historyBits(unsigned b) const;

    auto operator<=>(const VtageConfig &) const = default;
};

/** Parameters of a skewed-associative stride prediction unit. */
struct SkewStrideConfig
{
    using Unit = SkewStrideUnit;

    std::uint32_t entriesPerWay = 256; ///< power of two
    unsigned ways = 3;                 ///< skewed ways (1..8)
    unsigned tagBits = 10;             ///< partial tag width (1..16)
    unsigned confBits = 3;             ///< stride confidence width
    unsigned replaceThreshold = 1; ///< conf <= this: stride replaceable

    /** A budget comparable to the paper's Simple configuration. */
    static SkewStrideConfig simple();

    /** lvp_fatal on any parameter the table math cannot support. */
    void validate() const;

    auto operator<=>(const SkewStrideConfig &) const = default;
};

} // namespace lvplib::core

#endif // LVPLIB_CORE_CONFIG_HH
