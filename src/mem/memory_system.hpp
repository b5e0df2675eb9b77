/**
 * @file
 * Functional + timing model of the whole memory system.
 *
 * Functionally, the PGAS is backed by flat host memory: one array holds
 * every core's SPM, and the DRAM image is a lazily zero-filled anonymous
 * mapping (common/host_mapping.hpp), so a machine costs the DRAM pages it
 * touches rather than its DRAM size. Every simulated access moves real
 * bytes, so workloads compute real results that tests can verify.
 *
 * Timing follows HammerBlade's organization:
 *  - local SPM: serialize on the SPM port, then a fixed 2-cycle latency;
 *  - remote SPM: request packet across the mesh, SPM port service at the
 *    owner, response packet back;
 *  - DRAM: request packet to the address-interleaved LLC bank at the mesh
 *    edge, set-associative bank lookup, DRAM line fill on a miss through
 *    the bandwidth-limited channel, response packet back;
 *  - stores are posted (the core only pays an issue cycle) but their
 *    arrival is tracked per core so fences can drain them;
 *  - AMOs execute atomically at the home endpoint (SPM port or LLC bank).
 */

#ifndef SPMRT_MEM_MEMORY_SYSTEM_HPP
#define SPMRT_MEM_MEMORY_SYSTEM_HPP

#include <cstring>
#include <vector>

#include "common/host_mapping.hpp"
#include "common/log.hpp"
#include "common/types.hpp"
#include "mem/address_map.hpp"
#include "mem/dram.hpp"
#include "mem/llc.hpp"
#include "mem/noc.hpp"
#include "sim/checker.hpp"
#include "sim/config.hpp"

namespace spmrt {

/** Atomic read-modify-write operations (RV32A-style subset). */
enum class AmoOp : uint8_t
{
    Add,  ///< fetch-and-add (subtract via negative operand)
    Swap, ///< fetch-and-swap
    Or,   ///< fetch-and-or
    And,  ///< fetch-and-and
    Max,  ///< fetch-and-max (signed)
    Min   ///< fetch-and-min (signed)
};

/** Aggregate access counters for the whole memory system. */
struct MemStats
{
    uint64_t localSpmLoads = 0;
    uint64_t localSpmStores = 0;
    uint64_t remoteSpmLoads = 0;
    uint64_t remoteSpmStores = 0;
    uint64_t dramLoads = 0;
    uint64_t dramStores = 0;
    uint64_t amos = 0;
};

/** Result of a chunked burst (see MemorySystem::loadBurst/storeBurst). */
struct BurstResult
{
    uint64_t chunks = 0;  ///< line-sized chunks the burst split into
    Cycles lastDone = 0;  ///< completion time of the slowest chunk (loads)
    Cycles lastIssue = 0; ///< issue time one past the final chunk (stores)
};

/**
 * The complete memory system for one simulated machine.
 */
class MemorySystem
{
  public:
    explicit MemorySystem(const MachineConfig &cfg);

    MemorySystem(const MemorySystem &) = delete;
    MemorySystem &operator=(const MemorySystem &) = delete;

    /** Largest single timed transfer: one LLC line. Bursts split on this. */
    static constexpr uint32_t kMaxChunk = MachineConfig::kLlcLineBytes;

    /** @name Timed guest accesses
     *  All take the issuing core and its current clock and return the
     *  core-visible completion time of the operation.
     *
     *  load() and store() are defined in the header so the dominant case
     *  — the issuing core touching its own scratchpad — inlines into the
     *  Core call sites as the computed resolve(), one predicted branch on
     *  the owner, a byte copy, and the fixed port/2-cycle timing. Remote
     *  SPM and DRAM take the out-of-line slow paths. The fast path is
     *  timing- and stats-identical to the generic one by construction:
     *  it runs exactly the same spmService() charge and the same counter
     *  increments, just without the dispatch overhead.
     *  @{
     */

    /** Blocking load of @p size bytes at @p addr into @p out. */
    Cycles
    load(CoreId core, Cycles start, Addr addr, void *out, uint32_t size)
    {
        DecodedAddr decoded;
        const uint8_t *src = resolve(addr, size, decoded);
        std::memcpy(out, src, size);
        if (decoded.region == MemRegion::Spm && decoded.owner == core) {
            ++stats_.localSpmLoads;
            return spmService(core, start);
        }
        return loadRemote(core, start, decoded, size);
    }

    /**
     * Posted store of @p size bytes. The returned time is when the core
     * may continue (issue cost only); the store's arrival is folded into
     * the core's drain time for fences.
     */
    Cycles
    store(CoreId core, Cycles start, Addr addr, const void *in,
          uint32_t size)
    {
        DecodedAddr decoded;
        std::memcpy(resolve(addr, size, decoded), in, size);
        if (decoded.region == MemRegion::Spm && decoded.owner == core) {
            ++stats_.localSpmStores;
            // A local store still holds the core for the SPM latency;
            // there is no deeper queue to post into.
            Cycles arrival = spmService(core, start);
            if (arrival > storeDrain_[core])
                storeDrain_[core] = arrival;
            return arrival;
        }
        return storeRemote(core, start, decoded, size);
    }

    /**
     * Chunked bulk load: @p bytes at @p addr split on kMaxChunk-byte LLC
     * lines, one chunk issued per cycle from @p issue. Per-chunk stats
     * and resolve work are hoisted out of the loop when the whole burst
     * lands in the issuing core's own scratchpad (one byte copy, then a
     * tight port-timing loop); chunk boundaries, charges, and counter
     * totals are identical to issuing each chunk through load().
     */
    BurstResult loadBurst(CoreId core, Cycles issue, Addr addr, void *out,
                          uint32_t bytes);

    /** Chunked bulk store, pipelined and posted per chunk (see
     *  loadBurst for the hoisted local fast path). */
    BurstResult storeBurst(CoreId core, Cycles issue, Addr addr,
                           const void *in, uint32_t bytes);

    /**
     * Atomic 32-bit read-modify-write at the home endpoint of @p addr.
     * The previous memory value is returned through @p old_value.
     */
    Cycles amo(CoreId core, Cycles start, Addr addr, AmoOp op,
               uint32_t operand, uint32_t &old_value);

    /** Earliest time all of @p core's posted stores have landed. */
    Cycles storeDrainTime(CoreId core) const { return storeDrain_[core]; }

    /** @} */

    /** @name Untimed host access (setup, verification, debugging)
     *  Defined inline through the same computed resolve() as the timed
     *  paths: stack canary checks peek/poke on every frame push/pop, so
     *  these are hot on the host even though they cost zero simulated
     *  cycles. Out-of-range addresses still reach the canonical decode
     *  panic via resolveSlow().
     *  @{
     */
    void
    poke(Addr addr, const void *in, uint32_t size)
    {
        DecodedAddr decoded;
        std::memcpy(resolve(addr, size, decoded), in, size);
    }

    void
    peek(Addr addr, void *out, uint32_t size) const
    {
        // resolve() is logically const (it only computes, or bumps the
        // diagnostic decodeMisses_ counter on the slow path).
        DecodedAddr decoded;
        const uint8_t *src =
            const_cast<MemorySystem *>(this)->resolve(addr, size, decoded);
        std::memcpy(out, src, size);
    }

    /** Set @p size bytes at @p addr to @p value (untimed, like poke). */
    void
    fill(Addr addr, uint8_t value, uint32_t size)
    {
        DecodedAddr decoded;
        std::memset(resolve(addr, size, decoded), value, size);
    }

    template <typename T>
    T
    peekAs(Addr addr) const
    {
        T value;
        peek(addr, &value, sizeof(T));
        return value;
    }

    template <typename T>
    void
    pokeAs(Addr addr, T value)
    {
        poke(addr, &value, sizeof(T));
    }
    /** @} */

    /** Install (or clear, with nullptr) a fault plan on the NoC and LLC. */
    void
    setFaultPlan(FaultPlan *plan)
    {
        noc_.setFaultPlan(plan);
        llc_.setFaultPlan(plan);
    }

    /** Install (or clear, with nullptr) the concurrency checker. */
    void setChecker(ConcurrencyChecker *checker) { checker_ = checker; }

    /** The armed checker, or nullptr. */
    ConcurrencyChecker *checker() const { return checker_; }

    const AddressMap &map() const { return map_; }
    MeshNoc &noc() { return noc_; }
    LlcModel &llc() { return llc_; }
    DramModel &dram() { return dram_; }

    /** Aggregate counters (live: every timed access counts here). */
    const MemStats &stats() const { return stats_; }

    /** Full AddressMap decodes taken so far (accesses that fell off the
     *  computed fast decode; testing — 0 proves full coverage). */
    uint64_t decodeMisses() const { return decodeMisses_; }

  private:
    /**
     * Decode @p addr and resolve its host backing pointer. The PGAS map
     * is static, so decode is a pure computation over spans precomputed
     * at construction: a subtract/compare picks the region, shift/mask
     * pick owner and offset — no cached state to miss or go stale,
     * regardless of how the scheduler interleaves cores. Purely
     * functional: timing and stats are untouched. The
     * in-range checks mirror decode()'s bounds assertions exactly;
     * anything that fails them falls to resolveSlow(), whose full
     * decode raises the canonical panic/assert.
     */
    uint8_t *
    resolve(Addr addr, uint32_t size, DecodedAddr &decoded)
    {
        uint32_t spm_off = addr - AddressMap::kSpmBase;
        if (spm_off < spmSpan_) {
            uint32_t off = spm_off & (spmStride_ - 1);
            if (off + size <= cfg_.spmBytes) {
                CoreId owner = spm_off >> spmShift_;
                decoded.region = MemRegion::Spm;
                decoded.owner = owner;
                decoded.offset = off;
                return spmBase_ +
                       static_cast<size_t>(owner) * cfg_.spmBytes + off;
            }
            return resolveSlow(addr, size, decoded);
        }
        uint32_t dram_off = addr - dramStart_;
        if (addr >= dramStart_ &&
            static_cast<uint64_t>(dram_off) + size <= cfg_.dramBytes) {
            decoded.region = MemRegion::Dram;
            decoded.owner = kInvalidCore;
            decoded.offset = dram_off;
            return dramBase_ + dram_off;
        }
        return resolveSlow(addr, size, decoded);
    }

    /** Full AddressMap decode (out of line; panics on bad accesses). */
    uint8_t *resolveSlow(Addr addr, uint32_t size, DecodedAddr &decoded);

    /** Timed remote-SPM / DRAM load path (out of line). */
    Cycles loadRemote(CoreId core, Cycles start, const DecodedAddr &decoded,
                      uint32_t size);

    /** Timed remote-SPM / DRAM posted-store path (out of line). */
    Cycles storeRemote(CoreId core, Cycles start,
                       const DecodedAddr &decoded, uint32_t size);

    /** Serialize on an SPM port and pay its access latency. Inline: this
     *  is the entire timing model of a local scratchpad access. */
    Cycles
    spmService(CoreId owner, Cycles arrive)
    {
        Cycles wait = spmPorts_[owner].charge(arrive, 1);
        return arrive + wait + MachineConfig::kSpmLatency;
    }

    /** Apply @p op to a 32-bit cell, returning the old value. */
    static uint32_t applyAmo(uint8_t *cell, AmoOp op, uint32_t operand);

    MachineConfig cfg_;
    AddressMap map_;
    MeshNoc noc_;
    DramModel dram_;
    LlcModel llc_;

    HostMapping dramData_;         ///< DRAM image, zero-filled on touch
    std::vector<uint8_t> spmData_; ///< all cores' SPMs, contiguous
    std::vector<UnitFluidServer> spmPorts_;
    std::vector<Cycles> storeDrain_;
    MemStats stats_;
    ConcurrencyChecker *checker_ = nullptr;

    uint64_t decodeMisses_ = 0; ///< full decodes (slow path; testing)

    // Decode constants, snapped from the AddressMap at construction.
    uint32_t spmSpan_ = 0;          ///< numCores * spmStride
    uint32_t spmStride_ = 0;        ///< map_.spmStride() (power of two)
    uint32_t spmShift_ = 0;         ///< log2(spmStride_)
    Addr dramStart_ = 0;            ///< map_.dramBase()
    uint8_t *spmBase_ = nullptr;    ///< spmData_.data()
    uint8_t *dramBase_ = nullptr;   ///< dramData_.data()
};

} // namespace spmrt

#endif // SPMRT_MEM_MEMORY_SYSTEM_HPP
