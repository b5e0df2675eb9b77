/**
 * @file
 * First-fit free-list allocator for the simulated DRAM address range.
 *
 * Metadata lives entirely on the host side (a map from simulated address to
 * block size), so allocation itself costs no simulated time — matching the
 * paper's setup where inputs are placed in DRAM before the kernel under
 * measurement starts. Freed blocks coalesce with both neighbours.
 */

#ifndef SPMRT_MEM_ALLOC_HPP
#define SPMRT_MEM_ALLOC_HPP

#include <cstdint>
#include <map>

#include "common/bits.hpp"
#include "common/log.hpp"
#include "common/types.hpp"

namespace spmrt {

/**
 * Allocator over a contiguous simulated address range.
 */
class RangeAllocator
{
  public:
    /** Manage [base, base + bytes). */
    RangeAllocator(Addr base, uint64_t bytes)
    {
        SPMRT_ASSERT(bytes > 0, "empty allocator range");
        SPMRT_ASSERT(base != kNullAddr,
                     "address 0 is the null sentinel and cannot be managed");
        freeBlocks_[base] = bytes;
    }

    /**
     * Allocate @p bytes aligned to @p align (power of two).
     * @return the simulated address, or kNullAddr when out of memory.
     */
    Addr
    alloc(uint64_t bytes, uint32_t align = 8)
    {
        SPMRT_ASSERT(isPowerOfTwo(align), "bad alignment %u", align);
        if (bytes == 0)
            bytes = 1;
        for (auto it = freeBlocks_.begin(); it != freeBlocks_.end(); ++it) {
            Addr block = it->first;
            uint64_t size = it->second;
            Addr aligned = alignUp<Addr>(block, align);
            uint64_t pad = aligned - block;
            if (pad + bytes > size)
                continue;
            // Carve [aligned, aligned+bytes) out of the block.
            freeBlocks_.erase(it);
            if (pad > 0)
                freeBlocks_[block] = pad;
            uint64_t tail = size - pad - bytes;
            if (tail > 0)
                freeBlocks_[aligned + bytes] = tail;
            liveBlocks_[aligned] = bytes;
            inUse_ += bytes;
            return aligned;
        }
        return kNullAddr;
    }

    /** Release a block previously returned by alloc(). */
    void
    release(Addr addr)
    {
        auto live = liveBlocks_.find(addr);
        SPMRT_ASSERT(live != liveBlocks_.end(),
                     "free of unallocated address 0x%x", addr);
        uint64_t size = live->second;
        liveBlocks_.erase(live);
        inUse_ -= size;

        auto [it, inserted] = freeBlocks_.emplace(addr, size);
        SPMRT_ASSERT(inserted, "double free at 0x%x", addr);
        // Coalesce with successor.
        auto next = std::next(it);
        if (next != freeBlocks_.end() &&
            it->first + it->second == next->first) {
            it->second += next->second;
            freeBlocks_.erase(next);
        }
        // Coalesce with predecessor.
        if (it != freeBlocks_.begin()) {
            auto prev = std::prev(it);
            if (prev->first + prev->second == it->first) {
                prev->second += it->second;
                freeBlocks_.erase(it);
            }
        }
    }

    /** Bytes currently allocated. */
    uint64_t bytesInUse() const { return inUse_; }
    /** Number of live allocations. */
    size_t liveBlockCount() const { return liveBlocks_.size(); }

  private:
    uint64_t inUse_ = 0;
    std::map<Addr, uint64_t> freeBlocks_; ///< addr -> size, coalesced
    std::map<Addr, uint64_t> liveBlocks_; ///< addr -> size
};

} // namespace spmrt

#endif // SPMRT_MEM_ALLOC_HPP
