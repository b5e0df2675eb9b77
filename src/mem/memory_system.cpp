#include "mem/memory_system.hpp"

#include <algorithm>

namespace spmrt {

namespace {

/** Request packets carry the 4-byte address beyond the header flit. */
constexpr uint32_t kRequestPayload = 4;

} // namespace

MemorySystem::MemorySystem(const MachineConfig &cfg)
    : cfg_(cfg), map_(cfg), noc_(cfg), dram_(cfg), llc_(cfg, dram_),
      dramData_(cfg.dramBytes)
{
    spmData_.assign(static_cast<size_t>(cfg.numCores()) * cfg.spmBytes, 0);
    spmPorts_.assign(cfg.numCores(), UnitFluidServer{});
    storeDrain_.assign(cfg.numCores(), 0);
    spmStride_ = static_cast<uint32_t>(map_.spmStride());
    spmShift_ = map_.spmStrideShift();
    spmSpan_ = cfg_.numCores() * spmStride_;
    dramStart_ = map_.dramBase();
    spmBase_ = spmData_.data();
    dramBase_ = dramData_.data();
}

uint8_t *
MemorySystem::resolveSlow(Addr addr, uint32_t size, DecodedAddr &decoded)
{
    ++decodeMisses_;
    decoded = map_.decode(addr, size); // asserts bounds, panics unmapped
    if (decoded.region == MemRegion::Spm)
        return spmBase_ + static_cast<size_t>(decoded.owner) * cfg_.spmBytes +
               decoded.offset;
    return dramBase_ + decoded.offset;
}

Cycles
MemorySystem::loadRemote(CoreId core, Cycles start,
                         const DecodedAddr &decoded, uint32_t size)
{
    if (decoded.region == MemRegion::Spm) {
        ++stats_.remoteSpmLoads;
        NocEndpoint self = noc_.coreEndpoint(core);
        NocEndpoint owner = noc_.coreEndpoint(decoded.owner);
        Cycles at_owner =
            noc_.traverse(self, owner, start, kRequestPayload);
        Cycles served = spmService(decoded.owner, at_owner);
        return noc_.traverse(owner, self, served, size);
    }

    ++stats_.dramLoads;
    NocEndpoint self = noc_.coreEndpoint(core);
    NocEndpoint bank = noc_.bankEndpoint(llc_.bankOf(decoded.offset));
    Cycles at_bank = noc_.traverse(self, bank, start, kRequestPayload);
    Cycles served = llc_.access(at_bank, decoded.offset, size, false);
    return noc_.traverse(bank, self, served, size);
}

Cycles
MemorySystem::storeRemote(CoreId core, Cycles start,
                          const DecodedAddr &decoded, uint32_t size)
{
    Cycles arrival;
    if (decoded.region == MemRegion::Spm) {
        ++stats_.remoteSpmStores;
        NocEndpoint self = noc_.coreEndpoint(core);
        NocEndpoint owner = noc_.coreEndpoint(decoded.owner);
        Cycles at_owner = noc_.traverse(self, owner, start, size);
        arrival = spmService(decoded.owner, at_owner);
    } else {
        ++stats_.dramStores;
        NocEndpoint self = noc_.coreEndpoint(core);
        NocEndpoint bank = noc_.bankEndpoint(llc_.bankOf(decoded.offset));
        Cycles at_bank = noc_.traverse(self, bank, start, size);
        arrival = llc_.access(at_bank, decoded.offset, size, true);
    }
    storeDrain_[core] =
        arrival > storeDrain_[core] ? arrival : storeDrain_[core];
    // Posted: the core pays one issue cycle and moves on.
    return start + 1;
}

BurstResult
MemorySystem::loadBurst(CoreId core, Cycles issue, Addr addr, void *out,
                        uint32_t bytes)
{
    BurstResult result;
    result.lastDone = issue;
    result.lastIssue = issue;
    if (bytes == 0)
        return result;

    // Whole-burst local fast path: resolve the first chunk (which the
    // generic loop would do anyway); if the issuing core's own SPM
    // window covers the entire burst, do one byte copy and a tight
    // port-timing loop.
    uint32_t first_chunk =
        std::min(bytes, kMaxChunk - (addr % kMaxChunk));
    DecodedAddr decoded;
    const uint8_t *base = resolve(addr, first_chunk, decoded);
    if (decoded.region == MemRegion::Spm && decoded.owner == core &&
        decoded.offset + bytes <= cfg_.spmBytes) {
        std::memcpy(out, base, bytes);
        uint32_t offset = 0;
        while (offset < bytes) {
            uint32_t chunk = std::min(
                bytes - offset, kMaxChunk - ((addr + offset) % kMaxChunk));
            Cycles done = spmService(core, issue);
            if (done > result.lastDone)
                result.lastDone = done;
            issue += 1;
            offset += chunk;
            ++result.chunks;
        }
        stats_.localSpmLoads += result.chunks;
        result.lastIssue = issue;
        return result;
    }

    // Generic per-chunk path (remote SPM, DRAM, or a burst that leaves
    // the cached window — e.g. one crossing into a neighbour's SPM).
    auto *dst = static_cast<uint8_t *>(out);
    uint32_t offset = 0;
    while (offset < bytes) {
        uint32_t chunk = std::min(bytes - offset,
                                  kMaxChunk - ((addr + offset) % kMaxChunk));
        Cycles done = load(core, issue, addr + offset, dst + offset, chunk);
        if (done > result.lastDone)
            result.lastDone = done;
        issue += 1; // pipelined issue, one chunk per cycle
        offset += chunk;
        ++result.chunks;
    }
    result.lastIssue = issue;
    return result;
}

BurstResult
MemorySystem::storeBurst(CoreId core, Cycles issue, Addr addr,
                         const void *in, uint32_t bytes)
{
    BurstResult result;
    result.lastDone = issue;
    result.lastIssue = issue;
    if (bytes == 0)
        return result;

    uint32_t first_chunk =
        std::min(bytes, kMaxChunk - (addr % kMaxChunk));
    DecodedAddr decoded;
    uint8_t *base = resolve(addr, first_chunk, decoded);
    if (decoded.region == MemRegion::Spm && decoded.owner == core &&
        decoded.offset + bytes <= cfg_.spmBytes) {
        std::memcpy(base, in, bytes);
        Cycles drain = storeDrain_[core];
        uint32_t offset = 0;
        while (offset < bytes) {
            uint32_t chunk = std::min(
                bytes - offset, kMaxChunk - ((addr + offset) % kMaxChunk));
            Cycles arrival = spmService(core, issue);
            if (arrival > drain)
                drain = arrival;
            if (arrival > result.lastDone)
                result.lastDone = arrival;
            issue += 1;
            offset += chunk;
            ++result.chunks;
        }
        storeDrain_[core] = drain;
        stats_.localSpmStores += result.chunks;
        result.lastIssue = issue;
        return result;
    }

    const auto *src = static_cast<const uint8_t *>(in);
    uint32_t offset = 0;
    while (offset < bytes) {
        uint32_t chunk = std::min(bytes - offset,
                                  kMaxChunk - ((addr + offset) % kMaxChunk));
        Cycles done =
            store(core, issue, addr + offset, src + offset, chunk);
        if (done > result.lastDone)
            result.lastDone = done;
        issue += 1;
        offset += chunk;
        ++result.chunks;
    }
    result.lastIssue = issue;
    return result;
}

uint32_t
MemorySystem::applyAmo(uint8_t *cell, AmoOp op, uint32_t operand)
{
    uint32_t old_value;
    std::memcpy(&old_value, cell, sizeof(old_value));
    uint32_t new_value = old_value;
    switch (op) {
      case AmoOp::Add:
        new_value = old_value + operand;
        break;
      case AmoOp::Swap:
        new_value = operand;
        break;
      case AmoOp::Or:
        new_value = old_value | operand;
        break;
      case AmoOp::And:
        new_value = old_value & operand;
        break;
      case AmoOp::Max:
        new_value = static_cast<int32_t>(old_value) >
                            static_cast<int32_t>(operand)
                        ? old_value
                        : operand;
        break;
      case AmoOp::Min:
        new_value = static_cast<int32_t>(old_value) <
                            static_cast<int32_t>(operand)
                        ? old_value
                        : operand;
        break;
    }
    std::memcpy(cell, &new_value, sizeof(new_value));
    return old_value;
}

Cycles
MemorySystem::amo(CoreId core, Cycles start, Addr addr, AmoOp op,
                  uint32_t operand, uint32_t &old_value)
{
    SPMRT_ASSERT(addr % 4 == 0, "unaligned AMO at 0x%x", addr);
    DecodedAddr decoded;
    uint8_t *cell = resolve(addr, sizeof(uint32_t), decoded);
    ++stats_.amos;

    old_value = applyAmo(cell, op, operand);

    if (decoded.region == MemRegion::Spm) {
        if (decoded.owner == core) {
            // One extra cycle for the read-modify-write turnaround.
            return spmService(core, start) + 1;
        }
        NocEndpoint self = noc_.coreEndpoint(core);
        NocEndpoint owner = noc_.coreEndpoint(decoded.owner);
        Cycles at_owner = noc_.traverse(self, owner, start, 8);
        Cycles served = spmService(decoded.owner, at_owner) + 1;
        return noc_.traverse(owner, self, served, 4);
    }

    // DRAM AMOs execute at the LLC bank, as on HammerBlade.
    NocEndpoint self = noc_.coreEndpoint(core);
    NocEndpoint bank = noc_.bankEndpoint(llc_.bankOf(decoded.offset));
    Cycles at_bank = noc_.traverse(self, bank, start, 8);
    Cycles served = llc_.access(at_bank, decoded.offset, 4, true) + 1;
    return noc_.traverse(bank, self, served, 4);
}

} // namespace spmrt
