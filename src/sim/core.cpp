#include "sim/core.hpp"

#include <algorithm>

namespace spmrt {

namespace {

/** True when [addr, addr+bytes) sits entirely inside one local window. */
inline bool
wholeRangeLocal(const Core &core, Addr addr, uint32_t bytes)
{
    return bytes == 0 ||
           (core.isLocalSpm(addr) && core.isLocalSpm(addr + bytes - 1));
}

/** Number of issue slots a burst occupies (chunks split on LLC lines). */
uint32_t
burstChunks(Addr addr, uint32_t bytes)
{
    uint32_t chunks = 0;
    uint32_t offset = 0;
    while (offset < bytes) {
        uint32_t chunk =
            std::min(bytes - offset,
                     MemorySystem::kMaxChunk -
                         ((addr + offset) % MemorySystem::kMaxChunk));
        offset += chunk;
        ++chunks;
    }
    return chunks;
}

} // namespace

void
Core::read(Addr addr, void *out, uint32_t bytes)
{
    engine_.syncPoint(id_);
    // The burst splits on LLC lines (MemorySystem::kMaxChunk), issues one
    // chunk per cycle, and completes at the slowest chunk; stats and
    // checker bookkeeping stay hoisted out of the per-chunk loop. A burst
    // that leaves this core's scratchpad is globally visible traffic and
    // follows the capture protocol like a scalar load.
    const bool local = wholeRangeLocal(*this, addr, bytes);
    if (local || engine_.remoteInlineOk(id_, now() + kCommitDelta)) {
        BurstResult burst = mem_.loadBurst(id_, now(), addr, out, bytes);
        stats_.isa.loads += burst.chunks;
        stats_.isa.instructions += burst.chunks;
        engine_.advanceTo(id_, burst.lastDone);
        if (ConcurrencyChecker *ck = mem_.checker())
            ck->onLoad(id_, addr, bytes, now());
        if (!local) // completion gate, see Core::load()
            engine_.syncPoint(id_);
    } else {
        captureBlocking(CapturedOp::LoadBurst, addr, out, bytes);
        uint32_t chunks = burstChunks(addr, bytes);
        stats_.isa.loads += chunks;
        stats_.isa.instructions += chunks;
    }
}

void
Core::write(Addr addr, const void *in, uint32_t bytes)
{
    // Posted per chunk: the core advances only past the issue slots, not
    // the stores' arrival (fence() waits on the drain time).
    // Checker hooks ride the memory-system call (see Core::load);
    // captured bursts hook at the commit instead.
    if (wholeRangeLocal(*this, addr, bytes)) {
        BurstResult burst = mem_.storeBurst(id_, now(), addr, in, bytes);
        stats_.isa.stores += burst.chunks;
        stats_.isa.instructions += burst.chunks;
        engine_.advanceTo(id_, burst.lastIssue);
        if (ConcurrencyChecker *ck = mem_.checker())
            ck->onStore(id_, addr, bytes, now());
    } else {
        engine_.syncPoint(id_);
        if (engine_.remoteInlineOk(id_, now() + kCommitDelta)) {
            BurstResult burst =
                mem_.storeBurst(id_, now(), addr, in, bytes);
            stats_.isa.stores += burst.chunks;
            stats_.isa.instructions += burst.chunks;
            engine_.advanceTo(id_, burst.lastIssue);
            if (ConcurrencyChecker *ck = mem_.checker())
                ck->onStore(id_, addr, bytes, now());
        } else {
            uint32_t chunks = burstChunks(addr, bytes);
            capturePostedBurst(addr, in, bytes);
            stats_.isa.stores += chunks;
            stats_.isa.instructions += chunks;
        }
    }
}

// ---- Remote-op capture and commit ----------------------------------------

Core::CapturedOp &
Core::enqueueOp(CapturedOp::Kind kind, Addr addr, uint32_t bytes)
{
    if (opCount_ == opRing_.size()) {
        // Full: unroll into a ring twice the size, oldest op first.
        std::vector<CapturedOp> grown(opRing_.size() * 2);
        for (uint32_t i = 0; i < opCount_; ++i)
            grown[i] = std::move(
                opRing_[(opHead_ + i) & (opRing_.size() - 1)]);
        opRing_ = std::move(grown);
        opHead_ = 0;
    }
    CapturedOp &op = opRing_[(opHead_ + opCount_) & (opRing_.size() - 1)];
    op.kind = kind;
    op.issue = now();
    op.addr = addr;
    op.bytes = bytes;
    if (opCount_++ == 0)
        engine_.scheduleRemoteOp(id_, op.issue + kCommitDelta);
    return op;
}

void
Core::captureBlocking(CapturedOp::Kind kind, Addr addr, void *dst,
                      uint32_t bytes)
{
    enqueueOp(kind, addr, bytes).dst = dst;
    // Parked until the commit computes the completion time; the guest
    // resumes with *dst filled and the clock advanced to the done time.
    engine_.block(id_, Engine::ParkKind::Commit);
    // Completion gate, matching the inline path (see Core::load): the
    // wake jumped the clock to the op's done time.
    engine_.syncPoint(id_);
}

void
Core::captureAmo(Addr addr, AmoOp amo_op, uint32_t operand, void *dst)
{
    CapturedOp &op = enqueueOp(CapturedOp::Amo, addr, sizeof(uint32_t));
    op.amoOp = amo_op;
    op.amoOperand = operand;
    op.dst = dst;
    engine_.block(id_, Engine::ParkKind::Commit);
    engine_.syncPoint(id_); // completion gate, see captureBlocking()
}

void
Core::capturePostedStore(CapturedOp::Kind kind, Addr addr,
                         const void *src, uint32_t bytes)
{
    SPMRT_ASSERT(bytes <= sizeof(uint64_t),
                 "scalar store of %u bytes exceeds the inline payload",
                 bytes);
    std::memcpy(&enqueueOp(kind, addr, bytes).value, src, bytes);
    ++pendingPosted_;
    // The posted issue cost: storeRemote returns start + 1 regardless of
    // memory state, so the core charges it here and runs on.
    engine_.advance(id_, 1);
}

void
Core::capturePostedBurst(Addr addr, const void *src, uint32_t bytes)
{
    const auto *first = static_cast<const uint8_t *>(src);
    enqueueOp(CapturedOp::StoreBurst, addr, bytes)
        .payload.assign(first, first + bytes);
    ++pendingPosted_;
    // One issue slot per chunk (BurstResult::lastIssue is issue + chunks
    // on every path), charged here so the core can run on.
    engine_.advance(id_, burstChunks(addr, bytes));
}

Cycles
Core::executeHeadOp()
{
    SPMRT_ASSERT(opCount_ != 0, "core %u has no captured op to commit",
                 id_);
    // The slot stays valid through the commit: only this core's guest
    // code captures into the ring, and it cannot run until we return.
    const CapturedOp &op = opRing_[opHead_];
    // Checker hooks fire here, at the commit: this is where the op's
    // effect lands in the memory system, so the checker observes it in
    // true effect order (see Core::load). The guest's task context
    // cannot have moved past the op — blocking issuers are parked until
    // the commit, and posted issuers fence before every task boundary.
    ConcurrencyChecker *ck = mem_.checker();
    switch (op.kind) {
      case CapturedOp::Load:
      case CapturedOp::LoadSync: {
        Cycles done = mem_.load(id_, op.issue, op.addr, op.dst, op.bytes);
        if (ck != nullptr) {
            if (op.kind == CapturedOp::LoadSync)
                ck->onLoadSync(id_, op.addr, op.bytes);
            else
                ck->onLoad(id_, op.addr, op.bytes, done);
        }
        engine_.commitWake(id_, done);
        break;
      }
      case CapturedOp::LoadBurst: {
        BurstResult burst =
            mem_.loadBurst(id_, op.issue, op.addr, op.dst, op.bytes);
        if (ck != nullptr)
            ck->onLoad(id_, op.addr, op.bytes, burst.lastDone);
        engine_.commitWake(id_, burst.lastDone);
        break;
      }
      case CapturedOp::Amo: {
        uint32_t old_value = 0;
        Cycles done = mem_.amo(id_, op.issue, op.addr, op.amoOp,
                               op.amoOperand, old_value);
        std::memcpy(op.dst, &old_value, sizeof(old_value));
        if (ck != nullptr)
            ck->onAmo(id_, op.addr, done);
        engine_.commitWake(id_, done);
        break;
      }
      case CapturedOp::Store:
      case CapturedOp::StoreRelease: {
        Cycles done =
            mem_.store(id_, op.issue, op.addr, &op.value, op.bytes);
        if (ck != nullptr) {
            if (op.kind == CapturedOp::StoreRelease)
                ck->onStoreRelease(id_, op.addr);
            else
                ck->onStore(id_, op.addr, op.bytes, done);
        }
        if (--pendingPosted_ == 0 && fenceWaiting_)
            engine_.commitWake(id_, 0);
        break;
      }
      case CapturedOp::StoreBurst: {
        Cycles done = mem_.storeBurst(id_, op.issue, op.addr,
                                      op.payload.data(), op.bytes)
                          .lastIssue;
        if (ck != nullptr)
            ck->onStore(id_, op.addr, op.bytes, done);
        if (--pendingPosted_ == 0 && fenceWaiting_)
            engine_.commitWake(id_, 0);
        break;
      }
    }
    opHead_ = (opHead_ + 1) & (static_cast<uint32_t>(opRing_.size()) - 1);
    return --opCount_ == 0 ? Engine::kNoPendingOp
                           : opRing_[opHead_].issue + kCommitDelta;
}

} // namespace spmrt
