#include "sim/core.hpp"

namespace spmrt {

namespace {

/** True when [addr, addr+bytes) sits entirely inside one local window. */
inline bool
wholeRangeLocal(const Core &core, Addr addr, uint32_t bytes)
{
    return bytes == 0 ||
           (core.isLocalSpm(addr) && core.isLocalSpm(addr + bytes - 1));
}

/** Issue slots a burst occupies: one per LLC line (MemorySystem::kMaxChunk)
 *  it touches, as the memory system splits it. */
uint32_t
burstChunks(Addr addr, uint32_t bytes)
{
    if (bytes == 0)
        return 0;
    constexpr uint64_t kLine = MemorySystem::kMaxChunk;
    return static_cast<uint32_t>((uint64_t{addr} + bytes - 1) / kLine -
                                 addr / kLine + 1);
}

} // namespace

void
Core::read(Addr addr, void *out, uint32_t bytes)
{
    engine_.syncPoint(id_);
    // The burst issues one chunk per cycle and completes at the slowest
    // chunk; stats and checker bookkeeping stay hoisted out of the
    // per-chunk loop. A burst that leaves this core's scratchpad is
    // globally visible traffic and follows the issue protocol of a
    // scalar load (see issueLoad()).
    const bool local = wholeRangeLocal(*this, addr, bytes);
    if (local || engine_.remoteInlineOk(id_, now() + kCommitDelta))
        engine_.advanceTo(id_, performLoadBurst(now(), addr, out, bytes));
    else
        capture(OpKind::LoadBurst, addr, bytes, nullptr, out);
    if (!local) // completion gate, see issueLoad()
        engine_.syncPoint(id_);
    const uint32_t chunks = burstChunks(addr, bytes);
    stats_.isa.loads += chunks;
    stats_.isa.instructions += chunks;
}

void
Core::write(Addr addr, const void *in, uint32_t bytes)
{
    // Posted per chunk: the core advances only past the issue slots, not
    // the stores' arrival (fence() waits on the drain time).
    const bool local = wholeRangeLocal(*this, addr, bytes);
    if (!local)
        engine_.syncPoint(id_);
    if (local || engine_.remoteInlineOk(id_, now() + kCommitDelta))
        engine_.advanceTo(id_, performStoreBurst(now(), addr, in, bytes));
    else
        capture(OpKind::StoreBurst, addr, bytes, in, nullptr);
    const uint32_t chunks = burstChunks(addr, bytes);
    stats_.isa.stores += chunks;
    stats_.isa.instructions += chunks;
}

Cycles
Core::performLoadBurst(Cycles issue, Addr addr, void *dst, uint32_t bytes)
{
    Cycles done = mem_.loadBurst(id_, issue, addr, dst, bytes).lastDone;
    if (ConcurrencyChecker *ck = mem_.checker())
        ck->onLoad(id_, addr, bytes, done);
    return done;
}

Cycles
Core::performStoreBurst(Cycles issue, Addr addr, const void *src,
                        uint32_t bytes)
{
    Cycles done = mem_.storeBurst(id_, issue, addr, src, bytes).lastIssue;
    if (ConcurrencyChecker *ck = mem_.checker())
        ck->onStore(id_, addr, bytes, done);
    return done;
}

// ---- Remote-op capture and commit ----------------------------------------

void
Core::capture(OpKind kind, Addr addr, uint32_t bytes, const void *src,
              void *dst, AmoOp amo_op)
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
    op.amoOp = amo_op;
    op.issue = now();
    op.addr = addr;
    op.bytes = bytes;
    op.dst = dst;
    if (src != nullptr) {
        const auto *first = static_cast<const uint8_t *>(src);
        op.payload.assign(first, first + bytes);
    }
    if (opCount_++ == 0)
        engine_.scheduleRemoteOp(id_, op.issue + kCommitDelta);
    if (!posted(kind)) {
        engine_.block(id_, Engine::ParkKind::Commit);
        return;
    }
    // A remote store returns issue + 1 and a burst issue + chunks
    // whatever the memory state, so the issue slots are charged now.
    ++pendingPosted_;
    engine_.advance(id_,
                    kind == OpKind::StoreBurst ? burstChunks(addr, bytes)
                                               : 1);
}

Cycles
Core::executeHeadOp()
{
    SPMRT_ASSERT(opCount_ != 0, "core %u has no captured op to commit",
                 id_);
    // The slot stays valid through the commit: only this core's guest
    // code captures into the ring, and it cannot run until we return.
    // The perform call fires the kind's checker hook here, where the
    // op's effect lands. The guest's task context cannot have moved past
    // the op: blocking issuers are parked until the commit, and posted
    // issuers fence before every task boundary.
    const CapturedOp &op = opRing_[opHead_];
    switch (op.kind) {
      case OpKind::Load:
      case OpKind::LoadSync:
        engine_.commitWake(
            id_, performLoad(op.kind, op.issue, op.addr, op.dst, op.bytes));
        break;
      case OpKind::LoadBurst:
        engine_.commitWake(
            id_, performLoadBurst(op.issue, op.addr, op.dst, op.bytes));
        break;
      case OpKind::Amo: {
        uint32_t operand;
        std::memcpy(&operand, op.payload.data(), sizeof(operand));
        engine_.commitWake(id_, performAmo(op.issue, op.addr, op.amoOp,
                                           operand,
                                           *static_cast<uint32_t *>(op.dst)));
        break;
      }
      case OpKind::Store:
      case OpKind::StoreRelease:
        performStore(op.kind, op.issue, op.addr, op.payload.data(),
                     op.bytes);
        break;
      case OpKind::StoreBurst:
        performStoreBurst(op.issue, op.addr, op.payload.data(), op.bytes);
        break;
    }
    if (posted(op.kind) && --pendingPosted_ == 0 && fenceWaiting_)
        engine_.commitWake(id_, 0);
    opHead_ = (opHead_ + 1) & (static_cast<uint32_t>(opRing_.size()) - 1);
    return --opCount_ == 0 ? Engine::kNoPendingOp
                           : opRing_[opHead_].issue + kCommitDelta;
}

} // namespace spmrt
