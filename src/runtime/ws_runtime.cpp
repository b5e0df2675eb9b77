#include "runtime/ws_runtime.hpp"

namespace spmrt {

WorkStealingRuntime::WorkStealingRuntime(Machine &machine,
                                         const RuntimeConfig &cfg)
    : machine_(machine), cfg_(cfg),
      layout_(machine.config(), cfg.userSpmReserve,
              cfg.queueInSpm ? kQueueBytes : 0)
{
    const uint32_t cores = machine_.numCores();
    const AddressMap &map = machine_.mem().map();

    rootHome_ = machine_.dramAlloc(8, 4);

    // Queue storage: SPM region at a fixed offset, or per-core DRAM
    // regions reachable through a DRAM pointer table (the naive layout).
    queueRegionBase_.resize(cores);
    if (cfg_.queueInSpm) {
        for (CoreId i = 0; i < cores; ++i)
            queueRegionBase_[i] = layout_.queueBase(map, i);
    } else {
        for (CoreId i = 0; i < cores; ++i)
            queueRegionBase_[i] =
                machine_.dramAlloc(kQueueBytes, 64);
    }
    if (cfg_.queuePointerTable || !cfg_.queueInSpm) {
        queueTable_ = machine_.dramAlloc(cores * 4, 64);
        for (CoreId i = 0; i < cores; ++i)
            machine_.mem().pokeAs<uint32_t>(queueTable_ + i * 4,
                                            queueRegionBase_[i]);
    }

    // Initialize queue indices.
    for (CoreId i = 0; i < cores; ++i) {
        QueueAddrs q = queueAddrs(i);
        machine_.mem().pokeAs<uint32_t>(q.lock, 0);
        machine_.mem().pokeAs<uint32_t>(q.head, 0);
        machine_.mem().pokeAs<uint32_t>(q.tail, 0);
    }

    // Per-core DRAM overflow stacks and workers.
    dramStackBase_.resize(cores);
    workers_.reserve(cores);
    userSpm_.reserve(cores);
    for (CoreId i = 0; i < cores; ++i) {
        dramStackBase_[i] = machine_.dramAlloc(cfg_.dramStackBytes, 64);
        StackConfig stack_cfg;
        stack_cfg.spmLow = layout_.stackLow(map, i);
        stack_cfg.spmTop = layout_.stackTop(map, i);
        stack_cfg.dramBase = dramStackBase_[i];
        stack_cfg.dramBytes = cfg_.dramStackBytes;
        stack_cfg.spmResident = cfg_.stackInSpm;
        stack_cfg.swOverflowCheck = cfg_.swOverflowCheck;
        stack_cfg.regSaveWords = kRegSaveWords;
        workers_.push_back(std::make_unique<Worker>(
            *this, machine_.core(i), stack_cfg, kVictimSeed * 7919 + i));
        userSpm_.push_back(std::make_unique<SpmUserAllocator>(
            layout_.userBase(map, i), layout_.userBytes()));
    }

    // Describe the memory carving to the checker when one is armed (arm
    // via Machine::armChecker() *before* constructing the runtime).
    if (ConcurrencyChecker *ck = machine_.checker()) {
        for (CoreId i = 0; i < cores; ++i) {
            layout_.registerRegions(*ck, map, i);
            ck->registerRegion(RegionKind::Stack, dramStackBase_[i],
                               cfg_.dramStackBytes, i);
            if (!cfg_.queueInSpm) {
                QueueAddrs q = queueAddrs(i);
                ck->registerRegion(RegionKind::Queue, queueRegionBase_[i],
                                   kQueueBytes, i, q.lock);
            }
        }
    }
}

QueueAddrs
WorkStealingRuntime::queueAddrs(CoreId id) const
{
    return QueueAddrs::inRegion(queueRegionBase_[id], kQueueBytes);
}

QueueAddrs
WorkStealingRuntime::victimQueueAddrs(Core &thief, CoreId victim)
{
    if (queueTable_ != kNullAddr) {
        // Naive scheme: fetch the victim's queue pointer from the DRAM
        // table (Fig. 4a line 18's tq[vid] indirection).
        uint32_t base = thief.load<uint32_t>(queueTable_ + victim * 4);
        return QueueAddrs::inRegion(base, kQueueBytes);
    }
    // Fixed-offset scheme (Sec. 4.2): compute the remote SPM address from
    // the local queue's address — two ALU operations, no memory access.
    thief.tick(2, 2);
    return queueAddrs(victim);
}

Cycles
WorkStealingRuntime::run(const std::function<void(TaskContext &)> &root_fn,
                         uint32_t root_frame_bytes)
{
    for (CoreId i = 0; i < machine_.numCores(); ++i)
        machine_.mem().pokeAs<uint32_t>(doneFlagAddr(i), 0);
    machine_.mem().pokeAs<uint32_t>(rootHome_, 0);

    ClosureTask<std::function<void(TaskContext &)>> root(root_fn,
                                                         root_frame_bytes);
    root.home = rootHome_;

    std::vector<std::function<void(Core &)>> bodies(machine_.numCores());
    bodies[0] = [this, &root](Core &) { workers_[0]->runRoot(root); };
    for (CoreId i = 1; i < machine_.numCores(); ++i) {
        if (i < activeCores())
            bodies[i] = [this, i](Core &) { workers_[i]->workerLoop(); };
        else
            bodies[i] = [](Core &) {}; // parked: not participating
    }

    // Arm the hang watchdog: every retired task is a progress event; if
    // none retires within the configured bound the engine throws a
    // SimAbort carrying our runtime state instead of spinning forever.
    if (cfg_.watchdogCycles != 0)
        machine_.engine().armWatchdog(cfg_.watchdogCycles,
                                      [this] { return watchdogDump(); });
    Cycles cycles;
    try {
        cycles = machine_.runPerCore(bodies);
    } catch (...) {
        // A SimAbort unwound the run with guest stacks frozen
        // mid-task. Reclaim every heap task the runtime owns — in-flight
        // on a worker or still queued in the registry — before
        // rethrowing; the suspended coroutines never resume, so these
        // pointers have no other owner. (The stack-allocated root task
        // is deliberately not touched.)
        machine_.engine().disarmWatchdog();
        for (auto &worker : workers_)
            worker->reapOwnedInFlight();
        registry_.reapAbandoned();
        throw;
    }
    machine_.engine().disarmWatchdog();
    SPMRT_ASSERT(registry_.liveCount() == 0,
                 "%zu tasks leaked after run", registry_.liveCount());
    return cycles;
}

std::string
WorkStealingRuntime::watchdogDump() const
{
    MemorySystem &mem = machine_.mem();
    std::string out = "runtime state:\n";
    for (CoreId i = 0; i < activeCores(); ++i) {
        QueueAddrs q = queueAddrs(i);
        uint32_t head = mem.peekAs<uint32_t>(q.head);
        uint32_t tail = mem.peekAs<uint32_t>(q.tail);
        uint32_t lock = mem.peekAs<uint32_t>(q.lock);
        uint32_t done = mem.peekAs<uint32_t>(doneFlagAddr(i));
        const CoreStats &st = machine_.core(i).stats();
        out += log::format(
            "  core %3u: queue head=%u tail=%u (%u queued) lock=%u "
            "done=%u depth=%u exec=%llu steals=%llu/%llu inline=%llu\n",
            i, head, tail, tail - head, lock, done,
            workers_[i]->stack().depth(),
            static_cast<unsigned long long>(st.rt.tasksExecuted),
            static_cast<unsigned long long>(st.rt.stealHits),
            static_cast<unsigned long long>(st.rt.stealAttempts),
            static_cast<unsigned long long>(st.rt.spawnsInlined));
    }
    out += log::format("  live tasks in registry: %zu\n",
                       registry_.liveCount());
    return out;
}

} // namespace spmrt
