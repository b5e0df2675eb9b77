#include "sim/checker.hpp"

#include <algorithm>
#include <sstream>

namespace spmrt {

const char *
regionKindName(RegionKind kind)
{
    switch (kind) {
    case RegionKind::Heap: return "HEAP";
    case RegionKind::Queue: return "QUEUE";
    case RegionKind::Stack: return "STACK";
    case RegionKind::RoDup: return "RO_DUP";
    case RegionKind::Ctrl: return "CTRL";
    }
    return "?";
}

namespace {

const char *
violationKindName(ConcurrencyChecker::ViolationKind kind)
{
    using VK = ConcurrencyChecker::ViolationKind;
    switch (kind) {
    case VK::Race: return "data race";
    case VK::RoDupWrite: return "write to read-only duplicated region";
    case VK::FrameCorruption: return "stack-frame corruption";
    }
    return "?";
}

void
appendLock(std::ostringstream &out, Addr lock)
{
    if (lock == kNullAddr)
        out << "no lock";
    else
        out << "lock 0x" << std::hex << lock << std::dec;
}

} // namespace

std::string
ConcurrencyChecker::Violation::describe() const
{
    std::ostringstream out;
    out << "CHECKER VIOLATION: " << violationKindName(kind) << "\n";
    out << "  word 0x" << std::hex << addr << std::dec;
    if (regionKnown)
        out << " in " << regionKindName(region) << " region";
    out << ", cycle " << cycle << "\n";

    if (kind == ViolationKind::Race) {
        out << "  core " << core << " " << (coreWrites ? "WRITE" : "READ")
            << " (";
        appendLock(out, coreLock);
        out << ") vs core " << other << " prior "
            << (otherWrote ? "WRITE" : "READ") << " (";
        appendLock(out, otherLock);
        out << ", task " << otherTask << ")\n";
    } else {
        out << "  core " << core << " WRITE into range owned by ";
        if (other == kInvalidCore)
            out << "<machine>";
        else
            out << "core " << other;
        out << "\n";
    }

    out << "  task backtrace on core " << core << ": [";
    for (size_t i = 0; i < taskTrace.size(); ++i)
        out << (i > 0 ? " " : "") << taskTrace[i];
    out << "]";
    return out.str();
}

ConcurrencyChecker::ConcurrencyChecker(uint32_t num_cores)
    : numCores_(num_cores), vc_(num_cores), locksHeld_(num_cores),
      taskStacks_(num_cores)
{
    for (uint32_t c = 0; c < num_cores; ++c) {
        vc_[c].assign(num_cores, 0);
        vc_[c][c] = 1; // epoch 0 means "never observed"
    }
}

void
ConcurrencyChecker::registerRegion(RegionKind kind, Addr base, uint32_t bytes,
                                   CoreId owner, Addr lock)
{
    if (bytes == 0)
        return;
    regions_[base] = Region{kind, base, bytes, owner, lock};
}

void
ConcurrencyChecker::protectRange(RegionKind kind, Addr base, uint32_t bytes,
                                 CoreId owner)
{
    if (bytes == 0)
        return;
    protected_[base] = Region{kind, base, bytes, owner, kNullAddr};
}

void
ConcurrencyChecker::unprotectWithin(Addr base, uint32_t bytes)
{
    auto it = protected_.lower_bound(base);
    while (it != protected_.end() && it->first < base + bytes)
        it = protected_.erase(it);
}

const ConcurrencyChecker::Region *
ConcurrencyChecker::regionAt(const std::map<Addr, Region> &regions,
                             Addr addr) const
{
    auto it = regions.upper_bound(addr);
    if (it == regions.begin())
        return nullptr;
    --it;
    const Region &r = it->second;
    return (addr >= r.base && addr - r.base < r.bytes) ? &r : nullptr;
}

void
ConcurrencyChecker::checkRead(CoreId core, Addr word, Cycles cycle)
{
    // A plain load of a word somebody released through (AMO target, flag
    // cell) still observes that release: the paper's join protocol polls
    // the home counter with ordinary loads.
    auto sit = sync_.find(word);
    if (sit != sync_.end())
        join(vc_[core], sit->second);

    WordShadow &sh = shadow_[word];
    if (sh.writer != kInvalidCore && sh.writer != core &&
        sh.writeEpoch > vc_[core][sh.writer]) {
        reportRace(core, sh.writer, word, cycle, /*core_writes=*/false,
                   /*prior_wrote=*/true, sh.writeLock, sh.writeTask);
    }

    // Record the read so a later unordered write can see it.
    uint64_t epoch = vc_[core][core];
    for (auto &entry : sh.readers) {
        if (entry.first == core) {
            entry.second = epoch;
            return;
        }
    }
    sh.readers.emplace_back(core, epoch);
}

void
ConcurrencyChecker::checkWrite(CoreId core, Addr word, Cycles cycle)
{
    // Protected ranges first: a write there is a protocol violation even
    // when it happens to be well-ordered.
    if (!protected_.empty()) {
        if (const Region *p = regionAt(protected_, word)) {
            bool foreign = p->kind == RegionKind::RoDup ||
                           (p->kind == RegionKind::Stack &&
                            p->owner != core);
            if (foreign) {
                reportProtected(*p, core, word, cycle);
                return;
            }
        }
    }

    WordShadow &sh = shadow_[word];
    const Clock &vc = vc_[core];

    if (sh.writer != kInvalidCore && sh.writer != core &&
        sh.writeEpoch > vc[sh.writer]) {
        reportRace(core, sh.writer, word, cycle, /*core_writes=*/true,
                   /*prior_wrote=*/true, sh.writeLock, sh.writeTask);
    }
    for (const auto &entry : sh.readers) {
        if (entry.first != core && entry.second > vc[entry.first]) {
            // Lock metadata for past readers isn't retained per entry;
            // report with the reader's *current* innermost lock, which is
            // the best available context.
            reportRace(core, entry.first, word, cycle, /*core_writes=*/true,
                       /*prior_wrote=*/false, lockHeld(entry.first),
                       currentTask(entry.first));
        }
    }

    sh.writer = core;
    sh.writeEpoch = vc[core];
    sh.writeLock = lockHeld(core);
    sh.writeTask = currentTask(core);
    sh.writeCycle = cycle;
    sh.readers.clear();
}

void
ConcurrencyChecker::reportRace(CoreId core, CoreId prior, Addr word,
                               Cycles cycle, bool core_writes,
                               bool prior_wrote, Addr prior_lock,
                               uint32_t prior_task)
{
    auto pair = std::minmax(core, prior);
    if (!racePairs_.insert({pair.first, pair.second}).second)
        return; // one report per core pair keeps a bug from cascading

    Violation v;
    v.kind = ViolationKind::Race;
    v.addr = word;
    v.cycle = cycle;
    v.core = core;
    v.other = prior;
    v.coreWrites = core_writes;
    v.otherWrote = prior_wrote;
    v.coreLock = lockHeld(core);
    v.otherLock = prior_lock;
    if (const Region *r = regionAt(regions_, word)) {
        v.region = r->kind;
        v.regionKnown = true;
    }
    v.taskTrace = taskStacks_[core];
    v.otherTask = prior_task;
    SPMRT_WARN("%s", v.describe().c_str());
    violations_.push_back(std::move(v));
}

void
ConcurrencyChecker::reportProtected(const Region &range, CoreId core,
                                    Addr word, Cycles cycle)
{
    if (!protectedHits_.insert({core, range.base}).second)
        return;

    Violation v;
    v.kind = range.kind == RegionKind::RoDup
                 ? ViolationKind::RoDupWrite
                 : ViolationKind::FrameCorruption;
    v.addr = word;
    v.cycle = cycle;
    v.core = core;
    v.other = range.owner;
    v.coreWrites = true;
    v.coreLock = lockHeld(core);
    v.region = range.kind;
    v.regionKnown = true;
    v.taskTrace = taskStacks_[core];
    SPMRT_WARN("%s", v.describe().c_str());
    violations_.push_back(std::move(v));
}

size_t
ConcurrencyChecker::countKind(ViolationKind kind) const
{
    size_t n = 0;
    for (const auto &v : violations_)
        if (v.kind == kind)
            ++n;
    return n;
}

std::string
ConcurrencyChecker::report() const
{
    if (violations_.empty())
        return "";
    std::ostringstream out;
    out << violations_.size() << " checker violation(s):\n";
    for (const auto &v : violations_)
        out << v.describe() << "\n";
    return out.str();
}

void
ConcurrencyChecker::onPhaseBarrier()
{
    Clock merged(numCores_, 0);
    for (const auto &vc : vc_)
        join(merged, vc);
    for (uint32_t c = 0; c < numCores_; ++c) {
        vc_[c] = merged;
        ++vc_[c][c]; // post-barrier accesses are a fresh epoch
    }
}

void
ConcurrencyChecker::resetDynamicState()
{
    for (uint32_t c = 0; c < numCores_; ++c) {
        vc_[c].assign(numCores_, 0);
        vc_[c][c] = 1;
        locksHeld_[c].clear();
        taskStacks_[c].clear();
    }
    sync_.clear();
    shadow_.clear();
    protected_.clear();
    violations_.clear();
    racePairs_.clear();
    protectedHits_.clear();
}

} // namespace spmrt
