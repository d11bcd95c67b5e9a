#include "cpu/cache.hpp"

#include <bit>

#include "util/logging.hpp"

namespace vguard::cpu {

Cache::Cache(std::string name, const CacheConfig &cfg)
    : name_(std::move(name)), cfg_(cfg)
{
    if (cfg_.lineBytes == 0 || (cfg_.lineBytes & (cfg_.lineBytes - 1)))
        fatal("Cache %s: line size must be a power of two", name_.c_str());
    const uint32_t sets = cfg_.sets();
    if (sets == 0 || (sets & (sets - 1)))
        fatal("Cache %s: set count %u must be a power of two",
              name_.c_str(), sets);
    setShift_ = static_cast<uint32_t>(std::countr_zero(cfg_.lineBytes));
    setMask_ = sets - 1;
    lines_.resize(static_cast<size_t>(sets) * cfg_.ways);
}

Cache::Result
Cache::access(uint64_t addr, bool write)
{
    ++stats_.accesses;
    ++lruClock_;

    const uint64_t lineAddr = addr >> setShift_;
    const uint32_t set = static_cast<uint32_t>(lineAddr) & setMask_;
    const uint64_t tag = lineAddr >> std::popcount(setMask_);
    Line *const base = &lines_[static_cast<size_t>(set) * cfg_.ways];

    Result res;
    Line *victim = base;
    for (uint32_t w = 0; w < cfg_.ways; ++w) {
        Line &line = base[w];
        if (line.valid && line.tag == tag) {
            line.lruStamp = lruClock_;
            line.dirty |= write;
            res.hit = true;
            return res;
        }
        if (!line.valid) {
            victim = &line;     // prefer an invalid way
        } else if (victim->valid && line.lruStamp < victim->lruStamp) {
            victim = &line;
        }
    }

    ++stats_.misses;
    if (victim->valid && victim->dirty) {
        res.evictedDirty = true;
        // Reconstruct the victim's byte address from its tag/set.
        const uint64_t victimLine =
            (victim->tag << std::popcount(setMask_)) | set;
        res.evictedAddr = victimLine << setShift_;
        ++stats_.writebacks;
    }
    victim->valid = true;
    victim->tag = tag;
    victim->dirty = write;
    victim->lruStamp = lruClock_;
    return res;
}

void
Cache::flush()
{
    for (auto &line : lines_)
        line = Line{};
}

MemHierarchy::MemHierarchy(const CpuConfig &cfg)
    : il1_("il1", cfg.il1), dl1_("dl1", cfg.dl1), l2_("l2", cfg.l2),
      memLatency_(cfg.memLatency)
{
}

unsigned
MemHierarchy::l2Fill(uint64_t addr, ActivityVector &av)
{
    ++av.l2Accesses;
    const auto res = l2_.access(addr, false);
    unsigned lat = l2_.latency();
    if (!res.hit) {
        ++av.l2Misses;
        lat += memLatency_;
    }
    return lat;
}

unsigned
MemHierarchy::ifetch(uint64_t addr, ActivityVector &av)
{
    ++av.icacheAccesses;
    const auto res = il1_.access(addr, false);
    unsigned lat = il1_.latency();
    if (!res.hit) {
        ++av.icacheMisses;
        lat += l2Fill(addr, av);
    }
    // Instruction lines are never dirty; no writeback path.
    return lat;
}

unsigned
MemHierarchy::dataAccess(uint64_t addr, bool write, ActivityVector &av)
{
    ++av.dcacheAccesses;
    const auto res = dl1_.access(addr, write);
    unsigned lat = dl1_.latency();
    if (!res.hit) {
        ++av.dcacheMisses;
        lat += l2Fill(addr, av);
    }
    if (res.evictedDirty) {
        // Buffered writeback: an L2 write access is performed (and
        // counted for power) but adds no latency to this access.
        ++av.l2Accesses;
        if (!l2_.access(res.evictedAddr, true).hit)
            ++av.l2Misses;
    }
    return lat;
}

} // namespace vguard::cpu
