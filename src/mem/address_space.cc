#include "mem/address_space.hh"

#include <algorithm>
#include <cassert>

#include "snapshot/serializer.hh"

namespace dlsim::mem
{

Addr
AddressSpace::map(Addr start, Addr size, std::uint8_t perms,
                  RegionKind kind, std::string name, bool demand)
{
    assert(size > 0);
    for (const auto &r : regions_) {
        // Overlap is a construction bug in the caller (loader).
        assert(start + size <= r.start || start >= r.end());
        (void)r;
    }
    Region region{start, size, perms, kind, std::move(name)};
    region.demand = demand;
    const auto it = std::lower_bound(
        regions_.begin(), regions_.end(), region,
        [](const Region &a, const Region &b) {
            return a.start < b.start;
        });
    regions_.insert(it, std::move(region));
    lastRegion_ = 0;
    flushPageCache();
    return start;
}

bool
AddressSpace::protect(Addr addr, std::uint8_t perms)
{
    auto *r = const_cast<Region *>(findRegion(addr));
    if (!r)
        return false;
    r->perms = perms;
    flushPageCache();
    return true;
}

bool
AddressSpace::unmap(Addr addr)
{
    for (auto it = regions_.begin(); it != regions_.end(); ++it) {
        if (it->contains(addr)) {
            const Addr first = it->start >> PageShift;
            const Addr last = (it->end() - 1) >> PageShift;
            for (Addr p = first; p <= last; ++p)
                pages_.erase(p);
            regions_.erase(it);
            lastRegion_ = 0;
            flushPageCache();
            return true;
        }
    }
    return false;
}

const Region *
AddressSpace::findRegion(Addr addr) const
{
    if (regions_.empty())
        return nullptr;
    // Fast path: repeated accesses within the same region.
    if (lastRegion_ < regions_.size() &&
        regions_[lastRegion_].contains(addr)) {
        return &regions_[lastRegion_];
    }
    // Binary search for the last region with start <= addr.
    std::size_t lo = 0, hi = regions_.size();
    while (lo < hi) {
        const std::size_t mid = (lo + hi) / 2;
        if (regions_[mid].start <= addr)
            lo = mid + 1;
        else
            hi = mid;
    }
    if (lo == 0)
        return nullptr;
    const Region &r = regions_[lo - 1];
    if (!r.contains(addr))
        return nullptr;
    lastRegion_ = lo - 1;
    return &r;
}

RegionKind
AddressSpace::kindOf(Addr addr) const
{
    const Region *r = findRegion(addr);
    return r ? r->kind : RegionKind::Data;
}

void
AddressSpace::setDemandFill(Addr start, std::uint64_t seed,
                            std::uint64_t bytes)
{
    auto *r = const_cast<Region *>(findRegion(start));
    assert(r != nullptr && r->demand);
    r->fillSeed = seed;
    r->fillBytes = bytes;
}

void
AddressSpace::demandFill(const Region &r, Addr page_num,
                         PhysPage &page)
{
    ++demandFaultsTotal_;
    ++demandFaults_[static_cast<std::size_t>(r.kind)];
    if (r.fillBytes == 0)
        return;
    const Addr off = (page_num << PageShift) - r.start;
    if (off >= r.fillBytes)
        return;
    // Word n of the region is draw n of fillRandom's splitmix64
    // stream: x = seed + (n+1)*gamma, then the z-mix. Regenerating
    // per page keeps demand-arm data content bit-identical to the
    // eager arms' fillRandom seeding.
    const std::uint64_t words = std::min<std::uint64_t>(
        WordsPerPage, (r.fillBytes - off) / 8);
    const std::uint64_t base = off / 8;
    for (std::uint64_t w = 0; w < words; ++w) {
        std::uint64_t z = r.fillSeed +
                          (base + w + 1) * 0x9e3779b97f4a7c15ull;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        page.words[w] = z ^ (z >> 31);
    }
}

AddressSpace::PageSlot &
AddressSpace::touchPage(Addr page_num, bool for_write,
                        const Region *r)
{
    auto &slot = pages_[page_num];
    if (!slot.page) {
        slot.page = std::make_shared<PhysPage>(); // zeroed
        slot.cow = false;
        if (r != nullptr && r->demand)
            demandFill(*r, page_num, *slot.page);
        return slot;
    }
    if (for_write && slot.cow) {
        if (slot.page.use_count() > 1) {
            // First write to a shared COW page: copy it.
            slot.page = std::make_shared<PhysPage>(*slot.page);
            const auto kind = kindOf(page_num << PageShift);
            ++cowCopies_[static_cast<std::size_t>(kind)];
        }
        slot.cow = false;
    }
    return slot;
}

std::uint64_t
AddressSpace::read64Slow(Addr addr, MemFault &fault)
{
    assert((addr & 7) == 0);
    ++ptcMisses_;
    const Addr page_num = addr >> PageShift;
    CachedPage &e = cache_[page_num & (CacheSlots - 1)];
    const Region *r = findRegion(addr);
    if (!r) {
        fault = MemFault::Unmapped;
        return 0;
    }
    if (!(r->perms & PermRead)) {
        fault = MemFault::Protection;
        return 0;
    }
    fault = MemFault::None;
    auto &slot = touchPage(page_num, false, r);
    e.tag = page_num;
    e.page = slot.page.get();
    e.readOk = true;
    e.writeOk = (r->perms & PermWrite) && !slot.cow;
    return slot.page->words[(addr & (PageBytes - 1)) >> 3];
}

MemFault
AddressSpace::write64Slow(Addr addr, std::uint64_t value)
{
    assert((addr & 7) == 0);
    ++ptcMisses_;
    const Addr page_num = addr >> PageShift;
    CachedPage &e = cache_[page_num & (CacheSlots - 1)];
    const Region *r = findRegion(addr);
    if (!r)
        return MemFault::Unmapped;
    if (!(r->perms & PermWrite))
        return MemFault::Protection;
    auto &slot = touchPage(page_num, true, r);
    e.tag = page_num;
    e.page = slot.page.get();
    e.readOk = (r->perms & PermRead) != 0;
    e.writeOk = true; // touchPage(for_write) left it non-COW
    slot.page->words[(addr & (PageBytes - 1)) >> 3] = value;
    return MemFault::None;
}

void
AddressSpace::poke64(Addr addr, std::uint64_t value)
{
    assert((addr & 7) == 0);
    const Region *r = findRegion(addr);
    assert(r != nullptr);
    const Addr page_num = addr >> PageShift;
    auto &slot = touchPage(page_num, true, r);
    // Keep the translation cache coherent: the touch may have
    // COW-copied the backing page out from under a cached entry.
    CachedPage &e = cache_[page_num & (CacheSlots - 1)];
    e.tag = page_num;
    e.page = slot.page.get();
    e.readOk = (r->perms & PermRead) != 0;
    e.writeOk = (r->perms & PermWrite) != 0;
    slot.page->words[(addr & (PageBytes - 1)) >> 3] = value;
}

bool
AddressSpace::demandTouchFetchSlow(Addr addr)
{
    const Region *r = findRegion(addr);
    if (!r)
        return false;
    const Addr page_num = addr >> PageShift;
    const std::uint64_t before = demandFaultsTotal_;
    auto &slot = touchPage(page_num, false, r);
    // Refill the PTC entry like the data slow paths do (so steady-
    // state fetches hit the inline probe) without counting it as
    // read/write traffic — fetch is not data-path traffic.
    CachedPage &e = cache_[page_num & (CacheSlots - 1)];
    e.tag = page_num;
    e.page = slot.page.get();
    e.readOk = (r->perms & PermRead) != 0;
    e.writeOk = (r->perms & PermWrite) && !slot.cow;
    return demandFaultsTotal_ != before;
}

std::uint64_t
AddressSpace::dropDemandTextPages()
{
    std::uint64_t dropped = 0;
    for (const Region &r : regions_) {
        if (!r.demand || r.kind != RegionKind::Text)
            continue;
        const Addr first = r.start >> PageShift;
        const Addr last = (r.end() - 1) >> PageShift;
        for (Addr p = first; p <= last; ++p)
            dropped += pages_.erase(p);
    }
    if (dropped != 0)
        flushPageCache();
    return dropped;
}

std::uint64_t
AddressSpace::peek64(Addr addr) const
{
    assert((addr & 7) == 0);
    const auto it = pages_.find(addr >> PageShift);
    if (it == pages_.end() || !it->second.page)
        return 0;
    return it->second.page->words[(addr & (PageBytes - 1)) >> 3];
}

void
AddressSpace::fillRandom(Addr start, std::uint64_t bytes,
                         std::uint64_t seed)
{
    assert((start & (PageBytes - 1)) == 0);
    flushPageCache(); // the touches below may COW-copy cached pages
    std::uint64_t x = seed;
    const auto next = [&x] {
        x += 0x9e3779b97f4a7c15ull;
        std::uint64_t z = x;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    };
    for (Addr off = 0; off < bytes; off += PageBytes) {
        auto &slot = touchPage((start + off) >> PageShift, true);
        const std::uint64_t words =
            std::min<std::uint64_t>(WordsPerPage,
                                    (bytes - off) / 8);
        for (std::uint64_t w = 0; w < words; ++w)
            slot.page->words[w] = next();
    }
}

std::unique_ptr<AddressSpace>
AddressSpace::fork() const
{
    auto child = std::make_unique<AddressSpace>();
    child->regions_ = regions_;
    for (const auto &[page_num, slot] : pages_) {
        PageSlot shared;
        shared.page = slot.page;
        // Every private page becomes COW in both parent and child —
        // including currently read-only text, which an mprotect may
        // later make writable (this is how call-site patching after
        // fork breaks sharing, paper §5.5).
        shared.cow = true;
        child->pages_.emplace(page_num, shared);
        auto &mine =
            const_cast<AddressSpace *>(this)->pages_[page_num];
        mine.cow = true;
    }
    // Every page just became COW, so cached writeOk bits are stale.
    flushPageCache();
    return child;
}

std::uint64_t
AddressSpace::cowCopies(RegionKind kind) const
{
    return cowCopies_[static_cast<std::size_t>(kind)];
}

std::uint64_t
AddressSpace::cowCopiesTotal() const
{
    std::uint64_t total = 0;
    for (auto v : cowCopies_)
        total += v;
    return total;
}

std::uint64_t
AddressSpace::sharedPages() const
{
    std::uint64_t n = 0;
    for (const auto &[page_num, slot] : pages_) {
        (void)page_num;
        if (slot.page && slot.page.use_count() > 1)
            ++n;
    }
    return n;
}

std::uint64_t
AddressSpace::privateBytes() const
{
    std::uint64_t n = 0;
    for (const auto &[page_num, slot] : pages_) {
        (void)page_num;
        if (slot.page && slot.page.use_count() == 1)
            ++n;
    }
    return n * PageBytes;
}

std::uint32_t
PagePoolSaver::idOf(const std::shared_ptr<PhysPage> &page)
{
    const auto it = ids_.find(page.get());
    if (it != ids_.end())
        return it->second;
    const auto id = static_cast<std::uint32_t>(pages_.size());
    pages_.push_back(page.get());
    ids_.emplace(page.get(), id);
    return id;
}

void
PagePoolSaver::save(snapshot::Serializer &s) const
{
    s.beginStruct("pages");
    s.u32(static_cast<std::uint32_t>(pages_.size()));
    for (const PhysPage *page : pages_)
        s.bytes(page->words.data(), PageBytes);
    s.endStruct();
}

void
PagePoolLoader::load(snapshot::Deserializer &d)
{
    d.enterStruct("pages");
    const std::size_t count = d.count(PageBytes);
    pages_.clear();
    pages_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        // Every byte is copied in next: skip the zero-fill.
        auto page = std::make_shared_for_overwrite<PhysPage>();
        d.bytes(page->words.data(), PageBytes);
        pages_.push_back(std::move(page));
    }
    d.leaveStruct();
}

const std::shared_ptr<PhysPage> &
PagePoolLoader::page(std::uint32_t id) const
{
    if (id >= pages_.size())
        throw snapshot::SnapshotError(
            "snapshot: page id " + std::to_string(id) +
            " out of range (pool has " +
            std::to_string(pages_.size()) + ")");
    return pages_[id];
}

void
AddressSpace::save(snapshot::Serializer &s,
                   PagePoolSaver &pool) const
{
    s.beginStruct("aspace");
    s.u32(static_cast<std::uint32_t>(regions_.size()));
    for (const Region &r : regions_) {
        s.u64(r.start);
        s.u64(r.size);
        s.u8(r.perms);
        s.u8(static_cast<std::uint8_t>(r.kind));
        s.str(r.name);
        s.boolean(r.demand);
        s.u64(r.fillSeed);
        s.u64(r.fillBytes);
    }
    for (const std::uint64_t c : cowCopies_)
        s.u64(c);
    for (const std::uint64_t c : demandFaults_)
        s.u64(c);
    s.u64(demandFaultsTotal_);
    // The page table is an unordered map; emit in page-number order
    // so identical state always produces identical bytes.
    std::vector<Addr> nums;
    nums.reserve(pages_.size());
    for (const auto &[num, slot] : pages_) {
        (void)slot;
        nums.push_back(num);
    }
    std::sort(nums.begin(), nums.end());
    s.u64(nums.size());
    for (const Addr num : nums) {
        const PageSlot &slot = pages_.at(num);
        s.u64(num);
        s.u32(pool.idOf(slot.page));
        s.boolean(slot.cow);
    }
    s.endStruct();
}

void
AddressSpace::load(snapshot::Deserializer &d,
                   const PagePoolLoader &pool)
{
    d.enterStruct("aspace");
    regions_.clear();
    lastRegion_ = 0;
    // A region record: u64 start, u64 size, u8 perms, u8 kind, str
    // name (u32 length + bytes), bool demand, u64 fillSeed, u64
    // fillBytes.
    const std::size_t nregions = d.count(39);
    regions_.reserve(nregions);
    for (std::size_t i = 0; i < nregions; ++i) {
        Region r;
        r.start = d.u64();
        r.size = d.u64();
        r.perms = d.u8();
        r.kind = static_cast<RegionKind>(d.u8());
        r.name = d.str();
        r.demand = d.boolean();
        r.fillSeed = d.u64();
        r.fillBytes = d.u64();
        regions_.push_back(std::move(r));
    }
    for (std::uint64_t &c : cowCopies_)
        c = d.u64();
    for (std::uint64_t &c : demandFaults_)
        c = d.u64();
    demandFaultsTotal_ = d.u64();
    pages_.clear();
    // A page record: u64 page number, u32 pool id, bool cow.
    const std::size_t npages = d.count<std::uint64_t>(13);
    pages_.reserve(npages);
    for (std::size_t i = 0; i < npages; ++i) {
        const Addr num = d.u64();
        PageSlot slot;
        slot.page = pool.page(d.u32());
        slot.cow = d.boolean();
        pages_.emplace(num, std::move(slot));
    }
    d.leaveStruct();
    flushPageCache();
}

} // namespace dlsim::mem
