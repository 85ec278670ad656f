#include "snapshot/serializer.hh"

#include <cassert>
#include <cstring>

#if __has_include(<sys/mman.h>)
#include <sys/mman.h>
#endif

namespace dlsim::snapshot
{

namespace
{

constexpr std::size_t MaxLength = UINT32_MAX;

void
checkTag(const std::string &tag)
{
    if (tag.empty() || tag.size() > MaxTagBytes)
        throw SnapshotError("snapshot: bad tag '" + tag + "'");
}

void
checkLength(std::size_t len, const char *what)
{
    if (len > MaxLength)
        throw SnapshotError(std::string("snapshot: ") + what + " of " +
                            std::to_string(len) +
                            " bytes exceeds the format's u32 length");
}

/**
 * Ask for transparent huge pages on the 2 MiB-aligned interior of a
 * buffer nothing has touched yet. A multi-megabyte checkpoint buffer
 * is usually fresh memory from the kernel, and first touching it
 * 4 KiB at a time costs a page fault per page; one fault per 2 MiB
 * removes most of that. Advice only: failure changes nothing.
 */
void
adviseHugePages(void *data, std::size_t size)
{
#ifdef MADV_HUGEPAGE
    constexpr std::uintptr_t Huge = std::uintptr_t{2} << 20;
    const auto at = reinterpret_cast<std::uintptr_t>(data);
    const std::uintptr_t lo = (at + Huge - 1) & ~(Huge - 1);
    const std::uintptr_t hi = (at + size) & ~(Huge - 1);
    if (hi > lo)
        madvise(reinterpret_cast<void *>(lo), hi - lo, MADV_HUGEPAGE);
#else
    (void)data;
    (void)size;
#endif
}

} // namespace

// --------------------------------------------------------------
// Serializer
// --------------------------------------------------------------

std::vector<std::uint8_t>
serialize(std::uint64_t fingerprint, const SaveFn &save)
{
    Serializer s;
    const std::size_t size = s.plan(save);
    std::vector<std::uint8_t> out;
    out.reserve(size);
    adviseHugePages(out.data(), size);
    out.resize(size);
    s.write(out.data(), fingerprint, save);
    return out;
}

std::size_t
serializedSize(const SaveFn &save)
{
    Serializer s;
    return s.plan(save);
}

std::size_t
Serializer::plan(const SaveFn &save)
{
    save(*this);
    if (inSection_)
        throw SnapshotError("snapshot: composer left a section open");
    std::size_t total =
        HeaderBytes + sections_.size() * TableEntryBytes;
    for (const Section &sec : sections_)
        total += sec.size;
    return total;
}

void
Serializer::write(std::uint8_t *out, std::uint64_t fingerprint,
                  const SaveFn &save)
{
    out_ = out;
    pos_ = HeaderBytes + sections_.size() * TableEntryBytes;
    save(*this);
    if (inSection_ || nextSection_ != sections_.size())
        diverged();

    putLe32(out, Magic);
    putLe32(out + 4, FormatVersion);
    putLe64(out + 8, fingerprint);
    putLe32(out + 16, static_cast<std::uint32_t>(sections_.size()));
    putLe32(out + 20, crc32(out + HeaderBytes,
                            sections_.size() * TableEntryBytes));
}

void
Serializer::outsideSection()
{
    throw SnapshotError("snapshot: write outside any section");
}

void
Serializer::diverged()
{
    throw SnapshotError("snapshot: composer wrote a different stream "
                        "in the write pass than in the sizing pass");
}

void
Serializer::hashTo(Frame &f, std::size_t end) const
{
    f.crc = crc32(out_ + f.hashed, end - f.hashed, f.crc);
    f.hashed = end;
}

void
Serializer::beginSection(const std::string &tag)
{
    checkTag(tag);
    if (inSection_)
        throw SnapshotError(
            "snapshot: nested section '" + tag + "'");
    if (out_ == nullptr) {
        for (const auto &sec : sections_)
            if (sec.tag == tag)
                throw SnapshotError(
                    "snapshot: duplicate section '" + tag + "'");
        sections_.push_back({tag, 0});
        pos_ = 0;
    } else {
        if (nextSection_ == sections_.size() ||
            sections_[nextSection_].tag != tag)
            diverged();
        sectionEnd_ = pos_ + sections_[nextSection_].size;
    }
    frames_.push_back({pos_, pos_, 0});
    inSection_ = true;
}

void
Serializer::endSection()
{
    if (!inSection_)
        throw SnapshotError("snapshot: endSection without begin");
    if (frames_.size() != 1)
        throw SnapshotError(
            "snapshot: endSection with open struct");
    Frame f = frames_.back();
    frames_.pop_back();
    inSection_ = false;
    if (out_ == nullptr) {
        sections_.back().size = pos_;
        return;
    }
    if (pos_ != sectionEnd_)
        diverged();
    hashTo(f, pos_);

    Section &sec = sections_[nextSection_];
    std::uint8_t *e =
        out_ + HeaderBytes + nextSection_ * TableEntryBytes;
    std::memset(e, 0, TableEntryBytes);
    std::memcpy(e, sec.tag.data(), sec.tag.size());
    putLe64(e + 16, f.start);
    putLe64(e + 24, sec.size);
    putLe32(e + 32, f.crc);
    ++nextSection_;
}

void
Serializer::beginStruct(const std::string &tag)
{
    checkTag(tag);
    if (!inSection_)
        outsideSection();
    // The record header is the parent's payload, hashed by endStruct
    // once the length and CRC slots are filled in; hash what precedes
    // it now, so nothing folds the header before then.
    std::uint8_t *p = reserve(1 + tag.size() + 8);
    if (p != nullptr) {
        hashTo(frames_.back(), static_cast<std::size_t>(p - out_));
        p[0] = static_cast<std::uint8_t>(tag.size());
        std::memcpy(p + 1, tag.data(), tag.size());
    }
    frames_.push_back({pos_, pos_, 0});
}

void
Serializer::endStruct()
{
    if (frames_.size() < 2)
        throw SnapshotError("snapshot: endStruct without begin");
    Frame f = frames_.back();
    frames_.pop_back();
    const std::size_t len = pos_ - f.start;
    checkLength(len, "struct payload");
    if (out_ == nullptr)
        return;
    hashTo(f, pos_);
    putLe32(out_ + f.start - 8, static_cast<std::uint32_t>(len));
    putLe32(out_ + f.start - 4, f.crc);
    // The record header (tag, length, CRC) is the parent's own
    // payload: hash it, then append the child's payload by CRC
    // combination instead of reading it a second time.
    Frame &parent = frames_.back();
    parent.crc = crc32Combine(
        crc32(out_ + parent.hashed, f.start - parent.hashed,
              parent.crc),
        f.crc, len);
    parent.hashed = pos_;
}

void
Serializer::str(std::string_view v)
{
    checkLength(v.size(), "string");
    u32(static_cast<std::uint32_t>(v.size()));
    put(v.data(), v.size());
}

// --------------------------------------------------------------
// Deserializer
// --------------------------------------------------------------

Deserializer::Deserializer(const std::uint8_t *data,
                           std::size_t size,
                           bool verify_sections)
    : data_(data), size_(size), verifySections_(verify_sections)
{
    if (size_ < HeaderBytes)
        throw SnapshotError("snapshot: truncated header");
    if (le32(data_) != Magic)
        throw SnapshotError("snapshot: bad magic (not a dlsim "
                            "snapshot)");
    const std::uint32_t version = le32(data_ + 4);
    if (version != FormatVersion)
        throw SnapshotError(
            "snapshot: unsupported format version " +
            std::to_string(version) + " (expected " +
            std::to_string(FormatVersion) + ")");
    fingerprint_ = le64(data_ + 8);
    const std::uint32_t count = le32(data_ + 16);
    const std::uint32_t tableCrc = le32(data_ + 20);

    const std::size_t tableBytes = count * TableEntryBytes;
    if (size_ < HeaderBytes + tableBytes)
        throw SnapshotError("snapshot: truncated section table");
    if (crc32(data_ + HeaderBytes, tableBytes) != tableCrc)
        throw SnapshotError(
            "snapshot: section table CRC mismatch");

    for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint8_t *e =
            data_ + HeaderBytes + i * TableEntryBytes;
        Section s;
        const char *tag = reinterpret_cast<const char *>(e);
        s.tag.assign(tag, strnlen(tag, 16));
        s.offset = le64(e + 16);
        s.size = le64(e + 24);
        s.crc = le32(e + 32);
        if (s.offset > size_ || s.size > size_ - s.offset)
            throw SnapshotError("snapshot: section '" + s.tag +
                                "' out of bounds");
        sections_.push_back(std::move(s));
    }
}

void
Deserializer::verifyAllSections() const
{
    for (const auto &s : sections_) {
        if (crc32(data_ + s.offset, s.size) != s.crc)
            throw SnapshotError("snapshot: section '" + s.tag +
                                "' CRC mismatch");
    }
}

bool
Deserializer::hasSection(const std::string &tag) const
{
    for (const auto &s : sections_)
        if (s.tag == tag)
            return true;
    return false;
}

void
Deserializer::enterSection(const std::string &tag)
{
    if (inSection_)
        throw SnapshotError(
            "snapshot: enterSection inside section '" +
            sectionTag_ + "'");
    for (const auto &s : sections_) {
        if (s.tag != tag)
            continue;
        if (verifySections_ &&
            crc32(data_ + s.offset, s.size) != s.crc)
            throw SnapshotError("snapshot: section '" + tag +
                                "' CRC mismatch");
        sectionTag_ = tag;
        cursor_ = s.offset;
        sectionEnd_ = s.offset + s.size;
        inSection_ = true;
        return;
    }
    throw SnapshotError("snapshot: missing section '" + tag + "'");
}

void
Deserializer::leaveSection()
{
    if (!inSection_)
        throw SnapshotError(
            "snapshot: leaveSection without enter");
    if (!structEnds_.empty())
        fail("leaveSection with open struct");
    if (cursor_ != sectionEnd_)
        fail("trailing bytes in section");
    inSection_ = false;
}

void
Deserializer::enterStruct(const std::string &tag)
{
    const std::size_t tagLen = u8();
    if (tagLen > MaxTagBytes || cursor_ + tagLen > limit())
        fail("corrupt struct tag");
    const std::string found(
        reinterpret_cast<const char *>(data_ + cursor_), tagLen);
    cursor_ += tagLen;
    if (found != tag)
        fail("expected struct '" + tag + "', found '" + found +
             "'");
    const std::uint32_t len = u32();
    const std::uint32_t crc = u32();
    (void)crc;
    if (len > limit() - cursor_)
        fail("struct '" + tag + "' exceeds its container");
    // The struct payload (and the stored CRC field itself) is
    // already covered by the section CRC verified in enterSection,
    // so recomputing per struct would checksum every restored byte
    // twice — on multi-megabyte warm states that doubles restore
    // cost. The field stays in the format for tooling and for
    // localizing corruption when a section check fails.
    structEnds_.push_back(cursor_ + len);
}

void
Deserializer::leaveStruct()
{
    if (structEnds_.empty())
        throw SnapshotError(
            "snapshot: leaveStruct without enter");
    if (cursor_ != structEnds_.back())
        fail("trailing bytes in struct");
    structEnds_.pop_back();
}

std::size_t
Deserializer::limit() const
{
    return structEnds_.empty() ? sectionEnd_ : structEnds_.back();
}

const std::uint8_t *
Deserializer::take(std::size_t n)
{
    if (!inSection_)
        throw SnapshotError("snapshot: read outside any section");
    if (n > limit() - cursor_ || cursor_ > limit())
        fail("truncated read of " + std::to_string(n) + " bytes");
    const std::uint8_t *p = data_ + cursor_;
    cursor_ += n;
    return p;
}

void
Deserializer::checkCount(std::uint64_t n,
                         std::size_t min_record_bytes) const
{
    assert(min_record_bytes > 0);
    const std::size_t left = limit() - cursor_;
    if (n > left / min_record_bytes)
        fail("count " + std::to_string(n) + " of " +
             std::to_string(min_record_bytes) +
             "-byte records exceeds the " + std::to_string(left) +
             " bytes left");
}

std::uint8_t
Deserializer::u8()
{
    return take(1)[0];
}

std::uint16_t
Deserializer::u16()
{
    return le16(take(2));
}

std::uint32_t
Deserializer::u32()
{
    return le32(take(4));
}

std::uint64_t
Deserializer::u64()
{
    return le64(take(8));
}

std::int64_t
Deserializer::i64()
{
    return static_cast<std::int64_t>(u64());
}

double
Deserializer::f64()
{
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

bool
Deserializer::boolean()
{
    const std::uint8_t v = u8();
    if (v > 1)
        fail("bad boolean value " + std::to_string(v));
    return v != 0;
}

std::string
Deserializer::str()
{
    const std::uint32_t len = u32();
    const std::uint8_t *p = take(len);
    return std::string(reinterpret_cast<const char *>(p), len);
}

void
Deserializer::bytes(void *out, std::size_t size)
{
    const std::uint8_t *p = take(size);
    if (size != 0) // an empty container's data() may be null
        std::memcpy(out, p, size);
}

void
Deserializer::checkU32(std::uint32_t expected,
                       const std::string &what)
{
    const std::uint32_t got = u32();
    if (got != expected)
        fail(what + " mismatch: snapshot has " +
             std::to_string(got) + ", machine has " +
             std::to_string(expected));
}

void
Deserializer::checkU64(std::uint64_t expected,
                       const std::string &what)
{
    const std::uint64_t got = u64();
    if (got != expected)
        fail(what + " mismatch: snapshot has " +
             std::to_string(got) + ", machine has " +
             std::to_string(expected));
}

void
Deserializer::checkBool(bool expected, const std::string &what)
{
    const bool got = boolean();
    if (got != expected)
        fail(what + " mismatch: snapshot has " +
             std::string(got ? "true" : "false") +
             ", machine has " +
             std::string(expected ? "true" : "false"));
}

void
Deserializer::fail(const std::string &what) const
{
    std::string where = sectionTag_.empty()
                            ? std::string("header")
                            : "section '" + sectionTag_ + "'";
    throw SnapshotError("snapshot: " + where + ": " + what);
}

} // namespace dlsim::snapshot
