/**
 * @file
 * Serializer/Deserializer visitors for the dlsim snapshot format.
 *
 * Stateful structures implement
 *
 *     void save(snapshot::Serializer &) const;
 *     void load(snapshot::Deserializer &);
 *
 * writing their fields inside one or more struct records
 * (beginStruct/endStruct). Top-level composers group structures into
 * named sections and run through serialize(); the Deserializer
 * locates sections by tag, so the file's section order is not part
 * of the contract.
 *
 * Everything is little-endian. All readers bounds-check against the
 * enclosing struct/section and throw SnapshotError on any
 * inconsistency — a failed load never leaves partial state behind,
 * because callers load into a freshly built machine and discard it
 * on error.
 */

#ifndef DLSIM_SNAPSHOT_SERIALIZER_HH
#define DLSIM_SNAPSHOT_SERIALIZER_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iterator>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "snapshot/format.hh"

namespace dlsim::snapshot
{

// The format is little-endian and every field is stored and loaded
// with one memcpy; a big-endian host would need byte swaps here.
static_assert(std::endian::native == std::endian::little,
              "dlsim snapshots assume a little-endian host");

/** @name Little-endian loads and stores for bulk records @{ */
inline std::uint16_t
le16(const std::uint8_t *p)
{
    std::uint16_t v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

inline std::uint32_t
le32(const std::uint8_t *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

inline std::uint64_t
le64(const std::uint8_t *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

inline void
putLe16(std::uint8_t *p, std::uint16_t v)
{
    std::memcpy(p, &v, sizeof v);
}

inline void
putLe32(std::uint8_t *p, std::uint32_t v)
{
    std::memcpy(p, &v, sizeof v);
}

inline void
putLe64(std::uint8_t *p, std::uint64_t v)
{
    std::memcpy(p, &v, sizeof v);
}
/** @} */

class Serializer;

/** A snapshot composer: writes sections through a Serializer. */
using SaveFn = std::function<void(Serializer &)>;

/**
 * Serialize a snapshot: run `save` once to size the file, allocate
 * it once, and run `save` again to write every field at its final
 * offset. Each byte is written once and checksummed once.
 *
 * @throws SnapshotError on a malformed composition (bad or
 *         duplicate tag, unbalanced sections/structs, a length the
 *         format cannot store) — raised by the sizing pass, before
 *         anything is allocated.
 */
std::vector<std::uint8_t> serialize(std::uint64_t fingerprint,
                                    const SaveFn &save);

/**
 * Run only serialize()'s sizing pass: the exact byte size it would
 * produce, or the SnapshotError it would raise before allocating.
 */
std::size_t serializedSize(const SaveFn &save);

/**
 * Writes one snapshot; only serialize() makes one. It drives a
 * composer through two passes over the same Serializer — a sizing
 * pass that only counts bytes, then a write pass into the exactly
 * sized buffer — so both passes must emit the same stream. That is
 * why every save() is const: a composer is a pure function of the
 * state it saves.
 *
 * Struct and section CRCs are computed as the write pass goes: each
 * byte is hashed once, into its innermost open struct, and a closed
 * struct's CRC is folded into its parent's with crc32Combine().
 * Bytes are hashed at the latest once HashChunk of them are pending,
 * so a multi-megabyte struct is read back from the host's L2 cache
 * rather than from memory.
 */
class Serializer
{
  public:
    /** Open a top-level section; tags must be unique per file. */
    void beginSection(const std::string &tag);
    void endSection();

    /** Open a nested, CRC-framed struct record. */
    void beginStruct(const std::string &tag);
    void endStruct();

    void u8(std::uint8_t v) { put(&v, sizeof v); }
    void u16(std::uint16_t v) { put(&v, sizeof v); }
    void u32(std::uint32_t v) { put(&v, sizeof v); }
    void u64(std::uint64_t v) { put(&v, sizeof v); }
    void i64(std::int64_t v) { put(&v, sizeof v); }
    void f64(double v) { put(&v, sizeof v); }
    void boolean(bool v) { u8(v ? 1 : 0); }
    void str(std::string_view v);
    void bytes(const void *data, std::size_t size) { put(data, size); }

    /**
     * Bulk fixed-layout records, the write side of
     * Deserializer::raw(): `items.size() * wire_bytes` payload
     * bytes, filled by `pack(p, item)` with `p` at each item's
     * record. The sizing pass only counts them, so `pack` runs only
     * while writing.
     */
    template <typename Range, typename Pack>
    void
    records(const Range &items, std::size_t wire_bytes, Pack &&pack)
    {
        std::uint8_t *p = reserve(std::size(items) * wire_bytes);
        if (p == nullptr)
            return;
        // Pack HashChunk bytes at a time and hash each chunk while
        // it is still in cache.
        const std::size_t per_chunk =
            std::max<std::size_t>(1, HashChunk / wire_bytes);
        auto it = std::begin(items);
        for (std::size_t left = std::size(items); left != 0;) {
            const std::size_t n = std::min(left, per_chunk);
            for (std::size_t i = 0; i < n; ++i, ++it, p += wire_bytes)
                pack(p, *it);
            left -= n;
            foldPending(static_cast<std::size_t>(p - out_));
        }
    }

    /** Pending bytes that trigger hashing: small enough to be still
     *  in a host L2 cache when they are read back. */
    static constexpr std::size_t HashChunk = std::size_t{256} << 10;

  private:
    friend std::vector<std::uint8_t> serialize(std::uint64_t,
                                               const SaveFn &);
    friend std::size_t serializedSize(const SaveFn &);

    struct Section
    {
        std::string tag;
        std::size_t size = 0;
    };

    /** An open section (frames_[0]) or struct: where its payload
     *  starts and the CRC of its payload bytes before `hashed`. */
    struct Frame
    {
        std::size_t start = 0;
        std::size_t hashed = 0;
        std::uint32_t crc = 0;
    };

    Serializer() = default;

    /** Sizing pass: record every section's size; return the file
     *  size. */
    std::size_t plan(const SaveFn &save);

    /** Write pass into `out`, plan()'s exact size. */
    void write(std::uint8_t *out, std::uint64_t fingerprint,
               const SaveFn &save);

    /** Claim the next `n` bytes of the open section: their final
     *  address while writing, nullptr while sizing. */
    std::uint8_t *
    reserve(std::size_t n)
    {
        if (!inSection_)
            outsideSection();
        const std::size_t at = pos_;
        pos_ += n;
        if (out_ == nullptr)
            return nullptr;
        if (pos_ > sectionEnd_)
            diverged();
        return out_ + at;
    }

    void
    put(const void *data, std::size_t n)
    {
        std::uint8_t *p = reserve(n);
        if (p == nullptr)
            return;
        // memcpy's pointers must be valid even for n == 0, and an
        // empty container's data() may be null.
        if (n != 0)
            std::memcpy(p, data, n);
        foldPending(pos_);
    }

    /** Write pass: hash the innermost frame's bytes up to `end`, all
     *  written, once at least HashChunk of them are pending. */
    void
    foldPending(std::size_t end)
    {
        Frame &f = frames_.back();
        if (end - f.hashed >= HashChunk)
            hashTo(f, end);
    }

    /** Fold the frame's bytes in [hashed, end) into its CRC. */
    void hashTo(Frame &f, std::size_t end) const;

    [[noreturn]] static void outsideSection();
    [[noreturn]] static void diverged();

    /** Write pass only: the output buffer; nullptr while sizing. */
    std::uint8_t *out_ = nullptr;
    /** Write offset: file-absolute while writing, section-relative
     *  while sizing. */
    std::size_t pos_ = 0;
    std::size_t sectionEnd_ = 0;
    bool inSection_ = false;
    /** Sections in file order, sized by plan(). */
    std::vector<Section> sections_;
    /** Write pass: index of the next section to open. */
    std::size_t nextSection_ = 0;
    std::vector<Frame> frames_;
};

/** Reads and validates a snapshot byte stream. */
class Deserializer
{
  public:
    /**
     * Parse and validate the header and section table.
     * The buffer must outlive the Deserializer.
     *
     * @param verify_sections When false, enterSection skips the
     *        per-section payload CRC. For repeated restores of one
     *        already-verified (or just-serialized) in-memory buffer
     *        the checksum pass dominates restore cost; callers that
     *        own the buffer's integrity opt out and verify once via
     *        verifyAllSections() when the bytes came from disk.
     * @throws SnapshotError on bad magic/version/CRC/layout.
     */
    Deserializer(const std::uint8_t *data, std::size_t size,
                 bool verify_sections = true);

    /** Checksum every section payload; throws on any mismatch. */
    void verifyAllSections() const;

    /** Parameter fingerprint recorded at save time. */
    std::uint64_t fingerprint() const { return fingerprint_; }

    bool hasSection(const std::string &tag) const;

    /** Position the cursor at a section; verifies its CRC. */
    void enterSection(const std::string &tag);

    /** Close the section; throws if bytes remain unread. */
    void leaveSection();

    /** Enter a struct record; verifies tag and payload CRC. */
    void enterStruct(const std::string &tag);

    /** Close the struct; throws if bytes remain unread. */
    void leaveStruct();

    std::uint8_t u8();
    std::uint16_t u16();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64();
    double f64();
    bool boolean();
    std::string str();
    void bytes(void *out, std::size_t size);

    /**
     * Zero-copy view of the next `n` payload bytes; advances the
     * cursor. For bulk fixed-layout records (e.g. the image's slot
     * array) where a per-field read loop is measurable restore
     * cost. The pointer is valid for the buffer's lifetime.
     */
    const std::uint8_t *raw(std::size_t n) { return take(n); }

    /**
     * Read an element count — a u32, or a u64 with Count =
     * std::uint64_t — and require `count * min_record_bytes` to fit
     * in the bytes left in the enclosing struct, so a corrupt or
     * hostile count fails here instead of sizing a container.
     */
    template <typename Count = std::uint32_t>
    std::size_t
    count(std::size_t min_record_bytes)
    {
        static_assert(std::is_same_v<Count, std::uint32_t> ||
                      std::is_same_v<Count, std::uint64_t>);
        const std::uint64_t n =
            sizeof(Count) == 8 ? u64() : std::uint64_t{u32()};
        checkCount(n, min_record_bytes);
        return static_cast<std::size_t>(n);
    }

    /** Read a u32 and require it to equal `expected`. */
    void checkU32(std::uint32_t expected, const std::string &what);

    /** Read a u64 and require it to equal `expected`. */
    void checkU64(std::uint64_t expected, const std::string &what);

    /** Read a bool and require it to equal `expected`. */
    void checkBool(bool expected, const std::string &what);

    [[noreturn]] void fail(const std::string &what) const;

  private:
    struct Section
    {
        std::string tag;
        std::size_t offset = 0;
        std::size_t size = 0;
        std::uint32_t crc = 0;
    };

    const std::uint8_t *take(std::size_t n);
    std::size_t limit() const;
    void checkCount(std::uint64_t n,
                    std::size_t min_record_bytes) const;

    const std::uint8_t *data_;
    std::size_t size_;
    std::uint64_t fingerprint_ = 0;
    std::vector<Section> sections_;
    std::string sectionTag_;
    std::size_t cursor_ = 0;
    std::size_t sectionEnd_ = 0;
    bool inSection_ = false;
    bool verifySections_ = true;
    /** End offsets of open struct records, innermost last. */
    std::vector<std::size_t> structEnds_;
};

} // namespace dlsim::snapshot

#endif // DLSIM_SNAPSHOT_SERIALIZER_HH
