/**
 * @file
 * On-disk snapshot format constants and primitives.
 *
 * A dlsim snapshot is a little-endian binary container:
 *
 *   header:  u32 magic ("DLSN"), u32 format version,
 *            u64 parameter fingerprint, u32 section count,
 *            u32 CRC-32 of the section table
 *   table:   per section: 16-byte NUL-padded tag, u64 payload
 *            offset, u64 payload size, u32 payload CRC-32,
 *            u32 reserved (zero)
 *   payload: section payloads, in table order
 *
 * Within a section payload, state is stored as nestable struct
 * records: [u8 tag length][tag][u32 payload length][u32 payload
 * CRC-32][payload]. Every struct record therefore carries its own
 * checksum, so corruption is attributed to a named structure.
 *
 * Any mismatch — magic, version, CRC, fingerprint, geometry — must
 * raise SnapshotError before any partial state becomes visible; see
 * docs/snapshots.md for the full contract.
 */

#ifndef DLSIM_SNAPSHOT_FORMAT_HH
#define DLSIM_SNAPSHOT_FORMAT_HH

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace dlsim::snapshot
{

/** "DLSN" read as a little-endian u32. */
constexpr std::uint32_t Magic = 0x4e534c44u;

/** Current snapshot format version. */
constexpr std::uint32_t FormatVersion = 1;

/** Fixed header size in bytes (magic..table CRC). */
constexpr std::size_t HeaderBytes = 4 + 4 + 8 + 4 + 4;

/** Section-table entry size in bytes. */
constexpr std::size_t TableEntryBytes = 16 + 8 + 8 + 4 + 4;

/** Longest section/struct tag, excluding the terminator. */
constexpr std::size_t MaxTagBytes = 15;

/** Raised on any malformed, corrupt, or incompatible snapshot. */
class SnapshotError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * CRC-32 (IEEE 802.3 polynomial, reflected) of `size` bytes,
 * continuing from `crc`, the CRC of the bytes before them (0 for
 * none): crc32(B, |B|, crc32(A, |A|)) == crc32(A‖B).
 */
std::uint32_t crc32(const std::uint8_t *data, std::size_t size,
                    std::uint32_t crc = 0);

/**
 * The same CRC by the portable slice-by-8 table loop alone. crc32()
 * runs a carry-less-multiply (PCLMULQDQ) kernel over the bulk of a
 * buffer when the host has one (crc32Accelerated()) and this loop
 * over the rest; this entry point is the kernel's test oracle.
 */
std::uint32_t crc32Portable(const std::uint8_t *data, std::size_t size,
                            std::uint32_t crc = 0);

/** True when crc32() uses the carry-less-multiply kernel, decided
 *  once from the host CPU's feature flags. */
bool crc32Accelerated();

/**
 * CRC of a concatenation from its parts' CRCs, without re-reading
 * either part: crc32Combine(crc(A), crc(B), |B|) == crc(A‖B). One
 * GF(2) multiply of crc(A) by x^(8·|B|) mod P, as in zlib's
 * crc32_combine.
 */
std::uint32_t crc32Combine(std::uint32_t crc_a, std::uint32_t crc_b,
                           std::uint64_t len_b);

/**
 * FNV-1a 64-bit hasher used for parameter fingerprints: a snapshot
 * may only be restored into a machine built from parameters whose
 * fingerprint matches the one recorded at save time.
 */
class Fingerprint
{
  public:
    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xffu;
            h_ *= 0x100000001b3ull;
        }
    }

    void mix(std::uint32_t v) { mix(static_cast<std::uint64_t>(v)); }
    void mix(bool v) { mix(static_cast<std::uint64_t>(v)); }

    void
    mix(double v)
    {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        __builtin_memcpy(&bits, &v, sizeof(bits));
        mix(bits);
    }

    void
    mix(const std::string &s)
    {
        mix(static_cast<std::uint64_t>(s.size()));
        for (const char c : s) {
            h_ ^= static_cast<std::uint8_t>(c);
            h_ *= 0x100000001b3ull;
        }
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

} // namespace dlsim::snapshot

#endif // DLSIM_SNAPSHOT_FORMAT_HH
