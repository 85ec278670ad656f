#include "snapshot/format.hh"

#include <array>

namespace dlsim::snapshot
{

namespace
{

/** The reflected polynomial, bit 31 holding x^0. */
constexpr std::uint32_t Poly = 0xedb88320u;

/**
 * Slice-by-8 CRC-32 tables: table[0] is the classic byte-at-a-time
 * table; table[k][b] extends it so eight bytes fold in per step.
 * Same polynomial (0xedb88320), bit-identical results — snapshot
 * checksums dominate restore cost on multi-megabyte warm states, so
 * the bulk loop matters (docs/performance.md).
 */
std::array<std::array<std::uint32_t, 256>, 8>
makeCrcTables()
{
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t n = 0; n < 256; ++n) {
        std::uint32_t c = n;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? Poly ^ (c >> 1) : c >> 1;
        t[0][n] = c;
    }
    for (std::uint32_t n = 0; n < 256; ++n)
        for (std::size_t k = 1; k < 8; ++k)
            t[k][n] = t[0][t[k - 1][n] & 0xffu] ^ (t[k - 1][n] >> 8);
    return t;
}

/** a·b mod P over GF(2), both operands reflected. */
std::uint32_t
multModP(std::uint32_t a, std::uint32_t b)
{
    std::uint32_t m = 1u << 31;
    std::uint32_t p = 0;
    for (;;) {
        if (a & m) {
            p ^= b;
            if ((a & (m - 1)) == 0)
                break;
        }
        m >>= 1;
        b = (b & 1) ? (b >> 1) ^ Poly : b >> 1;
    }
    return p;
}

/** x2n[k] = x^(2^k) mod P; the powers repeat with period 32. */
std::array<std::uint32_t, 32>
makeX2nTable()
{
    std::array<std::uint32_t, 32> t{};
    std::uint32_t p = 1u << 30; // x^1
    t[0] = p;
    for (std::size_t k = 1; k < t.size(); ++k)
        t[k] = p = multModP(p, p);
    return t;
}

/** x^(n·2^k) mod P, by squaring over the bits of n. */
std::uint32_t
x2nModP(std::uint64_t n, unsigned k)
{
    static const auto x2n = makeX2nTable();
    std::uint32_t p = 1u << 31; // x^0
    for (; n != 0; n >>= 1, ++k) {
        if (n & 1)
            p = multModP(x2n[k & 31], p);
    }
    return p;
}

} // namespace

std::uint32_t
crc32(const std::uint8_t *data, std::size_t size, std::uint32_t crc)
{
    static const auto t = makeCrcTables();
    std::uint32_t c = crc ^ 0xffffffffu;
    while (size >= 8) {
        const std::uint32_t lo =
            c ^ (static_cast<std::uint32_t>(data[0]) |
                 static_cast<std::uint32_t>(data[1]) << 8 |
                 static_cast<std::uint32_t>(data[2]) << 16 |
                 static_cast<std::uint32_t>(data[3]) << 24);
        c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
            t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^
            t[3][data[4]] ^ t[2][data[5]] ^ t[1][data[6]] ^
            t[0][data[7]];
        data += 8;
        size -= 8;
    }
    for (std::size_t i = 0; i < size; ++i)
        c = t[0][(c ^ data[i]) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

std::uint32_t
crc32Combine(std::uint32_t crc_a, std::uint32_t crc_b,
             std::uint64_t len_b)
{
    // Appending |B| bytes multiplies A's CRC register by x^(8·|B|);
    // the pre/post conditioning of the two parts cancels in the XOR.
    return multModP(x2nModP(len_b, 3), crc_a) ^ crc_b;
}

} // namespace dlsim::snapshot
