#include "snapshot/format.hh"

#include <array>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define DLSIM_CRC32_CLMUL 1
#endif

namespace dlsim::snapshot
{

namespace
{

/** The reflected polynomial, bit 31 holding x^0. */
constexpr std::uint32_t Poly = 0xedb88320u;

/**
 * Slice-by-8 CRC-32 tables: table[0] is the classic byte-at-a-time
 * table; table[k][b] extends it so eight bytes fold in per step.
 * Same polynomial (0xedb88320), bit-identical results. This is the
 * portable path, the tail loop behind the carry-less-multiply
 * kernel, and that kernel's test oracle (docs/performance.md §6).
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

#ifdef DLSIM_CRC32_CLMUL

#define DLSIM_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

DLSIM_CLMUL_TARGET inline __m128i
load128(const std::uint8_t *at)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(at));
}

/** acc·x^k ⊕ next: acc's low and high halves are each multiplied by
 *  their own power of x, the low and high halves of `k`. */
DLSIM_CLMUL_TARGET inline __m128i
fold128(__m128i acc, __m128i k, __m128i next)
{
    return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00),
                                       _mm_clmulepi64_si128(acc, k, 0x11)),
                         next);
}

/**
 * The CRC register `c` (pre-inverted, as in the table loop) advanced
 * over `size` bytes by carry-less multiplication, after Gopal et
 * al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
 * Instruction" (Intel, 2009). `size` is at least 64 and a multiple
 * of 16. Four 128-bit accumulators each fold 16 bytes forward by
 * 512 bits per step; they are then folded into one, reduced to 64
 * bits, and a Barrett reduction leaves the 32-bit remainder. The
 * constants are the paper's bit-reflected ones for 0xedb88320:
 * x^(512±32), x^(128±32) and x^64 mod P, then P and its Barrett
 * quotient floor(x^64 / P), each 33 bits wide.
 */
DLSIM_CLMUL_TARGET std::uint32_t
crc32Clmul(const std::uint8_t *p, std::size_t size, std::uint32_t c)
{
    const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
    const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
    const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
    const __m128i poly = _mm_set_epi64x(0x1f7011641, 0x1db710641);
    const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

    __m128i x0 = _mm_xor_si128(load128(p),
                               _mm_cvtsi32_si128(static_cast<int>(c)));
    __m128i x1 = load128(p + 16);
    __m128i x2 = load128(p + 32);
    __m128i x3 = load128(p + 48);
    p += 64;
    size -= 64;
    for (; size >= 64; p += 64, size -= 64) {
        x0 = fold128(x0, k1k2, load128(p));
        x1 = fold128(x1, k1k2, load128(p + 16));
        x2 = fold128(x2, k1k2, load128(p + 32));
        x3 = fold128(x3, k1k2, load128(p + 48));
    }
    x0 = fold128(x0, k3k4, x1);
    x0 = fold128(x0, k3k4, x2);
    x0 = fold128(x0, k3k4, x3);
    for (; size >= 16; p += 16, size -= 16)
        x0 = fold128(x0, k3k4, load128(p));

    // 128 → 64 bits, then 64 → 32 by Barrett reduction.
    x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                       _mm_clmulepi64_si128(x0, k3k4, 0x10));
    x0 = _mm_xor_si128(
        _mm_srli_si128(x0, 4),
        _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00));
    __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly,
                                     0x10);
    t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
    return static_cast<std::uint32_t>(
        _mm_extract_epi32(_mm_xor_si128(x0, t), 1));
}

#undef DLSIM_CLMUL_TARGET

#endif // DLSIM_CRC32_CLMUL

/** Slice-by-8 over the pre-inverted register `c`. */
std::uint32_t
crc32Tables(const std::uint8_t *data, std::size_t size, std::uint32_t c)
{
    static const auto t = makeCrcTables();
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
    return c;
}

} // namespace

bool
crc32Accelerated()
{
#ifdef DLSIM_CRC32_CLMUL
    static const bool have = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("pclmul") &&
               __builtin_cpu_supports("sse4.1");
    }();
    return have;
#else
    return false;
#endif
}

std::uint32_t
crc32(const std::uint8_t *data, std::size_t size, std::uint32_t crc)
{
    std::uint32_t c = crc ^ 0xffffffffu;
#ifdef DLSIM_CRC32_CLMUL
    if (size >= 64 && crc32Accelerated()) {
        const std::size_t bulk = size & ~std::size_t{15};
        c = crc32Clmul(data, bulk, c);
        data += bulk;
        size -= bulk;
    }
#endif
    return crc32Tables(data, size, c) ^ 0xffffffffu;
}

std::uint32_t
crc32Portable(const std::uint8_t *data, std::size_t size,
              std::uint32_t crc)
{
    return crc32Tables(data, size, crc ^ 0xffffffffu) ^ 0xffffffffu;
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
