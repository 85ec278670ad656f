/**
 * @file
 * snapshot::crc32() against its oracle, the portable slice-by-8
 * loop crc32Portable(). On a host with PCLMULQDQ, crc32() runs the
 * carry-less-multiply kernel over the bulk of every buffer of 64
 * bytes or more, so these tests pin the kernel to the table loop:
 * every short length at every alignment, large random buffers,
 * streaming in chunks, and CRC combination. On other hosts both
 * sides run the table loop and the tests still check it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string_view>
#include <vector>

#include "snapshot/format.hh"

using namespace dlsim::snapshot;

namespace
{

std::vector<std::uint8_t>
randomBytes(std::mt19937_64 &rng, std::size_t n)
{
    std::vector<std::uint8_t> b(n);
    for (auto &byte : b)
        byte = static_cast<std::uint8_t>(rng());
    return b;
}

} // namespace

TEST(Crc32, KnownVectors)
{
    RecordProperty("kernel", crc32Accelerated() ? "pclmul" : "portable");
    constexpr std::string_view check = "123456789";
    const auto *p = reinterpret_cast<const std::uint8_t *>(check.data());
    EXPECT_EQ(crc32Portable(p, check.size()), 0xcbf43926u);
    EXPECT_EQ(crc32(p, check.size()), 0xcbf43926u);
    EXPECT_EQ(crc32(nullptr, 0), 0u);
    EXPECT_EQ(crc32Portable(nullptr, 0, 0x1234u), 0x1234u);
    // 4 KiB of zeros: long enough for the kernel's folding loop.
    const std::vector<std::uint8_t> zeros(4096, 0);
    EXPECT_EQ(crc32(zeros.data(), zeros.size()),
              crc32Portable(zeros.data(), zeros.size()));
}

/** Every length 0..1024 at each of 16 start offsets, from a zero and
 *  a random initial CRC: covers the kernel's 64-byte threshold, its
 *  16-byte tail and the table loop's remainder at every alignment. */
TEST(Crc32, EveryShortLengthAtEveryOffset)
{
    std::mt19937_64 rng(11);
    const auto buf = randomBytes(rng, 1024 + 16);
    for (std::size_t offset = 0; offset < 16; ++offset) {
        for (std::size_t n = 0; n <= 1024; ++n) {
            const std::uint8_t *p = buf.data() + offset;
            const auto seed = static_cast<std::uint32_t>(rng());
            ASSERT_EQ(crc32(p, n), crc32Portable(p, n))
                << "offset " << offset << " length " << n;
            ASSERT_EQ(crc32(p, n, seed), crc32Portable(p, n, seed))
                << "offset " << offset << " length " << n;
        }
    }
}

/** Random buffers up to 4 MiB, random initial CRCs and offsets. */
TEST(Crc32, RandomLargeBuffers)
{
    std::mt19937_64 rng(12);
    const auto buf = randomBytes(rng, (std::size_t{4} << 20) + 16);
    for (int trial = 0; trial < 24; ++trial) {
        const std::size_t offset = rng() % 16;
        const std::size_t n = rng() % (buf.size() - offset + 1);
        const auto seed = static_cast<std::uint32_t>(rng());
        const std::uint8_t *p = buf.data() + offset;
        EXPECT_EQ(crc32(p, n, seed), crc32Portable(p, n, seed))
            << "offset " << offset << " length " << n;
    }
    EXPECT_EQ(crc32(buf.data(), buf.size()),
              crc32Portable(buf.data(), buf.size()));
}

/** Hashing a buffer in chunks of random sizes, each continuing the
 *  CRC of the bytes before it, equals hashing it whole. */
TEST(Crc32, ChunkedEqualsWhole)
{
    std::mt19937_64 rng(13);
    const auto buf = randomBytes(rng, 1 << 20);
    const std::uint32_t whole = crc32Portable(buf.data(), buf.size());
    ASSERT_EQ(crc32(buf.data(), buf.size()), whole);
    for (int trial = 0; trial < 16; ++trial) {
        // Chunk sizes from a few bytes to past the kernel threshold
        // and up to a snapshot page run.
        const std::size_t max_chunk = std::size_t{1} << (2 + trial);
        std::uint32_t fast = 0;
        std::uint32_t portable = 0;
        for (std::size_t at = 0; at < buf.size();) {
            const std::size_t n =
                std::min<std::size_t>(1 + rng() % max_chunk,
                                      buf.size() - at);
            fast = crc32(buf.data() + at, n, fast);
            portable = crc32Portable(buf.data() + at, n, portable);
            at += n;
        }
        EXPECT_EQ(fast, whole) << "max chunk " << max_chunk;
        EXPECT_EQ(portable, whole) << "max chunk " << max_chunk;
    }
}

/** crc32Combine of kernel-computed parts equals the CRC of the
 *  concatenation, as the serializer relies on when it folds a closed
 *  struct into its parent. */
TEST(Crc32, CombineConsistentWithKernel)
{
    std::mt19937_64 rng(14);
    const auto buf = randomBytes(rng, 300000);
    for (int trial = 0; trial < 64; ++trial) {
        const std::size_t total = rng() % (buf.size() + 1);
        const std::size_t split = rng() % (total + 1);
        const std::uint32_t a = crc32(buf.data(), split);
        const std::uint32_t b = crc32(buf.data() + split, total - split);
        EXPECT_EQ(crc32Combine(a, b, total - split),
                  crc32Portable(buf.data(), total))
            << "total " << total << " split " << split;
    }
}
