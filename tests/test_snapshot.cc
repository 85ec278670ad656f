/**
 * @file
 * Tests for the snapshot/checkpoint subsystem: the container format
 * (golden header bytes, CRC framing, corruption/truncation
 * rejection), per-structure save/load roundtrips, COW topology
 * preservation through the page pool, Workbench- and System-level
 * roundtrips, and the restore-then-run == keep-running determinism
 * contract the warm-up-once benches rely on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <random>
#include <string_view>

#include "branch/btb.hh"
#include "branch/indirect.hh"
#include "core/abtb.hh"
#include "common.hh"
#include "core/skip_unit.hh"
#include "linker/loader.hh"
#include "mem/address_space.hh"
#include "mem/cache.hh"
#include "mem/tlb.hh"
#include "os/pipe.hh"
#include "os/sched.hh"
#include "os/socket.hh"
#include "sim/multicore.hh"
#include "sim/system.hh"
#include "sim_fixture.hh"
#include "snapshot/format.hh"
#include "snapshot/io.hh"
#include "snapshot/serializer.hh"
#include "stats/cdf.hh"
#include "stats/rng.hh"
#include "workload/engine.hh"
#include "workload/profiles.hh"

using namespace dlsim;
using namespace dlsim::isa;
using namespace dlsim::snapshot;
using dlsim::test::Sim;

namespace
{

/** Unique temp path per test. */
std::string
tmpPath(const std::string &tag)
{
    return ::testing::TempDir() + "dlsim_snap_" + tag + ".bin";
}

/** A small, fast workload for Workbench-level tests. */
workload::WorkloadParams
tinyParams()
{
    workload::WorkloadParams p;
    p.name = "tiny";
    p.seed = 7;
    p.numLibs = 3;
    p.funcsPerLib = 8;
    p.libFnInsts = 10;
    p.requests = {{"A", 0.5, 1, 2}, {"B", 0.5, 1, 3}};
    p.stepsPerRequest = 6;
    p.appWorkInsts = 4;
    p.calledImports = 12;
    p.libDataBytes = 4096;
    p.appDataBytes = 8192;
    p.ifuncSymbols = 2;
    p.tailJumpFrac = 0.2;
    p.virtualCallFrac = 0.2;
    return p;
}

std::uint32_t
readLe32(const std::vector<std::uint8_t> &b, std::size_t off)
{
    return static_cast<std::uint32_t>(b[off]) |
           static_cast<std::uint32_t>(b[off + 1]) << 8 |
           static_cast<std::uint32_t>(b[off + 2]) << 16 |
           static_cast<std::uint32_t>(b[off + 3]) << 24;
}

std::uint64_t
readLe64(const std::vector<std::uint8_t> &b, std::size_t off)
{
    return static_cast<std::uint64_t>(readLe32(b, off)) |
           static_cast<std::uint64_t>(readLe32(b, off + 4)) << 32;
}

elf::Module
counterExe()
{
    elf::ModuleBuilder mb("app");
    mb.setDataSize(4096);
    auto &f = mb.function("f");
    f.movDataAddr(4, 0);
    f.load(RegRet, 4, 0);
    f.aluImm(AluKind::Add, RegRet, RegRet, 1);
    f.store(RegRet, 4, 0);
    f.callExternal("libfn");
    f.ret();
    return mb.build();
}

elf::Module
lib()
{
    elf::ModuleBuilder mb("lib");
    auto &f = mb.function("libfn");
    f.nop(); // must not clobber RegRet: f() returns the counter
    f.ret();
    return mb.build();
}

} // namespace

// --------------------------------------------------------------
// Container format.
// --------------------------------------------------------------

/**
 * Golden header: pins the on-disk layout of format version 1. If
 * this test fails, the format changed — bump FormatVersion and add
 * a migration path instead of silently breaking old snapshots.
 */
TEST(SnapshotFormat, GoldenHeaderLayout)
{
    EXPECT_EQ(Magic, 0x4e534c44u); // "DLSN"
    EXPECT_EQ(FormatVersion, 1u);
    EXPECT_EQ(HeaderBytes, 24u);
    EXPECT_EQ(TableEntryBytes, 40u);

    const auto b = serialize(0x1122334455667788ull, [&](Serializer &s) {
        s.beginSection("alpha");
        s.beginStruct("x");
        s.u32(0xdeadbeefu);
        s.endStruct();
        s.endSection();
    });

    ASSERT_GE(b.size(), HeaderBytes + TableEntryBytes);
    // "DLSN" as raw bytes.
    EXPECT_EQ(b[0], 'D');
    EXPECT_EQ(b[1], 'L');
    EXPECT_EQ(b[2], 'S');
    EXPECT_EQ(b[3], 'N');
    EXPECT_EQ(readLe32(b, 0), Magic);
    EXPECT_EQ(readLe32(b, 4), FormatVersion);
    EXPECT_EQ(readLe64(b, 8), 0x1122334455667788ull);
    EXPECT_EQ(readLe32(b, 16), 1u); // section count
    // Section table entry: 16-byte NUL-padded tag.
    EXPECT_EQ(b[HeaderBytes + 0], 'a');
    EXPECT_EQ(b[HeaderBytes + 4], 'a');
    EXPECT_EQ(b[HeaderBytes + 5], 0);
    EXPECT_EQ(b[HeaderBytes + 15], 0);
    // Payload offset points past header + table.
    EXPECT_EQ(readLe64(b, HeaderBytes + 16),
              HeaderBytes + TableEntryBytes);
    // Section payload: one 14-byte struct record.
    EXPECT_EQ(readLe64(b, HeaderBytes + 24), 14u);
    // Section CRC: CRC-32 of the whole record, header included.
    EXPECT_EQ(readLe32(b, HeaderBytes + 32), 0x3d3378f4u);
    EXPECT_EQ(readLe32(b, HeaderBytes + 36), 0u); // reserved
    // Struct record: u8 tag length, tag, u32 payload length, u32
    // payload CRC, payload.
    const std::size_t rec = HeaderBytes + TableEntryBytes;
    EXPECT_EQ(b[rec], 1);
    EXPECT_EQ(b[rec + 1], 'x');
    EXPECT_EQ(readLe32(b, rec + 2), 4u);
    EXPECT_EQ(readLe32(b, rec + 6), 0x1a5a601fu); // CRC of ef be ad de
    EXPECT_EQ(readLe32(b, rec + 10), 0xdeadbeefu);
    EXPECT_EQ(b.size(), rec + 14);

    Deserializer d(b.data(), b.size());
    EXPECT_EQ(d.fingerprint(), 0x1122334455667788ull);
    EXPECT_TRUE(d.hasSection("alpha"));
    EXPECT_FALSE(d.hasSection("beta"));
    d.enterSection("alpha");
    d.enterStruct("x");
    EXPECT_EQ(d.u32(), 0xdeadbeefu);
    d.leaveStruct();
    d.leaveSection();
}

TEST(SnapshotFormat, PrimitiveRoundTrip)
{
    const auto b = serialize(0, [&](Serializer &s) {
        s.beginSection("p");
        s.beginStruct("all");
        s.u8(0xab);
        s.u16(0xcdef);
        s.u32(0x12345678u);
        s.u64(0xfedcba9876543210ull);
        s.i64(-42);
        s.f64(3.25);
        s.boolean(true);
        s.boolean(false);
        s.str("hello snapshot");
        const std::uint8_t raw[3] = {1, 2, 3};
        s.bytes(raw, sizeof raw);
        s.endStruct();
        s.endSection();
    });

    Deserializer d(b.data(), b.size());
    d.enterSection("p");
    d.enterStruct("all");
    EXPECT_EQ(d.u8(), 0xab);
    EXPECT_EQ(d.u16(), 0xcdef);
    EXPECT_EQ(d.u32(), 0x12345678u);
    EXPECT_EQ(d.u64(), 0xfedcba9876543210ull);
    EXPECT_EQ(d.i64(), -42);
    EXPECT_EQ(d.f64(), 3.25);
    EXPECT_TRUE(d.boolean());
    EXPECT_FALSE(d.boolean());
    EXPECT_EQ(d.str(), "hello snapshot");
    std::uint8_t out[3] = {};
    d.bytes(out, sizeof out);
    EXPECT_EQ(out[0], 1);
    EXPECT_EQ(out[2], 3);
    d.leaveStruct();
    d.leaveSection();
}

TEST(SnapshotFormat, RejectsBadMagicAndVersion)
{
    auto good = serialize(0, [&](Serializer &s) {
        s.beginSection("a");
        s.beginStruct("x");
        s.u32(1);
        s.endStruct();
        s.endSection();
    });

    auto bad = good;
    bad[0] ^= 0xff;
    EXPECT_THROW(Deserializer(bad.data(), bad.size()),
                 SnapshotError);

    bad = good;
    bad[4] += 1; // future format version
    EXPECT_THROW(Deserializer(bad.data(), bad.size()),
                 SnapshotError);
}

TEST(SnapshotFormat, DetectsBitFlipAnywhere)
{
    const auto good = serialize(0, [&](Serializer &s) {
        s.beginSection("a");
        s.beginStruct("x");
        for (std::uint32_t i = 0; i < 64; ++i)
            s.u32(i * 2654435761u);
        s.endStruct();
        s.endSection();
    });

    // Flip one bit in every byte position in turn; every flip must
    // be caught by header validation, the table CRC, the section
    // CRC, the struct CRC, or — for the header's fingerprint field,
    // which the Deserializer exposes rather than interprets — by
    // the fingerprint comparison every restore path performs.
    const auto origFp = Deserializer(good.data(), good.size())
                            .fingerprint();
    for (std::size_t pos = 0; pos < good.size(); ++pos) {
        auto bad = good;
        bad[pos] ^= 0x01;
        bool caught = false;
        try {
            Deserializer d(bad.data(), bad.size());
            if (d.fingerprint() != origFp)
                caught = true;
            d.enterSection("a");
            d.enterStruct("x");
            for (std::uint32_t i = 0; i < 64; ++i)
                (void)d.u32();
            d.leaveStruct();
            d.leaveSection();
        } catch (const SnapshotError &) {
            caught = true;
        }
        EXPECT_TRUE(caught) << "bit flip at byte " << pos
                            << " went undetected";
    }
}

TEST(SnapshotFormat, RejectsTruncation)
{
    const auto good = serialize(0, [&](Serializer &s) {
        s.beginSection("a");
        s.beginStruct("x");
        s.u64(7);
        s.endStruct();
        s.endSection();
    });

    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{8}, HeaderBytes,
          HeaderBytes + TableEntryBytes, good.size() - 1}) {
        auto bad = good;
        bad.resize(keep);
        bool caught = false;
        try {
            Deserializer d(bad.data(), bad.size());
            d.enterSection("a");
            d.enterStruct("x");
            (void)d.u64();
            d.leaveStruct();
            d.leaveSection();
        } catch (const SnapshotError &) {
            caught = true;
        }
        EXPECT_TRUE(caught)
            << "truncation to " << keep << " bytes undetected";
    }
}

TEST(SnapshotFormat, FileRoundTrip)
{
    const auto path = tmpPath("file");
    const auto bytes = serialize(99, [&](Serializer &s) {
        s.beginSection("a");
        s.beginStruct("x");
        s.u32(123);
        s.endStruct();
        s.endSection();
    });
    writeFile(path, bytes);
    EXPECT_EQ(readFile(path), bytes);
    std::remove(path.c_str());
    EXPECT_THROW(readFile(path), SnapshotError);
}

/** crc32Combine(crc(A), crc(B), |B|) == crc(A‖B) for any split. */
TEST(SnapshotFormat, CrcCombineMatchesConcatenation)
{
    std::mt19937_64 rng(17);
    std::vector<std::uint8_t> buf(70000);
    for (auto &byte : buf)
        byte = static_cast<std::uint8_t>(rng());
    const auto crcOf = [&](std::size_t at, std::size_t n) {
        return crc32(buf.data() + at, n);
    };
    for (int trial = 0; trial < 400; ++trial) {
        const std::size_t total = rng() % buf.size();
        // Every fourth trial puts an empty part on one side.
        std::size_t split = rng() % (total + 1);
        if (trial % 4 == 1)
            split = 0;
        if (trial % 4 == 2)
            split = total;
        EXPECT_EQ(crc32Combine(crcOf(0, split),
                               crcOf(split, total - split),
                               total - split),
                  crcOf(0, total))
            << "total " << total << " split " << split;
        // Continuing a CRC is the streaming form of the same law.
        EXPECT_EQ(crc32(buf.data() + split, total - split,
                        crcOf(0, split)),
                  crcOf(0, total));
    }
    EXPECT_EQ(crc32Combine(0, 0, 0), 0u);
}

namespace
{

/** A random struct tree: payload runs interleaved with children. */
struct RandomStruct
{
    std::string tag;
    /** Direct payload runs; run i precedes child i. The last run
     *  follows the last child. */
    std::vector<std::vector<std::uint8_t>> runs;
    std::vector<RandomStruct> children;
    /** Write runs[0] as 11-byte bulk records, not raw bytes. */
    bool bulk = false;
};

RandomStruct
randomStruct(std::mt19937_64 &rng, int depth, std::size_t &budget)
{
    RandomStruct st;
    st.tag = "s" + std::to_string(rng() % 1000);
    st.bulk = rng() % 2 == 0;
    const std::size_t nchildren = depth < 3 ? rng() % 4 : 0;
    for (std::size_t i = 0; i <= nchildren; ++i) {
        std::size_t n = 0;
        switch (rng() % 4) {
          case 0: n = 0; break;
          case 1: n = rng() % 16; break;
          case 2: n = rng() % 512; break;
          default: n = rng() % (64 * 1024 + 1); break;
        }
        n = std::min(n, budget);
        budget -= n;
        if (i == 0 && st.bulk)
            n -= n % 11;
        std::vector<std::uint8_t> run(n);
        for (auto &byte : run)
            byte = static_cast<std::uint8_t>(rng());
        st.runs.push_back(std::move(run));
        if (i < nchildren)
            st.children.push_back(randomStruct(rng, depth + 1, budget));
    }
    return st;
}

void
writeRandom(Serializer &s, const RandomStruct &st)
{
    s.beginStruct(st.tag);
    for (std::size_t i = 0; i < st.runs.size(); ++i) {
        const auto &run = st.runs[i];
        if (i == 0 && st.bulk) {
            // 11-byte records packed through records(): u64 + u16 +
            // u8, the shape of the cache/TLB wire records.
            std::vector<std::size_t> idx(run.size() / 11);
            for (std::size_t k = 0; k < idx.size(); ++k)
                idx[k] = k * 11;
            s.records(idx, 11, [&run](std::uint8_t *p, std::size_t at) {
                putLe64(p, le64(run.data() + at));
                putLe16(p + 8, le16(run.data() + at + 8));
                p[10] = run[at + 10];
            });
        } else {
            s.bytes(run.data(), run.size());
        }
        if (i < st.children.size())
            writeRandom(s, st.children[i]);
    }
    s.endStruct();
}

/** Walk `st`'s record at `pos` in `b`, recomputing its CRC from the
 *  bytes with crc32(); returns the offset past the record. */
std::size_t
checkRandom(const std::vector<std::uint8_t> &b, std::size_t pos,
            const RandomStruct &st)
{
    EXPECT_EQ(b[pos], st.tag.size());
    EXPECT_EQ(std::string(reinterpret_cast<const char *>(&b[pos + 1]),
                          st.tag.size()),
              st.tag);
    pos += 1 + st.tag.size();
    const std::uint32_t len = readLe32(b, pos);
    const std::uint32_t crc = readLe32(b, pos + 4);
    pos += 8;
    EXPECT_EQ(crc32(b.data() + pos, len), crc) << "struct " << st.tag;
    const std::size_t end = pos + len;
    for (std::size_t i = 0; i < st.runs.size(); ++i) {
        const auto &run = st.runs[i];
        EXPECT_TRUE(
            std::equal(run.begin(), run.end(), b.begin() + pos));
        pos += run.size();
        if (i < st.children.size())
            pos = checkRandom(b, pos, st.children[i]);
    }
    EXPECT_EQ(pos, end) << "struct " << st.tag;
    return end;
}

} // namespace

/**
 * Property: the CRCs serialize() derives by combination equal the
 * ones crc32() computes over the finished bytes, for random sections
 * of nested structs (depth <= 3, payload runs up to 64 KiB, raw and
 * bulk-record writes, empty runs included).
 */
TEST(SnapshotFormat, CombinedCrcsMatchRecomputation)
{
    std::mt19937_64 rng(2024);
    for (int trial = 0; trial < 12; ++trial) {
        std::vector<std::vector<RandomStruct>> sections(1 + rng() % 3);
        std::vector<std::vector<std::uint8_t>> prefixes;
        std::size_t budget = 1 << 20;
        for (auto &sec : sections) {
            // Loose bytes ahead of the first struct are legal too.
            prefixes.emplace_back(rng() % 8, std::uint8_t{0x5a});
            const std::size_t n = rng() % 4;
            for (std::size_t i = 0; i < n; ++i)
                sec.push_back(randomStruct(rng, 1, budget));
        }
        const auto save = [&](Serializer &s) {
            for (std::size_t i = 0; i < sections.size(); ++i) {
                s.beginSection("sec" + std::to_string(i));
                s.bytes(prefixes[i].data(), prefixes[i].size());
                for (const auto &st : sections[i])
                    writeRandom(s, st);
                s.endSection();
            }
        };
        const auto b = serialize(trial, save);
        ASSERT_EQ(b.size(), serializedSize(save));

        ASSERT_EQ(readLe32(b, 16), sections.size());
        EXPECT_EQ(crc32(b.data() + HeaderBytes,
                        sections.size() * TableEntryBytes),
                  readLe32(b, 20));
        for (std::size_t i = 0; i < sections.size(); ++i) {
            const std::size_t e = HeaderBytes + i * TableEntryBytes;
            const std::size_t off = readLe64(b, e + 16);
            const std::size_t size = readLe64(b, e + 24);
            EXPECT_EQ(crc32(b.data() + off, size), readLe32(b, e + 32))
                << "section " << i;
            std::size_t pos = off + prefixes[i].size();
            for (const auto &st : sections[i])
                pos = checkRandom(b, pos, st);
            EXPECT_EQ(pos, off + size);
        }
        Deserializer d(b.data(), b.size());
        d.verifyAllSections();
    }
}

/**
 * Structs several Serializer::HashChunk long, written through every
 * path — many small fields, a records() run that crosses chunk
 * boundaries, one large bytes() run inside a nested struct opened
 * mid-chunk, page-sized writes — carry the CRCs a reader recomputes
 * (enterSection/enterStruct verify them), though the write pass
 * hashes their bytes a chunk at a time.
 */
TEST(SnapshotFormat, ChunkedHashingMatchesRecomputation)
{
    constexpr std::size_t Chunk = Serializer::HashChunk;
    constexpr std::size_t Page = 4096;
    std::mt19937_64 rng(31);
    std::vector<std::uint8_t> big(3 * Chunk + 123);
    for (auto &byte : big)
        byte = static_cast<std::uint8_t>(rng());
    std::vector<std::uint64_t> words(Chunk / 4 + 7);
    for (auto &w : words)
        w = rng();
    const auto pack = [](std::uint8_t *p, std::uint64_t w) {
        putLe64(p, w);
        putLe16(p + 8, static_cast<std::uint16_t>(w >> 48));
        p[10] = static_cast<std::uint8_t>(w >> 8);
    };
    const std::size_t pages = 3 * Chunk / Page;
    const auto bytes = serialize(1, [&](Serializer &s) {
        s.beginSection("big");
        s.u32(7);
        s.beginStruct("outer");
        for (const std::uint64_t w : words)
            s.u64(w);
        s.records(words, 11, pack);
        s.beginStruct("inner");
        s.bytes(big.data(), big.size());
        s.endStruct();
        for (std::size_t i = 0; i < pages; ++i)
            s.bytes(big.data() + i * 100, Page);
        s.endStruct();
        s.endSection();
    });

    Deserializer d(bytes.data(), bytes.size());
    d.enterSection("big");
    EXPECT_EQ(d.u32(), 7u);
    d.enterStruct("outer");
    std::size_t wrong = 0;
    for (const std::uint64_t w : words)
        wrong += d.u64() != w;
    for (const std::uint64_t w : words) {
        std::uint8_t expect[11];
        pack(expect, w);
        wrong += std::memcmp(d.raw(11), expect, 11) != 0;
    }
    d.enterStruct("inner");
    wrong += std::memcmp(d.raw(big.size()), big.data(), big.size()) != 0;
    d.leaveStruct();
    for (std::size_t i = 0; i < pages; ++i)
        wrong += std::memcmp(d.raw(Page), big.data() + i * 100, Page) != 0;
    d.leaveStruct();
    d.leaveSection();
    EXPECT_EQ(wrong, 0u);
}

/** A payload the format cannot frame (u32 lengths) fails in the
 *  sizing pass, before any buffer exists. */
TEST(SnapshotFormat, OversizedLengthsFailBeforeAllocation)
{
    const std::uint8_t small[1] = {0};
    // The sizing pass counts these bytes without reading them.
    const std::size_t huge = std::size_t{1} << 32;
    EXPECT_THROW(serializedSize([&](Serializer &s) {
                     s.beginSection("a");
                     s.beginStruct("x");
                     s.bytes(small, huge);
                     s.endStruct();
                     s.endSection();
                 }),
                 SnapshotError);
    EXPECT_THROW(serializedSize([&](Serializer &s) {
                     s.beginSection("a");
                     s.beginStruct("x");
                     s.str(std::string_view(
                         reinterpret_cast<const char *>(small), huge));
                     s.endStruct();
                     s.endSection();
                 }),
                 SnapshotError);
    // Just under the limit is fine to size (nothing is written).
    EXPECT_EQ(serializedSize([&](Serializer &s) {
                  s.beginSection("a");
                  s.beginStruct("x");
                  s.bytes(small, huge - 1);
                  s.endStruct();
                  s.endSection();
              }),
              HeaderBytes + TableEntryBytes + 1 + 1 + 8 + huge - 1);
}

// --------------------------------------------------------------
// Per-structure roundtrips. The pattern: exercise the structure,
// save, load into a freshly built twin, re-save — the two byte
// streams must be identical (state equality without needing deep
// comparison operators), and counters must survive.
// --------------------------------------------------------------

namespace
{

template <typename T>
std::vector<std::uint8_t>
saveOne(const T &t)
{
    return serialize(0, [&](Serializer &s) {
        s.beginSection("t");
        t.save(s);
        s.endSection();
    });
}

template <typename T>
void
loadOne(T &t, const std::vector<std::uint8_t> &bytes)
{
    Deserializer d(bytes.data(), bytes.size());
    d.enterSection("t");
    t.load(d);
    d.leaveSection();
}

} // namespace

TEST(SnapshotStructures, CacheRoundTrip)
{
    mem::CacheParams p;
    p.name = "l1t";
    p.sizeBytes = 4096;
    p.assoc = 2;
    p.lineBytes = 64;
    mem::Cache a(p);
    for (Addr addr = 0; addr < 64 * 200; addr += 72)
        a.access(addr, addr % 3 ? 1 : 2);
    const auto bytes = saveOne(a);

    mem::Cache b(p);
    loadOne(b, bytes);
    EXPECT_EQ(b.hits(), a.hits());
    EXPECT_EQ(b.misses(), a.misses());
    EXPECT_EQ(b.evictions(), a.evictions());
    EXPECT_EQ(saveOne(b), bytes);

    // The restored cache behaves identically from here on.
    for (Addr addr = 0; addr < 64 * 50; addr += 24) {
        EXPECT_EQ(a.contains(addr, 1), b.contains(addr, 1));
        EXPECT_EQ(a.access(addr, 1), b.access(addr, 1));
    }
    EXPECT_EQ(saveOne(a), saveOne(b));
}

TEST(SnapshotStructures, CacheRejectsGeometryMismatch)
{
    mem::CacheParams p;
    p.sizeBytes = 4096;
    p.assoc = 2;
    mem::Cache a(p);
    a.access(0x1000, 1);
    const auto bytes = saveOne(a);

    p.assoc = 4;
    mem::Cache b(p);
    EXPECT_THROW(loadOne(b, bytes), SnapshotError);
}

TEST(SnapshotStructures, TlbRoundTrip)
{
    mem::TlbParams p;
    p.name = "itlb";
    p.entries = 16;
    p.assoc = 4;
    mem::Tlb a(p);
    for (Addr addr = 0; addr < (64u << mem::PageShift);
         addr += mem::PageBytes + 8)
        a.access(addr, 1);
    a.flushAsid(2);
    const auto bytes = saveOne(a);

    mem::Tlb b(p);
    loadOne(b, bytes);
    EXPECT_EQ(b.hits(), a.hits());
    EXPECT_EQ(b.misses(), a.misses());
    EXPECT_EQ(saveOne(b), bytes);

    p.entries = 32;
    mem::Tlb c(p);
    EXPECT_THROW(loadOne(c, bytes), SnapshotError);
}

TEST(SnapshotStructures, BtbRoundTrip)
{
    branch::BtbParams p;
    p.entries = 64;
    p.assoc = 4;
    branch::Btb a(p);
    for (Addr pc = 0x400000; pc < 0x400000 + 8 * 300; pc += 8) {
        a.update(pc, pc + 0x1000);
        a.lookup(pc);
        a.lookup(pc + 4);
    }
    const auto bytes = saveOne(a);

    branch::Btb b(p);
    loadOne(b, bytes);
    EXPECT_EQ(b.hits(), a.hits());
    EXPECT_EQ(b.lookups(), a.lookups());
    EXPECT_EQ(saveOne(b), bytes);
    for (Addr pc = 0x400000; pc < 0x400000 + 8 * 40; pc += 4)
        EXPECT_EQ(a.lookup(pc), b.lookup(pc));
}

namespace
{

/** CRC-32 of a structure's whole saved file. */
template <typename T>
std::uint32_t
savedCrc(const T &t)
{
    const auto bytes = saveOne(t);
    return crc32(bytes.data(), bytes.size());
}

} // namespace

/**
 * Wire-format pins: a fixed seeded op sequence on each of the five
 * set-associative structures — fills, evictions, in-place updates,
 * ASID and whole-table flushes, the all-ASID snoop and the memo
 * touches — then the CRC-32 of each one's saved bytes. A constant
 * changes only when the checkpoint bytes (and so the simulated
 * state) change.
 */
TEST(SnapshotStructures, SetAssociativeWireFormatsPinned)
{
    stats::Rng rng(2015);

    // 12 sets (modulo indexing) and 8 sets (mask indexing).
    for (const auto &[p, pin] :
         {std::pair{mem::CacheParams{"pin12", 12 * 4 * 64, 4, 64},
                    0xe3323f3du},
          std::pair{mem::CacheParams{"pin8", 8 * 2 * 64, 2, 64},
                    0x2cb47fb3u}}) {
        mem::Cache c(p);
        mem::Cache::Way *memo = nullptr;
        Addr memo_addr = 0;
        for (int i = 0; i < 4000; ++i) {
            const Addr a = rng.nextBelow(120) * 64 + rng.nextBelow(64);
            const auto asid =
                static_cast<std::uint16_t>(rng.nextBelow(3));
            const auto op = rng.nextBelow(100);
            if (op < 55) {
                c.access(a, asid);
                if (op < 10) {
                    memo = c.lastWayPtr();
                    memo_addr = a;
                    c.touchRepeatN(1 + op % 3);
                }
            } else if (op < 65) {
                if (c.wayHolds(memo, memo_addr, 1))
                    c.touchAt(memo);
                else
                    c.access(memo_addr, 1);
            } else if (op < 75) {
                c.prefetch(a, asid);
            } else if (op < 85) {
                c.invalidateLine(a, asid);
            } else if (op < 99) {
                c.invalidateLineAllAsids(a);
            } else {
                c.invalidateAll();
            }
        }
        EXPECT_EQ(savedCrc(c), pin) << p.name << std::hex << " 0x"
                                    << savedCrc(c);
    }

    {
        mem::Tlb t(mem::TlbParams{"pin", 32, 4});
        for (int i = 0; i < 3000; ++i) {
            const Addr a = rng.nextBelow(40) * mem::PageBytes +
                           rng.nextBelow(mem::PageBytes);
            const auto asid =
                static_cast<std::uint16_t>(rng.nextBelow(3));
            const auto op = rng.nextBelow(100);
            if (op < 90) {
                t.access(a, asid);
                if (op < 20)
                    t.touchRepeat();
            } else if (op < 99) {
                t.flushAsid(asid);
            } else {
                t.flushAll();
            }
        }
        EXPECT_EQ(savedCrc(t), 0xc7c068f6u) << std::hex << " 0x" << savedCrc(t);
    }

    {
        branch::Btb b(branch::BtbParams{64, 4});
        for (int i = 0; i < 3000; ++i) {
            const Addr pc = 0x400000 + rng.nextBelow(150) * 4;
            const auto op = rng.nextBelow(100);
            if (op < 45)
                b.lookup(pc);
            else if (op < 95) // a hit updates the target in place
                b.update(pc, 0x800000 + rng.nextBelow(4) * 16);
            else if (op < 99)
                b.invalidate(pc);
            else
                b.invalidateAll();
        }
        EXPECT_EQ(savedCrc(b), 0x60bb91e8u) << std::hex << " 0x" << savedCrc(b);
    }

    {
        core::Abtb t(core::AbtbParams{32, 4});
        for (int i = 0; i < 3000; ++i) {
            const Addr tramp = 0x401000 + rng.nextBelow(80) * 16;
            const auto asid =
                static_cast<std::uint16_t>(rng.nextBelow(2));
            const auto op = rng.nextBelow(100);
            if (op < 50)
                t.lookup(tramp, asid);
            else if (op < 99) // a hit updates the mapping in place
                t.insert(tramp, 0x7f0000000000 + rng.nextBelow(8),
                         0x600000 + rng.nextBelow(8) * 8, asid);
            else
                t.flushAll();
        }
        EXPECT_EQ(savedCrc(t), 0xb0bcb0b9u) << std::hex << " 0x" << savedCrc(t);
    }

    {
        // Which invalid way a fill takes is not pinned here: only
        // the predictions and each set's valid entries (as a sorted
        // multiset), the history and the tick.
        branch::IndirectPredictorParams p;
        p.enabled = true;
        p.entries = 64;
        branch::IndirectPredictor ip(p);
        std::uint32_t crc = 0;
        for (int i = 0; i < 3000; ++i) {
            const Addr pc = 0x500000 + rng.nextBelow(40) * 4;
            const auto op = rng.nextBelow(100);
            if (op < 40) {
                const Addr t = ip.predict(pc).value_or(0);
                crc = crc32(reinterpret_cast<const std::uint8_t *>(&t),
                            sizeof t, crc);
            } else if (op < 80) {
                ip.update(pc, 0x900000 + rng.nextBelow(3) * 16);
            } else if (op < 99) {
                ip.updateHistory(0x100 * rng.nextBelow(6));
            } else {
                ip.reset();
            }
        }
        const auto bytes = saveOne(ip);
        Deserializer d(bytes.data(), bytes.size());
        d.enterSection("t");
        d.enterStruct("indirect");
        d.boolean();
        d.u32();
        d.u32();
        d.u32();
        const std::uint64_t head[2] = {d.u64(), d.u64()};
        crc = crc32(reinterpret_cast<const std::uint8_t *>(head),
                    sizeof head, crc);
        constexpr std::size_t Wire = 25;
        const std::uint8_t *e = d.raw(p.entries * Wire);
        for (std::size_t set = 0; set < p.entries / p.assoc; ++set) {
            std::vector<std::string> valid;
            for (std::size_t w = 0; w < p.assoc; ++w, e += Wire) {
                if (e[16] != 0)
                    valid.emplace_back(
                        reinterpret_cast<const char *>(e), Wire);
            }
            std::sort(valid.begin(), valid.end());
            for (const auto &v : valid)
                crc = crc32(
                    reinterpret_cast<const std::uint8_t *>(v.data()),
                    v.size(), crc);
        }
        EXPECT_EQ(crc, 0x8ef51a0eu) << std::hex << " 0x" << crc;
    }
}

TEST(SnapshotStructures, RngStreamContinuation)
{
    stats::Rng a(1234);
    for (int i = 0; i < 1000; ++i)
        a.next();
    const auto bytes = saveOne(a);

    stats::Rng b(999); // deliberately different seed
    loadOne(b, bytes);
    // The restored generator continues the original stream exactly.
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(b.next(), a.next());
}

/**
 * A slot record whose fields would later index past modules_,
 * imports() or the register file, or name no enumerator, is
 * rejected at load. Each sub-case corrupts one field, saves (so the
 * CRCs are valid) and loads into a fresh image.
 */
TEST(SnapshotStructures, ImageRejectsHostileSlotRecords)
{
    const auto make_image = [] {
        linker::Loader loader;
        return loader.load(counterExe(), {lib()});
    };
    struct Case
    {
        const char *what;
        void (*corrupt)(linker::Slot &);
        bool onTrampoline;
    };
    const Case cases[] = {
        {"moduleId", [](linker::Slot &s) { s.moduleId = 99; }, false},
        {"pltIndex", [](linker::Slot &s) { s.pltIndex = 500; }, true},
        {"dst", [](linker::Slot &s) { s.inst.dst = NumRegs; }, false},
        {"src1", [](linker::Slot &s) { s.inst.src1 = 200; }, false},
        {"src2", [](linker::Slot &s) { s.inst.src2 = 16; }, false},
        {"memBase", [](linker::Slot &s) { s.inst.memBase = 17; },
         false},
        {"op",
         [](linker::Slot &s) { s.inst.op = static_cast<Opcode>(0x7f); },
         false},
        {"alu",
         [](linker::Slot &s) {
             s.inst.alu = static_cast<AluKind>(0x50);
         },
         false},
        {"cond",
         [](linker::Slot &s) {
             s.inst.cond = static_cast<CondKind>(0x40);
         },
         false},
        {"size", [](linker::Slot &s) { s.inst.size = 0; }, false},
        {"flags", [](linker::Slot &s) { s.flags = 0x80; }, false},
    };

    // The untouched image round-trips.
    {
        auto a = make_image();
        auto b = make_image();
        EXPECT_NO_THROW(loadOne(*b, saveOne(*a)));
    }
    for (const Case &c : cases) {
        SCOPED_TRACE(c.what);
        auto a = make_image();
        const Addr va = c.onTrampoline
                            ? a->moduleAt(0).pltEntryVas.at(0)
                            : a->symbolAddress("f");
        linker::Slot *slot = a->decodeMutable(va);
        ASSERT_NE(slot, nullptr);
        c.corrupt(*slot);
        const auto bytes = saveOne(*a);
        auto b = make_image();
        EXPECT_THROW(loadOne(*b, bytes), SnapshotError);
    }
}

TEST(SnapshotStructures, AddressSpaceCowTopologySurvives)
{
    using namespace dlsim::mem;
    AddressSpace parent;
    parent.map(0x1000, 4 * PageBytes, PermRead | PermExec,
               RegionKind::Text, "text");
    parent.map(0x100000, 4 * PageBytes, PermRead | PermWrite,
               RegionKind::Data, "data");
    for (Addr a = 0x1000; a < 0x1000 + 4 * PageBytes; a += 512)
        parent.poke64(a, a * 3);
    parent.poke64(0x100000, 11);
    parent.poke64(0x100000 + PageBytes, 22);

    auto child = parent.fork();
    // One COW copy in the child: the first data page diverges.
    ASSERT_EQ(child->write64(0x100000, 1111), MemFault::None);

    const auto bytes = serialize(0, [&](Serializer &s) {
        PagePoolSaver pool;
        s.beginSection("spaces");
        parent.save(s, pool);
        child->save(s, pool);
        s.endSection();
        s.beginSection("pages");
        pool.save(s);
        s.endSection();
    });

    AddressSpace p2, c2;
    {
        // Scoped: the loader holds a reference to every pool page,
        // which would skew sharedPages()/privateBytes() accounting
        // if it outlived the restore.
        Deserializer d(bytes.data(), bytes.size());
        PagePoolLoader loader;
        d.enterSection("pages");
        loader.load(d);
        d.leaveSection();
        d.enterSection("spaces");
        p2.load(d, loader);
        c2.load(d, loader);
        d.leaveSection();
    }

    // Contents, COW accounting, and the sharing topology all match.
    MemFault fault;
    EXPECT_EQ(p2.read64(0x100000, fault), 11u);
    EXPECT_EQ(c2.peek64(0x100000), 1111u);
    EXPECT_EQ(p2.peek64(0x1000 + 512), parent.peek64(0x1000 + 512));
    EXPECT_EQ(p2.presentPages(), parent.presentPages());
    EXPECT_EQ(c2.presentPages(), child->presentPages());
    EXPECT_EQ(p2.sharedPages(), parent.sharedPages());
    EXPECT_EQ(c2.sharedPages(), child->sharedPages());
    EXPECT_EQ(p2.privateBytes(), parent.privateBytes());
    EXPECT_EQ(c2.privateBytes(), child->privateBytes());
    EXPECT_EQ(c2.cowCopiesTotal(), child->cowCopiesTotal());

    // COW semantics still work after restore: a write in the
    // restored child copies instead of mutating the shared page.
    const Addr shared = 0x100000 + PageBytes;
    ASSERT_EQ(c2.write64(shared, 7777), MemFault::None);
    EXPECT_EQ(p2.peek64(shared), 22u);
}

// --------------------------------------------------------------
// Composer-level roundtrips.
// --------------------------------------------------------------

TEST(SnapshotWorkbench, RestoreThenRunEqualsKeepRunning)
{
    using namespace dlsim::workload;
    const auto wl = tinyParams();
    const MachineConfig mc{};

    Workbench a(wl, mc);
    a.warmup(8);
    const auto bytes = snapshotWorkbench(a);

    Workbench b(wl, mc);
    restoreWorkbench(b, bytes.data(), bytes.size());
    // Identical state => identical re-serialization...
    EXPECT_EQ(snapshotWorkbench(b), bytes);
    // ...and identical behaviour from here on, including the
    // request mix RNG stream.
    for (int i = 0; i < 20; ++i) {
        const auto ra = a.runRequest();
        const auto rb = b.runRequest();
        EXPECT_EQ(ra.kind, rb.kind);
        EXPECT_EQ(ra.cycles, rb.cycles);
        EXPECT_EQ(ra.instructions, rb.instructions);
    }
    EXPECT_EQ(a.core().counters().cycles,
              b.core().counters().cycles);
    EXPECT_EQ(a.core().counters().l1iMisses,
              b.core().counters().l1iMisses);
    EXPECT_EQ(a.core().counters().mispredicts,
              b.core().counters().mispredicts);
}

/** A checkpoint holds simulated state only: the same warm machine
 *  gives the same bytes whichever dispatch engine ran it, though the
 *  engines' host-side lookup counts differ. */
TEST(SnapshotWorkbench, BytesIndependentOfDispatchEngine)
{
    using namespace dlsim::workload;
    const auto wl = tinyParams();
    for (const bool enhanced : {false, true}) {
        MachineConfig blocks_on;
        blocks_on.enhanced = enhanced;
        MachineConfig blocks_off = blocks_on;
        blocks_off.core.blockDispatch = false;
        Workbench a(wl, blocks_on);
        Workbench b(wl, blocks_off);
        a.warmup(8);
        b.warmup(8);
        EXPECT_NE(a.image().decodeCacheHits(),
                  b.image().decodeCacheHits());
        EXPECT_EQ(snapshotWorkbench(a), snapshotWorkbench(b))
            << (enhanced ? "enhanced" : "base");
    }
}

TEST(SnapshotWorkbench, RejectsFingerprintMismatch)
{
    using namespace dlsim::workload;
    const auto wl = tinyParams();
    const MachineConfig mc{};
    Workbench a(wl, mc);
    a.warmup(2);
    const auto bytes = snapshotWorkbench(a);

    checkSnapshotCompatible(bytes, wl, mc); // same params: fine

    auto wl2 = wl;
    wl2.seed = 8;
    EXPECT_THROW(checkSnapshotCompatible(bytes, wl2, mc),
                 SnapshotError);
    Workbench b(wl2, mc);
    EXPECT_THROW(restoreWorkbench(b, bytes.data(), bytes.size()),
                 SnapshotError);

    MachineConfig mc2;
    mc2.enhanced = true;
    EXPECT_THROW(checkSnapshotCompatible(bytes, wl, mc2),
                 SnapshotError);
}

TEST(SnapshotWorkbench, ReconfigureAppliesTimingRejectsStructure)
{
    using namespace dlsim::workload;
    const auto wl = tinyParams();
    MachineConfig ref;
    ref.enhanced = true;

    Workbench a(wl, ref);
    a.warmup(6);
    const auto bytes = snapshotWorkbench(a);

    // Timing and skip-unit geometry may vary per arm.
    Workbench b(wl, ref);
    restoreWorkbench(b, bytes.data(), bytes.size());
    MachineConfig arm = ref;
    arm.abtbEntries = 16;
    arm.abtbAssoc = 4;
    arm.core.mispredictPenalty += 5;
    b.reconfigure(arm);
    const auto r = b.runRequest();
    EXPECT_GT(r.instructions, 0u);

    // Structural divergence (cache geometry) must be rejected.
    Workbench c(wl, ref);
    restoreWorkbench(c, bytes.data(), bytes.size());
    MachineConfig badArm = ref;
    badArm.core.mem.l1i.sizeBytes *= 2;
    EXPECT_THROW(c.reconfigure(badArm), SnapshotError);
}

TEST(SnapshotSystem, RoundTripPreservesProcessesAndCow)
{
    using dlsim::sim::System;

    Sim simA(counterExe(), {lib()});
    System sysA(*simA.core, *simA.image, *simA.linker);
    auto &parent = sysA.initialProcess();
    simA.call("f"); // counter -> 1 in the parent
    auto &child = sysA.fork(parent);
    sysA.switchTo(child);
    simA.call("f"); // child counter -> 2 (private COW copy)
    simA.core->state().regs[9] = 4242;

    const auto bytes = serialize(0, [&](Serializer &s) {
        sysA.save(s);
    });
    const auto statsA = sysA.memoryStats();

    // A freshly built twin system adopts the checkpointed state.
    Sim simB(counterExe(), {lib()});
    System sysB(*simB.core, *simB.image, *simB.linker);
    Deserializer d(bytes.data(), bytes.size());
    sysB.load(d);

    ASSERT_EQ(sysB.numProcesses(), 2u);
    const auto statsB = sysB.memoryStats();
    EXPECT_EQ(statsB.totalCowCopies(), statsA.totalCowCopies());
    EXPECT_EQ(statsB.sharedPages, statsA.sharedPages);
    EXPECT_EQ(statsB.privateBytes, statsA.privateBytes);
    EXPECT_EQ(simB.core->state().regs[9], 4242u);

    // Execution continues exactly where the original would: the
    // restored current process is the child with counter == 2.
    EXPECT_EQ(simB.call("f").returnValue, 3u);
    sysB.switchTo(sysB.initialProcess());
    EXPECT_EQ(simB.call("f").returnValue, 2u);
}

/**
 * The contract the warm-up-once benches (and their --jobs flag)
 * rely on: many arms restoring concurrently from ONE shared byte
 * buffer produce exactly what a serial sweep produces. This is the
 * snapshot path's TSan smoke test — the buffer is only ever read.
 */
TEST(SnapshotSweep, ConcurrentRestoresMatchSerialSweep)
{
    using namespace dlsim::bench;
    const auto wl = tinyParams();
    workload::MachineConfig ref;
    ref.enhanced = true;

    workload::Workbench warm(wl, ref);
    warm.warmup(10);
    const auto state = workload::snapshotWorkbench(warm);

    const std::uint32_t sizes[] = {4u, 16u, 64u, 256u};
    auto makeWork = [&] {
        std::vector<std::function<ArmResult()>> work;
        for (const std::uint32_t entries : sizes) {
            work.push_back([&state, &wl, &ref, entries] {
                auto mc = ref;
                mc.abtbEntries = entries;
                mc.abtbAssoc = std::min(entries, 4u);
                return runArmFromState(state, wl, ref, mc, 25);
            });
        }
        return work;
    };

    auto render = [&](const std::vector<ArmResult> &arms) {
        stats::MetricsDocument doc("test_snapshot sweep");
        for (std::size_t i = 0; i < arms.size(); ++i) {
            auto &run = doc.addRun("entries" +
                                   std::to_string(sizes[i]));
            run.registry = arms[i].registry;
        }
        return doc.toJson();
    };

    sim::JobRunner serial(1);
    sim::JobRunner threaded(4);
    const auto a = render(serial.run(makeWork()));
    const auto b = render(threaded.run(makeWork()));
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

// --------------------------------------------------------------
// Hostile counts. A snapshot whose CRCs are all valid can still
// carry an element count far larger than the bytes behind it; every
// loader must reject it with SnapshotError before sizing a container
// from it (instead of a multi-GiB resize escaping as bad_alloc).
// --------------------------------------------------------------

namespace
{

constexpr std::uint64_t HugeU32 = 0xffffffffu;
constexpr std::uint64_t HugeU64 = std::uint64_t{1} << 40;

/**
 * `good` with one field rewritten: `width` bytes at `at` in the
 * payload of the first struct record of section `section` (negative
 * `at` counts back from the payload's end). Every section is written
 * back through serialize(), so all CRCs in the result are valid.
 */
std::vector<std::uint8_t>
withField(const std::vector<std::uint8_t> &good,
          const std::string &section, std::ptrdiff_t at,
          std::size_t width, std::uint64_t value)
{
    const std::uint32_t nsections = readLe32(good, 16);
    return serialize(readLe64(good, 8), [&](Serializer &s) {
        for (std::uint32_t i = 0; i < nsections; ++i) {
            const std::size_t e = HeaderBytes + i * TableEntryBytes;
            const char *tag = reinterpret_cast<const char *>(&good[e]);
            const std::string name(tag, strnlen(tag, 16));
            const std::size_t off = readLe64(good, e + 16);
            const std::size_t end = off + readLe64(good, e + 24);
            s.beginSection(name);
            if (name != section) {
                s.bytes(good.data() + off, end - off);
                s.endSection();
                continue;
            }
            const std::size_t tagLen = good[off];
            const std::size_t lenAt = off + 1 + tagLen;
            const std::size_t len = readLe32(good, lenAt);
            const std::size_t payload = lenAt + 8;
            std::vector<std::uint8_t> body(
                good.begin() + payload, good.begin() + payload + len);
            const std::size_t pos = at >= 0 ? at : len + at;
            std::memcpy(&body[pos], &value, width);
            const char *rtag =
                reinterpret_cast<const char *>(&good[off + 1]);
            s.beginStruct(std::string(rtag, tagLen));
            s.bytes(body.data(), body.size());
            s.endStruct();
            s.bytes(good.data() + payload + len, end - payload - len);
            s.endSection();
        }
    });
}

/** `load` must fail at the count check, not later or otherwise. */
template <typename Load>
void
expectCountRejected(Load &&load)
{
    try {
        load();
        ADD_FAILURE() << "hostile count accepted";
    } catch (const SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find("-byte records exceeds"),
                  std::string::npos)
            << e.what();
    }
}

/** Save `t` alone, plant `value` in its first struct, and expect
 *  `fresh.load` to reject the result. */
template <typename T>
void
expectHostileRejected(const T &t, T &fresh, std::ptrdiff_t at,
                      std::size_t width, std::uint64_t value)
{
    const auto good = saveOne(t);
    loadOne(fresh, good); // the unmodified bytes load
    const auto bad = withField(good, "t", at, width, value);
    expectCountRejected([&] { loadOne(fresh, bad); });
}

/** The smallest machine an os::Kernel runs on. */
struct KernelRig
{
    linker::Loader loader;
    std::unique_ptr<linker::Image> image;
    std::unique_ptr<linker::DynamicLinker> linker;
    std::unique_ptr<sim::MultiCoreSystem> system;
    std::unique_ptr<os::Kernel> kernel;

    KernelRig()
    {
        image = loader.load(counterExe(), {lib()});
        linker = std::make_unique<linker::DynamicLinker>(*image);
        sim::MultiCoreParams mp;
        mp.numCores = 2;
        system = std::make_unique<sim::MultiCoreSystem>(
            mp, *image, *linker, loader.stackTop());
        kernel = std::make_unique<os::Kernel>(os::KernelParams{},
                                              *system, *image, *linker);
    }
};

} // namespace

TEST(SnapshotHostile, CallThreadResults)
{
    os::CallThread a({}), b({});
    expectHostileRejected(a, b, 0, 4, HugeU32);
}

TEST(SnapshotHostile, KernelReadyQueue)
{
    KernelRig a, b;
    // thread/pipe/listener/conn/core counts, now, live threads.
    expectHostileRejected(*a.kernel, *b.kernel, 32, 4, HugeU32);
}

TEST(SnapshotHostile, PipeBufferAndWaiters)
{
    os::Pipe a(4), b(4);
    expectHostileRejected(a, b, 0, 8, HugeU64);
    // size, head, count, closed, two byte counters, 4-byte buffer.
    expectHostileRejected(a, b, 45, 4, HugeU32); // read waiters
    expectHostileRejected(a, b, 49, 4, HugeU32); // write waiters
}

TEST(SnapshotHostile, ListenerQueues)
{
    os::Listener a, b;
    expectHostileRejected(a, b, 8, 4, HugeU32);  // backlog
    expectHostileRejected(a, b, 12, 4, HugeU32); // accept waiters
    expectHostileRejected(a, b, 16, 4, HugeU32); // connect waiters
}

TEST(SnapshotHostile, SampleSet)
{
    stats::SampleSet a, b;
    expectHostileRejected(a, b, 0, 8, HugeU64);
}

TEST(SnapshotHostile, CoreProfiles)
{
    Sim a(counterExe(), {lib()});
    Sim b(counterExe(), {lib()});
    // A fresh core's "cpu" struct ends with three empty profile
    // counts, then bool, u64, bool, bool (11 bytes).
    expectHostileRejected(*a.core, *b.core, -35, 8, HugeU64);
    expectHostileRejected(*a.core, *b.core, -27, 8, HugeU64);
    expectHostileRejected(*a.core, *b.core, -19, 8, HugeU64);
}

TEST(SnapshotHostile, SkipUnitBloomShadow)
{
    core::TrampolineSkipUnit a, b;
    // The "skip" struct ends with the (empty) shadow-set count.
    expectHostileRejected(a, b, -8, 8, HugeU64);
}

TEST(SnapshotHostile, AddressSpaceAndPagePool)
{
    mem::AddressSpace a;
    a.map(0x10000, 2 * mem::PageBytes, mem::PermRead | mem::PermWrite,
          mem::RegionKind::Data, "d");
    a.poke64(0x10000, 7);
    std::vector<std::uint8_t> good = serialize(0, [&](Serializer &s) {
        mem::PagePoolSaver pool;
        s.beginSection("t");
        a.save(s, pool);
        s.endSection();
        s.beginSection("pages");
        pool.save(s);
        s.endSection();
    });
    const auto load = [](const std::vector<std::uint8_t> &bytes) {
        Deserializer d(bytes.data(), bytes.size());
        mem::PagePoolLoader pool;
        d.enterSection("pages");
        pool.load(d);
        d.leaveSection();
        mem::AddressSpace b;
        d.enterSection("t");
        b.load(d, pool);
        d.leaveSection();
    };
    load(good);
    expectCountRejected(
        [&] { load(withField(good, "t", 0, 4, HugeU32)); }); // regions
    // The "aspace" struct ends with the u64 page count and one
    // 13-byte page record.
    expectCountRejected(
        [&] { load(withField(good, "t", -(8 + 13), 8, HugeU64)); });
    expectCountRejected(
        [&] { load(withField(good, "pages", 0, 4, HugeU32)); });
}

TEST(SnapshotHostile, SystemProcessCount)
{
    Sim simA(counterExe(), {lib()});
    sim::System sysA(*simA.core, *simA.image, *simA.linker);
    const auto good =
        serialize(0, [&](Serializer &s) { sysA.save(s); });
    Sim simB(counterExe(), {lib()});
    sim::System sysB(*simB.core, *simB.image, *simB.linker);
    // "sys": u16 next asid, then the u32 process count.
    const auto bad = withField(good, "system", 2, 4, HugeU32);
    Deserializer d(bad.data(), bad.size());
    EXPECT_THROW(sysB.load(d), SnapshotError);
}
