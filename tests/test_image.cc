/**
 * @file
 * Tests for the loaded image's decode machinery: slot lookup,
 * fall-through fast path, PLT flags, and post-dlclose behaviour.
 */

#include <gtest/gtest.h>

#include "elf/builder.hh"
#include "linker/loader.hh"

using namespace dlsim;
using namespace dlsim::linker;

namespace
{

std::unique_ptr<Image>
makeImage(Loader &loader)
{
    elf::ModuleBuilder app("app");
    app.setDataSize(4096);
    auto &f = app.function("f");
    f.nop();
    f.movImm(1, 5);
    f.callExternal("g");
    f.ret();

    elf::ModuleBuilder lib("lib");
    auto &g = lib.function("g");
    g.ret();

    return loader.load(app.build(), {lib.build()});
}

} // namespace

TEST(Image, DecodeAtFunctionStart)
{
    Loader loader;
    auto image = makeImage(loader);
    const Addr f = image->symbolAddress("f");
    const Slot *slot = image->decode(f);
    ASSERT_NE(slot, nullptr);
    EXPECT_EQ(slot->va, f);
    EXPECT_EQ(slot->inst.op, isa::Opcode::Nop);
    EXPECT_EQ(slot->flags, FlagNone);
    EXPECT_EQ(slot->moduleId, 0);
}

TEST(Image, DecodeMidInstructionFails)
{
    Loader loader;
    auto image = makeImage(loader);
    const Addr f = image->symbolAddress("f");
    // nop is 1 byte; f+1 starts the mov, but f+2 is mid-mov.
    EXPECT_NE(image->decode(f + 1), nullptr);
    EXPECT_EQ(image->decode(f + 2), nullptr);
}

TEST(Image, FallThroughSlotDecodes)
{
    Loader loader;
    auto image = makeImage(loader);
    const Slot *slot = image->decode(image->symbolAddress("f"));
    const Slot *next = image->decode(slot->va + slot->inst.size);
    ASSERT_NE(next, nullptr);
    EXPECT_EQ(next->va, slot->va + slot->inst.size);
    EXPECT_EQ(next->inst.op, isa::Opcode::MovImm);
}

TEST(Image, PltSlotsFlagged)
{
    Loader loader;
    auto image = makeImage(loader);
    const auto &exe = image->moduleAt(0);
    const Slot *tramp = image->decode(exe.pltEntryVas[0]);
    ASSERT_NE(tramp, nullptr);
    EXPECT_TRUE(tramp->flags & FlagPlt);
    EXPECT_TRUE(tramp->flags & FlagPltJmp);
    const Slot *push = image->decode(tramp->va + tramp->inst.size);
    ASSERT_NE(push, nullptr);
    EXPECT_TRUE(push->flags & FlagPlt);
    EXPECT_FALSE(push->flags & FlagPltJmp);
}

TEST(Image, ModuleLookup)
{
    Loader loader;
    auto image = makeImage(loader);
    EXPECT_EQ(image->findModule("app"), 0u);
    EXPECT_EQ(image->findModule("lib"), 1u);
    EXPECT_EQ(image->findModule("nope"), SIZE_MAX);
}

TEST(Image, DlcloseRemovesSlotsFromDecode)
{
    Loader loader;
    auto image = makeImage(loader);
    const Addr g = image->symbolAddress("g");
    EXPECT_NE(image->decode(g), nullptr);
    loader.dlclose(*image, "lib");
    EXPECT_EQ(image->decode(g), nullptr);
    EXPECT_EQ(image->findModule("lib"), SIZE_MAX);
    // The app still decodes.
    EXPECT_NE(image->decode(image->symbolAddress("f")), nullptr);
}

TEST(Image, TotalTrampolinesExcludesUnloaded)
{
    Loader loader;
    auto image = makeImage(loader);
    // app imports g (1), lib imports nothing.
    EXPECT_EQ(image->totalTrampolines(), 1u);
}
