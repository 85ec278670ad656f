/**
 * @file
 * Instruction results and fault diagnostics pinned to constants on
 * every executor: cpu::Core with block dispatch on and off, and
 * check::RefCore through step() and runFast().
 *
 * Both executors evaluate ALU ops by selecting from a table in
 * AluKind order, and the two tables are written separately. An error
 * shared by both (a swapped And/Or entry, say) would leave every
 * engine-against-engine check agreeing, so each result here is
 * compared with a constant written in the test.
 */

#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string>
#include <vector>

#include "check/ref_core.hh"
#include "sim_fixture.hh"

using namespace dlsim;
using namespace dlsim::isa;
using dlsim::test::Sim;

namespace
{

/** One ALU op: `dst = src1 <kind> (src2, or b as the immediate)`. */
struct AluCase
{
    const char *what;
    AluKind kind;
    Reg dst;
    Reg src1;
    Reg src2;           ///< NoReg: immediate form, b is the imm.
    std::uint64_t a;    ///< Initial src1.
    std::uint64_t b;    ///< Initial src2 (equal to a when aliased).
    std::uint64_t want; ///< dst afterwards.
};

constexpr std::uint64_t Ones = ~std::uint64_t{0};
constexpr std::uint64_t A = 0xf0f0123456789abcull;
constexpr std::uint64_t B = 0x0ff0ffff0000ffffull;

/** The two's-complement word of -n (a negative immediate). */
constexpr std::uint64_t
minus(std::uint64_t n)
{
    return 0 - n;
}

std::int64_t
asImm(std::uint64_t b)
{
    return static_cast<std::int64_t>(b);
}

const std::vector<AluCase> &
aluCases()
{
    static const std::vector<AluCase> cases = {
        // Register form, every kind. A and B differ in every
        // bitwise result, so a swapped table entry shows.
        {"add wraps", AluKind::Add, 0, 1, 2, Ones, 2, 1},
        {"sub underflows", AluKind::Sub, 0, 1, 2, 3, 5,
         0xfffffffffffffffeull},
        {"and", AluKind::And, 0, 1, 2, A, B, 0x00f0123400009abcull},
        {"or", AluKind::Or, 0, 1, 2, A, B, 0xfff0ffff5678ffffull},
        {"xor", AluKind::Xor, 0, 1, 2, A, B, 0xff00edcb56786543ull},
        {"mul wraps", AluKind::Mul, 0, 1, 2, 0x100000001ull,
         0xffffffff00000003ull, 0x200000003ull},
        {"shr by 67 masks to 3", AluKind::Shr, 0, 1, 2,
         0x8000000000000000ull, 67, 0x1000000000000000ull},
        {"shr by 64 masks to 0", AluKind::Shr, 0, 1, 2, A, 64, A},
        {"shr by 63", AluKind::Shr, 0, 1, 2, Ones, 63, 1},
        // Immediate form, every kind, negative immediates.
        {"add imm -3", AluKind::Add, 0, 1, NoReg, 10, minus(3), 7},
        {"sub imm -3", AluKind::Sub, 0, 1, NoReg, 10, minus(3), 13},
        {"and imm -256", AluKind::And, 0, 1, NoReg,
         0x123456789abcdef0ull, minus(256), 0x123456789abcde00ull},
        {"or imm -256", AluKind::Or, 0, 1, NoReg, 0x10, minus(256),
         0xffffffffffffff10ull},
        {"xor imm -1", AluKind::Xor, 0, 1, NoReg, 0x0f, minus(1),
         0xfffffffffffffff0ull},
        {"mul imm -5", AluKind::Mul, 0, 1, NoReg, 3, minus(5),
         0xfffffffffffffff1ull},
        {"mul imm wraps", AluKind::Mul, 0, 1, NoReg,
         0x4000000000000001ull, 4, 4},
        {"shr imm 63", AluKind::Shr, 0, 1, NoReg, Ones, 63, 1},
        {"shr imm 70 masks to 6", AluKind::Shr, 0, 1, NoReg, Ones, 70,
         0x03ffffffffffffffull},
        // dst aliasing a source.
        {"add dst=src1", AluKind::Add, 1, 1, 2, 40, 2, 42},
        {"sub dst=src2", AluKind::Sub, 2, 1, 2, 2, 5,
         0xfffffffffffffffdull},
        {"or dst=src2", AluKind::Or, 2, 1, 2, A, B,
         0xfff0ffff5678ffffull},
        {"xor dst=src1=src2", AluKind::Xor, 1, 1, 1, A, A, 0},
        {"mul dst=src1=src2 wraps", AluKind::Mul, 1, 1, 1,
         0x100000001ull, 0x100000001ull, 0x200000001ull},
        {"shr imm dst=src1", AluKind::Shr, 1, 1, NoReg, 0x100, 4,
         0x10},
        {"and imm dst=src1, r14", AluKind::And, 14, 14,
         NoReg, A, minus(16), 0xf0f0123456789ab0ull},
    };
    return cases;
}

/** Function `c<i>`: load the operands, run the op, return. */
elf::Module
aluModule()
{
    elf::ModuleBuilder mb("app");
    mb.setDataSize(4096);
    const auto &cases = aluCases();
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const AluCase &c = cases[i];
        auto &f = mb.function("c" + std::to_string(i));
        f.movImm(c.src1, asImm(c.a));
        if (c.src2 == NoReg) {
            f.aluImm(c.kind, c.dst, c.src1, asImm(c.b));
        } else {
            if (c.src2 != c.src1)
                f.movImm(c.src2, asImm(c.b));
            f.alu(c.kind, c.dst, c.src1, c.src2);
        }
        f.ret();
    }
    return mb.build();
}

enum class Engine
{
    CoreBlocks,
    CoreSteps,
    RefStep,
    RefFast,
};

const char *
engineName(Engine e)
{
    switch (e) {
      case Engine::CoreBlocks:
        return "cpu::Core, blocks on";
      case Engine::CoreSteps:
        return "cpu::Core, blocks off";
      case Engine::RefStep:
        return "RefCore::step";
      case Engine::RefFast:
        return "RefCore::runFast";
    }
    return "?";
}

using Regs = std::array<std::uint64_t, NumRegs>;

/** Call `fn` on a fresh machine with `engine`; the final registers. */
Regs
runOn(Engine engine, const std::string &fn)
{
    cpu::CoreParams params;
    params.blockDispatch = engine != Engine::CoreSteps;
    Sim sim(aluModule(), {}, params);
    const Addr entry = sim.image->symbolAddress(fn);
    if (engine == Engine::CoreBlocks || engine == Engine::CoreSteps) {
        sim.core->callFunction(entry);
        return sim.core->state().regs;
    }

    sim.core->beginCall(entry);
    check::RefCore ref(sim.image.get());
    ref.sync(sim.core->state());
    if (engine == Engine::RefFast) {
        const auto r = ref.runFast(UINT64_MAX, cpu::MagicReturnVa);
        EXPECT_EQ(r.stop, check::FastStop::StopPc) << fn;
    } else {
        for (int n = 0; ref.state().pc != cpu::MagicReturnVa; ++n) {
            if (n == 16) {
                ADD_FAILURE() << fn << " did not return";
                break;
            }
            const Addr pc = ref.state().pc;
            const check::RefStep st = ref.step();
            EXPECT_EQ(st.pc, pc);
            if (st.op == Opcode::IntAlu) {
                // The record of a select-evaluated op.
                const auto size = sim.image->decode(pc)->inst.size;
                EXPECT_EQ(st.nextPc, pc + size);
                EXPECT_FALSE(st.taken);
                EXPECT_FALSE(st.didStore);
            }
        }
    }
    EXPECT_EQ(ref.state().pc, cpu::MagicReturnVa) << fn;
    return ref.state().regs;
}

std::string
hex(Addr addr)
{
    std::ostringstream os;
    os << "0x" << std::hex << addr;
    return os.str();
}

/** pc of the first `op` in the function at `entry`. */
Addr
firstOp(const linker::Image &image, Addr entry, Opcode op)
{
    Addr pc = entry;
    for (const linker::Slot *s = image.decode(pc); s->inst.op != op;
         s = image.decode(pc))
        pc += s->inst.size;
    return pc;
}

/** An address no region covers. */
constexpr Addr Unmapped = 0x10;

/** `load`: ALU ops, then a load from Unmapped. `store`: a store
 *  into its own (read-only) text. Both fault mid-block. */
elf::Module
faultModule()
{
    elf::ModuleBuilder mb("app");
    mb.setDataSize(4096);
    auto &ld = mb.function("load");
    ld.movImm(1, 5);
    ld.aluImm(AluKind::Add, 1, 1, 1);
    ld.load(RegRet, NoReg, static_cast<std::int64_t>(Unmapped));
    ld.ret();
    auto &st = mb.function("store");
    st.movFuncAddr(3, "store");
    st.movImm(1, 7);
    st.store(1, 3, 0);
    st.ret();
    return mb.build();
}

/** The RefExecError message of running `fn` on RefCore. */
std::string
refFault(Sim &sim, const std::string &fn, bool fast)
{
    sim.core->beginCall(sim.image->symbolAddress(fn));
    check::RefCore ref(sim.image.get());
    ref.sync(sim.core->state());
    try {
        if (fast) {
            ref.runFast(UINT64_MAX, cpu::MagicReturnVa);
        } else {
            for (int n = 0; n < 16; ++n)
                ref.step();
        }
    } catch (const check::RefExecError &e) {
        return e.what();
    }
    return "no fault";
}

} // namespace

TEST(ExecSemantics, AluResultsPinnedOnEveryEngine)
{
    const auto &cases = aluCases();
    for (const Engine engine : {Engine::CoreBlocks, Engine::CoreSteps,
                                Engine::RefStep, Engine::RefFast}) {
        for (std::size_t i = 0; i < cases.size(); ++i) {
            const AluCase &c = cases[i];
            SCOPED_TRACE(std::string(engineName(engine)) + ": " +
                         c.what);
            const Regs regs = runOn(engine, "c" + std::to_string(i));
            EXPECT_EQ(regs[c.dst], c.want);
            // Sources the op does not write keep their values.
            if (c.src1 != c.dst) {
                EXPECT_EQ(regs[c.src1], c.a);
            }
            if (c.src2 != NoReg && c.src2 != c.dst) {
                EXPECT_EQ(regs[c.src2], c.b);
            }
        }
    }
}

TEST(ExecSemantics, RefCoreFaultsNameAddressAndPc)
{
    Sim sim(faultModule(), {});
    const linker::Image &image = *sim.image;
    ASSERT_EQ(image.addressSpace().findRegion(Unmapped), nullptr);
    const Addr store_fn = image.symbolAddress("store");
    const mem::Region *text = image.addressSpace().findRegion(store_fn);
    ASSERT_NE(text, nullptr);
    ASSERT_EQ(text->perms & mem::PermWrite, 0);

    // The faulting op is mid-block: the message names its own pc,
    // not the block's.
    const Addr load_pc =
        firstOp(image, image.symbolAddress("load"), Opcode::Load);
    const Addr store_pc = firstOp(image, store_fn, Opcode::Store);
    ASSERT_NE(load_pc, image.symbolAddress("load"));
    const std::string load_msg = "reference load fault at " +
                                 hex(Unmapped) + " (pc " + hex(load_pc) +
                                 ")";
    const std::string store_msg = "reference store fault at " +
                                  hex(store_fn) + " (pc " +
                                  hex(store_pc) + ")";
    for (const bool fast : {true, false}) {
        SCOPED_TRACE(fast ? "runFast" : "step");
        EXPECT_EQ(refFault(sim, "load", fast), load_msg);
        EXPECT_EQ(refFault(sim, "store", fast), store_msg);
    }
}
