/**
 * @file
 * Opcodes of the dlsim abstract ISA and their static classification.
 *
 * The set is deliberately small but covers everything the paper's
 * mechanism interacts with: plain integer work, loads/stores, the full
 * family of control transfers (direct/indirect call and jump,
 * conditional branch, return), stack operations (calls push their
 * return address, as on x86-64), and the `AbtbFlush` instruction of
 * the paper's §3.4 alternate implementation.
 */

#ifndef DLSIM_ISA_OPCODE_HH
#define DLSIM_ISA_OPCODE_HH

#include <cstdint>
#include <string_view>

namespace dlsim::isa
{

/** Instruction opcodes. */
enum class Opcode : std::uint8_t
{
    Nop,        ///< No operation.
    IntAlu,     ///< dst = src1 <aluKind> (src2 or imm).
    MovImm,     ///< dst = imm.
    Load,       ///< dst = mem64[base + disp].
    Store,      ///< mem64[base + disp] = src1.
    Push,       ///< sp -= 8; mem64[sp] = src1.
    PushImm,    ///< sp -= 8; mem64[sp] = imm (PLT relocation index).
    Pop,        ///< dst = mem64[sp]; sp += 8.
    CallRel,    ///< push return address; pc = next + disp (rel32).
    CallIndReg, ///< push return address; pc = src1.
    CallIndMem, ///< push return address; pc = mem64[base + disp].
    JmpRel,     ///< pc = next + disp (rel32).
    JmpIndReg,  ///< pc = src1.
    JmpIndMem,  ///< pc = mem64[base + disp]  (the PLT trampoline).
    CondBr,     ///< if cond(src1): pc = next + disp.
    Ret,        ///< pc = mem64[sp]; sp += 8.
    Halt,       ///< Stop the hart (end of top-level program).
    AbtbFlush,  ///< Architecturally flush the ABTB (paper §3.4).
};
constexpr Opcode LastOpcode = Opcode::AbtbFlush; ///< Range checks.

/** ALU operation selector for Opcode::IntAlu. */
enum class AluKind : std::uint8_t
{
    Add,
    Sub,
    And,
    Or,
    Xor,
    Mul,
    Shr,
};
constexpr AluKind LastAluKind = AluKind::Shr;

/** Condition selector for Opcode::CondBr, evaluated on src1. */
enum class CondKind : std::uint8_t
{
    Eq0, ///< Taken iff src1 == 0.
    Ne0, ///< Taken iff src1 != 0.
    Lt0, ///< Taken iff (signed) src1 < 0.
    Ge0, ///< Taken iff (signed) src1 >= 0.
};
constexpr CondKind LastCondKind = CondKind::Ge0;

/** Human-readable mnemonic. */
std::string_view opcodeName(Opcode op);

/** True for any instruction that may redirect the pc. */
bool isControl(Opcode op);

/** True for direct or indirect calls. */
bool isCall(Opcode op);

/** True for unconditional non-call jumps. */
bool isJump(Opcode op);

/** True for control transfers whose target is not pc-relative. */
bool isIndirectControl(Opcode op);

/**
 * True for indirect control transfers that read their target from
 * memory. These are the instructions whose load-source address feeds
 * the paper's bloom filter when an ABTB entry is created.
 */
bool isMemIndirectControl(Opcode op);

/** True if the instruction performs a data-memory read. */
bool hasLoad(Opcode op);

/** True if the instruction performs a data-memory write. */
bool hasStore(Opcode op);

} // namespace dlsim::isa

#endif // DLSIM_ISA_OPCODE_HH
