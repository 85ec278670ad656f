#include "branch/predictor.hh"

#include "snapshot/serializer.hh"

namespace dlsim::branch
{

BranchPredictor::BranchPredictor(const PredictorParams &params)
    : btb_(params.btb),
      direction_(makeDirectionPredictor(params.direction)),
      ras_(params.rasDepth), indirect_(params.indirect)
{
}

Addr
BranchPredictor::predictNext(const isa::Instruction &inst, Addr pc)
{
    const Addr fallthrough = pc + inst.size;
    switch (inst.op) {
      case isa::Opcode::CondBr: {
        if (!direction_->predict(pc))
            return fallthrough;
        const auto target = btb_.lookup(pc);
        return target ? *target : fallthrough;
      }
      case isa::Opcode::CallRel: {
        ras_.push(fallthrough);
        const auto target = btb_.lookup(pc);
        return target ? *target : fallthrough;
      }
      case isa::Opcode::CallIndReg:
      case isa::Opcode::CallIndMem: {
        ras_.push(fallthrough);
        if (indirect_.params().enabled) {
            if (const auto t = indirect_.predict(pc))
                return *t;
        }
        const auto target = btb_.lookup(pc);
        return target ? *target : fallthrough;
      }
      case isa::Opcode::JmpRel: {
        const auto target = btb_.lookup(pc);
        return target ? *target : fallthrough;
      }
      case isa::Opcode::JmpIndReg:
      case isa::Opcode::JmpIndMem: {
        if (indirect_.params().enabled) {
            if (const auto t = indirect_.predict(pc))
                return *t;
        }
        const auto target = btb_.lookup(pc);
        return target ? *target : fallthrough;
      }
      case isa::Opcode::Ret: {
        const auto target = ras_.pop();
        return target ? *target : fallthrough;
      }
      default:
        return fallthrough;
    }
}

void
BranchPredictor::resolve(const isa::Instruction &inst, Addr pc,
                         bool taken, Addr effective_next)
{
    switch (inst.op) {
      case isa::Opcode::CondBr:
        direction_->update(pc, taken);
        if (taken)
            btb_.update(pc, effective_next);
        break;
      case isa::Opcode::CallRel:
      case isa::Opcode::JmpRel:
        btb_.update(pc, effective_next);
        break;
      case isa::Opcode::CallIndReg:
      case isa::Opcode::CallIndMem:
      case isa::Opcode::JmpIndReg:
      case isa::Opcode::JmpIndMem:
        btb_.update(pc, effective_next);
        if (indirect_.params().enabled)
            indirect_.update(pc, effective_next);
        break;
      case isa::Opcode::Ret:
        // The RAS self-corrects via pushes/pops.
        break;
      default:
        break;
    }
    if (indirect_.params().enabled && taken)
        indirect_.updateHistory(effective_next);
}

void
BranchPredictor::contextSwitch()
{
    ras_.clear();
    // A disabled indirect predictor is never read or written, so its
    // table stays empty and its history zero: resetting it is a no-op.
    if (indirect_.params().enabled)
        indirect_.reset();
}

void
BranchPredictor::clearStats()
{
    btb_.clearStats();
    direction_->clearStats();
    ras_.clearStats();
}

void
BranchPredictor::reportMetrics(stats::MetricsRegistry &reg,
                               const std::string &prefix) const
{
    btb_.reportMetrics(reg, prefix + ".btb");
    direction_->reportMetrics(reg, prefix + ".direction");
    ras_.reportMetrics(reg, prefix + ".ras");
}


void
BranchPredictor::save(snapshot::Serializer &s) const
{
    btb_.save(s);
    direction_->save(s);
    ras_.save(s);
    indirect_.save(s);
}

void
BranchPredictor::load(snapshot::Deserializer &d)
{
    btb_.load(d);
    direction_->load(d);
    ras_.load(d);
    indirect_.load(d);
}

} // namespace dlsim::branch
