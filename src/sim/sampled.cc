#include "sim/sampled.hh"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <utility>

#include "stats/metrics.hh"

namespace dlsim::sim
{

namespace
{

std::string
hexAddr(isa::Addr addr)
{
    std::ostringstream os;
    os << "0x" << std::hex << addr;
    return os.str();
}

std::vector<cpu::Core *>
coresOf(MultiCoreSystem &sys)
{
    std::vector<cpu::Core *> cores;
    for (std::uint32_t i = 0; i < sys.numCores(); ++i)
        cores.push_back(&sys.core(i));
    return cores;
}

} // namespace

bool
SampleParams::parse(const std::string &spec, SampleParams &out,
                    std::string *error)
{
    const auto fail = [&](const char *msg) {
        if (error)
            *error = std::string(msg) + " (got '" + spec +
                     "', expected W:D:F decimal instruction "
                     "counts, e.g. 2000:10000:100000)";
        return false;
    };

    std::uint64_t vals[3] = {0, 0, 0};
    std::size_t pos = 0;
    for (int f = 0; f < 3; ++f) {
        if (pos >= spec.size() ||
            !std::isdigit(static_cast<unsigned char>(spec[pos])))
            return fail("malformed sample spec");
        while (pos < spec.size() &&
               std::isdigit(static_cast<unsigned char>(spec[pos]))) {
            vals[f] = vals[f] * 10 +
                      static_cast<std::uint64_t>(spec[pos] - '0');
            ++pos;
        }
        if (f < 2) {
            if (pos >= spec.size() || spec[pos] != ':')
                return fail("malformed sample spec");
            ++pos;
        }
    }
    if (pos != spec.size())
        return fail("trailing characters in sample spec");
    if (vals[1] == 0)
        return fail("detail window D must be >= 1");
    if (vals[2] == 0)
        return fail("fast-forward length F must be >= 1");

    out.enabled = true;
    out.warmup = vals[0];
    out.detail = vals[1];
    out.fastforward = vals[2];
    return true;
}

std::string
SampleParams::spec() const
{
    return std::to_string(warmup) + ":" + std::to_string(detail) +
           ":" + std::to_string(fastforward);
}

Sampler::Sampler(cpu::Core &core, linker::Image &image,
                 linker::DynamicLinker &linker,
                 const SampleParams &params)
    : Sampler({&core}, nullptr, image, linker, params)
{
}

Sampler::Sampler(MultiCoreSystem &sys, linker::Image &image,
                 linker::DynamicLinker &linker,
                 const SampleParams &params)
    : Sampler(coresOf(sys), &sys, image, linker, params)
{
}

Sampler::Sampler(std::vector<cpu::Core *> cores, MultiCoreSystem *sys,
                 linker::Image &image, linker::DynamicLinker &linker,
                 const SampleParams &params)
    : cores_(std::move(cores)), sys_(sys), linker_(linker),
      params_(params)
{
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        refs_.push_back(std::make_unique<check::RefCore>(
            &image, &image.addressSpace()));
    }
    enterDetailedPhase();
}

void
Sampler::enterDetailedPhase()
{
    phase_ = params_.warmup > 0 ? Phase::Warmup : Phase::Detail;
    phaseLeft_ =
        params_.warmup > 0 ? params_.warmup : params_.detail;
}

void
Sampler::noteDetailed(std::uint64_t insts, std::uint64_t cycles)
{
    if (phase_ == Phase::FastForward || insts == 0)
        return;
    if (phase_ == Phase::Detail) {
        stats_.detailInsts += insts;
        stats_.detailCycles += cycles;
    } else {
        stats_.warmupInsts += insts;
        stats_.warmupCycles += cycles;
    }
    // Synthetic resolver bulk-adds can overshoot the phase; clamp.
    // Phase transitions happen only when the budget is spent — a
    // call returning mid-phase resumes the same phase on the next
    // call, so the sample grid spans the whole run.
    phaseLeft_ = insts >= phaseLeft_ ? 0 : phaseLeft_ - insts;
    if (phaseLeft_ == 0) {
        if (phase_ == Phase::Warmup) {
            phase_ = Phase::Detail;
            phaseLeft_ = params_.detail;
        } else {
            ++stats_.windows;
            phase_ = Phase::FastForward;
            phaseLeft_ = params_.fastforward;
        }
    }
}

Sampler::FfSlice
Sampler::runFunctionalSlice(std::uint32_t core,
                            std::uint64_t max_insts)
{
    cpu::Core &c = *cores_[core];
    check::RefCore &ref = *refs_[core];

    // Hand off this core's register file; memory is the live
    // shared address space, nothing to copy.
    ref.sync(c.state());

    std::uint64_t budget = std::min(max_insts, phaseLeft_);
    std::uint64_t executed = 0;
    bool done = false;
    while (budget > 0) {
        const auto r = ref.runFast(budget, cpu::MagicReturnVa);
        executed += r.steps;
        budget -= r.steps;
        // A trap reached just as the client's budget lapses is
        // serviced at the start of its next slice, as after a
        // detailed quantum: the kernel charges the resolver to the
        // same slice in both modes.
        if (r.stop == check::FastStop::Resolver &&
            executed < max_insts) {
            const auto cost = serviceResolverFunctional(core);
            executed += cost;
            budget = cost >= budget ? 0 : budget - cost;
            continue;
        }
        if (r.stop == check::FastStop::StopPc ||
            r.stop == check::FastStop::Halted) {
            done = true;
        }
        break;
    }

    stats_.ffInsts += executed;
    phaseLeft_ =
        executed >= phaseLeft_ ? 0 : phaseLeft_ - executed;
    if (phaseLeft_ == 0)
        enterDetailedPhase();

    // Hand back, then resync every attached observer (lockstep
    // checker) as after a snapshot restore: the fast-forwarded
    // stores landed in the shared address space behind the
    // reference forks of *all* cores' checkers.
    c.setState(ref.state());
    for (cpu::Core *sib : cores_) {
        if (auto *obs = sib->observer())
            obs->onFastForward(sib->state());
    }
    return FfSlice{executed, done};
}

std::uint64_t
Sampler::serviceResolverFunctional(std::uint32_t core)
{
    // The functional mirror of Core::serviceResolver, minus all
    // timing: pop the PLT0 operands, run the linker, store the GOT
    // entry architecturally. The executing core retires the store
    // through the same Core::retireGotStore as the detailed trap
    // (bloom snoop, and the explicit-invalidation flush on every
    // hart when that variant is configured) so no ABTB entry can go
    // stale across a fast-forward phase — the checkSkips invariant
    // holds in sampled runs too. Exact mode snoops the store onto
    // sibling cores through the data path's hook; here that is
    // explicit.
    cpu::Core &c = *cores_[core];
    check::RefCore &ref = *refs_[core];
    auto &st = ref.state();
    auto &as = ref.memory();
    auto &regs = st.regs;

    const auto pop = [&]() -> std::uint64_t {
        mem::MemFault fault = mem::MemFault::None;
        const auto value = as.read64(regs[isa::RegSp], fault);
        if (fault != mem::MemFault::None) {
            throw cpu::SimError(
                "sampled resolver: stack read fault at " +
                hexAddr(regs[isa::RegSp]));
        }
        regs[isa::RegSp] += 8;
        return value;
    };

    const auto module_id = static_cast<std::uint32_t>(pop());
    const auto reloc_idx = static_cast<std::uint32_t>(pop());
    const auto result = linker_.resolve(module_id, reloc_idx);

    if (as.write64(result.gotAddr, result.value) !=
        mem::MemFault::None) {
        throw cpu::SimError("sampled resolver: GOT store fault at " +
                            hexAddr(result.gotAddr));
    }
    c.retireGotStore(result.gotAddr);
    if (sys_ != nullptr)
        sys_->snoopStore(core, result.gotAddr);

    ++stats_.ffResolverTraps;
    st.pc = result.target;
    return c.params().resolverInsts;
}

void
Sampler::reportMetrics(stats::MetricsRegistry &reg,
                       const std::string &prefix) const
{
    const SampledStats &st = stats_;
    const std::string p = prefix + ".sampled.";
    reg.counter(p + "windows", st.windows);
    reg.counter(p + "detail_instructions", st.detailInsts);
    reg.counter(p + "warmup_instructions", st.warmupInsts);
    reg.counter(p + "ff_instructions", st.ffInsts);
    reg.counter(p + "resolver_traps", st.ffResolverTraps);
    reg.counter(p + "total_instructions", st.totalInsts());
    reg.gauge(p + "coverage", st.coverage());
    reg.gauge(p + "cpi", st.cpi());
    reg.gauge(p + "extrapolated_cycles", st.extrapolatedCycles());
    reg.gauge(p + "extrapolated_ipc",
              st.extrapolatedCycles() > 0
                  ? static_cast<double>(st.totalInsts()) /
                        st.extrapolatedCycles()
                  : 0.0);
}

} // namespace dlsim::sim
