/**
 * @file
 * Machine-sensitivity ablation: how the mechanism's benefit scales
 * with the host microarchitecture — issue width, misprediction
 * penalty, and memory latency.
 *
 * The paper measured one machine (a 4-wide Core2-class Xeon). dlsim
 * can ask the question the paper could not: on which machines does
 * trampoline elision matter most? Wider machines lose more to the
 * taken-branch bubble and cache misses each trampoline adds, so the
 * relative benefit should *grow* with width.
 */

#include "common.hh"

using namespace dlsim;
using namespace dlsim::bench;

int
main(int argc, char **argv)
{
    BenchArgs args("ablation_machine", argc, argv);
    banner("Ablation — machine sensitivity of the benefit",
           "Section 5.4 (single-machine result, generalised)");
    JsonOut json("ablation_machine", args);

    auto wl = workload::apacheProfile();
    wl.seed = args.seed();

    struct Variant
    {
        std::string label;
        std::string jsonName;
        workload::MachineConfig mc;
    };
    std::vector<Variant> variants;
    for (std::uint32_t width : {1u, 2u, 4u}) {
        workload::MachineConfig mc = baseMachine(args);
        mc.core.issueWidth = width;
        variants.push_back(
            {"issue width " + std::to_string(width),
             "width" + std::to_string(width), mc});
    }
    for (std::uint32_t penalty : {8u, 15u, 25u}) {
        workload::MachineConfig mc = baseMachine(args);
        mc.core.mispredictPenalty = penalty;
        variants.push_back(
            {"mispredict penalty " + std::to_string(penalty),
             "penalty" + std::to_string(penalty), mc});
    }
    for (std::uint32_t lat : {120u, 220u, 400u}) {
        workload::MachineConfig mc = baseMachine(args);
        mc.core.mem.memLatency = lat;
        variants.push_back(
            {"memory latency " + std::to_string(lat),
             "memlat" + std::to_string(lat), mc});
    }

    // Warm-up-once: all 18 (variant, base/enhanced) arms restore
    // one warm base-machine checkpoint. Issue width, penalties, and
    // memory latency are pure timing inputs, and the skip unit is
    // (re)created cold per arm — so fanning out from shared state
    // is exactly equivalent to warming each arm separately, minus
    // 17 redundant warm-up simulations.
    const workload::MachineConfig refMc = baseMachine(args);
    const auto prog =
        std::make_shared<const workload::BuiltProgram>(
            workload::buildProgram(wl));
    const auto state =
        warmState(args, "", wl, refMc, args.scaled(120), prog);

    // Two jobs per variant: [v0.base, v0.enh, v1.base, ...].
    std::vector<std::function<ArmResult()>> work;
    for (const Variant &v : variants) {
        for (const bool enhanced : {false, true}) {
            work.push_back([&v, enhanced, &wl, &args, &refMc,
                            &state, &prog] {
                auto mc = v.mc;
                mc.enhanced = enhanced;
                return runArmFromState(state, wl, refMc, mc,
                                       args.scaled(400),
                                       sim::SampleParams{}, prog);
            });
        }
    }
    const auto arms = runJobs(args, std::move(work));

    stats::TablePrinter t({"Machine variation", "Cycle gain"});
    for (std::size_t i = 0; i < variants.size(); ++i) {
        const Variant &v = variants[i];
        const ArmResult &b = arms[2 * i];
        const ArmResult &e = arms[2 * i + 1];
        json.add(v.jsonName + ".base", b,
                 {{"workload", "apache"},
                  {"machine", "base"},
                  {"variation", v.jsonName}});
        json.add(v.jsonName + ".enhanced", e,
                 {{"workload", "apache"},
                  {"machine", "enhanced"},
                  {"variation", v.jsonName}});
        const double gain =
            100.0 *
            (double(b.counters.cycles) - double(e.counters.cycles)) /
            double(b.counters.cycles);
        t.addRow({v.label,
                  stats::TablePrinter::num(gain, 2) + "%"});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("expected: benefit grows with issue width (the "
                "taken-branch bubble and per-trampoline misses "
                "cost a larger share of a wide machine's "
                "cycles)\n");
    return json.write() ? 0 : 1;
}
