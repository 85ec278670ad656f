/**
 * @file
 * Ablation: does a stronger front end subsume the mechanism?
 *
 * Two reviewer questions the paper invites:
 *  1. Would a better direction predictor (tournament vs gshare vs
 *     bimodal) change the mechanism's benefit? (It should not:
 *     trampoline costs are fetch/cache costs, and the trampoline's
 *     indirect target is perfectly predictable once resolved.)
 *  2. Would a streaming next-line I-prefetcher erase the I-cache
 *     benefit? (Only partly: a prefetcher helps straight-line
 *     code, but PLT entries are *jumped to*, not fallen into, so
 *     their lines are not covered by next-line prefetch — the
 *     paper's sparse-PLT observation in §2.2.)
 */

#include "common.hh"

using namespace dlsim;
using namespace dlsim::bench;

int
main(int argc, char **argv)
{
    BenchArgs args("ablation_frontend", argc, argv);
    banner("Ablation — front-end strength vs mechanism benefit",
           "Sections 2.2 and 6 (related work)");
    JsonOut json("ablation_frontend", args);

    auto wl = workload::apacheProfile();
    wl.seed = args.seed();

    struct Variant
    {
        std::string label;
        std::string jsonName;
        workload::MachineConfig mc;
    };
    std::vector<Variant> variants;
    for (const char *dir : {"bimodal", "gshare", "tournament"}) {
        workload::MachineConfig mc = baseMachine(args);
        mc.core.predictor.direction = dir;
        variants.push_back(
            {std::string("direction: ") + dir, dir, mc});
    }
    {
        workload::MachineConfig mc = baseMachine(args);
        mc.core.mem.iPrefetchNextLine = true;
        variants.push_back({"next-line I-prefetch",
                            "next_line_prefetch", mc});
    }
    {
        workload::MachineConfig mc = baseMachine(args);
        mc.core.predictor.indirect.enabled = true;
        variants.push_back({"VPC-style indirect target cache",
                            "indirect_cache", mc});
    }
    variants.push_back({"baseline (gshare, no prefetch)",
                        "baseline", baseMachine(args)});

    // Two jobs per variant: [v0.base, v0.enh, v1.base, ...].
    std::vector<std::function<ArmResult()>> work;
    for (const Variant &v : variants) {
        for (const bool enhanced : {false, true}) {
            work.push_back([&v, enhanced, &wl, &args] {
                auto mc = v.mc;
                mc.enhanced = enhanced;
                return runArm(wl, mc, args.scaled(150),
                              args.scaled(450));
            });
        }
    }
    const auto arms = runJobs(args, std::move(work));

    stats::TablePrinter t({"Front end", "Cycle gain from ABTB"});
    for (std::size_t i = 0; i < variants.size(); ++i) {
        const Variant &v = variants[i];
        const ArmResult &b = arms[2 * i];
        const ArmResult &e = arms[2 * i + 1];
        json.add(v.jsonName + ".base", b,
                 {{"workload", "apache"},
                  {"machine", "base"},
                  {"frontend", v.jsonName}});
        json.add(v.jsonName + ".enhanced", e,
                 {{"workload", "apache"},
                  {"machine", "enhanced"},
                  {"frontend", v.jsonName}});
        const double gain =
            100.0 *
            (double(b.counters.cycles) - double(e.counters.cycles)) /
            double(b.counters.cycles);
        t.addRow({v.label,
                  stats::TablePrinter::num(gain, 2) + "%"});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("expected: the benefit survives stronger direction "
                "prediction and next-line prefetching — trampoline "
                "costs are not mispredicts or sequential-miss "
                "costs\n");
    return json.write() ? 0 : 1;
}
