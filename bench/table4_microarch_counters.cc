/**
 * @file
 * Table 4: "Performance counters (values are per kilo instruction)"
 * — base vs enhanced for I-$ misses, I-TLB misses, D-$ misses,
 * D-TLB misses, and branch mispredictions, on all four workloads.
 *
 * Paper's shape: every counter drops (or stays flat) when
 * trampolines are skipped; Apache shows the largest absolute
 * pressure and the largest improvements; Memcached's I-TLB conflict
 * misses disappear entirely.
 *
 * Under the default lazy --bind-policy the grid also runs the two
 * alternative software baselines on the enhanced machine: stable
 * linking (every resolution memoized at load, no lazy traps) and
 * demand-driven loading (library pages faulted in on first touch).
 * They land in --json-out as `<workload>.stable` / `.demand` and in
 * a closing cycles table; BENCH_table4.json is this document.
 */

#include "common.hh"

using namespace dlsim;
using namespace dlsim::bench;

namespace
{

struct PaperRow
{
    const char *name;
    double icB, icE, itlbB, itlbE, dcB, dcE, dtlbB, dtlbE, brB,
        brE;
    int requests;
};

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args("table4_microarch_counters", argc, argv);
    banner("Table 4 — microarchitectural counters PKI, "
           "base vs enhanced",
           "Section 5.2, Table 4");
    JsonOut json("table4_microarch_counters", args);

    const PaperRow rows[] = {
        {"apache", 109.31, 104.22, 1.78, 1.18, 7.96, 7.56, 4.03,
         4.62, 13.46, 12.32, 900},
        {"firefox", 10.70, 10.38, 0.87, 0.79, 2.66, 2.67, 1.54,
         1.75, 4.84, 4.77, 450},
        {"memcached", 51.99, 51.42, 0.03, 0.00, 12.25, 12.16,
         4.74, 4.73, 5.48, 5.30, 600},
        {"mysql", 25.21, 24.93, 2.41, 2.36, 8.48, 8.46, 2.86,
         2.77, 14.44, 14.40, 700},
    };

    // Per workload: base and enhanced, then (lazy runs only) the
    // stable and demand baselines on the enhanced machine, so the
    // results land as [base0, enh0, stable0, demand0, base1, ...].
    const bool baselines =
        args.bindPolicy() == linker::BindPolicy::Lazy;
    std::vector<workload::MachineConfig> machines = {
        baseMachine(args), enhancedMachine(args)};
    if (baselines) {
        for (const auto policy : {linker::BindPolicy::Stable,
                                  linker::BindPolicy::Demand}) {
            machines.push_back(enhancedMachine(args));
            machines.back().bindPolicy = policy;
        }
    }
    const std::size_t perRow = machines.size();
    std::vector<std::function<ArmResult()>> work;
    for (const PaperRow &row : rows) {
        for (const auto &mc : machines) {
            work.push_back([&row, &mc, &args] {
                auto wl = workload::profileByName(row.name);
                wl.seed = args.seed();
                return runArm(wl, mc, args.scaled(150),
                              args.scaled(row.requests),
                              args.sample());
            });
        }
    }
    const auto arms = runJobs(args, std::move(work));

    for (std::size_t i = 0; i < std::size(rows); ++i) {
        const PaperRow &row = rows[i];
        const ArmResult &base = arms[perRow * i];
        const ArmResult &enh = arms[perRow * i + 1];
        const auto &b = base.counters;
        const auto &e = enh.counters;
        const auto requests =
            std::to_string(args.scaled(row.requests));

        json.add(std::string(row.name) + ".base", base,
                 withSampleContext(args,
                                   {{"workload", row.name},
                                    {"machine", "base"},
                                    {"requests", requests}}));
        json.add(std::string(row.name) + ".enhanced", enh,
                 withSampleContext(args,
                                   {{"workload", row.name},
                                    {"machine", "enhanced"},
                                    {"requests", requests}}));
        for (std::size_t k = 2; k < perRow; ++k) {
            const char *policy =
                linker::bindPolicyName(machines[k].bindPolicy);
            json.add(std::string(row.name) + "." + policy,
                     arms[perRow * i + k],
                     withSampleContext(args,
                                       {{"workload", row.name},
                                        {"machine", "enhanced"},
                                        {"bind_policy", policy},
                                        {"requests", requests}}));
        }

        std::printf("--- %s ---\n", row.name);
        stats::TablePrinter t({"Counter PKI", "Base", "Enhanced",
                               "Paper base", "Paper enhanced"});
        auto add = [&](const char *name, double mb, double me,
                       double pb, double pe) {
            t.addRow({name, stats::TablePrinter::num(mb),
                      stats::TablePrinter::num(me),
                      stats::TablePrinter::num(pb),
                      stats::TablePrinter::num(pe)});
        };
        add("I-$ misses", b.pki(b.l1iMisses), e.pki(e.l1iMisses),
            row.icB, row.icE);
        add("I-TLB misses", b.pki(b.itlbMisses),
            e.pki(e.itlbMisses), row.itlbB, row.itlbE);
        add("D-$ misses", b.pki(b.l1dMisses), e.pki(e.l1dMisses),
            row.dcB, row.dcE);
        add("D-TLB misses", b.pki(b.dtlbMisses),
            e.pki(e.dtlbMisses), row.dtlbB, row.dtlbE);
        add("Branch mispredictions", b.pki(b.mispredicts),
            e.pki(e.mispredicts), row.brB, row.brE);
        add("Trampoline insts", b.pki(b.trampolineInsts),
            e.pki(e.trampolineInsts), 0, 0);
        std::printf("%s", t.render().c_str());
        std::printf("cycles: base %llu, enhanced %llu "
                    "(%.2f%% faster)\n\n",
                    (unsigned long long)b.cycles,
                    (unsigned long long)e.cycles,
                    100.0 * (double(b.cycles) - double(e.cycles)) /
                        double(b.cycles));
    }

    if (baselines) {
        std::printf("--- software baselines, enhanced machine ---\n");
        stats::TablePrinter t({"Workload", "Lazy cycles",
                               "Stable cycles", "Demand cycles",
                               "Lazy traps", "Demand faults"});
        for (std::size_t i = 0; i < std::size(rows); ++i) {
            const auto &lazy = arms[perRow * i + 1].counters;
            const auto &stable = arms[perRow * i + 2].counters;
            const auto &demand = arms[perRow * i + 3].counters;
            t.addRow({rows[i].name, std::to_string(lazy.cycles),
                      std::to_string(stable.cycles),
                      std::to_string(demand.cycles),
                      std::to_string(lazy.resolverCalls),
                      std::to_string(demand.demandFaults)});
        }
        std::printf("%s", t.render().c_str());
    }
    return json.write() ? 0 : 1;
}
