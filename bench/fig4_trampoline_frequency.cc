/**
 * @file
 * Figure 4: "Frequency of trampolines" — per-trampoline execution
 * counts sorted by rank, log-log. The paper's shapes: steep
 * cutoffs for Apache and Memcached (a specific call set per
 * request), a shallow curve for Firefox (diverse functionality),
 * and for Memcached the majority of calls in fewer than 10
 * functions.
 */

#include <algorithm>

#include "common.hh"

using namespace dlsim;
using namespace dlsim::bench;

namespace
{

/** One workload's census, fully computed inside its job. */
struct Census
{
    stats::MetricsRegistry registry;
    std::vector<std::uint64_t> counts;
};

Census
censusCounts(const BenchArgs &args, const char *profile, int requests)
{
    workload::MachineConfig mc = baseMachine(args);
    mc.profileTrampolines = true;
    auto wl = workload::profileByName(profile);
    wl.seed = args.seed();
    workload::Workbench wb(wl, mc);
    for (int i = 0; i < requests; ++i)
        wb.runRequest();

    Census census;
    wb.reportMetrics(census.registry, "dlsim");
    census.counts.reserve(wb.core().trampolineCounts().size());
    for (const auto &[va, n] : wb.core().trampolineCounts())
        census.counts.push_back(n);
    std::sort(census.counts.rbegin(), census.counts.rend());
    return census;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args("fig4_trampoline_frequency", argc, argv);
    banner("Figure 4 — trampoline frequency by rank (log-log)",
           "Section 5.1, Figure 4");
    JsonOut json("fig4_trampoline_frequency", args);

    const char *profiles[] = {"apache", "firefox", "memcached"};
    const int requests = args.scaled(900);
    std::vector<std::function<Census()>> work;
    for (const auto *p : profiles) {
        work.push_back(
            [p, requests, &args] {
                return censusCounts(args, p, requests);
            });
    }
    const auto results = runJobs(args, std::move(work));

    std::vector<std::vector<std::uint64_t>> all;
    for (std::size_t i = 0; i < std::size(profiles); ++i) {
        auto &run = json.addRun(profiles[i]);
        run.with("workload", profiles[i])
            .with("machine", "base")
            .with("requests", std::to_string(requests));
        run.registry = results[i].registry;
        all.push_back(results[i].counts);
    }

    // Print log-spaced ranks, as the paper's log-log axes do.
    stats::TablePrinter table({"Rank", "apache", "firefox",
                               "memcached"});
    for (std::size_t rank = 1; rank <= 4096; rank *= 2) {
        std::vector<std::string> row{std::to_string(rank)};
        for (const auto &counts : all) {
            row.push_back(rank <= counts.size()
                              ? stats::TablePrinter::num(
                                    counts[rank - 1])
                              : "-");
        }
        table.addRow(std::move(row));
    }
    std::printf("%s\n", table.render().c_str());

    // Memcached's defining property: <10 functions dominate.
    const auto &mem = all[2];
    std::uint64_t total = 0, top10 = 0;
    for (std::size_t i = 0; i < mem.size(); ++i) {
        total += mem[i];
        if (i < 10)
            top10 += mem[i];
    }
    std::printf("memcached: top-10 trampolines carry %.1f%% of "
                "all library calls (paper: the majority)\n",
                100.0 * double(top10) / double(total));

    // Curve-shape summary: ratio of rank-1 to rank-32 counts.
    std::printf("\nsteepness (count@rank1 / count@rank32):\n");
    for (std::size_t i = 0; i < 3; ++i) {
        const auto &c = all[i];
        if (c.size() >= 32) {
            std::printf("  %-10s %.1fx%s\n", profiles[i],
                        double(c[0]) / double(std::max<
                            std::uint64_t>(1, c[31])),
                        i == 1 ? "  (expected shallowest)" : "");
        }
    }
    return json.write() ? 0 : 1;
}
