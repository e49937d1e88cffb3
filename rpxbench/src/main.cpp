/**
 * @file
 * rpxbench: the repo benchmark executable.
 *
 *   rpxbench --workload fleet_small|fleet_faulty|slam_rp --seed N
 *            --seconds S --trace 0|1 [--print-canary]
 *
 * Prints every metric by name and unit, then, as the last stdout line,
 * one JSON object {"correct", "attempted", "failed", "metrics"}: the
 * end-to-end metrics with --trace 0, the per-layer metrics with
 * --trace 1. A run that fails an output check prints no numbers and
 * exits 1.
 */

#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

using namespace rpxbench;

namespace {

int
usage()
{
    std::cerr << "usage: rpxbench --workload fleet_small|fleet_faulty|"
                 "slam_rp --seed N --seconds S --trace 0|1\n"
                 "       rpxbench --print-canary\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opt;
    bool have_workload = false;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            if (a == "--print-canary") {
                const FrameDigest d = canaryDigest();
                std::printf("{%lluULL, %lluULL}\n",
                            static_cast<unsigned long long>(d.sum),
                            static_cast<unsigned long long>(d.count));
                return 0;
            }
            if (i + 1 >= argc)
                return usage();
            const std::string v = argv[++i];
            if (a == "--workload") {
                opt.workload = v;
                have_workload = true;
            } else if (a == "--seed") {
                opt.seed = std::stoull(v);
            } else if (a == "--seconds") {
                opt.seconds = std::stod(v);
            } else if (a == "--trace") {
                if (v != "0" && v != "1")
                    return usage();
                opt.trace = v == "1";
            } else {
                return usage();
            }
        }
    } catch (const std::exception &) {
        return usage();
    }
    if (!have_workload || !(opt.seconds > 0.0))
        return usage();

    RunResult res;
    try {
        if (opt.workload == "fleet_small")
            res = runFleetWorkload(opt, false);
        else if (opt.workload == "fleet_faulty")
            res = runFleetWorkload(opt, true);
        else if (opt.workload == "slam_rp")
            res = runSlamRpWorkload(opt);
        else
            return usage();
    } catch (const std::exception &e) {
        std::cerr << "rpxbench: " << e.what() << "\n";
        return 1;
    }

    if (!opt.trace)
        for (const std::string &name : res.end_to_end.unset())
            res.fail("end-to-end metric " + name + " not measured");
    for (const auto *catalog : {&endToEndMetrics(), &perLayerMetrics()})
        for (const MetricSpec &m : *catalog)
            if (!validMetricName(m.name) || !validUnit(m.unit))
                res.fail(std::string("malformed metric ") + m.name);
    std::cout << "rpxbench " << opt.workload << " seed=" << opt.seed
              << " seconds=" << opt.seconds << " trace=" << opt.trace
              << "\n";
    if (res.correct()) {
        std::cout << "end-to-end:\n" << res.end_to_end.text("  ");
        if (opt.trace)
            std::cout << "per-layer:\n" << res.per_layer.text("  ");
    }
    for (const std::string &n : res.notes)
        std::cout << "note: " << n << "\n";
    for (const std::string &f : res.check_failures)
        std::cout << "CHECK FAILED: " << f << "\n";
    std::cout << "attempted=" << res.attempted << " failed=" << res.failed
              << " correct=" << (res.correct() ? "true" : "false") << "\n";
    std::cout << resultJson(res, opt.trace) << std::endl;
    return res.correct() ? 0 : 1;
}
