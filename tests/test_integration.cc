/**
 * @file
 * End-to-end integration tests: the full pipeline (profile ->
 * clustering driver -> codegen -> cycle simulation) must reproduce the
 * paper's qualitative results at test scale — per-application speedup
 * bands, read-stall reductions, preserved locality (miss counts), and
 * improved MSHR occupancy.
 */

#include <gtest/gtest.h>

#include "harness/report.hh"
#include "harness/runner.hh"
#include "workloads/workload.hh"

namespace mpc::harness
{
namespace
{

workloads::SizeParams
tiny()
{
    workloads::SizeParams size;
    size.scale = 1;
    return size;
}

PairResult
uniPair(const char *name)
{
    const auto w = workloads::makeByName(name, tiny());
    return runPair(w, sys::baseConfig(), 1);
}

struct Band
{
    const char *name;
    double minPct;  ///< conservative lower bound at test scale
};

// Without this, gtest prints a Band as its raw bytes, which include
// the address of `name`; the listed test names (and the ctest names
// discovered from them) would then change from run to run.
void
PrintTo(const Band &band, std::ostream *os)
{
    *os << band.name;
}

class UniSpeedups : public ::testing::TestWithParam<Band>
{};

TEST_P(UniSpeedups, ClusteringReducesExecutionTime)
{
    const Band band = GetParam();
    const PairResult pair = uniPair(band.name);
    EXPECT_GE(pair.reductionPct(), band.minPct)
        << band.name << ": base=" << pair.base.result.cycles
        << " clust=" << pair.clust.result.cycles;
}

INSTANTIATE_TEST_SUITE_P(
    Apps, UniSpeedups,
    ::testing::Values(Band{"latbench", 50.0}, Band{"em3d", 30.0},
                      Band{"erlebacher", 12.0}, Band{"fft", 1.0},
                      Band{"lu", 8.0}, Band{"mp3d", 4.0},
                      Band{"mst", 20.0}, Band{"ocean", 7.0}),
    [](const ::testing::TestParamInfo<Band> &info) {
        return std::string(info.param.name);
    });

TEST(Integration, LatbenchStallPerMissSpeedup)
{
    // Section 5.1: clustering cuts the per-miss stall by ~5x (bounded
    // by bandwidth, not by lp = 10).
    const auto w = workloads::makeLatbench(tiny());
    const PairResult pair = runPair(w, sys::baseConfig(), 1);
    const double base_stall = pair.base.result.dataReadCycles;
    const double clust_stall = pair.clust.result.dataReadCycles;
    const double speedup = base_stall / clust_stall;
    EXPECT_GT(speedup, 2.5);
    EXPECT_LT(speedup, 10.0);  // cannot beat lp
}

TEST(Integration, LocalityPreserved)
{
    // "Our more detailed statistics show that the L2 miss count is
    // nearly unchanged in all applications" (Section 5.2).
    for (const char *name : {"em3d", "erlebacher", "lu", "ocean"}) {
        const PairResult pair = uniPair(name);
        const double base_misses = static_cast<double>(
            pair.base.result.l2.loadMisses +
            pair.base.result.l2.writeMisses);
        const double clust_misses = static_cast<double>(
            pair.clust.result.l2.loadMisses +
            pair.clust.result.l2.writeMisses);
        EXPECT_LT(std::abs(clust_misses - base_misses),
                  0.25 * base_misses + 50.0)
            << name << " base=" << base_misses
            << " clust=" << clust_misses;
    }
}

TEST(Integration, MshrOccupancyImproves)
{
    // Figure 4's qualitative claim: clustering raises the fraction of
    // time multiple read misses are outstanding.
    const PairResult pair = uniPair("latbench");
    EXPECT_GT(pair.clust.result.l2ReadMshr.fracAtLeast(4),
              2.0 * pair.base.result.l2ReadMshr.fracAtLeast(4) + 0.01);
}

TEST(Integration, MultiprocessorLuImproves)
{
    const auto w = workloads::makeLu(tiny());
    const PairResult pair = runPair(w, sys::baseConfig(), 4);
    EXPECT_GT(pair.reductionPct(), 5.0);
}

TEST(Integration, ExemplarConfigRunsAllApps)
{
    // The Table 3 substitute configuration executes every application
    // (uniprocessor) and mostly improves.
    int improved = 0;
    for (const char *name : {"em3d", "lu", "mst"}) {
        const auto w = workloads::makeByName(name, tiny());
        const PairResult pair = runPair(w, sys::exemplarConfig(), 1);
        improved += pair.reductionPct() > 0.0;
    }
    EXPECT_GE(improved, 2);
}

TEST(Integration, OneGHzShiftsTimeToMemory)
{
    // Section 5.2: at 1 GHz the memory fraction grows, so clustering's
    // absolute contribution via memory parallelism grows too.
    const auto w = workloads::makeEm3d(tiny());
    const PairResult base = runPair(w, sys::baseConfig(), 1);
    const PairResult fast = runPair(w, sys::oneGHzConfig(), 1);
    const double frac_base = base.base.result.dataComponent() /
                             static_cast<double>(base.base.result.cycles);
    const double frac_fast = fast.base.result.dataComponent() /
                             static_cast<double>(fast.base.result.cycles);
    EXPECT_GT(frac_fast, frac_base);
    EXPECT_GT(fast.reductionPct(), 0.8 * base.reductionPct());
}

TEST(Integration, ReportsRender)
{
    const auto w = workloads::makeMst(tiny());
    const PairResult pair = runPair(w, sys::baseConfig(), 1);
    std::vector<std::string> names{"mst"};
    std::vector<PairResult> pairs;
    pairs.push_back(pair);
    const std::string fig3 = formatFig3(names, pairs, "test");
    EXPECT_NE(fig3.find("Base"), std::string::npos);
    EXPECT_NE(fig3.find("100.0"), std::string::npos);
    const std::string table =
        formatReductionTable(names, pairs, "uniprocessor", "test");
    EXPECT_NE(table.find("uniprocessor"), std::string::npos);
    std::vector<const sys::RunResult *> runs{&pair.base.result,
                                             &pair.clust.result};
    const std::string fig4 =
        formatFig4({"base", "clust"}, runs, "test");
    EXPECT_NE(fig4.find("(a)"), std::string::npos);
}

} // namespace
} // namespace mpc::harness
