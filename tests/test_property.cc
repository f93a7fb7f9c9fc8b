/**
 * @file
 * Property-based tests: randomly generated affine loop nests are
 * pushed through every transformation and through codegen, and must
 * always compute bit-identical results to the untransformed kernel
 * (IR evaluator as the oracle, KISA interpreter as the second
 * implementation). Parameterized over seeds (TEST_P sweeps).
 */

#include <gtest/gtest.h>

#include "analysis/analysis.hh"
#include "codegen/codegen.hh"
#include "common/rng.hh"
#include "ir/eval.hh"
#include "ir/kernel.hh"
#include "kisa/interp.hh"
#include "random_kernel.hh"
#include "transform/driver.hh"
#include "transform/legality.hh"
#include "transform/transforms.hh"

namespace mpc
{
namespace
{

using namespace mpc::ir;
using fuzz::RandomKernel;

class FuzzSeeds : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(FuzzSeeds, EvaluatorVsInterpreter)
{
    RandomKernel rk(GetParam());
    EXPECT_EQ(rk.evalChecksum(rk.kernel),
              rk.interpChecksum(rk.kernel, false));
    EXPECT_EQ(rk.evalChecksum(rk.kernel),
              rk.interpChecksum(rk.kernel, true));
}

TEST_P(FuzzSeeds, UnrollAndJamPreservesSemantics)
{
    RandomKernel rk(GetParam());
    const std::uint64_t golden = rk.evalChecksum(rk.kernel);
    for (int factor : {2, 3, 5}) {
        Kernel x = rk.kernel.clone();
        auto nests = analysis::findLoopNests(x);
        ASSERT_EQ(nests.size(), 1u);
        if (!transform::unrollAndJam(x, *nests[0].outer(), factor))
            continue;   // illegal draw: nothing to check
        EXPECT_EQ(rk.evalChecksum(x), golden)
            << "factor " << factor << "\n" << x.toString();
        EXPECT_EQ(rk.interpChecksum(x, true), golden);
    }
}

TEST_P(FuzzSeeds, InnerUnrollPreservesSemantics)
{
    RandomKernel rk(GetParam());
    const std::uint64_t golden = rk.evalChecksum(rk.kernel);
    for (int factor : {2, 4, 7}) {
        Kernel x = rk.kernel.clone();
        auto nests = analysis::findLoopNests(x);
        ASSERT_TRUE(
            transform::innerUnroll(x, *nests[0].inner(), factor));
        EXPECT_EQ(rk.evalChecksum(x), golden) << x.toString();
    }
}

TEST_P(FuzzSeeds, StripMinePreservesSemantics)
{
    RandomKernel rk(GetParam());
    const std::uint64_t golden = rk.evalChecksum(rk.kernel);
    for (int strip : {3, 8}) {
        Kernel x = rk.kernel.clone();
        auto nests = analysis::findLoopNests(x);
        ASSERT_TRUE(transform::stripMine(x, *nests[0].inner(), strip));
        EXPECT_EQ(rk.evalChecksum(x), golden) << x.toString();
    }
}

TEST_P(FuzzSeeds, InterchangeLegalOrRefused)
{
    RandomKernel rk(GetParam());
    const std::uint64_t golden = rk.evalChecksum(rk.kernel);
    Kernel x = rk.kernel.clone();
    if (transform::interchange(x, *x.body[0])) {
        EXPECT_EQ(rk.evalChecksum(x), golden) << x.toString();
    }
}

TEST_P(FuzzSeeds, ScalarReplacePreservesSemantics)
{
    RandomKernel rk(GetParam());
    const std::uint64_t golden = rk.evalChecksum(rk.kernel);
    Kernel x = rk.kernel.clone();
    auto nests = analysis::findLoopNests(x);
    transform::scalarReplace(x, *nests[0].inner());
    EXPECT_EQ(rk.evalChecksum(x), golden) << x.toString();
}

TEST_P(FuzzSeeds, FullDriverPreservesSemantics)
{
    RandomKernel rk(GetParam());
    const std::uint64_t golden = rk.evalChecksum(rk.kernel);
    Kernel x = rk.kernel.clone();
    transform::DriverParams params;
    params.bodySize = codegen::loweredBodySize;
    transform::applyClustering(x, params);
    EXPECT_EQ(rk.evalChecksum(x), golden) << x.toString();
    EXPECT_EQ(rk.interpChecksum(x, true), golden);
}

TEST_P(FuzzSeeds, PartitioningCoversSpace)
{
    RandomKernel rk(GetParam());
    const std::uint64_t golden = rk.evalChecksum(rk.kernel);
    Kernel x = rk.kernel.clone();
    // Mark the outer loop parallel only if the dependence test allows
    // reordering; otherwise partitioning is still row-contiguous and
    // sequential within each processor, so results can differ only
    // through cross-processor interleaving. Use 1 proc as a smoke
    // check in that case.
    x.body[0]->parallel = transform::canUnrollAndJam(*x.body[0]);
    const int procs = x.body[0]->parallel ? 4 : 1;
    transform::partitionParallelLoops(x);
    kisa::MemoryImage mem;
    rk.fill(mem, 1);
    auto programs = codegen::lowerForCores(x, procs, false);
    kisa::Interpreter interp(mem);
    for (auto &p : programs)
        interp.addCore(p);
    interp.run(1u << 28);
    EXPECT_EQ(checksumArrays(x, mem), golden);
}


/** 3-level random nest: slabs x rows x cols, writes to array 0 only. */
struct RandomNest3
{
    Kernel kernel;
    std::vector<const Array *> arrays;

    explicit RandomNest3(std::uint64_t seed)
    {
        Rng rng(seed * 131 + 7);
        kernel.name = "fuzz3_" + std::to_string(seed);
        const std::int64_t slabs = 3 + std::int64_t(rng.below(4));
        const std::int64_t rows = 4 + std::int64_t(rng.below(6));
        const std::int64_t cols = 6 + std::int64_t(rng.below(10));
        const int narrays = 2 + int(rng.below(2));
        for (int a = 0; a < narrays; ++a) {
            arrays.push_back(kernel.addArray(
                "T" + std::to_string(a), ScalType::F64,
                {slabs + 2, rows + 4, cols + 4}));
        }
        auto subscript = [&](const char *var, int spread) {
            const std::int64_t offset =
                std::int64_t(rng.below(std::uint64_t(2 * spread + 1))) -
                spread;
            if (offset == 0)
                return varref(var);
            return add(varref(var), iconst(offset));
        };
        auto random_read = [&]() {
            const Array *arr = arrays[rng.below(arrays.size())];
            std::vector<ExprPtr> subs;
            subs.push_back(varref("k"));
            subs.push_back(subscript("j", 2));
            subs.push_back(subscript("i", 2));
            return aref(arr, std::move(subs));
        };
        std::vector<StmtPtr> body;
        const int nstmts = 1 + int(rng.below(2));
        for (int s = 0; s < nstmts; ++s) {
            std::vector<ExprPtr> dst;
            dst.push_back(varref("k"));
            dst.push_back(varref("j"));
            dst.push_back(varref("i"));
            body.push_back(assign(
                aref(arrays[0], std::move(dst)),
                add(mul(random_read(), fconst(0.25 + rng.uniform())),
                    random_read())));
        }
        std::vector<StmtPtr> jb;
        jb.push_back(forLoop("i", iconst(2), iconst(2 + cols),
                             std::move(body)));
        std::vector<StmtPtr> kb;
        kb.push_back(forLoop("j", iconst(2), iconst(2 + rows),
                             std::move(jb)));
        // Slabs never reference each other (k subscript is exactly k),
        // so the outermost loop is parallel by construction.
        kernel.body.push_back(forLoop("k", iconst(0), iconst(slabs),
                                      std::move(kb), 1, true));
        assignRefIds(kernel);
        layoutArrays(kernel);
    }

    std::uint64_t
    evalChecksum(const Kernel &k) const
    {
        kisa::MemoryImage mem;
        Rng rng(99);
        for (const auto &array : kernel.arrays)
            for (std::int64_t e = 0; e < array.numElems(); ++e)
                mem.stF64(array.base + Addr(e) * 8, rng.uniform());
        Evaluator ev(k, mem);
        ev.run();
        return checksumArrays(k, mem);
    }
};

TEST_P(FuzzSeeds, DeepNestMiddleJamPreservesSemantics)
{
    RandomNest3 rk(GetParam());
    const std::uint64_t golden = rk.evalChecksum(rk.kernel);
    for (int factor : {2, 3}) {
        Kernel x = rk.kernel.clone();
        auto nests = analysis::findLoopNests(x);
        ASSERT_EQ(nests[0].depth(), 3);
        if (!transform::unrollAndJam(x, *nests[0].outer(1), factor))
            continue;
        EXPECT_EQ(rk.evalChecksum(x), golden)
            << "middle jam by " << factor << "\n" << x.toString();
    }
}

TEST_P(FuzzSeeds, DeepNestOuterJamPreservesSemantics)
{
    RandomNest3 rk(GetParam());
    const std::uint64_t golden = rk.evalChecksum(rk.kernel);
    for (int factor : {2, 4}) {
        Kernel x = rk.kernel.clone();
        auto nests = analysis::findLoopNests(x);
        if (!transform::unrollAndJam(x, *nests[0].outer(2), factor))
            continue;
        EXPECT_EQ(rk.evalChecksum(x), golden)
            << "outer jam by " << factor << "\n" << x.toString();
    }
}

TEST_P(FuzzSeeds, DeepNestFullDriverPreservesSemantics)
{
    RandomNest3 rk(GetParam());
    const std::uint64_t golden = rk.evalChecksum(rk.kernel);
    Kernel x = rk.kernel.clone();
    transform::DriverParams params;
    params.bodySize = codegen::loweredBodySize;
    transform::applyClustering(x, params);
    EXPECT_EQ(rk.evalChecksum(x), golden) << x.toString();
}

INSTANTIATE_TEST_SUITE_P(Sweep, FuzzSeeds,
                         ::testing::Range<std::uint64_t>(0, 24));

} // namespace
} // namespace mpc
