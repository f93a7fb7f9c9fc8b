/**
 * @file
 * Tests for the pass pipeline layer: spec parsing, the registry, the
 * report renderings and their JSON round-trip, equivalence between the
 * default pipeline and the legacy applyClustering() entry point, the
 * IR verifier, and fault injection (an illegal pass must be caught and
 * named by the per-pass verification).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "ir/eval.hh"
#include "ir/kernel.hh"
#include "ir/verify.hh"
#include "transform/driver.hh"
#include "transform/pipeline.hh"

namespace mpc::transform
{
namespace
{

using namespace mpc::ir;

std::vector<ExprPtr>
subs1(ExprPtr a)
{
    std::vector<ExprPtr> v;
    v.push_back(std::move(a));
    return v;
}

/** B[i] = A[i] * 2 over two adjacent sweeps (fusable, evaluable). */
Kernel
twinSweeps(std::int64_t n = 40)
{
    Kernel k;
    k.name = "twin";
    Array *a = k.addArray("A", ScalType::F64, {n + 4});
    Array *b = k.addArray("B", ScalType::F64, {n + 4});
    Array *c = k.addArray("C", ScalType::F64, {n + 4});
    std::vector<StmtPtr> b1;
    b1.push_back(assign(aref(b, subs1(varref("i"))),
                        mul(aref(a, subs1(varref("i"))), fconst(2.0))));
    k.body.push_back(forLoop("i", iconst(0), iconst(n), std::move(b1)));
    std::vector<StmtPtr> b2;
    b2.push_back(assign(aref(c, subs1(varref("i2"))),
                        add(aref(b, subs1(varref("i2"))), fconst(1.0))));
    k.body.push_back(forLoop("i2", iconst(0), iconst(n),
                             std::move(b2)));
    assignRefIds(k);
    layoutArrays(k);
    return k;
}

// ---------------------------------------------------------------------
// Spec parsing and the registry.
// ---------------------------------------------------------------------

TEST(PipelineSpec, ParsesValidSpec)
{
    Pipeline pipeline;
    std::string error;
    ASSERT_TRUE(Pipeline::parse("partition,cluster,prefetch", pipeline,
                                error))
        << error;
    const std::vector<std::string> expected{"partition", "cluster",
                                            "prefetch"};
    EXPECT_EQ(pipeline.passNames(), expected);
}

TEST(PipelineSpec, TrimsWhitespace)
{
    Pipeline pipeline;
    std::string error;
    ASSERT_TRUE(Pipeline::parse(" fuse , cluster ", pipeline, error))
        << error;
    const std::vector<std::string> expected{"fuse", "cluster"};
    EXPECT_EQ(pipeline.passNames(), expected);
}

TEST(PipelineSpec, RejectsUnknownPass)
{
    Pipeline pipeline;
    std::string error;
    EXPECT_FALSE(Pipeline::parse("cluster,warp-drive", pipeline, error));
    EXPECT_NE(error.find("unknown pass 'warp-drive'"),
              std::string::npos)
        << error;
}

TEST(PipelineSpec, RejectsEmptySpec)
{
    Pipeline pipeline;
    std::string error;
    EXPECT_FALSE(Pipeline::parse("", pipeline, error));
    EXPECT_NE(error.find("empty pipeline spec"), std::string::npos)
        << error;
}

TEST(PipelineSpec, RejectsEmptyPassName)
{
    Pipeline pipeline;
    std::string error;
    EXPECT_FALSE(Pipeline::parse("fuse,,cluster", pipeline, error));
    EXPECT_NE(error.find("empty pass name"), std::string::npos)
        << error;
}

TEST(PipelineSpec, RejectsDuplicatePass)
{
    Pipeline pipeline;
    std::string error;
    EXPECT_FALSE(Pipeline::parse("cluster,cluster", pipeline, error));
    EXPECT_NE(error.find("duplicate pass 'cluster'"),
              std::string::npos)
        << error;
}

TEST(PipelineSpec, DefaultSpecParses)
{
    Pipeline pipeline;
    std::string error;
    ASSERT_TRUE(Pipeline::parse(defaultPipelineSpec(), pipeline, error))
        << error;
    EXPECT_EQ(pipeline.passNames().size(), 5u);
}

TEST(PassRegistryTest, HasAllBuiltinPasses)
{
    PassRegistry &registry = PassRegistry::instance();
    for (const char *name :
         {"partition", "fuse", "cluster", "postlude-interchange",
          "scalar-replace", "inner-unroll", "prefetch"}) {
        EXPECT_TRUE(registry.has(name)) << name;
        ASSERT_NE(registry.find(name), nullptr) << name;
        EXPECT_STREQ(registry.find(name)->name(), name);
        EXPECT_STREQ(registry.stableName(name), name);
    }
    const auto names = registry.names();
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(PipelineSpec, ParamsGateSpecPasses)
{
    DriverParams params;
    params.enableInnerUnroll = false;
    params.enablePostludeInterchange = false;
    const std::string spec = pipelineSpecFromParams(params);
    EXPECT_EQ(spec.find("inner-unroll"), std::string::npos);
    EXPECT_EQ(spec.find("postlude-interchange"), std::string::npos);
    EXPECT_NE(spec.find("cluster"), std::string::npos);
    EXPECT_NE(spec.find("scalar-replace"), std::string::npos);
}

TEST(PipelineSpec, RejectsTrailingComma)
{
    Pipeline pipeline;
    std::string error;
    EXPECT_FALSE(Pipeline::parse("fuse,cluster,", pipeline, error));
    EXPECT_NE(error.find("empty pass name"), std::string::npos)
        << error;
}

// ---------------------------------------------------------------------
// Per-pass knobs: "cluster(maxDegree=8),prefetch(dist=4)".
// ---------------------------------------------------------------------

TEST(PipelineKnobs, ParsesKnobSpec)
{
    Pipeline pipeline;
    std::string error;
    ASSERT_TRUE(Pipeline::parse("cluster(maxDegree=8),prefetch(dist=4)",
                                pipeline, error))
        << error;
    const std::vector<std::string> expected{"cluster", "prefetch"};
    EXPECT_EQ(pipeline.passNames(), expected);
    ASSERT_EQ(pipeline.knobs().size(), 2u);
    EXPECT_EQ(pipeline.knobs()[0].pass, "cluster");
    EXPECT_EQ(pipeline.knobs()[0].name, "maxDegree");
    EXPECT_EQ(pipeline.knobs()[0].value, 8);
    EXPECT_EQ(pipeline.knobs()[1].pass, "prefetch");
    EXPECT_EQ(pipeline.knobs()[1].name, "dist");
    EXPECT_EQ(pipeline.knobs()[1].value, 4);
    EXPECT_EQ(pipeline.spec(), "cluster(maxDegree=8),prefetch(dist=4)");
}

TEST(PipelineKnobs, ToleratesWhitespaceEverywhere)
{
    Pipeline pipeline;
    std::string error;
    ASSERT_TRUE(Pipeline::parse(
        "  cluster ( maxDegree = 8 ) ,\tprefetch( dist =4 ) ",
        pipeline, error))
        << error;
    EXPECT_EQ(pipeline.spec(), "cluster(maxDegree=8),prefetch(dist=4)");
}

TEST(PipelineKnobs, AppliesKnobsToParams)
{
    Pipeline pipeline;
    std::string error;
    ASSERT_TRUE(Pipeline::parse(
        "cluster(maxDegree=6),inner-unroll(factor=3),prefetch(dist=7)",
        pipeline, error))
        << error;
    DriverParams params;
    pipeline.applyKnobs(params);
    EXPECT_EQ(params.maxUnroll, 6);
    EXPECT_EQ(params.maxInnerUnroll, 3);
    EXPECT_EQ(params.prefetchDistanceLines, 7);
}

TEST(PipelineKnobs, RejectsUnknownKnobNamingToken)
{
    Pipeline pipeline;
    std::string error;
    EXPECT_FALSE(Pipeline::parse("cluster(warp=9)", pipeline, error));
    EXPECT_NE(error.find("unknown knob 'warp'"), std::string::npos)
        << error;
    EXPECT_NE(error.find("cluster"), std::string::npos) << error;
}

TEST(PipelineKnobs, RejectsKnobOnWrongPass)
{
    Pipeline pipeline;
    std::string error;
    EXPECT_FALSE(Pipeline::parse("fuse(maxDegree=4)", pipeline, error));
    EXPECT_NE(error.find("unknown knob 'maxDegree'"),
              std::string::npos)
        << error;
}

TEST(PipelineKnobs, RejectsNonPositiveOrMalformedValue)
{
    Pipeline pipeline;
    std::string error;
    EXPECT_FALSE(
        Pipeline::parse("cluster(maxDegree=0)", pipeline, error));
    EXPECT_NE(error.find("positive integer"), std::string::npos)
        << error;
    EXPECT_FALSE(
        Pipeline::parse("cluster(maxDegree=four)", pipeline, error));
    EXPECT_NE(error.find("'four'"), std::string::npos) << error;
    EXPECT_FALSE(
        Pipeline::parse("cluster(maxDegree)", pipeline, error));
    EXPECT_NE(error.find("missing '=value'"), std::string::npos)
        << error;
}

TEST(PipelineKnobs, RejectsUnterminatedKnobList)
{
    Pipeline pipeline;
    std::string error;
    EXPECT_FALSE(
        Pipeline::parse("cluster(maxDegree=8", pipeline, error));
    EXPECT_NE(error.find("malformed knob list"), std::string::npos)
        << error;
}

TEST(PipelineKnobs, RejectsDuplicateKnob)
{
    Pipeline pipeline;
    std::string error;
    EXPECT_FALSE(Pipeline::parse("cluster(maxDegree=2,maxDegree=4)",
                                 pipeline, error));
    EXPECT_NE(error.find("duplicate knob 'maxDegree'"),
              std::string::npos)
        << error;
}

TEST(PipelineKnobs, RunAppliesKnobsToItsParamsCopy)
{
    // maxDegree caps the cluster pass's unroll-and-jam binary search,
    // so a knob-limited run must report a degree no larger than the
    // cap even though the caller's DriverParams allow 16.
    Kernel k = twinSweeps(64);
    DriverParams params;
    params.missRate = [](int) { return 1.0; };
    Pipeline pipeline;
    std::string error;
    ASSERT_TRUE(Pipeline::parse("fuse,cluster(maxDegree=2)", pipeline,
                                error))
        << error;
    pipeline.verifyMode = VerifyMode::Off;
    const PipelineReport report = pipeline.run(k, params);
    ASSERT_FALSE(report.nests.empty());
    for (const auto &nest : report.nests)
        EXPECT_LE(nest.unrollDegree, 2) << nest.toString();
    EXPECT_EQ(params.maxUnroll, 16)
        << "run() must not mutate the caller's params";
}

TEST(PipelineKnobs, SpecFromParamsEmitsKnobsForNonDefaultFields)
{
    DriverParams params;
    params.maxUnroll = 8;
    params.maxInnerUnroll = 4;
    const std::string spec = pipelineSpecFromParams(params);
    EXPECT_NE(spec.find("cluster(maxDegree=8)"), std::string::npos)
        << spec;
    EXPECT_NE(spec.find("inner-unroll(factor=4)"), std::string::npos)
        << spec;
    // Default-valued fields must NOT grow knobs: the default pipeline
    // spec string (and therefore every bench stdout) stays unchanged.
    EXPECT_EQ(pipelineSpecFromParams(DriverParams()),
              defaultPipelineSpec());
}

TEST(PipelineKnobs, SpecFromParamsRoundTripsAllGateCombos)
{
    for (int mask = 0; mask < 8; ++mask) {
        for (const int max_unroll : {16, 8}) {
            for (const int max_inner : {8, 3}) {
                DriverParams params;
                params.enablePostludeInterchange = (mask & 1) != 0;
                params.enableScalarReplacement = (mask & 2) != 0;
                params.enableInnerUnroll = (mask & 4) != 0;
                params.maxUnroll = max_unroll;
                params.maxInnerUnroll = max_inner;

                const std::string spec =
                    pipelineSpecFromParams(params);
                Pipeline pipeline;
                std::string error;
                ASSERT_TRUE(Pipeline::parse(spec, pipeline, error))
                    << spec << ": " << error;
                // Canonical rendering reproduces the spec...
                EXPECT_EQ(pipeline.spec(), spec);
                // ...and re-applying the knobs reproduces the
                // knob-backed fields the gates exposed.
                DriverParams rebuilt;
                rebuilt.enablePostludeInterchange =
                    params.enablePostludeInterchange;
                rebuilt.enableScalarReplacement =
                    params.enableScalarReplacement;
                rebuilt.enableInnerUnroll = params.enableInnerUnroll;
                pipeline.applyKnobs(rebuilt);
                EXPECT_EQ(rebuilt.maxUnroll, params.maxUnroll) << spec;
                if (params.enableInnerUnroll) {
                    EXPECT_EQ(rebuilt.maxInnerUnroll,
                              params.maxInnerUnroll)
                        << spec;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Report renderings and the JSON round-trip.
// ---------------------------------------------------------------------

PipelineReport
sampleReport()
{
    PipelineReport report;
    NestReport nest;
    nest.loopVar = "i";
    nest.alpha = 0.5;
    nest.addressRecurrence = true;
    nest.fBefore = 1.0;
    nest.fAfter = 5.0;
    nest.unrollDegree = 4;
    nest.innerUnrollDegree = 2;
    nest.fusedLoops = 1;
    nest.scalarsReplaced = 3;
    nest.postludeInterchanged = true;
    nest.note = "jammed 2 levels up; \"quoted\"\nand a newline";
    report.nests.push_back(nest);
    report.leadingRefIds = {3, 1, 4};
    PassReport pass;
    pass.pass = "cluster";
    pass.wallMs = 1.25;
    pass.actions = 2;
    pass.detail = "note";
    report.passes.push_back(pass);
    pass.pass = "prefetch";
    pass.skipped = true;
    report.passes.push_back(pass);
    VerifyFailure failure;
    failure.pass = "cluster";
    failure.what = "checksum mismatch";
    report.verifyFailures.push_back(failure);
    return report;
}

TEST(Reports, NestReportToStringMatchesLegacyFormat)
{
    NestReport nest;
    nest.loopVar = "i";
    nest.alpha = 1.0;
    nest.fBefore = 2.0;
    nest.fAfter = 10.0;
    nest.unrollDegree = 5;
    const std::string line = nest.toString();
    EXPECT_NE(line.find("loop i"), std::string::npos);
    EXPECT_NE(line.find("alpha=1.00"), std::string::npos);
    EXPECT_NE(line.find("f: 2.0 -> 10.0"), std::string::npos);
    EXPECT_NE(line.find("uaj=5"), std::string::npos);
    EXPECT_EQ(line.find("(addr)"), std::string::npos);
    nest.addressRecurrence = true;
    EXPECT_NE(nest.toString().find("(addr)"), std::string::npos);
}

TEST(Reports, PassReportToStringShowsSkipsAndDetail)
{
    PassReport pass;
    pass.pass = "cluster";
    pass.wallMs = 0.5;
    pass.actions = 3;
    EXPECT_NE(pass.toString().find("cluster"), std::string::npos);
    EXPECT_EQ(pass.toString().find("[skipped]"), std::string::npos);
    pass.skipped = true;
    pass.detail = "why";
    EXPECT_NE(pass.toString().find("[skipped]"), std::string::npos);
    EXPECT_NE(pass.toString().find("why"), std::string::npos);
}

TEST(Reports, JsonRoundTrip)
{
    const PipelineReport report = sampleReport();
    PipelineReport parsed;
    ASSERT_TRUE(PipelineReport::fromJson(report.toJson(), parsed))
        << report.toJson();

    ASSERT_EQ(parsed.nests.size(), 1u);
    const NestReport &nest = parsed.nests[0];
    EXPECT_EQ(nest.loopVar, "i");
    EXPECT_DOUBLE_EQ(nest.alpha, 0.5);
    EXPECT_TRUE(nest.addressRecurrence);
    EXPECT_DOUBLE_EQ(nest.fBefore, 1.0);
    EXPECT_DOUBLE_EQ(nest.fAfter, 5.0);
    EXPECT_EQ(nest.unrollDegree, 4);
    EXPECT_EQ(nest.innerUnrollDegree, 2);
    EXPECT_EQ(nest.fusedLoops, 1);
    EXPECT_EQ(nest.scalarsReplaced, 3);
    EXPECT_TRUE(nest.postludeInterchanged);
    EXPECT_EQ(nest.note, "jammed 2 levels up; \"quoted\"\nand a newline");

    EXPECT_EQ(parsed.leadingRefIds, (std::vector<int>{3, 1, 4}));

    ASSERT_EQ(parsed.passes.size(), 2u);
    EXPECT_EQ(parsed.passes[0].pass, "cluster");
    EXPECT_DOUBLE_EQ(parsed.passes[0].wallMs, 1.25);
    EXPECT_EQ(parsed.passes[0].actions, 2);
    EXPECT_FALSE(parsed.passes[0].skipped);
    EXPECT_EQ(parsed.passes[0].detail, "note");
    EXPECT_TRUE(parsed.passes[1].skipped);

    ASSERT_EQ(parsed.verifyFailures.size(), 1u);
    EXPECT_EQ(parsed.verifyFailures[0].pass, "cluster");
    EXPECT_EQ(parsed.verifyFailures[0].what, "checksum mismatch");

    // And the rendering agrees after the round-trip.
    EXPECT_EQ(parsed.toString(), report.toString());
    EXPECT_EQ(parsed.toJson(), report.toJson());
}

TEST(Reports, FromJsonRejectsGarbage)
{
    PipelineReport out;
    EXPECT_FALSE(PipelineReport::fromJson("", out));
    EXPECT_FALSE(PipelineReport::fromJson("{", out));
    EXPECT_FALSE(PipelineReport::fromJson("[1, 2]", out));
    EXPECT_FALSE(PipelineReport::fromJson("{\"nests\": [3]}", out));
}

// ---------------------------------------------------------------------
// The default pipeline vs the legacy entry point.
// ---------------------------------------------------------------------

TEST(PipelineRun, DefaultPipelineMatchesApplyClustering)
{
    Kernel via_driver = twinSweeps(64);
    Kernel via_pipeline = twinSweeps(64);
    DriverParams params;
    params.lp = 10;

    const auto report_driver = applyClustering(via_driver, params);

    Pipeline pipeline;
    std::string error;
    ASSERT_TRUE(Pipeline::parse(pipelineSpecFromParams(params),
                                pipeline, error))
        << error;
    const auto report_pipeline = pipeline.run(via_pipeline, params);

    EXPECT_EQ(via_driver.toString(), via_pipeline.toString());
    EXPECT_EQ(report_driver.toString(), report_pipeline.toString());
    EXPECT_EQ(report_driver.leadingRefIds, report_pipeline.leadingRefIds);
}

TEST(PipelineRun, RecordsPerPassTimings)
{
    Kernel k = twinSweeps(64);
    DriverParams params;
    params.lp = 10;
    Pipeline pipeline;
    std::string error;
    ASSERT_TRUE(Pipeline::parse(defaultPipelineSpec(), pipeline, error));
    const auto report = pipeline.run(k, params);
    ASSERT_EQ(report.passes.size(), 5u);
    for (const auto &pass : report.passes) {
        EXPECT_FALSE(pass.pass.empty());
        EXPECT_GE(pass.wallMs, 0.0);
    }
    EXPECT_TRUE(report.verifyFailures.empty());
}

TEST(PipelineRun, PrefetchOnlyPipeline)
{
    Kernel base = twinSweeps(48);
    Kernel k = base.clone();
    DriverParams params;
    params.prefetchDistanceLines = 2;
    Pipeline pipeline;
    std::string error;
    ASSERT_TRUE(Pipeline::parse("prefetch", pipeline, error));
    const auto report = pipeline.run(k, params);
    ASSERT_EQ(report.passes.size(), 1u);
    EXPECT_GT(report.passes[0].actions, 0);
    EXPECT_TRUE(report.nests.empty());
    int prefetches = 0;
    for (const auto &stmt : k.body)
        walkStmts(*stmt, [&](Stmt &s) {
            prefetches += s.kind == Stmt::Kind::Prefetch;
        });
    EXPECT_EQ(prefetches, report.passes[0].actions);
}

// ---------------------------------------------------------------------
// The IR verifier.
// ---------------------------------------------------------------------

TEST(Verify, AcceptsWellFormedKernel)
{
    Kernel k = twinSweeps();
    EXPECT_EQ(ir::verify(k), "");
}

TEST(Verify, CatchesAliasedSubtree)
{
    Kernel k = twinSweeps();
    // Alias the first loop's first statement into the second loop.
    k.body[1]->body.push_back(StmtPtr(k.body[0]->body[0].get()));
    const std::string error = ir::verify(k);
    EXPECT_NE(error.find("aliased"), std::string::npos) << error;
    // Drop the alias without double-freeing.
    (void)k.body[1]->body.back().release();
    k.body[1]->body.pop_back();
}

TEST(Verify, CatchesZeroStep)
{
    Kernel k = twinSweeps();
    k.body[0]->step = 0;
    EXPECT_NE(ir::verify(k).find("zero step"), std::string::npos);
}

TEST(Verify, CatchesSubscriptArityMismatch)
{
    Kernel k = twinSweeps();
    // B[i] -> B[i][i]: one subscript too many for a 1-D array.
    Expr *ref = nullptr;
    walkExprs(*k.body[0]->body[0], [&](Expr &e) {
        if (e.kind == Expr::Kind::ArrayRef && ref == nullptr)
            ref = &e;
    });
    ASSERT_NE(ref, nullptr);
    ref->children.push_back(varref("i"));
    EXPECT_NE(ir::verify(k).find("subscripts"), std::string::npos);
}

TEST(Verify, CatchesForeignArray)
{
    Kernel k = twinSweeps();
    Kernel other = twinSweeps();
    Expr *ref = nullptr;
    walkExprs(*k.body[0]->body[0], [&](Expr &e) {
        if (e.kind == Expr::Kind::ArrayRef && ref == nullptr)
            ref = &e;
    });
    ASSERT_NE(ref, nullptr);
    ref->array = &other.arrays.front();
    const std::string error = ir::verify(k);
    EXPECT_NE(error.find("not owned"), std::string::npos) << error;
    ref->array = &k.arrays.front();
}

TEST(Verify, CatchesShadowedLoopVariable)
{
    Kernel k = twinSweeps();
    std::vector<StmtPtr> inner;
    inner.push_back(assign(varref("t"), iconst(1)));
    k.body[0]->body.push_back(
        forLoop("i", iconst(0), iconst(4), std::move(inner)));
    EXPECT_NE(ir::verify(k).find("shadows"), std::string::npos);
}

TEST(Verify, RefIdOptions)
{
    Kernel k = twinSweeps();
    Expr *ref = nullptr;
    walkExprs(*k.body[0]->body[0], [&](Expr &e) {
        if (e.kind == Expr::Kind::ArrayRef && ref == nullptr)
            ref = &e;
    });
    ASSERT_NE(ref, nullptr);
    const int saved = ref->refId;
    ref->refId = -1;
    EXPECT_NE(ir::verify(k).find("refId"), std::string::npos);
    ir::VerifyOptions relaxed;
    relaxed.requireRefIds = false;
    EXPECT_EQ(ir::verify(k, relaxed), "");
    // Dense check: re-number one ref far away to leave a gap.
    ref->refId = saved + 100;
    ir::VerifyOptions dense;
    dense.requireDenseRefIds = true;
    EXPECT_NE(ir::verify(k, dense).find("dense"), std::string::npos);
    ref->refId = saved;
    EXPECT_EQ(ir::verify(k, dense), "");
}

// ---------------------------------------------------------------------
// Fault injection: the per-pass verification must catch and name an
// illegal pass.
// ---------------------------------------------------------------------

/** An "optimization" that silently drops the last loop iteration. */
class EvilTruncatePass : public Pass
{
  public:
    const char *name() const override { return "evil-truncate"; }

    void
    run(ir::Kernel &kernel, PassContext &ctx, PassReport &pr) const
        override
    {
        (void)ctx;
        for (auto &stmt : kernel.body) {
            if (stmt->kind != Stmt::Kind::Loop ||
                stmt->hi->kind != Expr::Kind::IntConst)
                continue;
            stmt->hi = iconst(stmt->hi->ival - 1);
            ++pr.actions;
            return;
        }
    }
};

/** A structurally broken pass: zeroes a loop step. */
class EvilZeroStepPass : public Pass
{
  public:
    const char *name() const override { return "evil-zero-step"; }

    void
    run(ir::Kernel &kernel, PassContext &ctx, PassReport &pr) const
        override
    {
        (void)ctx;
        for (auto &stmt : kernel.body) {
            if (stmt->kind != Stmt::Kind::Loop)
                continue;
            stmt->step = 0;
            ++pr.actions;
            return;
        }
    }
};

void
registerEvilPasses()
{
    static bool once = [] {
        PassRegistry::instance().add(
            std::make_unique<EvilTruncatePass>());
        PassRegistry::instance().add(
            std::make_unique<EvilZeroStepPass>());
        return true;
    }();
    (void)once;
}

TEST(FaultInjection, EquivalenceCheckNamesTheFailingPass)
{
    registerEvilPasses();
    Kernel k = twinSweeps(32);
    DriverParams params;
    Pipeline pipeline;
    std::string error;
    ASSERT_TRUE(
        Pipeline::parse("fuse,evil-truncate,prefetch", pipeline, error))
        << error;
    pipeline.verifyMode = VerifyMode::Record;
    const auto report = pipeline.run(k, params);
    ASSERT_EQ(report.verifyFailures.size(), 1u);
    EXPECT_EQ(report.verifyFailures[0].pass, "evil-truncate");
    EXPECT_NE(report.verifyFailures[0].what.find("equivalence"),
              std::string::npos)
        << report.verifyFailures[0].what;
    // The pipeline stopped at the bad pass: prefetch never ran.
    ASSERT_EQ(report.passes.size(), 2u);
    EXPECT_EQ(report.passes.back().pass, "evil-truncate");
}

TEST(FaultInjection, StructuralCheckNamesTheFailingPass)
{
    registerEvilPasses();
    Kernel k = twinSweeps(32);
    DriverParams params;
    Pipeline pipeline;
    std::string error;
    ASSERT_TRUE(Pipeline::parse("evil-zero-step", pipeline, error))
        << error;
    pipeline.verifyMode = VerifyMode::Record;
    const auto report = pipeline.run(k, params);
    ASSERT_EQ(report.verifyFailures.size(), 1u);
    EXPECT_EQ(report.verifyFailures[0].pass, "evil-zero-step");
    EXPECT_NE(report.verifyFailures[0].what.find("zero step"),
              std::string::npos)
        << report.verifyFailures[0].what;
}

TEST(FaultInjection, HonestPipelineRecordsNoFailures)
{
    Kernel k = twinSweeps(32);
    DriverParams params;
    Pipeline pipeline;
    std::string error;
    ASSERT_TRUE(Pipeline::parse(defaultPipelineSpec(), pipeline, error));
    pipeline.verifyMode = VerifyMode::Record;
    const auto report = pipeline.run(k, params);
    EXPECT_TRUE(report.verifyFailures.empty());
}

TEST(FaultInjectionDeathTest, PanicModeNamesTheFailingPass)
{
    registerEvilPasses();
    EXPECT_DEATH(
        {
            Kernel k = twinSweeps(32);
            DriverParams params;
            Pipeline pipeline;
            std::string error;
            if (!Pipeline::parse("evil-truncate", pipeline, error))
                std::abort();
            setenv("MPC_VERIFY_DUMP", "/dev/null", 1);
            pipeline.verifyMode = VerifyMode::Panic;
            (void)pipeline.run(k, params);
        },
        "evil-truncate");
}

// ---------------------------------------------------------------------
// Check reuse: the equivalence check executes a kernel only when it
// differs from the last one it executed, whatever the passes report.
// ---------------------------------------------------------------------

/** Changes nothing, but reports actions. */
class IdlePass : public Pass
{
  public:
    const char *name() const override { return "idle-claims-actions"; }

    void
    run(ir::Kernel &, PassContext &, PassReport &pr) const override
    {
        pr.actions += 3;
    }
};

/** Changes the kernel (a loop mark) without reporting an action. */
class QuietMarkPass : public Pass
{
  public:
    const char *name() const override { return "quiet-mark"; }

    void
    run(ir::Kernel &kernel, PassContext &, PassReport &) const override
    {
        kernel.body[0]->mark = 7;
    }
};

/** Drops the last iteration of the first loop and reports nothing. */
class QuietTruncatePass : public Pass
{
  public:
    const char *name() const override { return "quiet-truncate"; }

    void
    run(ir::Kernel &kernel, PassContext &, PassReport &) const override
    {
        kernel.body[0]->hi = iconst(kernel.body[0]->hi->ival - 1);
    }
};

void
registerReusePasses()
{
    static bool once = [] {
        PassRegistry::instance().add(std::make_unique<IdlePass>());
        PassRegistry::instance().add(std::make_unique<QuietMarkPass>());
        PassRegistry::instance().add(
            std::make_unique<QuietTruncatePass>());
        return true;
    }();
    (void)once;
}

/** A verified run of @p spec on twinSweeps; counts Pipeline::initMemory
 *  calls, one per functional execution. */
struct CountedRun
{
    PipelineReport report;
    int executions = 0;
    int changedPasses = 0;  ///< passes whose output differs from input
};

CountedRun
runCounted(const std::string &spec)
{
    registerReusePasses();
    CountedRun out;
    Kernel k = twinSweeps(32);
    const Kernel layout = k.clone();
    Pipeline pipeline;
    std::string error;
    EXPECT_TRUE(Pipeline::parse(spec, pipeline, error)) << error;
    pipeline.verifyMode = VerifyMode::Record;
    pipeline.initMemory = [&](kisa::MemoryImage &mem) {
        ++out.executions;
        ir::fillArraysSynthetic(layout, mem);
    };
    assignRefIds(k);
    Kernel previous = k.clone();
    pipeline.afterPass = [&](const std::string &, const Kernel &after) {
        out.changedPasses += after == previous ? 0 : 1;
        previous = after.clone();
    };
    out.report = pipeline.run(k, DriverParams{});
    return out;
}

TEST(CheckReuse, UnchangedKernelIsNotExecutedAgain)
{
    const CountedRun run = runCounted("idle-claims-actions");
    EXPECT_TRUE(run.report.verifyFailures.empty());
    EXPECT_EQ(run.report.passes[0].actions, 3);
    EXPECT_EQ(run.executions, 1);  // the reference only
}

TEST(CheckReuse, ChangedKernelIsExecutedOnce)
{
    const CountedRun run = runCounted("quiet-mark");
    EXPECT_TRUE(run.report.verifyFailures.empty());
    EXPECT_EQ(run.report.passes[0].actions, 0);
    EXPECT_EQ(run.executions, 2);
    // The idle pass after it leaves the marked kernel as it was.
    EXPECT_EQ(runCounted("quiet-mark,idle-claims-actions").executions, 2);
    EXPECT_EQ(runCounted("idle-claims-actions,quiet-mark").executions, 2);
}

TEST(CheckReuse, ChangeReportedAsNoActionIsStillChecked)
{
    const CountedRun run = runCounted("idle-claims-actions,quiet-truncate");
    ASSERT_EQ(run.report.verifyFailures.size(), 1u);
    EXPECT_EQ(run.report.verifyFailures[0].pass, "quiet-truncate");
    EXPECT_NE(run.report.verifyFailures[0].what.find("equivalence"),
              std::string::npos);
    EXPECT_EQ(run.executions, 2);
}

TEST(CheckReuse, OneExecutionPerChangingPass)
{
    const CountedRun run = runCounted(defaultPipelineSpec() + ",prefetch");
    EXPECT_TRUE(run.report.verifyFailures.empty());
    EXPECT_GT(run.changedPasses, 0);
    EXPECT_LT(run.changedPasses,
              static_cast<int>(run.report.passes.size()));
    EXPECT_EQ(run.executions, 1 + run.changedPasses);
}

} // namespace
} // namespace mpc::transform
