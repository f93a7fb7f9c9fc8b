/**
 * @file
 * Golden lowering fingerprints. Every workload at scale 1, at one
 * processor and at its default count, is profiled and compiled under
 * each candidate spec the autotuner screens for that profile, then
 * lowered per core with the clustered schedule; seeded random nests
 * (raw and after the full clustering driver) are lowered with the
 * schedule off and on, with and without leading references. Each
 * lowered program set must hash to a committed FNV-1a value.
 *
 * The functional tests only check that scheduled code computes the
 * right values, so a scheduler change that reorders instructions
 * legally passes them while it changes every simulated cycle count.
 * This table pins the emitted order itself: a host-side optimization
 * of codegen must reproduce every fingerprint unchanged. Regenerate
 * the table only for a deliberate change to the generated code;
 * MPC_GOLDEN_PRINT=1 prints it.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "codegen/codegen.hh"
#include "harness/autotune.hh"
#include "harness/manifest.hh"
#include "harness/runner.hh"
#include "random_kernel.hh"
#include "transform/driver.hh"
#include "transform/pipeline.hh"
#include "workloads/workload.hh"

namespace mpc
{
namespace
{

/** Every field of every instruction of every program. */
std::uint64_t
programsFingerprint(const std::vector<kisa::Program> &programs)
{
    std::ostringstream os;
    for (const kisa::Program &p : programs) {
        os << p.name << ':' << p.code.size() << '\n';
        for (const kisa::Instr &in : p.code)
            os << static_cast<int>(in.op) << ' ' << int(in.rd) << ' '
               << int(in.ra) << ' ' << int(in.rb) << ' ' << in.imm << ' '
               << in.target << ' ' << in.refId << '\n';
    }
    return harness::fnv1a(os.str());
}

transform::Pipeline
parseOrDie(const std::string &spec)
{
    transform::Pipeline pipeline;
    std::string error;
    EXPECT_TRUE(transform::Pipeline::parse(spec, pipeline, error))
        << spec << ": " << error;
    pipeline.verifyMode = transform::VerifyMode::Off;
    return pipeline;
}

/** (name, fingerprint) of every lowering the table pins. */
using Lowerings = std::vector<std::pair<std::string, std::uint64_t>>;

Lowerings
workloadLowerings()
{
    static const char *const kApps[] = {"latbench", "em3d", "erlebacher",
                                        "fft",      "lu",   "mp3d",
                                        "mst",      "ocean"};
    Lowerings out;
    for (const char *app : kApps) {
        workloads::SizeParams size;
        size.scale = 1;
        const workloads::Workload workload =
            workloads::makeByName(app, size);
        const sys::SystemConfig config =
            harness::scaleConfig(sys::baseConfig(), workload);
        std::vector<int> procs_list{1};
        if (workload.defaultProcs > 1)
            procs_list.push_back(workload.defaultProcs);
        for (const int procs : procs_list) {
            ir::Kernel partitioned = workload.kernel.clone();
            if (procs > 1)
                parseOrDie("partition").run(partitioned, {});
            const transform::DriverParams params =
                harness::makeDriverParams(workload, partitioned, config,
                                          procs, 16);
            const std::string group =
                std::string(app) + "/" + std::to_string(procs) + "p ";
            out.emplace_back(group + "base",
                             programsFingerprint(codegen::lowerForCores(
                                 partitioned, procs, false)));
            for (const std::string &spec :
                 harness::candidateSpecs(params)) {
                ir::Kernel kernel = partitioned.clone();
                const transform::PipelineReport report =
                    parseOrDie(spec).run(kernel, params);
                std::set<std::uint32_t> leading;
                for (const int ref_id : report.leadingRefIds)
                    leading.insert(static_cast<std::uint32_t>(ref_id));
                out.emplace_back(group + spec,
                                 programsFingerprint(codegen::lowerForCores(
                                     kernel, procs, true, leading)));
            }
        }
    }
    return out;
}

Lowerings
randomKernelLowerings()
{
    Lowerings out;
    for (std::uint64_t seed = 0; seed < 24; ++seed) {
        const fuzz::RandomKernel rk(seed);
        ir::Kernel clustered = rk.kernel.clone();
        transform::DriverParams params;
        params.bodySize = codegen::loweredBodySize;
        transform::applyClustering(clustered, params);
        for (const bool transformed : {false, true}) {
            const ir::Kernel &kernel = transformed ? clustered : rk.kernel;
            // Every other reference leads: a non-trivial split between
            // hoisted loads and loads scheduled like compute.
            std::set<std::uint32_t> odd_refs;
            for (std::uint32_t id = 1; id < 64; id += 2)
                odd_refs.insert(id);
            const std::string name = "fuzz" + std::to_string(seed) +
                                     (transformed ? "-clust" : "-raw");
            codegen::CodegenOptions opts;
            out.emplace_back(name + " plain",
                             programsFingerprint({codegen::lower(kernel,
                                                                 opts)}));
            opts.clusteredSchedule = true;
            out.emplace_back(name + " sched",
                             programsFingerprint({codegen::lower(kernel,
                                                                 opts)}));
            opts.leadingRefs = odd_refs;
            out.emplace_back(name + " sched-odd",
                             programsFingerprint({codegen::lower(kernel,
                                                                 opts)}));
        }
    }
    return out;
}

// ------------------------------------------------------------- goldens

/** Captured from the pair-testing list scheduler, before its
 *  history-list rewrite. */
const std::map<std::string, std::uint64_t> kGolden = {
    {"latbench/1p base", 0x3c94d17705e95fe0ULL},
    {"latbench/1p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll", 0x7024db66ce9d9c6aULL},
    {"latbench/1p fuse,cluster(maxDegree=2),postlude-interchange,scalar-replace,inner-unroll", 0x21548f44472fb151ULL},
    {"latbench/1p fuse,cluster(maxDegree=2),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0x21548f44472fb151ULL},
    {"latbench/1p fuse,cluster(maxDegree=4),postlude-interchange,scalar-replace,inner-unroll", 0xe4fe4b8759607a79ULL},
    {"latbench/1p fuse,cluster(maxDegree=4),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0xe4fe4b8759607a79ULL},
    {"latbench/1p fuse,cluster(maxDegree=8),postlude-interchange,scalar-replace,inner-unroll", 0x9ada9529e093f7d9ULL},
    {"latbench/1p fuse,cluster(maxDegree=8),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0x9ada9529e093f7d9ULL},
    {"latbench/1p fuse,cluster(maxDegree=16),postlude-interchange,scalar-replace,inner-unroll", 0x7024db66ce9d9c6aULL},
    {"latbench/1p fuse,cluster(maxDegree=16),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0x7024db66ce9d9c6aULL},
    {"latbench/1p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll(factor=2)", 0x7024db66ce9d9c6aULL},
    {"latbench/1p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll(factor=4)", 0x7024db66ce9d9c6aULL},
    {"latbench/1p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=2)", 0x7024db66ce9d9c6aULL},
    {"latbench/1p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=8)", 0x7024db66ce9d9c6aULL},
    {"latbench/1p fuse,cluster", 0x7024db66ce9d9c6aULL},
    {"em3d/1p base", 0xc58cf05a18c5cd2bULL},
    {"em3d/1p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll", 0x937b7ae149aafcfdULL},
    {"em3d/1p fuse,cluster(maxDegree=2),postlude-interchange,scalar-replace,inner-unroll", 0x4d311185ffb1f650ULL},
    {"em3d/1p fuse,cluster(maxDegree=2),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0xc84778147e900c50ULL},
    {"em3d/1p fuse,cluster(maxDegree=4),postlude-interchange,scalar-replace,inner-unroll", 0x3f0438ce2cfdc5bfULL},
    {"em3d/1p fuse,cluster(maxDegree=4),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0xcc6db5315460a0bfULL},
    {"em3d/1p fuse,cluster(maxDegree=8),postlude-interchange,scalar-replace,inner-unroll", 0x01fe9a6d09ae6348ULL},
    {"em3d/1p fuse,cluster(maxDegree=8),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0x16a7958b15b5ddcbULL},
    {"em3d/1p fuse,cluster(maxDegree=16),postlude-interchange,scalar-replace,inner-unroll", 0x937b7ae149aafcfdULL},
    {"em3d/1p fuse,cluster(maxDegree=16),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0x8922a4f6857fd942ULL},
    {"em3d/1p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll(factor=2)", 0x937b7ae149aafcfdULL},
    {"em3d/1p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll(factor=4)", 0x937b7ae149aafcfdULL},
    {"em3d/1p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=2)", 0x8c836263f78e39aeULL},
    {"em3d/1p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=8)", 0x087e2676cb5e61d1ULL},
    {"em3d/1p fuse,cluster", 0xffa543a416985c09ULL},
    {"em3d/16p base", 0xfd8a23f1325fbc6fULL},
    {"em3d/16p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll", 0x9e46815840304c60ULL},
    {"em3d/16p fuse,cluster(maxDegree=2),postlude-interchange,scalar-replace,inner-unroll", 0xfbef0d4ee3b2678fULL},
    {"em3d/16p fuse,cluster(maxDegree=2),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0xe643c9632ba25b9fULL},
    {"em3d/16p fuse,cluster(maxDegree=4),postlude-interchange,scalar-replace,inner-unroll", 0x871a79751fe99070ULL},
    {"em3d/16p fuse,cluster(maxDegree=4),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0xe35ea38a81517366ULL},
    {"em3d/16p fuse,cluster(maxDegree=8),postlude-interchange,scalar-replace,inner-unroll", 0xf7ac503a3449f67cULL},
    {"em3d/16p fuse,cluster(maxDegree=8),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0x84f0e1a28f4d5773ULL},
    {"em3d/16p fuse,cluster(maxDegree=16),postlude-interchange,scalar-replace,inner-unroll", 0x9e46815840304c60ULL},
    {"em3d/16p fuse,cluster(maxDegree=16),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0x28a8e623bd7d5cf2ULL},
    {"em3d/16p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll(factor=2)", 0x9e46815840304c60ULL},
    {"em3d/16p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll(factor=4)", 0x9e46815840304c60ULL},
    {"em3d/16p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=2)", 0x0f00c45112470dbaULL},
    {"em3d/16p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=8)", 0x590e3837f93ad3a2ULL},
    {"em3d/16p fuse,cluster", 0xb2105e3f0be61e23ULL},
    {"erlebacher/1p base", 0x97d92bc825f026e2ULL},
    {"erlebacher/1p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll", 0x61721a3e415836cfULL},
    {"erlebacher/1p fuse,cluster(maxDegree=2),postlude-interchange,scalar-replace,inner-unroll", 0x39525048b85292bbULL},
    {"erlebacher/1p fuse,cluster(maxDegree=2),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0xbd50adc814302b2bULL},
    {"erlebacher/1p fuse,cluster(maxDegree=4),postlude-interchange,scalar-replace,inner-unroll", 0x61721a3e415836cfULL},
    {"erlebacher/1p fuse,cluster(maxDegree=4),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0xd016dda22daf5a6eULL},
    {"erlebacher/1p fuse,cluster(maxDegree=8),postlude-interchange,scalar-replace,inner-unroll", 0x61721a3e415836cfULL},
    {"erlebacher/1p fuse,cluster(maxDegree=8),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0xd016dda22daf5a6eULL},
    {"erlebacher/1p fuse,cluster(maxDegree=16),postlude-interchange,scalar-replace,inner-unroll", 0x61721a3e415836cfULL},
    {"erlebacher/1p fuse,cluster(maxDegree=16),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0xd016dda22daf5a6eULL},
    {"erlebacher/1p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll(factor=2)", 0x61721a3e415836cfULL},
    {"erlebacher/1p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll(factor=4)", 0x61721a3e415836cfULL},
    {"erlebacher/1p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=2)", 0xc07ac65856ce7daeULL},
    {"erlebacher/1p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=8)", 0x09a713905ca0ee15ULL},
    {"erlebacher/1p fuse,cluster", 0xdcb0e1225949e883ULL},
    {"erlebacher/8p base", 0x05fcfbe45f3e0d95ULL},
    {"erlebacher/8p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll", 0x8e48814923f27621ULL},
    {"erlebacher/8p fuse,cluster(maxDegree=2),postlude-interchange,scalar-replace,inner-unroll", 0x40a392b4ed055fb4ULL},
    {"erlebacher/8p fuse,cluster(maxDegree=2),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0x3a013d38d37b0946ULL},
    {"erlebacher/8p fuse,cluster(maxDegree=4),postlude-interchange,scalar-replace,inner-unroll", 0x8e48814923f27621ULL},
    {"erlebacher/8p fuse,cluster(maxDegree=4),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0x21b0a4eb76443f3aULL},
    {"erlebacher/8p fuse,cluster(maxDegree=8),postlude-interchange,scalar-replace,inner-unroll", 0x8e48814923f27621ULL},
    {"erlebacher/8p fuse,cluster(maxDegree=8),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0x21b0a4eb76443f3aULL},
    {"erlebacher/8p fuse,cluster(maxDegree=16),postlude-interchange,scalar-replace,inner-unroll", 0x8e48814923f27621ULL},
    {"erlebacher/8p fuse,cluster(maxDegree=16),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0x21b0a4eb76443f3aULL},
    {"erlebacher/8p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll(factor=2)", 0x8e48814923f27621ULL},
    {"erlebacher/8p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll(factor=4)", 0x8e48814923f27621ULL},
    {"erlebacher/8p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=2)", 0x5451919829b42aa0ULL},
    {"erlebacher/8p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=8)", 0xaaac5d72905ba026ULL},
    {"erlebacher/8p fuse,cluster", 0x8b7a4a41a65d3ce5ULL},
    {"fft/1p base", 0x7f537cd62ac636baULL},
    {"fft/1p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll", 0x82c05014bd5015f0ULL},
    {"fft/1p fuse,cluster(maxDegree=2),postlude-interchange,scalar-replace,inner-unroll", 0x82c05014bd5015f0ULL},
    {"fft/1p fuse,cluster(maxDegree=2),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0x3326639e92614ac6ULL},
    {"fft/1p fuse,cluster(maxDegree=4),postlude-interchange,scalar-replace,inner-unroll", 0x82c05014bd5015f0ULL},
    {"fft/1p fuse,cluster(maxDegree=4),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0x3326639e92614ac6ULL},
    {"fft/1p fuse,cluster(maxDegree=8),postlude-interchange,scalar-replace,inner-unroll", 0x82c05014bd5015f0ULL},
    {"fft/1p fuse,cluster(maxDegree=8),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0x3326639e92614ac6ULL},
    {"fft/1p fuse,cluster(maxDegree=16),postlude-interchange,scalar-replace,inner-unroll", 0x82c05014bd5015f0ULL},
    {"fft/1p fuse,cluster(maxDegree=16),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0x3326639e92614ac6ULL},
    {"fft/1p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll(factor=2)", 0x82c05014bd5015f0ULL},
    {"fft/1p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll(factor=4)", 0x82c05014bd5015f0ULL},
    {"fft/1p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=2)", 0x76af51f38a7c8b34ULL},
    {"fft/1p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=8)", 0x958e5d25e7c11972ULL},
    {"fft/1p fuse,cluster", 0x82c05014bd5015f0ULL},
    {"fft/16p base", 0x8cc4914fa03d07d3ULL},
    {"fft/16p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll", 0x28d51ca553b44cc3ULL},
    {"fft/16p fuse,cluster(maxDegree=2),postlude-interchange,scalar-replace,inner-unroll", 0x28d51ca553b44cc3ULL},
    {"fft/16p fuse,cluster(maxDegree=2),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0x30ba2abc03bfebebULL},
    {"fft/16p fuse,cluster(maxDegree=4),postlude-interchange,scalar-replace,inner-unroll", 0x28d51ca553b44cc3ULL},
    {"fft/16p fuse,cluster(maxDegree=4),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0x30ba2abc03bfebebULL},
    {"fft/16p fuse,cluster(maxDegree=8),postlude-interchange,scalar-replace,inner-unroll", 0x28d51ca553b44cc3ULL},
    {"fft/16p fuse,cluster(maxDegree=8),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0x30ba2abc03bfebebULL},
    {"fft/16p fuse,cluster(maxDegree=16),postlude-interchange,scalar-replace,inner-unroll", 0x28d51ca553b44cc3ULL},
    {"fft/16p fuse,cluster(maxDegree=16),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0x30ba2abc03bfebebULL},
    {"fft/16p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll(factor=2)", 0x28d51ca553b44cc3ULL},
    {"fft/16p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll(factor=4)", 0x28d51ca553b44cc3ULL},
    {"fft/16p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=2)", 0xcc225f42de3363dbULL},
    {"fft/16p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=8)", 0xdcb537f3fb994fa3ULL},
    {"fft/16p fuse,cluster", 0x28d51ca553b44cc3ULL},
    {"lu/1p base", 0xbfd5e7f12dfa12f3ULL},
    {"lu/1p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll", 0xec66dfeb84a5b623ULL},
    {"lu/1p fuse,cluster(maxDegree=2),postlude-interchange,scalar-replace,inner-unroll", 0x08d0ee7494e3baa5ULL},
    {"lu/1p fuse,cluster(maxDegree=2),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0xe8b456718674a88fULL},
    {"lu/1p fuse,cluster(maxDegree=4),postlude-interchange,scalar-replace,inner-unroll", 0x4b3db3e1e31f4230ULL},
    {"lu/1p fuse,cluster(maxDegree=4),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0xcd9bb6d7b44a86f1ULL},
    {"lu/1p fuse,cluster(maxDegree=8),postlude-interchange,scalar-replace,inner-unroll", 0x6fd498a07d3b5456ULL},
    {"lu/1p fuse,cluster(maxDegree=8),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0xdb090768fb580482ULL},
    {"lu/1p fuse,cluster(maxDegree=16),postlude-interchange,scalar-replace,inner-unroll", 0xec66dfeb84a5b623ULL},
    {"lu/1p fuse,cluster(maxDegree=16),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0xbfc5618425ed04f2ULL},
    {"lu/1p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll(factor=2)", 0xec66dfeb84a5b623ULL},
    {"lu/1p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll(factor=4)", 0xec66dfeb84a5b623ULL},
    {"lu/1p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=2)", 0xcd45595fea5a6a8bULL},
    {"lu/1p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=8)", 0xb7005f6d3a7514d3ULL},
    {"lu/1p fuse,cluster", 0x807981a270deef08ULL},
    {"lu/8p base", 0x933c08d8b2f99c05ULL},
    {"lu/8p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll", 0x69ec901296d3e3ddULL},
    {"lu/8p fuse,cluster(maxDegree=2),postlude-interchange,scalar-replace,inner-unroll", 0x18136f2963e6687bULL},
    {"lu/8p fuse,cluster(maxDegree=2),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0xb5bb9a945bb2b411ULL},
    {"lu/8p fuse,cluster(maxDegree=4),postlude-interchange,scalar-replace,inner-unroll", 0x6ea2732f173102e2ULL},
    {"lu/8p fuse,cluster(maxDegree=4),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0x8aab3a55937c0d74ULL},
    {"lu/8p fuse,cluster(maxDegree=8),postlude-interchange,scalar-replace,inner-unroll", 0x196b5d8a67df0d48ULL},
    {"lu/8p fuse,cluster(maxDegree=8),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0x19c9a74259b571bbULL},
    {"lu/8p fuse,cluster(maxDegree=16),postlude-interchange,scalar-replace,inner-unroll", 0x69ec901296d3e3ddULL},
    {"lu/8p fuse,cluster(maxDegree=16),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0xf02b9e760bc86126ULL},
    {"lu/8p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll(factor=2)", 0x69ec901296d3e3ddULL},
    {"lu/8p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll(factor=4)", 0x69ec901296d3e3ddULL},
    {"lu/8p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=2)", 0xf74f10260bff5064ULL},
    {"lu/8p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=8)", 0x77701c1afa5a2e26ULL},
    {"lu/8p fuse,cluster", 0x132c78562e8d6345ULL},
    {"mp3d/1p base", 0x3652cdf87940a8b6ULL},
    {"mp3d/1p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll", 0xf3017787204bc2ccULL},
    {"mp3d/1p fuse,cluster(maxDegree=2),postlude-interchange,scalar-replace,inner-unroll", 0xf3017787204bc2ccULL},
    {"mp3d/1p fuse,cluster(maxDegree=2),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0xecff8a05c0fdd55eULL},
    {"mp3d/1p fuse,cluster(maxDegree=4),postlude-interchange,scalar-replace,inner-unroll", 0xf3017787204bc2ccULL},
    {"mp3d/1p fuse,cluster(maxDegree=4),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0xecff8a05c0fdd55eULL},
    {"mp3d/1p fuse,cluster(maxDegree=8),postlude-interchange,scalar-replace,inner-unroll", 0xf3017787204bc2ccULL},
    {"mp3d/1p fuse,cluster(maxDegree=8),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0xecff8a05c0fdd55eULL},
    {"mp3d/1p fuse,cluster(maxDegree=16),postlude-interchange,scalar-replace,inner-unroll", 0xf3017787204bc2ccULL},
    {"mp3d/1p fuse,cluster(maxDegree=16),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0xecff8a05c0fdd55eULL},
    {"mp3d/1p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll(factor=2)", 0x262fe8c1a16a837bULL},
    {"mp3d/1p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll(factor=4)", 0x5e30e5cfac855f1bULL},
    {"mp3d/1p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=2)", 0xef40b62e4379af29ULL},
    {"mp3d/1p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=8)", 0x0c2fd7d2d9c55938ULL},
    {"mp3d/1p fuse,cluster", 0x11cf4261e4ad23b8ULL},
    {"mp3d/8p base", 0x015e30c5c6f5e32dULL},
    {"mp3d/8p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll", 0x1df10690c747b1fdULL},
    {"mp3d/8p fuse,cluster(maxDegree=2),postlude-interchange,scalar-replace,inner-unroll", 0x1df10690c747b1fdULL},
    {"mp3d/8p fuse,cluster(maxDegree=2),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0xe51705c35f79eaedULL},
    {"mp3d/8p fuse,cluster(maxDegree=4),postlude-interchange,scalar-replace,inner-unroll", 0x1df10690c747b1fdULL},
    {"mp3d/8p fuse,cluster(maxDegree=4),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0xe51705c35f79eaedULL},
    {"mp3d/8p fuse,cluster(maxDegree=8),postlude-interchange,scalar-replace,inner-unroll", 0x1df10690c747b1fdULL},
    {"mp3d/8p fuse,cluster(maxDegree=8),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0xe51705c35f79eaedULL},
    {"mp3d/8p fuse,cluster(maxDegree=16),postlude-interchange,scalar-replace,inner-unroll", 0x1df10690c747b1fdULL},
    {"mp3d/8p fuse,cluster(maxDegree=16),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0xe51705c35f79eaedULL},
    {"mp3d/8p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll(factor=2)", 0x609e3f16ccffd825ULL},
    {"mp3d/8p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll(factor=4)", 0x2b63809c227d311dULL},
    {"mp3d/8p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=2)", 0xd26b094d031d9655ULL},
    {"mp3d/8p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=8)", 0xf11cfbf199f1e60dULL},
    {"mp3d/8p fuse,cluster", 0x10ce294828531e5dULL},
    {"mst/1p base", 0x4d516e19a040a694ULL},
    {"mst/1p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll", 0x2fcc0b0659e93806ULL},
    {"mst/1p fuse,cluster(maxDegree=2),postlude-interchange,scalar-replace,inner-unroll", 0x6eb3c2b702980009ULL},
    {"mst/1p fuse,cluster(maxDegree=2),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0x9152c043c7bf8a5aULL},
    {"mst/1p fuse,cluster(maxDegree=4),postlude-interchange,scalar-replace,inner-unroll", 0xd40e05f67c2d9e91ULL},
    {"mst/1p fuse,cluster(maxDegree=4),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0x755c540dbe10894bULL},
    {"mst/1p fuse,cluster(maxDegree=8),postlude-interchange,scalar-replace,inner-unroll", 0x2fcc0b0659e93806ULL},
    {"mst/1p fuse,cluster(maxDegree=8),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0x120a554d4d10bc12ULL},
    {"mst/1p fuse,cluster(maxDegree=16),postlude-interchange,scalar-replace,inner-unroll", 0x2fcc0b0659e93806ULL},
    {"mst/1p fuse,cluster(maxDegree=16),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0x120a554d4d10bc12ULL},
    {"mst/1p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll(factor=2)", 0x2fcc0b0659e93806ULL},
    {"mst/1p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll(factor=4)", 0x2fcc0b0659e93806ULL},
    {"mst/1p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=2)", 0x120a554d4d10bc12ULL},
    {"mst/1p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=8)", 0x120a554d4d10bc12ULL},
    {"mst/1p fuse,cluster", 0x2fcc0b0659e93806ULL},
    {"ocean/1p base", 0x2de9181413d209c1ULL},
    {"ocean/1p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll", 0x81c6c46283a0f1b3ULL},
    {"ocean/1p fuse,cluster(maxDegree=2),postlude-interchange,scalar-replace,inner-unroll", 0x61c68501922956c4ULL},
    {"ocean/1p fuse,cluster(maxDegree=2),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0xbc916c8b3eb3c918ULL},
    {"ocean/1p fuse,cluster(maxDegree=4),postlude-interchange,scalar-replace,inner-unroll", 0x81c6c46283a0f1b3ULL},
    {"ocean/1p fuse,cluster(maxDegree=4),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0xf8d103d01ac05f79ULL},
    {"ocean/1p fuse,cluster(maxDegree=8),postlude-interchange,scalar-replace,inner-unroll", 0x81c6c46283a0f1b3ULL},
    {"ocean/1p fuse,cluster(maxDegree=8),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0xf8d103d01ac05f79ULL},
    {"ocean/1p fuse,cluster(maxDegree=16),postlude-interchange,scalar-replace,inner-unroll", 0x81c6c46283a0f1b3ULL},
    {"ocean/1p fuse,cluster(maxDegree=16),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0xf8d103d01ac05f79ULL},
    {"ocean/1p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll(factor=2)", 0x81c6c46283a0f1b3ULL},
    {"ocean/1p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll(factor=4)", 0x81c6c46283a0f1b3ULL},
    {"ocean/1p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=2)", 0x70a0c71d65b9f51dULL},
    {"ocean/1p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=8)", 0x59c0b97bb2fecd77ULL},
    {"ocean/1p fuse,cluster", 0xa8541f868f8e57e7ULL},
    {"ocean/8p base", 0xb156d9d03be08605ULL},
    {"ocean/8p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll", 0xcbc821e80a8f7160ULL},
    {"ocean/8p fuse,cluster(maxDegree=2),postlude-interchange,scalar-replace,inner-unroll", 0xb99ed272cfbec078ULL},
    {"ocean/8p fuse,cluster(maxDegree=2),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0x2cc55ac8d6d26945ULL},
    {"ocean/8p fuse,cluster(maxDegree=4),postlude-interchange,scalar-replace,inner-unroll", 0xcbc821e80a8f7160ULL},
    {"ocean/8p fuse,cluster(maxDegree=4),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0x0777fcd52bc5a431ULL},
    {"ocean/8p fuse,cluster(maxDegree=8),postlude-interchange,scalar-replace,inner-unroll", 0xcbc821e80a8f7160ULL},
    {"ocean/8p fuse,cluster(maxDegree=8),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0x0777fcd52bc5a431ULL},
    {"ocean/8p fuse,cluster(maxDegree=16),postlude-interchange,scalar-replace,inner-unroll", 0xcbc821e80a8f7160ULL},
    {"ocean/8p fuse,cluster(maxDegree=16),postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=4)", 0x0777fcd52bc5a431ULL},
    {"ocean/8p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll(factor=2)", 0xcbc821e80a8f7160ULL},
    {"ocean/8p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll(factor=4)", 0xcbc821e80a8f7160ULL},
    {"ocean/8p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=2)", 0x883e45b4e1a57109ULL},
    {"ocean/8p fuse,cluster,postlude-interchange,scalar-replace,inner-unroll,prefetch(dist=8)", 0x54d084a2eb8e32e7ULL},
    {"ocean/8p fuse,cluster", 0xf009d96690956a65ULL},
    {"fuzz0-raw plain", 0xc5b2cc13c4dc1a7dULL},
    {"fuzz0-raw sched", 0x486254a04441a837ULL},
    {"fuzz0-raw sched-odd", 0x1e754e6eeb57853fULL},
    {"fuzz0-clust plain", 0xc5b2cc13c4dc1a7dULL},
    {"fuzz0-clust sched", 0x486254a04441a837ULL},
    {"fuzz0-clust sched-odd", 0x1e754e6eeb57853fULL},
    {"fuzz1-raw plain", 0x66cb9579d2d4afd4ULL},
    {"fuzz1-raw sched", 0xe013e3a06bf05a10ULL},
    {"fuzz1-raw sched-odd", 0xc8b7d048b6a35c26ULL},
    {"fuzz1-clust plain", 0x66cb9579d2d4afd4ULL},
    {"fuzz1-clust sched", 0xe013e3a06bf05a10ULL},
    {"fuzz1-clust sched-odd", 0xc8b7d048b6a35c26ULL},
    {"fuzz2-raw plain", 0xdd90a651e11dabf1ULL},
    {"fuzz2-raw sched", 0x8ca127684f4907d3ULL},
    {"fuzz2-raw sched-odd", 0x57af0af3f1e0e44fULL},
    {"fuzz2-clust plain", 0x87f72def326f437aULL},
    {"fuzz2-clust sched", 0xc7861cb54dd394b0ULL},
    {"fuzz2-clust sched-odd", 0x4db8ba9581730f8aULL},
    {"fuzz3-raw plain", 0x45db1eb16ddd2859ULL},
    {"fuzz3-raw sched", 0xc47bfccee961303dULL},
    {"fuzz3-raw sched-odd", 0xaa96b4e67312cd0fULL},
    {"fuzz3-clust plain", 0x1bc8e4ed46289919ULL},
    {"fuzz3-clust sched", 0xb820d752fb52782fULL},
    {"fuzz3-clust sched-odd", 0xba2e61f494060547ULL},
    {"fuzz4-raw plain", 0xff87afcd4343ead9ULL},
    {"fuzz4-raw sched", 0x0f31a069179c5effULL},
    {"fuzz4-raw sched-odd", 0x83c3d3e131ffba51ULL},
    {"fuzz4-clust plain", 0x30b57e1a52da3db4ULL},
    {"fuzz4-clust sched", 0x2423e7b41189bb84ULL},
    {"fuzz4-clust sched-odd", 0x64f6b4bf9bd6d400ULL},
    {"fuzz5-raw plain", 0x968f01e1def21c22ULL},
    {"fuzz5-raw sched", 0x34fb963b758666d6ULL},
    {"fuzz5-raw sched-odd", 0x586e93ea9c4f8ab2ULL},
    {"fuzz5-clust plain", 0xdbc3bb2cfcf79cb3ULL},
    {"fuzz5-clust sched", 0xb78a2cca732b5d65ULL},
    {"fuzz5-clust sched-odd", 0x511cd94c0ab2cf91ULL},
    {"fuzz6-raw plain", 0x0c96e0810b4cbb5aULL},
    {"fuzz6-raw sched", 0x57b825442d3adea4ULL},
    {"fuzz6-raw sched-odd", 0x1598ef5f5ad44b22ULL},
    {"fuzz6-clust plain", 0x0c96e0810b4cbb5aULL},
    {"fuzz6-clust sched", 0x57b825442d3adea4ULL},
    {"fuzz6-clust sched-odd", 0x1598ef5f5ad44b22ULL},
    {"fuzz7-raw plain", 0x45b986bd5d818a40ULL},
    {"fuzz7-raw sched", 0x8471805859fc1d10ULL},
    {"fuzz7-raw sched-odd", 0xda9d2cdb5a73c29eULL},
    {"fuzz7-clust plain", 0x066f1ab7734ec00bULL},
    {"fuzz7-clust sched", 0xd5a5b1b927161c05ULL},
    {"fuzz7-clust sched-odd", 0x2ff6acfa8b916b63ULL},
    {"fuzz8-raw plain", 0xbe2574a9f37f13fbULL},
    {"fuzz8-raw sched", 0x1635103dcf28df45ULL},
    {"fuzz8-raw sched-odd", 0x579e9bbf2d5333d9ULL},
    {"fuzz8-clust plain", 0xdc26a1d6bba292ceULL},
    {"fuzz8-clust sched", 0xc321014549fe9814ULL},
    {"fuzz8-clust sched-odd", 0xca1946aa3cc7c6a6ULL},
    {"fuzz9-raw plain", 0xd250f24d48939306ULL},
    {"fuzz9-raw sched", 0xe269e5a31f3e0f94ULL},
    {"fuzz9-raw sched-odd", 0x7b51a04ff8474c94ULL},
    {"fuzz9-clust plain", 0x0fada6a83d20afacULL},
    {"fuzz9-clust sched", 0x1db9977214e0f544ULL},
    {"fuzz9-clust sched-odd", 0x9f3bebae1f3d04ccULL},
    {"fuzz10-raw plain", 0xd563b5db82bde3a0ULL},
    {"fuzz10-raw sched", 0xd066bc9d3cd32cd8ULL},
    {"fuzz10-raw sched-odd", 0xbd4eb17d1601231eULL},
    {"fuzz10-clust plain", 0xd563b5db82bde3a0ULL},
    {"fuzz10-clust sched", 0xd066bc9d3cd32cd8ULL},
    {"fuzz10-clust sched-odd", 0xbd4eb17d1601231eULL},
    {"fuzz11-raw plain", 0xb333d3933175ef34ULL},
    {"fuzz11-raw sched", 0xa6a8eb6be3911eceULL},
    {"fuzz11-raw sched-odd", 0x91343eedb0a34682ULL},
    {"fuzz11-clust plain", 0xa4497862479a6c09ULL},
    {"fuzz11-clust sched", 0xb969238b413733d3ULL},
    {"fuzz11-clust sched-odd", 0xe51e50b727c94de3ULL},
    {"fuzz12-raw plain", 0x429e69d88c9aa4d1ULL},
    {"fuzz12-raw sched", 0x406abe2672a1dee3ULL},
    {"fuzz12-raw sched-odd", 0x6696a01f1bef7679ULL},
    {"fuzz12-clust plain", 0x5d6525b9fd40cfa0ULL},
    {"fuzz12-clust sched", 0x98e505a2d0b4aebeULL},
    {"fuzz12-clust sched-odd", 0x74197f0ebfcec376ULL},
    {"fuzz13-raw plain", 0x983d82cd00e8af6cULL},
    {"fuzz13-raw sched", 0x26bba967ad38fb1aULL},
    {"fuzz13-raw sched-odd", 0x743e938dd40379b8ULL},
    {"fuzz13-clust plain", 0xe1b425a8a774d594ULL},
    {"fuzz13-clust sched", 0xcf42794cc584f09aULL},
    {"fuzz13-clust sched-odd", 0x4d2b1ec519b9e32cULL},
    {"fuzz14-raw plain", 0xc5ae05936328dc37ULL},
    {"fuzz14-raw sched", 0x291cd6481bd1d339ULL},
    {"fuzz14-raw sched-odd", 0xe934f0f2d31e8127ULL},
    {"fuzz14-clust plain", 0xc5ae05936328dc37ULL},
    {"fuzz14-clust sched", 0x291cd6481bd1d339ULL},
    {"fuzz14-clust sched-odd", 0xe934f0f2d31e8127ULL},
    {"fuzz15-raw plain", 0x16d033f08f460c8eULL},
    {"fuzz15-raw sched", 0x667d40ce34754d5eULL},
    {"fuzz15-raw sched-odd", 0x36c93564ff3c02e8ULL},
    {"fuzz15-clust plain", 0x16d033f08f460c8eULL},
    {"fuzz15-clust sched", 0x667d40ce34754d5eULL},
    {"fuzz15-clust sched-odd", 0x36c93564ff3c02e8ULL},
    {"fuzz16-raw plain", 0x54dc3108956e298dULL},
    {"fuzz16-raw sched", 0x0e6532d19db01835ULL},
    {"fuzz16-raw sched-odd", 0x02ea4c3cea6ecaafULL},
    {"fuzz16-clust plain", 0x54dc3108956e298dULL},
    {"fuzz16-clust sched", 0x0e6532d19db01835ULL},
    {"fuzz16-clust sched-odd", 0x02ea4c3cea6ecaafULL},
    {"fuzz17-raw plain", 0xf91d9f906831ccb4ULL},
    {"fuzz17-raw sched", 0x755051f8e9bc4624ULL},
    {"fuzz17-raw sched-odd", 0x2c2f475ec6b5788eULL},
    {"fuzz17-clust plain", 0xe1eadf0796990c66ULL},
    {"fuzz17-clust sched", 0x4a46ce1b9b68626cULL},
    {"fuzz17-clust sched-odd", 0x4425bdfb9bb29fe8ULL},
    {"fuzz18-raw plain", 0x1472be028638f890ULL},
    {"fuzz18-raw sched", 0x778b8f41121035d0ULL},
    {"fuzz18-raw sched-odd", 0x5e25de7a664a3a74ULL},
    {"fuzz18-clust plain", 0x0299642f46e9f0a5ULL},
    {"fuzz18-clust sched", 0x605489b680cf273dULL},
    {"fuzz18-clust sched-odd", 0xb3496835065139ffULL},
    {"fuzz19-raw plain", 0x2b931035b94017dfULL},
    {"fuzz19-raw sched", 0x921ec0f2dda60925ULL},
    {"fuzz19-raw sched-odd", 0xc7fb175a81277977ULL},
    {"fuzz19-clust plain", 0x2b931035b94017dfULL},
    {"fuzz19-clust sched", 0x921ec0f2dda60925ULL},
    {"fuzz19-clust sched-odd", 0xc7fb175a81277977ULL},
    {"fuzz20-raw plain", 0x6a3457e8caca5979ULL},
    {"fuzz20-raw sched", 0x658fc01045b62343ULL},
    {"fuzz20-raw sched-odd", 0x4ff4371782d77c67ULL},
    {"fuzz20-clust plain", 0x6a3457e8caca5979ULL},
    {"fuzz20-clust sched", 0x658fc01045b62343ULL},
    {"fuzz20-clust sched-odd", 0x4ff4371782d77c67ULL},
    {"fuzz21-raw plain", 0xcb9a5785d064ed90ULL},
    {"fuzz21-raw sched", 0x88ca2d5635c4e330ULL},
    {"fuzz21-raw sched-odd", 0x3d6afdfeb6ba1190ULL},
    {"fuzz21-clust plain", 0x3a363c8edd11374aULL},
    {"fuzz21-clust sched", 0x2ae7f96e20db3a42ULL},
    {"fuzz21-clust sched-odd", 0x0114dac3d14df88aULL},
    {"fuzz22-raw plain", 0x0358bb489e0995feULL},
    {"fuzz22-raw sched", 0xe156cad2ad747a44ULL},
    {"fuzz22-raw sched-odd", 0xddb1891b30dbd834ULL},
    {"fuzz22-clust plain", 0x0358bb489e0995feULL},
    {"fuzz22-clust sched", 0xe156cad2ad747a44ULL},
    {"fuzz22-clust sched-odd", 0xddb1891b30dbd834ULL},
    {"fuzz23-raw plain", 0xbf434a9f4fc1d5c4ULL},
    {"fuzz23-raw sched", 0x4c2bc01ff0b211dcULL},
    {"fuzz23-raw sched-odd", 0x294e1720384c5faaULL},
    {"fuzz23-clust plain", 0xa61b8b25bd7927a0ULL},
    {"fuzz23-clust sched", 0xf9883aee5642e4a2ULL},
    {"fuzz23-clust sched-odd", 0x3264e26fd06809deULL},
};

void
checkLowerings(const Lowerings &lowerings)
{
    const bool print = std::getenv("MPC_GOLDEN_PRINT") != nullptr;
    std::set<std::string> names;
    for (const auto &[name, fp] : lowerings) {
        SCOPED_TRACE(name);
        EXPECT_TRUE(names.insert(name).second) << "duplicate case name";
        if (print)
            std::printf("    {\"%s\", 0x%016llxULL},\n", name.c_str(),
                        static_cast<unsigned long long>(fp));
        const auto it = kGolden.find(name);
        if (it == kGolden.end())
            ADD_FAILURE() << "no golden fingerprint";
        else
            EXPECT_EQ(fp, it->second) << std::hex << "got 0x" << fp;
    }
}

TEST(LoweringGolden, WorkloadCandidateSpecs)
{
    checkLowerings(workloadLowerings());
}

TEST(LoweringGolden, RandomKernels)
{
    checkLowerings(randomKernelLowerings());
}

} // namespace
} // namespace mpc
