/**
 * @file
 * Golden timing fingerprints. Seeded random kernels, seeded synthetic
 * programs and small fixed workloads run under seeded random core and
 * memory configurations, in both step modes, and every run's full
 * RunResult must hash to a committed FNV-1a value.
 *
 * test_fastpath compares skip-ahead stepping against reference
 * stepping, but both run the same core model, so a change that shifts
 * a counter in both modes alike passes it. This table pins the cycle
 * model itself: a host-side optimization of the core must reproduce
 * every fingerprint unchanged. Regenerate the table only for a
 * deliberate timing-model change; MPC_GOLDEN_PRINT=1 prints it.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "codegen/codegen.hh"
#include "common/rng.hh"
#include "harness/manifest.hh"
#include "harness/runner.hh"
#include "kisa/program.hh"
#include "random_kernel.hh"
#include "system/system.hh"
#include "transform/transforms.hh"
#include "workloads/workload.hh"

namespace mpc
{
namespace
{

using kisa::AsmBuilder;
using kisa::Program;

// ------------------------------------------------------- fingerprint

void
putSummary(std::ostringstream &os, const StatSummary &s)
{
    os << s.count() << ' ' << s.sum() << ' ' << s.min() << ' '
       << s.max() << ' ';
}

void
putCache(std::ostringstream &os, const mem::Cache::Stats &c)
{
    os << c.loads << ' ' << c.loadHits << ' ' << c.loadMisses << ' '
       << c.loadCoalesced << ' ' << c.writes << ' ' << c.writeHits << ' '
       << c.writeMisses << ' ' << c.writeCoalesced << ' ' << c.upgrades
       << ' ' << c.rejectsPort << ' ' << c.rejectsMshr << ' '
       << c.writebacks << ' ' << c.fills << ' ';
    putSummary(os, c.missLatency);
    c.perRef.forEach([&](std::uint32_t ref, const auto &counts) {
        os << 'r' << ref << ':' << counts.accesses << '/' << counts.misses
           << ' ';
    });
}

void
putHistogram(std::ostringstream &os, const OccupancyHistogram &h)
{
    os << h.totalTicks() << ':';
    for (int l = 0; l <= h.maxLevel(); ++l)
        os << h.ticksAt(l) << ',';
    os << ' ';
}

/** Every field of a RunResult (doubles as exact hex floats). */
std::string
resultText(const sys::RunResult &r)
{
    std::ostringstream os;
    os << std::hexfloat;
    os << r.cycles << ' ' << r.nsPerCycle << ' ' << r.instructions << ' '
       << r.busyCycles << ' ' << r.dataReadCycles << ' '
       << r.dataWriteCycles << ' ' << r.syncCycles << ' ' << r.cpuCycles
       << ' ' << r.instrCycles << " | ";
    putCache(os, r.l1);
    os << "| ";
    putCache(os, r.l2);
    os << "| ";
    putHistogram(os, r.l2ReadMshr);
    putHistogram(os, r.l2TotalMshr);
    os << r.busUtilization << ' ' << r.bankUtilization << " | ";
    const auto &f = r.fabric;
    os << f.localReqs << ' ' << f.remoteReqs << ' ' << f.cacheToCache
       << ' ' << f.invalidations << ' ' << f.writebacks << ' ';
    putSummary(os, f.localLatency);
    putSummary(os, f.remoteLatency);
    putSummary(os, f.c2cLatency);
    for (const auto &c : r.cores) {
        os << "| " << c.doneTick << ' ' << c.retired << ' ' << c.loads
           << ' ' << c.stores << ' ' << c.mispredicts << ' ' << c.branches
           << ' ' << c.busySlots << ' ' << c.dataReadSlots << ' '
           << c.dataWriteSlots << ' ' << c.syncSlots << ' ' << c.cpuSlots
           << ' ';
        putSummary(os, c.loadMissLatency);
        putSummary(os, c.longMissLatency);
    }
    os << "| obs=" << r.obsMetrics.enabled;
    return os.str();
}

// ------------------------------------------------------ random configs

/** A seeded core and cache configuration. Windows include non-powers
 *  of two; caches are small so the tiny kernels still miss. */
sys::SystemConfig
randomConfig(std::uint64_t seed)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 11);
    sys::SystemConfig cfg = sys::baseConfig();
    cpu::CoreConfig &c = cfg.core;
    static const int kWindows[] = {3, 5, 8, 12, 16, 24, 33, 48, 64, 100};
    c.windowSize = kWindows[rng.below(std::size(kWindows))];
    c.fetchWidth = 1 + static_cast<int>(rng.below(6));
    c.issueWidth = 1 + static_cast<int>(rng.below(6));
    c.retireWidth = 1 + static_cast<int>(rng.below(6));
    c.memQueueSize = 1 + static_cast<int>(rng.below(24));
    c.maxBranches = 1 + static_cast<int>(rng.below(8));
    c.numAlus = 1 + static_cast<int>(rng.below(3));
    c.numFpus = 1 + static_cast<int>(rng.below(2));
    c.numAddrUnits = 1 + static_cast<int>(rng.below(3));
    c.latIntMul = 2 + rng.below(8);
    c.latFpArith = 1 + rng.below(4);
    c.latFpDiv = 4 + rng.below(20);
    c.latAddrGen = 1 + rng.below(2);
    c.mispredictPenalty = rng.below(6);
    c.predictorEntries = 1 + static_cast<int>(rng.below(64));
    c.storeIssueWidth = 1 + static_cast<int>(rng.below(3));

    auto &h = cfg.hier;
    h.l1.sizeBytes = std::uint64_t(512) << rng.below(3);
    h.l1.assoc = 1 + static_cast<int>(rng.below(2));
    h.l1.numMshrs = 1 + static_cast<int>(rng.below(8));
    h.l1.numPorts = 1 + static_cast<int>(rng.below(2));
    h.l2.sizeBytes = std::uint64_t(4096) << rng.below(3);
    h.l2.assoc = 2;
    h.l2.numMshrs = 1 + static_cast<int>(rng.below(10));
    return cfg;
}

/** The tightest machine: one MSHR and one port per cache level, a
 *  one-entry branch predictor and a tiny memory queue, so loads retry
 *  in WaitCache and branches mispredict. */
sys::SystemConfig
starvedConfig(int window)
{
    sys::SystemConfig cfg = sys::baseConfig();
    cfg.core.windowSize = window;
    cfg.core.memQueueSize = 4;
    cfg.core.predictorEntries = 1;
    cfg.core.numFpus = 1;
    cfg.hier.l1.sizeBytes = 512;
    cfg.hier.l1.numMshrs = 1;
    cfg.hier.l1.numPorts = 1;
    cfg.hier.l2.sizeBytes = 4096;
    cfg.hier.l2.numMshrs = 1;
    return cfg;
}

// ------------------------------------------------- synthetic programs

constexpr Addr kDataBase = 0x100000;     // per-core private stripes
constexpr Addr kSharedBase = 0x800000;   // read/write shared lines
constexpr Addr kFlagBase = 0x900000;     // one flag line per core
constexpr Addr kStripe = 0x10000;

/** Data words are below 2^62, so the programs' integer arithmetic
 *  (xor, masked multiplies, small increments) never overflows. */
void
initSynthImage(kisa::MemoryImage &image, int procs, std::uint64_t seed)
{
    Rng rng(seed + 3);
    for (int c = 0; c < procs; ++c)
        for (Addr off = 0; off < 0x3000; off += 8)
            image.st64(kDataBase + static_cast<Addr>(c) * kStripe + off,
                       rng.next() >> 2);
    for (Addr off = 0; off < 0x400; off += 8)
        image.st64(kSharedBase + off, rng.next() >> 2);
}

/**
 * One seeded loop body over a walking pointer: loads, stores, software
 * prefetches, NOPs, integer multiplies, blocking FP divides and square
 * roots, and data-dependent forward branches the predictor gets wrong.
 * r1 walks the data, r2 counts iterations up to r3, r4 is zero, r14
 * and r15 hold the 16-bit multiply operands.
 */
void
emitSynthLoop(AsmBuilder &b, Rng &rng, int trips, bool touch_shared)
{
    b.iLoadImm(2, 0);
    b.iLoadImm(3, trips);
    auto top = b.newLabel();
    b.bind(top);
    const int body = 6 + static_cast<int>(rng.below(20));
    auto ireg = [&] { return static_cast<kisa::Reg>(5 + rng.below(4)); };
    auto freg = [&] { return static_cast<kisa::Reg>(3 + rng.below(4)); };
    auto disp = [&] { return static_cast<std::int64_t>(8 * rng.below(64)); };
    for (int k = 0; k < body; ++k) {
        switch (rng.below(13)) {
          case 0: b.ldI(ireg(), 1, disp(), 1); break;
          case 1: b.ldF(freg(), 1, disp(), 2); break;
          case 2: b.stI(1, disp(), ireg(), 3); break;
          case 3: b.stF(1, disp(), freg(), 4); break;
          case 4: {
            kisa::Instr pf;
            pf.op = kisa::Op::Prefetch;
            pf.ra = 1;
            pf.imm = 512 + disp();
            pf.refId = 5;
            b.emit(pf);
            break;
          }
          case 5: b.iXor(ireg(), ireg(), ireg()); break;
          case 6:
            b.iAndImm(14, ireg(), 0xffff);
            b.iAndImm(15, ireg(), 0xffff);
            b.iMul(ireg(), 14, 15);
            break;
          case 7: b.fDiv(freg(), freg(), 1); break;
          case 8: b.fSqrt(freg(), 2); break;
          case 9: b.emit(kisa::Instr{}); break;     // Nop
          case 10: b.fAdd(freg(), freg(), freg()); break;
          case 11: {
            b.iAndImm(9, ireg(), 1);
            auto skip = b.newLabel();
            b.bEq(9, 4, skip);
            const kisa::Reg r = ireg();
            b.iAddImm(r, r, 1);
            b.bind(skip);
            break;
          }
          default:
            if (touch_shared) {
                b.iLoadImm(10, static_cast<std::int64_t>(kSharedBase));
                const auto off = static_cast<std::int64_t>(
                    64 * rng.below(16));
                if (rng.below(2))
                    b.stI(10, off, ireg(), 6);
                else
                    b.ldI(ireg(), 10, off, 7);
            } else {
                b.ldI(ireg(), 1, disp(), 8);
            }
            break;
        }
    }
    b.iAddImm(1, 1, 64);
    b.iAddImm(2, 2, 1);
    b.bLt(2, 3, top);
}

void
emitPrologue(AsmBuilder &b, int core)
{
    b.iLoadImm(1, static_cast<std::int64_t>(
                      kDataBase + static_cast<Addr>(core) * kStripe));
    b.iLoadImm(4, 0);
    b.fLoadImm(1, 1.5);
    b.fLoadImm(2, 0.75);
}

std::vector<Program>
synthUni(std::uint64_t seed)
{
    Rng rng(seed);
    AsmBuilder b("synth");
    emitPrologue(b, 0);
    emitSynthLoop(b, rng, 8 + static_cast<int>(rng.below(40)), false);
    b.halt();
    return {b.finish()};
}

/** Per-core synthetic phases separated by barriers, with read/write
 *  sharing of a few lines between cores. */
std::vector<Program>
synthBarrier(std::uint64_t seed, int procs)
{
    std::vector<Program> ps;
    for (int c = 0; c < procs; ++c) {
        Rng rng(seed * 31 + static_cast<std::uint64_t>(c));
        AsmBuilder b("synth-barrier");
        emitPrologue(b, c);
        for (int phase = 0; phase < 3; ++phase) {
            emitSynthLoop(b, rng, 4 + static_cast<int>(rng.below(16)),
                          true);
            b.barrier();
        }
        b.halt();
        ps.push_back(b.finish());
    }
    return ps;
}

/** A flag pipeline: core c waits for core c-1's flag to reach i+1,
 *  runs iteration i, then publishes its own flag = i+1. */
std::vector<Program>
synthFlags(std::uint64_t seed, int procs)
{
    std::vector<Program> ps;
    for (int c = 0; c < procs; ++c) {
        Rng rng(seed * 17 + static_cast<std::uint64_t>(c));
        AsmBuilder b("synth-flags");
        emitPrologue(b, c);
        b.iLoadImm(11, static_cast<std::int64_t>(kFlagBase));
        b.iLoadImm(12, 0);      // iteration
        b.iLoadImm(13, 6);      // iterations
        auto top = b.newLabel();
        b.bind(top);
        b.iAddImm(12, 12, 1);
        if (c > 0)
            b.flagWait(11, (c - 1) * 64, 12);
        emitSynthLoop(b, rng, 2 + static_cast<int>(rng.below(6)), true);
        b.stI(11, c * 64, 12, 9);
        b.bLt(12, 13, top);
        b.halt();
        ps.push_back(b.finish());
    }
    return ps;
}

sys::RunResult
runPrograms(std::vector<Program> programs, sys::SystemConfig cfg,
            bool skip, const std::function<void(kisa::MemoryImage &)> &init)
{
    cfg.skipAhead = skip;
    kisa::MemoryImage image;
    init(image);
    sys::System system(cfg, std::move(programs), image);
    return system.run();
}

// -------------------------------------------------------------- cases

struct Case
{
    std::string name;
    std::function<sys::RunResult(bool skip)> run;
};

/** Random kernels: uniprocessor base and clustered schedules, some
 *  with software prefetches, and 2-4 core partitions with a barrier. */
std::vector<Case>
randomKernelCases()
{
    std::vector<Case> cases;
    for (std::uint64_t seed = 1; seed <= 32; ++seed) {
        const int procs = seed % 4 == 0 ? 2 + static_cast<int>(seed % 3)
                                        : 1;
        cases.push_back({"kernel" + std::to_string(seed),
                         [seed, procs](bool skip) {
            fuzz::RandomKernel rk(seed);
            ir::Kernel k = rk.kernel.clone();
            if (seed % 3 == 0)
                transform::insertPrefetches(k, 2);
            if (procs > 1) {
                k.body[0]->parallel = true;
                k.body.push_back(ir::barrier());
            }
            auto programs = codegen::lowerForCores(k, procs, seed % 2 == 1);
            return runPrograms(std::move(programs), randomConfig(seed),
                               skip, [&](kisa::MemoryImage &m) {
                                   rk.fill(m, seed);
                               });
        }});
    }
    return cases;
}

std::vector<Case>
synthCases()
{
    std::vector<Case> cases;
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        cases.push_back({"synth" + std::to_string(seed), [seed](bool skip) {
            return runPrograms(synthUni(seed), randomConfig(seed + 100),
                               skip, [&](kisa::MemoryImage &m) {
                                   initSynthImage(m, 1, seed);
                               });
        }});
    }
    for (int window : {5, 33, 64}) {
        cases.push_back({"starved" + std::to_string(window),
                         [window](bool skip) {
            const std::uint64_t seed = 40 + static_cast<std::uint64_t>(window);
            return runPrograms(synthUni(seed), starvedConfig(window), skip,
                               [&](kisa::MemoryImage &m) {
                                   initSynthImage(m, 1, seed);
                               });
        }});
    }
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const int procs = 2 + static_cast<int>(seed % 3);
        cases.push_back({"barrier" + std::to_string(seed),
                         [seed, procs](bool skip) {
            return runPrograms(synthBarrier(seed, procs),
                               randomConfig(seed + 200), skip,
                               [&](kisa::MemoryImage &m) {
                                   initSynthImage(m, procs, seed);
                               });
        }});
        cases.push_back({"flags" + std::to_string(seed),
                         [seed, procs](bool skip) {
            return runPrograms(synthFlags(seed, procs),
                               randomConfig(seed + 300), skip,
                               [&](kisa::MemoryImage &m) {
                                   initSynthImage(m, procs, seed);
                               });
        }});
    }
    return cases;
}

/** The paper's applications at the smallest input scale. */
std::vector<Case>
workloadCases()
{
    struct W
    {
        const char *app;
        int procs;
        bool clustered;
        std::uint64_t seed;
    };
    static const W kRuns[] = {
        {"lu", 4, false, 1},    // flag-based pipelining
        {"ocean", 4, true, 2},  // barriers
        {"em3d", 2, true, 3},
        {"latbench", 1, true, 4},
        {"mst", 1, false, 5},
        {"fft", 2, true, 6},
        {"erlebacher", 2, false, 7},
    };
    std::vector<Case> cases;
    for (const W &w : kRuns) {
        cases.push_back({std::string(w.app) + std::to_string(w.procs) + "p" +
                             (w.clustered ? "-clust" : "-base"),
                         [w](bool skip) {
            workloads::SizeParams size;
            size.scale = 1;
            harness::RunSpec spec;
            spec.config.core = randomConfig(w.seed + 400).core;
            spec.config.skipAhead = skip;
            spec.procs = w.procs;
            spec.clustered = w.clustered;
            return harness::runWorkload(workloads::makeByName(w.app, size),
                                        spec)
                .result;
        }});
    }
    return cases;
}

// ------------------------------------------------------------- goldens

/** Captured from the cycle model before the event-driven issue logic
 *  replaced the per-tick window scans; it must reproduce them. */
const std::map<std::string, std::uint64_t> kGolden = {
    {"kernel1", 0x34d5d381606cf08cULL},
    {"kernel2", 0x53cc21508506a98dULL},
    {"kernel3", 0x0b80ee0ee7718532ULL},
    {"kernel4", 0x01cb4ba5bf874626ULL},
    {"kernel5", 0xec5aacadb0a926caULL},
    {"kernel6", 0x339425bd6ca73a9bULL},
    {"kernel7", 0x9d5795bee50c4a70ULL},
    {"kernel8", 0xc57655e7555e0d24ULL},
    {"kernel9", 0x534b1f53ad39f74cULL},
    {"kernel10", 0x435c2f8e71ad1ab6ULL},
    {"kernel11", 0x8e3c9935c8ad5879ULL},
    {"kernel12", 0x0f0c35560e46ea8aULL},
    {"kernel13", 0x88df8a85cd6db740ULL},
    {"kernel14", 0x1af143446369ad48ULL},
    {"kernel15", 0x144a19359803784aULL},
    {"kernel16", 0xff12658ec30010f7ULL},
    {"kernel17", 0xd75061c99c103950ULL},
    {"kernel18", 0xc8b3408ee6f4865aULL},
    {"kernel19", 0x4c5c08a32e732c44ULL},
    {"kernel20", 0xba3ffc696b0e82d2ULL},
    {"kernel21", 0x545dd66fad6cba1bULL},
    {"kernel22", 0x2c8044e613a49166ULL},
    {"kernel23", 0x2372968a00bda16dULL},
    {"kernel24", 0x3f4893debf92b561ULL},
    {"kernel25", 0xe7c164fbd102acceULL},
    {"kernel26", 0x8aa5e2d55b632ed0ULL},
    {"kernel27", 0xe76a534f7ff3b8d8ULL},
    {"kernel28", 0x40a99f9ce7e2e0b5ULL},
    {"kernel29", 0x27b5a54323d60428ULL},
    {"kernel30", 0x4e451a5773ef459aULL},
    {"kernel31", 0x2e3e19d020001c0cULL},
    {"kernel32", 0x02dec437b50149b0ULL},
    {"synth1", 0x4e667a133f51506fULL},
    {"synth2", 0x7e16735eba8fa00fULL},
    {"synth3", 0xe11a63ea4a2d3abeULL},
    {"synth4", 0xa827c2a009558a86ULL},
    {"synth5", 0xd7f037afda077779ULL},
    {"synth6", 0x8daeffa6cb2e53f0ULL},
    {"synth7", 0xfb6b38d5e9733b2fULL},
    {"synth8", 0xc1fae322eff68838ULL},
    {"synth9", 0xa6a621f6dc67c4afULL},
    {"synth10", 0x79c2593a6ada50eeULL},
    {"synth11", 0x476f0db38062b803ULL},
    {"synth12", 0xc05c7a9a4249aee3ULL},
    {"synth13", 0xeef1e07fa0c7041dULL},
    {"synth14", 0x9a34eb89b9fe8540ULL},
    {"synth15", 0xa7a0a098510c1593ULL},
    {"synth16", 0x0a69e7e0e6c18b91ULL},
    {"synth17", 0x8e0e6fe66eee0b83ULL},
    {"synth18", 0xc83ab661ce300970ULL},
    {"synth19", 0x47ad20ff9de02865ULL},
    {"synth20", 0xd7541d47f50af5c0ULL},
    {"synth21", 0x51c965a33da00fbfULL},
    {"synth22", 0x6d91663dd27a8ab8ULL},
    {"synth23", 0x155f23910e63cff4ULL},
    {"synth24", 0xe3cd2cafedadd4e7ULL},
    {"starved5", 0x8aa05476f88d409eULL},
    {"starved33", 0x97e48badd80a53c9ULL},
    {"starved64", 0xb6f13ca7a913e012ULL},
    {"barrier1", 0xe26b33fed4b39389ULL},
    {"flags1", 0xab3cf0e37a707259ULL},
    {"barrier2", 0xbcd71db334350ff3ULL},
    {"flags2", 0x94c95a869216357aULL},
    {"barrier3", 0x422e480ffe647fb3ULL},
    {"flags3", 0xad5b473f13e6d12eULL},
    {"barrier4", 0x27f22448c12a48b1ULL},
    {"flags4", 0x7a9d43060cc7fc5fULL},
    {"barrier5", 0x813e897c69a8fdb6ULL},
    {"flags5", 0x99a1e0cad4414062ULL},
    {"barrier6", 0x5ac2a8125bb9d4bdULL},
    {"flags6", 0xd9f70232ef39849bULL},
    {"barrier7", 0xe2a16df67c8a50dcULL},
    {"flags7", 0x0d22c45e6d0c2737ULL},
    {"barrier8", 0x05daef39e8ce110fULL},
    {"flags8", 0xeca065116dd9985fULL},
    {"lu4p-base", 0xa203c2fdbaf0f033ULL},
    {"ocean4p-clust", 0x6c63e72e3fdd7208ULL},
    {"em3d2p-clust", 0x79b515b778d7d129ULL},
    {"latbench1p-clust", 0x5345fc70b5434ffbULL},
    {"mst1p-base", 0x94bdde8b5c31c505ULL},
    {"fft2p-clust", 0xf0ce7a7539420273ULL},
    {"erlebacher2p-base", 0x340c4a67b2dd4d60ULL},
};

/** Runs every case in both step modes; returns the skip-mode results
 *  for coverage checks. */
std::vector<sys::RunResult>
checkCases(const std::vector<Case> &cases)
{
    const bool print = std::getenv("MPC_GOLDEN_PRINT") != nullptr;
    std::vector<sys::RunResult> results;
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        const sys::RunResult skip = c.run(true);
        const std::string text = resultText(skip);
        EXPECT_EQ(text, resultText(c.run(false)))
            << "skip-ahead and reference stepping disagree";
        const std::uint64_t fp = harness::fnv1a(text);
        if (print)
            std::printf("    {\"%s\", 0x%016llxULL},\n", c.name.c_str(),
                        static_cast<unsigned long long>(fp));
        const auto it = kGolden.find(c.name);
        if (it == kGolden.end())
            ADD_FAILURE() << "no golden fingerprint";
        else
            EXPECT_EQ(fp, it->second) << std::hex << "got 0x" << fp;
        results.push_back(skip);
    }
    return results;
}

TEST(TimingGolden, RandomKernels)
{
    const auto results = checkCases(randomKernelCases());
    std::uint64_t mshr_rejects = 0;
    for (const auto &r : results)
        mshr_rejects += r.l1.rejectsMshr + r.l2.rejectsMshr;
    EXPECT_GT(mshr_rejects, 0u);
}

TEST(TimingGolden, SyntheticPrograms)
{
    const auto results = checkCases(synthCases());
    // The sweep must reach the hazards the fingerprints guard: cache
    // retries, mispredicts, and barrier/flag synchronization.
    std::uint64_t rejects = 0, mispredicts = 0, sync = 0;
    for (const auto &r : results) {
        rejects += r.l1.rejectsMshr + r.l1.rejectsPort;   // load retries
        for (const auto &c : r.cores) {
            mispredicts += c.mispredicts;
            sync += c.syncSlots;
        }
    }
    EXPECT_GT(rejects, 0u);
    EXPECT_GT(mispredicts, 0u);
    EXPECT_GT(sync, 0u);
}

TEST(TimingGolden, SmallWorkloads)
{
    checkCases(workloadCases());
}

} // namespace
} // namespace mpc
