/**
 * @file
 * Hot-path memory-discipline tests: the pooled Continuation type, the
 * open-addressed/dense flat maps, the predecode sidecar, and the
 * zero-allocation steady-state guarantee of the miss lifecycle
 * (alloc -> coalesce -> fill -> retire) and of core ticks, asserted
 * with a counting global allocator.
 */

#include <cstdlib>
#include <new>
#include <random>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/continuation.hh"
#include "common/flatmap.hh"
#include "cpu/core.hh"
#include "kisa/interp.hh"
#include "kisa/program.hh"
#include "mem/cache.hh"
#include "mem/eventq.hh"
#include "mem/hierarchy.hh"
#include "mem/mainmem.hh"

// ---------------------------------------------------------------------
// Counting allocator: every heap trip in this binary bumps the counter.
// ---------------------------------------------------------------------

namespace
{
std::uint64_t g_heapAllocs = 0;
std::uint64_t g_heapFrees = 0;
}

// GCC pairs the default operator new contract with std::free and warns
// at every call site; the replacement below really is malloc-backed.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void *
operator new(std::size_t size)
{
    ++g_heapAllocs;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    if (p != nullptr)
        ++g_heapFrees;
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    ::operator delete(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    ::operator delete(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    ::operator delete(p);
}

namespace mpc
{
namespace
{

// ---------------------------------------------------------------------
// Continuation storage discipline
// ---------------------------------------------------------------------

struct SmallCapture
{
    std::uint64_t *sink;
    void operator()(Tick now) { *sink += now; }
};

struct BigCapture
{
    std::uint64_t payload[4];
    std::uint64_t *sink;
    void operator()(Tick now) { *sink += now + payload[0]; }
};

static_assert(Continuation::storedInline<SmallCapture>,
              "pointer-sized captures must be inline");
static_assert(!Continuation::storedInline<BigCapture>,
              "captures beyond inlineBytes must be pooled");
static_assert(sizeof(Continuation) <= 48,
              "Continuation must fit the event queue inline buffer "
              "alongside a Tick");

TEST(Continuation, InvokesTickAndVoidCallables)
{
    std::uint64_t sum = 0;
    Continuation with_tick([&sum](Tick now) { sum += now; });
    Continuation without_tick([&sum] { sum += 1000; });
    with_tick(7);
    without_tick(0);
    EXPECT_EQ(sum, 1007u);
}

TEST(Continuation, EmptyAndMoveSemantics)
{
    Continuation empty;
    EXPECT_FALSE(static_cast<bool>(empty));

    std::uint64_t sum = 0;
    Continuation a(SmallCapture{&sum});
    EXPECT_TRUE(static_cast<bool>(a));
    Continuation b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a));
    EXPECT_TRUE(static_cast<bool>(b));
    b(5);
    EXPECT_EQ(sum, 5u);

    Continuation c;
    c = std::move(b);
    EXPECT_FALSE(static_cast<bool>(b));
    c(3);
    EXPECT_EQ(sum, 8u);
}

TEST(Continuation, InlineCapturesNeverTouchThePool)
{
    const auto before = Continuation::poolCounters().totalAllocs;
    std::uint64_t sum = 0;
    for (int i = 0; i < 100; ++i) {
        Continuation fn(SmallCapture{&sum});
        fn(1);
    }
    EXPECT_EQ(Continuation::poolCounters().totalAllocs, before);
    EXPECT_EQ(sum, 100u);
}

TEST(Continuation, PooledBlocksRecycleThroughTheFreeList)
{
    using detail::ContinuationPool;
    std::uint64_t sum = 0;

    // Hold more pooled continuations than one chunk provides, forcing
    // at least one chunk allocation, then release them all.
    const auto c0 = Continuation::poolCounters();
    {
        std::vector<Continuation> held;
        for (std::size_t i = 0; i < ContinuationPool::blocksPerChunk + 8;
             ++i)
            held.emplace_back(BigCapture{{i, 0, 0, 0}, &sum});
        const auto &mid = Continuation::poolCounters();
        EXPECT_EQ(mid.blocksInUse,
                  c0.blocksInUse + ContinuationPool::blocksPerChunk + 8);
        EXPECT_GT(mid.chunkAllocs, c0.chunkAllocs);
        for (auto &fn : held)
            fn(1);
    }
    const auto c1 = Continuation::poolCounters();
    EXPECT_EQ(c1.blocksInUse, c0.blocksInUse);
    EXPECT_GE(c1.blocksFree, ContinuationPool::blocksPerChunk + 8);

    // Exhaust-and-reuse oracle: the same burst again must be served
    // entirely from the free list — no further chunk allocations.
    {
        std::vector<Continuation> held;
        for (std::size_t i = 0; i < ContinuationPool::blocksPerChunk + 8;
             ++i)
            held.emplace_back(BigCapture{{i, 0, 0, 0}, &sum});
        EXPECT_EQ(Continuation::poolCounters().chunkAllocs,
                  c1.chunkAllocs);
    }
    EXPECT_EQ(Continuation::poolCounters().blocksInUse, c0.blocksInUse);
}

TEST(Continuation, ResetReleasesThePoolBlock)
{
    std::uint64_t sum = 0;
    const auto before = Continuation::poolCounters().blocksInUse;
    Continuation fn(BigCapture{{1, 2, 3, 4}, &sum});
    EXPECT_EQ(Continuation::poolCounters().blocksInUse, before + 1);
    fn.reset();
    EXPECT_FALSE(static_cast<bool>(fn));
    EXPECT_EQ(Continuation::poolCounters().blocksInUse, before);
}

TEST(Continuation, ExitingThreadFreesItsPoolChunks)
{
    // A thread's pool owns the chunks it allocated and frees them when
    // the thread exits: a worker that makes and drops pooled captures
    // leaves no live heap allocation behind (nor a leak report in a
    // LeakSanitizer build).
    using detail::ContinuationPool;
    std::uint64_t sum = 0;
    std::uint64_t chunks = 0;
    const std::uint64_t live_before = g_heapAllocs - g_heapFrees;
    std::thread worker([&sum, &chunks] {
        {
            std::vector<Continuation> held;
            for (std::size_t i = 0;
                 i < 2 * ContinuationPool::blocksPerChunk; ++i)
                held.emplace_back(BigCapture{{1, 0, 0, 0}, &sum});
            for (auto &fn : held)
                fn(1);
        }
        chunks = Continuation::poolCounters().chunkAllocs;
    });
    worker.join();
    EXPECT_EQ(sum, 4 * ContinuationPool::blocksPerChunk);
    EXPECT_GE(chunks, 2u);
    EXPECT_EQ(g_heapAllocs - g_heapFrees, live_before);
}

// ---------------------------------------------------------------------
// FlatAddrMap / DenseRefMap
// ---------------------------------------------------------------------

TEST(FlatAddrMap, BasicInsertFindGrow)
{
    FlatAddrMap<int> map(8);
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.find(0x40), nullptr);
    map[0x40] = 7;
    map[0x80] = 9;
    ASSERT_NE(map.find(0x40), nullptr);
    EXPECT_EQ(*map.find(0x40), 7);
    EXPECT_EQ(map.size(), 2u);

    // Push well past the initial 8 slots to force several growths.
    // 0x40/0x80 are lines 1 and 2, so they are overwritten, not added.
    for (Addr a = 1; a <= 500; ++a)
        map[a * 64] = static_cast<int>(a);
    EXPECT_EQ(map.size(), 500u);
    for (Addr a = 1; a <= 500; ++a) {
        ASSERT_NE(map.find(a * 64), nullptr) << a;
        EXPECT_EQ(*map.find(a * 64), static_cast<int>(a));
    }
}

/** Differential oracle: randomized directory-style traffic (line
 *  addresses from a few block-placed regions plus interleaved strides,
 *  mixed lookups and inserts) against std::unordered_map. */
TEST(FlatAddrMap, MatchesUnorderedMapOnRandomizedDirectoryTraffic)
{
    struct Entry
    {
        int state = 0;
        std::uint64_t sharers = 0;
    };
    FlatAddrMap<Entry> flat;
    std::unordered_map<Addr, Entry> oracle;

    std::mt19937_64 rng(0x5eed);
    const Addr regions[] = {0x100000, 0x400000, 0x10000000};
    for (int step = 0; step < 200000; ++step) {
        const Addr base = regions[rng() % 3];
        const Addr line = base + (rng() % 4096) * 64;
        if (rng() % 4 == 0) {
            // Read-only lookup: both sides must agree on presence.
            const auto it = oracle.find(line);
            const Entry *found = flat.find(line);
            ASSERT_EQ(found != nullptr, it != oracle.end()) << line;
            if (found != nullptr) {
                EXPECT_EQ(found->state, it->second.state);
                EXPECT_EQ(found->sharers, it->second.sharers);
            }
        } else {
            // Mutating access (directory entry() pattern).
            Entry &a = flat[line];
            Entry &b = oracle[line];
            a.state = b.state = static_cast<int>(rng() % 3);
            const std::uint64_t bit = 1ull << (rng() % 16);
            a.sharers |= bit;
            b.sharers |= bit;
        }
    }
    ASSERT_EQ(flat.size(), oracle.size());
    std::size_t visited = 0;
    flat.forEach([&](Addr key, const Entry &value) {
        const auto it = oracle.find(key);
        ASSERT_NE(it, oracle.end()) << key;
        EXPECT_EQ(value.state, it->second.state);
        EXPECT_EQ(value.sharers, it->second.sharers);
        ++visited;
    });
    EXPECT_EQ(visited, oracle.size());
}

TEST(DenseRefMap, InsertContainsIterateSorted)
{
    DenseRefMap<int> map;
    EXPECT_EQ(map.size(), 0u);
    EXPECT_FALSE(map.contains(3));
    map[5] = 50;
    map[1] = 10;
    map[9] = 90;
    EXPECT_EQ(map.size(), 3u);
    EXPECT_TRUE(map.contains(5));
    EXPECT_FALSE(map.contains(0));
    EXPECT_FALSE(map.contains(2));
    EXPECT_EQ(map.at(1), 10);
    ASSERT_NE(map.find(9), nullptr);
    EXPECT_EQ(*map.find(9), 90);

    // Iteration is ascending by id regardless of insertion order — the
    // property report rendering relies on for determinism.
    std::vector<std::uint32_t> ids;
    map.forEach([&](std::uint32_t id, const int &) { ids.push_back(id); });
    EXPECT_EQ(ids, (std::vector<std::uint32_t>{1, 5, 9}));

    map[1] = 11;    // update, not a new entry
    EXPECT_EQ(map.size(), 3u);
    EXPECT_EQ(map.at(1), 11);
}

// ---------------------------------------------------------------------
// Predecode sidecar
// ---------------------------------------------------------------------

/** A kernel touching every metadata class: int/fp arithmetic, loads,
 *  stores, prefetch, branches, moves. */
kisa::Program
metaProgram()
{
    using namespace kisa;
    AsmBuilder b("meta");
    const Reg r_i = 1, r_n = 2, r_base = 3;
    b.iLoadImm(r_i, 0);
    b.iLoadImm(r_n, 8);
    b.iLoadImm(r_base, 0x100000);
    auto loop = b.newLabel();
    b.bind(loop);
    b.ldF(10, r_base, 0, /*ref_id=*/0);
    b.fAdd(11, 11, 10);
    b.fMul(12, 11, 10);
    b.cvtIF(13, r_i);
    b.stF(r_base, 8, 11, /*ref_id=*/1);
    b.ldI(4, r_base, 16, /*ref_id=*/2);
    b.iAdd(5, 5, 4);
    b.stI(r_base, 24, 5, /*ref_id=*/3);
    Instr prefetch;
    prefetch.op = Op::Prefetch;
    prefetch.ra = r_base;
    prefetch.imm = 64;
    b.emit(prefetch);
    b.iAddImm(r_base, r_base, 64);
    b.iAddImm(r_i, r_i, 1);
    b.bLt(r_i, r_n, loop);
    b.halt();
    return b.finish();
}

TEST(Predecode, SidecarMatchesOpcodeHelpers)
{
    const auto program = metaProgram();
    ASSERT_EQ(program.meta.size(), program.code.size());
    for (size_t i = 0; i < program.code.size(); ++i) {
        const kisa::Instr &in = program.code[i];
        const kisa::InstrMeta &m = program.meta[i];
        EXPECT_EQ(m.cls, kisa::opClass(in.op)) << i;
        EXPECT_EQ(m.isMem, kisa::isMemOp(in.op)) << i;
        EXPECT_EQ(m.isBranch, kisa::isBranch(in.op)) << i;
        EXPECT_EQ(m.destFp, kisa::destIsFp(in.op)) << i;
        EXPECT_EQ(m.srcAFp, kisa::srcAIsFp(in.op)) << i;
        EXPECT_EQ(m.srcBFp, kisa::srcBIsFp(in.op)) << i;
        EXPECT_EQ(m, kisa::deriveMeta(in)) << i;
    }
}

/** The sidecar must agree with what step() — the single semantic
 *  definition — actually does, instruction by dynamic instruction. */
TEST(Predecode, SidecarMatchesStepResults)
{
    const auto program = metaProgram();
    kisa::MemoryImage mem;
    kisa::RegFile regs;
    int pc = 0;
    std::uint64_t steps = 0;
    for (;;) {
        const kisa::InstrMeta &m = program.meta[static_cast<size_t>(pc)];
        const auto res = kisa::step(program, pc, regs, mem);
        EXPECT_EQ(m.isMem, res.isMem) << "pc " << pc;
        if (res.isMem) {
            // A memory op is a read exactly when predecode classified
            // it MemRead (loads and nonbinding prefetches).
            EXPECT_EQ(m.cls == kisa::OpClass::MemRead, res.isLoad)
                << "pc " << pc;
        }
        if (!m.isBranch) {
            EXPECT_FALSE(res.branchTaken) << "pc " << pc;
        }
        pc = res.nextPc;
        if (res.halted)
            break;
        ASSERT_LT(++steps, 10000u) << "runaway program";
    }
    EXPECT_GT(steps, 50u);
}

// ---------------------------------------------------------------------
// Zero-allocation steady state
// ---------------------------------------------------------------------

/** Drive one full miss lifecycle (access, downstream fetch, fill,
 *  completion) per address through a cache over main memory. */
std::uint64_t
runMissRound(mem::EventQueue &eq, mem::Cache &cache, int misses)
{
    std::uint64_t completions = 0;
    for (int i = 0; i < misses; ++i) {
        // Two loads to the same line (second coalesces) plus a write to
        // the next line: exercises allocate, coalesce, fill and the
        // write-allocate path every iteration.
        const Addr addr = 0x100000 + static_cast<Addr>(i) * 128;
        const auto status = cache.loadAccess(
            addr, 0, [&completions](Tick) { ++completions; });
        EXPECT_EQ(status, mem::Cache::Status::Ok);
        const auto coalesced = cache.loadAccess(
            addr + 8, 0, [&completions](Tick) { ++completions; });
        EXPECT_EQ(coalesced, mem::Cache::Status::Ok);
        const auto wrote = cache.writeAccess(
            addr + 64, 1, [&completions](Tick) { ++completions; });
        EXPECT_EQ(wrote, mem::Cache::Status::Ok);
        while (!eq.empty())
            eq.advanceTo(eq.nextEventTick());
    }
    return completions;
}

TEST(ZeroAlloc, SteadyStateMissLifecycleNeverTouchesTheHeap)
{
    mem::EventQueue eq;
    mem::CacheConfig cfg;
    cfg.sizeBytes = 8 * 1024;   // 128 lines: every round evicts
    cfg.numMshrs = 8;
    cfg.numPorts = 4;           // three same-cycle accesses per round
    mem::Cache cache(eq, cfg, false, true);
    mem::MemBusConfig bus;
    mem::MainMemory mm(eq, bus, cfg.lineBytes);
    cache.setDownstream(&mm);

    // Warm-up: populate the continuation pool, the event queue's node
    // pool and wheel chunks, and circulate MSHR target capacity.
    const auto warm = runMissRound(eq, cache, 400);
    EXPECT_EQ(warm, 3u * 400u);

    // Steady state: identical traffic must perform ZERO heap
    // allocations — the acceptance bar for the pooled hot path.
    const std::uint64_t before = g_heapAllocs;
    const auto steady = runMissRound(eq, cache, 400);
    const std::uint64_t after = g_heapAllocs;
    EXPECT_EQ(steady, 3u * 400u);
    EXPECT_EQ(after - before, 0u)
        << (after - before) << " heap allocations in steady state";

    EXPECT_GT(cache.stats().loadMisses, 0u);
    EXPECT_GT(cache.stats().loadCoalesced, 0u);
    EXPECT_GT(cache.stats().writebacks, 0u);
}

TEST(ZeroAlloc, SteadyStateCoreTicksNeverTouchTheHeap)
{
    // A miss-bound loop (a 32 KB sweep through 2 KB/8 KB caches) with
    // FP dependence chains and stores: loads wait on outstanding
    // misses, consumers sit on producer lists, address generation goes
    // through the wake heap, stores drain through the write buffer.
    kisa::AsmBuilder b("sweep");
    b.iLoadImm(3, 512);         // lines per sweep
    b.iLoadImm(7, 0);
    b.iLoadImm(8, 1000);        // sweeps (never reached in this test)
    auto outer = b.newLabel();
    auto inner = b.newLabel();
    b.bind(outer);
    b.iLoadImm(1, 0x100000);
    b.iLoadImm(2, 0);
    b.bind(inner);
    b.ldF(3, 1, 0, 0);
    b.ldF(4, 1, 8, 1);
    b.fMul(5, 3, 4);
    b.fAdd(6, 6, 5);
    b.ldI(5, 1, 16, 2);
    b.iAdd(6, 6, 5);
    b.stF(1, 24, 6, 3);
    b.iAddImm(1, 1, 64);
    b.iAddImm(2, 2, 1);
    b.bLt(2, 3, inner);
    b.iAddImm(7, 7, 1);
    b.bLt(7, 8, outer);
    b.halt();
    const kisa::Program program = b.finish();

    mem::EventQueue eq;
    mem::MemHierarchy::Config hc;
    hc.l1.sizeBytes = 2 * 1024;
    hc.l2.sizeBytes = 8 * 1024;
    mem::MemHierarchy hier(eq, hc);
    mem::MainMemory mm(eq, mem::MemBusConfig{}, hc.l2.lineBytes);
    hier.setDownstream(&mm);
    kisa::MemoryImage image;
    cpu::Core core(0, eq, cpu::CoreConfig{}, program, image, hier, nullptr);

    Tick cycle = 0;
    auto run = [&](Tick cycles) {
        for (Tick end = cycle + cycles; cycle < end; ++cycle) {
            eq.advanceTo(cycle);
            core.tick();
        }
    };
    // Warm-up: two full sweeps touch every page of the functional
    // image and size the pools, the event queue and the write buffer.
    while (core.stats().retired < 2 * 512 * 10)
        run(1000);

    const std::uint64_t retired = core.stats().retired;
    const std::uint64_t before = g_heapAllocs;
    run(20000);
    const std::uint64_t after = g_heapAllocs;
    EXPECT_EQ(after - before, 0u)
        << (after - before) << " heap allocations in steady-state ticks";
    EXPECT_GT(core.stats().retired - retired, 1000u);
    EXPECT_FALSE(core.done());
    EXPECT_GT(hier.l2().stats().loadMisses, 0u);
}

} // namespace
} // namespace mpc
