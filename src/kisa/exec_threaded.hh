/**
 * @file
 * Threaded-code execution tier for KISA programs.
 *
 * The golden-model interpreter (interp.hh) decodes every dynamic
 * instruction through step()'s opcode switch and routes every memory
 * access through the MemoryImage hash map. That cost is paid constantly:
 * the profiler replays whole workloads functionally, and per-pass
 * verification (MPC_VERIFY_PASSES=1) re-interprets the kernel after
 * every pipeline pass. This tier compiles a Program once into a flat
 * array of OpRec records — operands pre-extracted, branch targets
 * bounds-checked at compile time, handler selected per instruction —
 * and dispatches with computed gotos where the compiler supports them
 * (a switch loop otherwise). Loads and stores go through a small
 * direct-mapped page-pointer cache instead of the hash map.
 *
 * Semantics are defined by step(): every record either inlines the
 * exact effect of its opcode or (for opcodes this tier does not know)
 * traps to step() itself, so the two tiers cannot diverge on supported
 * programs and degrade gracefully — never wrongly — on unsupported
 * ones. The differential tests (test_exec.cc) assert register files,
 * memory images, and array checksums bit-identical across tiers.
 *
 * Tier selection is environmental: MPC_EXEC_TIER=interp|threaded
 * (default threaded) read by execTierFromEnv(), and the execute() /
 * executeWithHook() entry points below run a program set on whichever
 * tier is selected. The memory hook is a template parameter exactly as
 * in Interpreter::runWithHook, so profiling callers pay an inlined call
 * per access on either tier.
 */

#ifndef MPC_KISA_EXEC_THREADED_HH
#define MPC_KISA_EXEC_THREADED_HH

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "kisa/interp.hh"
#include "kisa/memimage.hh"
#include "kisa/program.hh"

namespace mpc::kisa
{

/** Which backend executes a program functionally. */
enum class ExecTier
{
    Interp,     ///< step()-per-instruction golden model (interp.hh)
    Threaded,   ///< predecoded threaded-code tier (this file)
};

/**
 * Tier selected by the process-wide pin when set (pinExecTier), else by
 * MPC_EXEC_TIER ("interp" | "threaded"; unset or empty means threaded;
 * anything else is fatal). The environment is read fresh on every
 * unpinned call — no static cache — so tests can flip the knob with
 * setenv.
 */
ExecTier execTierFromEnv();

/**
 * Pin the tier for the whole process, overriding MPC_EXEC_TIER until
 * clearExecTierPin(). Tools that take a --exec-tier flag resolve the
 * flag/environment precedence ONCE at startup and pin the result, so a
 * run cannot mix tiers if the environment changes mid-invocation (and
 * a flag always beats an inherited environment variable).
 */
void pinExecTier(ExecTier tier);
void clearExecTierPin();

/** Is a pin currently in force? (tests) */
bool execTierPinned();

/** "interp" or "threaded". */
const char *execTierName(ExecTier tier);

namespace detail
{

/** Handler index of a known opcode is its Op value; one extra handler
 *  traps to step() for anything the tier does not implement. */
constexpr std::uint8_t trapHandler =
    static_cast<std::uint8_t>(Op::Halt) + 1;

/**
 * Superinstruction handlers, assigned by the predecode peephole to the
 * FIRST record of an adjacent sequence the lowered code emits
 * constantly (address generation: shift-scale, add base, then often
 * the memory access itself; and the counted-loop back-edge). A fused
 * handler executes every constituent op's architectural effects in
 * order — intermediate register writes included — and retires them
 * all, so results and instruction counts are bit-identical to the
 * unfused sequence; only the dispatches in between are saved. The
 * swallowed slots keep their original single-op handlers, so a branch
 * (or a barrier resume) landing mid-sequence just executes unfused.
 */
constexpr std::uint8_t fusedShlAdd = trapHandler + 1;
constexpr std::uint8_t fusedShlAddLdI = trapHandler + 2;
constexpr std::uint8_t fusedShlAddLdF = trapHandler + 3;
constexpr std::uint8_t fusedShlAddStI = trapHandler + 4;
constexpr std::uint8_t fusedShlAddStF = trapHandler + 5;
constexpr std::uint8_t fusedAddImmBLt = trapHandler + 6;
constexpr std::size_t numHandlers = fusedAddImmBLt + 1;

/**
 * One predecoded op record: the operand fields a handler needs, laid
 * out flat so the dispatch loop never touches the source Instr (the
 * source pc is kept for the memory hook and the trap fallback).
 */
struct OpRec
{
    std::int64_t imm = 0;
    std::int32_t target = -1;
    std::int32_t pc = 0;    ///< source instruction index
    Reg rd = noReg;
    Reg ra = noReg;
    Reg rb = noReg;
    std::uint8_t handler = trapHandler;
};

} // namespace detail

/**
 * A Program compiled to threaded code: one OpRec per instruction (so
 * branch targets are record indices) plus a trailing trap sentinel, so
 * running off the end reaches step() and reproduces the interpreter's
 * "pc out of range" assertion. Compilation bounds-checks branch targets
 * using the InstrMeta predecode sidecar; branches with out-of-range
 * targets are routed to the trap handler, which faults only if they
 * are actually taken — the same laziness the interpreter has.
 */
class ThreadedProgram
{
  public:
    explicit ThreadedProgram(const Program &program);

    const Program &source() const { return *source_; }

    /** Instructions routed to the interpreter-fallback trap handler. */
    std::size_t trapCount() const { return trapCount_; }

    /** Superinstructions formed by the predecode peephole (tests). */
    std::size_t fusedCount() const { return fusedCount_; }

  private:
    friend class ThreadedExecutor;

    const Program *source_;
    std::vector<detail::OpRec> recs_;   ///< code.size() + 1 (sentinel)
    std::size_t trapCount_ = 0;
    std::size_t fusedCount_ = 0;
};

/**
 * Threaded-code twin of Interpreter: same construction, addCore,
 * run/runWithHook surface, and exactly the interpreter's multi-core
 * semantics — cores stepped round-robin, each run until it halts or
 * blocks, barriers released when every core has arrived (halted cores
 * count as present), deadlock fatal, per-run instruction budget fatal
 * when exceeded. The memory hook fires after the access's effect with
 * the source Instr of the executing pc, exactly as the interpreter's.
 */
class ThreadedExecutor
{
  public:
    /** @param mem Shared backing store (not owned). */
    explicit ThreadedExecutor(MemoryImage &mem) : mem_(&mem) {}

    /** Add a core running @p program (compiled here). Returns its
     *  index. @p program must outlive the executor. */
    int addCore(const Program &program);

    /** Run all cores to completion; returns dynamic instructions. */
    std::uint64_t run(std::uint64_t max_steps = 1ull << 32);

    /** run() with a statically-typed memory-access observer; see
     *  Interpreter::runWithHook. */
    template <typename Hook>
    std::uint64_t
    runWithHook(Hook &&hook, std::uint64_t max_steps = 1ull << 32)
    {
        MPC_ASSERT(!cores_.empty(),
                   "ThreadedExecutor::run with no cores");
        std::uint64_t total = 0;
        const std::size_t n = cores_.size();
        std::size_t num_halted = 0;

        while (num_halted < n) {
            bool progress = false;
            std::size_t at_barrier = 0;
            for (auto &core : cores_) {
                if (core.halted) {
                    // Halted cores count as present for barrier
                    // purposes, as in the interpreter.
                    ++at_barrier;
                    continue;
                }
                if (core.atBarrier) {
                    ++at_barrier;
                    continue;
                }
                const std::uint64_t before = total;
                const Exit exit = runCore(
                    core, hook,
                    static_cast<int>(&core - cores_.data()), total,
                    max_steps);
                progress = progress || total != before;
                if (exit == Exit::Halted) {
                    core.halted = true;
                    ++num_halted;
                } else if (exit == Exit::Barrier) {
                    core.atBarrier = true;
                }
                // Exit::Blocked: FlagWait pending; let others run.
            }
            if (at_barrier == n) {
                for (auto &core : cores_)
                    core.atBarrier = false;
                progress = true;
            }
            if (!progress && num_halted < n)
                fatal("ThreadedExecutor: deadlock (all cores blocked)");
        }
        return total;
    }

    /** Dynamic instruction count of core @p core after run(). */
    std::uint64_t instrCount(int core) const;

    /** Architectural registers of core @p core (post-run inspection). */
    const RegFile &regs(int core) const { return cores_[core].regs; }

    /** Trap-handler records across all cores' programs (tests). */
    std::size_t trapCount() const;

  private:
    enum class Exit
    {
        Halted,
        Barrier,
        Blocked,
    };

    struct CoreState
    {
        const Program *program;
        ThreadedProgram tprog;
        RegFile regs;
        int pc = 0;
        bool halted = false;
        bool atBarrier = false;
        std::uint64_t instrs = 0;
    };

    /** Direct-mapped page-pointer cache over the shared MemoryImage.
     *  Page storage is allocated once and never resized (pageWords),
     *  so cached pointers stay valid for the image's lifetime. */
    struct PageSlot
    {
        Addr pageNum = invalidAddr;
        std::uint64_t *words = nullptr;
    };
    static constexpr std::size_t pageSlots = 64;

    std::uint64_t *
    wordPtr(Addr addr)
    {
        const Addr page = addr / MemoryImage::pageBytes;
        PageSlot &slot = pageCache_[page % pageSlots];
        if (slot.pageNum != page) {
            slot.words = mem_->pageWords(addr);
            slot.pageNum = page;
        }
        return slot.words + (addr % MemoryImage::pageBytes) / 8;
    }

    [[noreturn]] static void budgetExceeded(std::uint64_t max_steps);

    /** Run one core until it halts or blocks (the dispatch loop). */
    template <typename Hook>
    Exit runCore(CoreState &core, Hook &hook, int core_idx,
                 std::uint64_t &total, std::uint64_t max_steps);

    MemoryImage *mem_;
    std::vector<CoreState> cores_;
    PageSlot pageCache_[pageSlots];
};

// --- dispatch loop ---------------------------------------------------
//
// The handler bodies below are written once; the macros instantiate
// them either as labels reached by computed goto (indirect threading;
// GCC/Clang) or as cases of a switch inside a dispatch loop (portable
// fallback). Handler index == Op value for every known opcode, with
// one trailing trap handler, so the label table must list the labels
// in exact Op declaration order — the differential fuzz tests execute
// every opcode on both tiers and would catch any misordering.

#if defined(__GNUC__) || defined(__clang__)
#define MPC_EXEC_COMPUTED_GOTO 1
#else
#define MPC_EXEC_COMPUTED_GOTO 0
#endif

#if MPC_EXEC_COMPUTED_GOTO
#define MPC_EXEC_OP(name) Lbl_##name:
#define MPC_EXEC_FUSED(name, id) Lbl_##name:
#define MPC_EXEC_TRAP Lbl_Trap:
#define MPC_EXEC_NEXT() goto *labels[rec->handler]
#else
#define MPC_EXEC_OP(name) case static_cast<int>(Op::name):
#define MPC_EXEC_FUSED(name, id) case static_cast<int>(id):
#define MPC_EXEC_TRAP default:
#define MPC_EXEC_NEXT() goto dispatch
#endif

// Straight-line handlers retire without comparing against the budget;
// the compare runs at every control-flow edge instead (MPC_EXEC_CHECK
// in the branch handlers, the trap fallback, and every exit path).
// Any execution either reaches a branch/exit or runs off the end into
// the trap sentinel, so a runaway kernel still faults — at most one
// branch-free path (bounded by the static code size) later than the
// interpreter would, indistinguishable since exhaustion is fatal
// either way. Checking every exit keeps the invariant the next
// runCore call relies on: total never exceeds max_steps on return.
#define MPC_EXEC_RETIRE() ++executed

#define MPC_EXEC_RETIRE_N(n) executed += (n)

#define MPC_EXEC_CHECK()                                                \
    do {                                                                \
        if (executed > budget)                                          \
            budgetExceeded(max_steps);                                  \
    } while (0)

#define MPC_EXEC_LEAVE(kind)                                            \
    do {                                                                \
        MPC_EXEC_CHECK();                                               \
        exit_kind = (kind);                                             \
        goto done;                                                      \
    } while (0)

template <typename Hook>
ThreadedExecutor::Exit
ThreadedExecutor::runCore(CoreState &core, Hook &hook, int core_idx,
                          std::uint64_t &total, std::uint64_t max_steps)
{
    const detail::OpRec *const base = core.tprog.recs_.data();
    const Instr *const src = core.program->code.data();
    const auto code_size =
        static_cast<std::int32_t>(core.program->code.size());
    const detail::OpRec *rec = base + core.pc;
    auto &ir = core.regs.intRegs;
    auto &fr = core.regs.fpRegs;
    // total <= max_steps on entry (exceeding is fatal before return),
    // so the subtraction cannot underflow and the budget check at each
    // control-flow edge is a single register compare.
    const std::uint64_t budget = max_steps - total;
    std::uint64_t executed = 0;
    Exit exit_kind = Exit::Blocked;

#if MPC_EXEC_COMPUTED_GOTO
    static const void *const labels[detail::numHandlers] = {
        &&Lbl_Nop,
        &&Lbl_IAdd,
        &&Lbl_ISub,
        &&Lbl_IMul,
        &&Lbl_IDiv,
        &&Lbl_IRem,
        &&Lbl_IAnd,
        &&Lbl_IOr,
        &&Lbl_IXor,
        &&Lbl_IShl,
        &&Lbl_IShr,
        &&Lbl_ICmpLt,
        &&Lbl_ICmpEq,
        &&Lbl_IMin,
        &&Lbl_IMax,
        &&Lbl_IAddImm,
        &&Lbl_IMulImm,
        &&Lbl_IShlImm,
        &&Lbl_IAndImm,
        &&Lbl_ILoadImm,
        &&Lbl_FAdd,
        &&Lbl_FSub,
        &&Lbl_FMul,
        &&Lbl_FDiv,
        &&Lbl_FSqrt,
        &&Lbl_FNeg,
        &&Lbl_FAbs,
        &&Lbl_FMin,
        &&Lbl_FMax,
        &&Lbl_FMov,
        &&Lbl_FLoadImm,
        &&Lbl_CvtIF,
        &&Lbl_CvtFI,
        &&Lbl_Prefetch,
        &&Lbl_LdI,
        &&Lbl_LdF,
        &&Lbl_StI,
        &&Lbl_StF,
        &&Lbl_BEq,
        &&Lbl_BNe,
        &&Lbl_BLt,
        &&Lbl_BGe,
        &&Lbl_Jmp,
        &&Lbl_Barrier,
        &&Lbl_FlagWait,
        &&Lbl_Halt,
        &&Lbl_Trap,
        &&Lbl_ShlAdd,
        &&Lbl_ShlAddLdI,
        &&Lbl_ShlAddLdF,
        &&Lbl_ShlAddStI,
        &&Lbl_ShlAddStF,
        &&Lbl_AddImmBLt,
    };
    MPC_EXEC_NEXT();
#else
  dispatch:
    switch (rec->handler) {
#endif

    MPC_EXEC_OP(Nop)
        MPC_EXEC_RETIRE();
        ++rec;
        MPC_EXEC_NEXT();

    MPC_EXEC_OP(IAdd)
        ir[rec->rd] = wrapAdd(ir[rec->ra], ir[rec->rb]);
        MPC_EXEC_RETIRE();
        ++rec;
        MPC_EXEC_NEXT();
    MPC_EXEC_OP(ISub)
        ir[rec->rd] = wrapSub(ir[rec->ra], ir[rec->rb]);
        MPC_EXEC_RETIRE();
        ++rec;
        MPC_EXEC_NEXT();
    MPC_EXEC_OP(IMul)
        ir[rec->rd] = wrapMul(ir[rec->ra], ir[rec->rb]);
        MPC_EXEC_RETIRE();
        ++rec;
        MPC_EXEC_NEXT();
    MPC_EXEC_OP(IDiv)
        ir[rec->rd] =
            rec->rb != noReg ? wrapDiv(ir[rec->ra], ir[rec->rb]) : 0;
        MPC_EXEC_RETIRE();
        ++rec;
        MPC_EXEC_NEXT();
    MPC_EXEC_OP(IRem)
        ir[rec->rd] =
            rec->rb != noReg ? wrapRem(ir[rec->ra], ir[rec->rb]) : 0;
        MPC_EXEC_RETIRE();
        ++rec;
        MPC_EXEC_NEXT();
    MPC_EXEC_OP(IAnd)
        ir[rec->rd] = ir[rec->ra] & ir[rec->rb];
        MPC_EXEC_RETIRE();
        ++rec;
        MPC_EXEC_NEXT();
    MPC_EXEC_OP(IOr)
        ir[rec->rd] = ir[rec->ra] | ir[rec->rb];
        MPC_EXEC_RETIRE();
        ++rec;
        MPC_EXEC_NEXT();
    MPC_EXEC_OP(IXor)
        ir[rec->rd] = ir[rec->ra] ^ ir[rec->rb];
        MPC_EXEC_RETIRE();
        ++rec;
        MPC_EXEC_NEXT();
    MPC_EXEC_OP(IShl)
        ir[rec->rd] = ir[rec->ra] << (ir[rec->rb] & 63);
        MPC_EXEC_RETIRE();
        ++rec;
        MPC_EXEC_NEXT();
    MPC_EXEC_OP(IShr)
        ir[rec->rd] = static_cast<std::int64_t>(
            static_cast<std::uint64_t>(ir[rec->ra]) >>
            (ir[rec->rb] & 63));
        MPC_EXEC_RETIRE();
        ++rec;
        MPC_EXEC_NEXT();
    MPC_EXEC_OP(ICmpLt)
        ir[rec->rd] = ir[rec->ra] < ir[rec->rb] ? 1 : 0;
        MPC_EXEC_RETIRE();
        ++rec;
        MPC_EXEC_NEXT();
    MPC_EXEC_OP(ICmpEq)
        ir[rec->rd] = ir[rec->ra] == ir[rec->rb] ? 1 : 0;
        MPC_EXEC_RETIRE();
        ++rec;
        MPC_EXEC_NEXT();
    MPC_EXEC_OP(IMin)
        ir[rec->rd] = std::min(ir[rec->ra], ir[rec->rb]);
        MPC_EXEC_RETIRE();
        ++rec;
        MPC_EXEC_NEXT();
    MPC_EXEC_OP(IMax)
        ir[rec->rd] = std::max(ir[rec->ra], ir[rec->rb]);
        MPC_EXEC_RETIRE();
        ++rec;
        MPC_EXEC_NEXT();

    MPC_EXEC_OP(IAddImm)
        ir[rec->rd] = wrapAdd(ir[rec->ra], rec->imm);
        MPC_EXEC_RETIRE();
        ++rec;
        MPC_EXEC_NEXT();
    MPC_EXEC_OP(IMulImm)
        ir[rec->rd] = wrapMul(ir[rec->ra], rec->imm);
        MPC_EXEC_RETIRE();
        ++rec;
        MPC_EXEC_NEXT();
    MPC_EXEC_OP(IShlImm)
        ir[rec->rd] = ir[rec->ra] << (rec->imm & 63);
        MPC_EXEC_RETIRE();
        ++rec;
        MPC_EXEC_NEXT();
    MPC_EXEC_OP(IAndImm)
        ir[rec->rd] = ir[rec->ra] & rec->imm;
        MPC_EXEC_RETIRE();
        ++rec;
        MPC_EXEC_NEXT();
    MPC_EXEC_OP(ILoadImm)
        ir[rec->rd] = rec->imm;
        MPC_EXEC_RETIRE();
        ++rec;
        MPC_EXEC_NEXT();

    MPC_EXEC_OP(FAdd)
        fr[rec->rd] = fr[rec->ra] + fr[rec->rb];
        MPC_EXEC_RETIRE();
        ++rec;
        MPC_EXEC_NEXT();
    MPC_EXEC_OP(FSub)
        fr[rec->rd] = fr[rec->ra] - fr[rec->rb];
        MPC_EXEC_RETIRE();
        ++rec;
        MPC_EXEC_NEXT();
    MPC_EXEC_OP(FMul)
        fr[rec->rd] = fr[rec->ra] * fr[rec->rb];
        MPC_EXEC_RETIRE();
        ++rec;
        MPC_EXEC_NEXT();
    MPC_EXEC_OP(FDiv)
        fr[rec->rd] = fr[rec->ra] / fr[rec->rb];
        MPC_EXEC_RETIRE();
        ++rec;
        MPC_EXEC_NEXT();
    MPC_EXEC_OP(FSqrt)
        fr[rec->rd] = std::sqrt(fr[rec->ra]);
        MPC_EXEC_RETIRE();
        ++rec;
        MPC_EXEC_NEXT();
    MPC_EXEC_OP(FNeg)
        fr[rec->rd] = -fr[rec->ra];
        MPC_EXEC_RETIRE();
        ++rec;
        MPC_EXEC_NEXT();
    MPC_EXEC_OP(FAbs)
        fr[rec->rd] = std::fabs(fr[rec->ra]);
        MPC_EXEC_RETIRE();
        ++rec;
        MPC_EXEC_NEXT();
    MPC_EXEC_OP(FMin)
        // std::min/max, not a bare ternary: step() uses these, and the
        // two differ on NaN operands (which argument is returned).
        fr[rec->rd] = std::min(fr[rec->ra], fr[rec->rb]);
        MPC_EXEC_RETIRE();
        ++rec;
        MPC_EXEC_NEXT();
    MPC_EXEC_OP(FMax)
        fr[rec->rd] = std::max(fr[rec->ra], fr[rec->rb]);
        MPC_EXEC_RETIRE();
        ++rec;
        MPC_EXEC_NEXT();
    MPC_EXEC_OP(FMov)
        fr[rec->rd] = fr[rec->ra];
        MPC_EXEC_RETIRE();
        ++rec;
        MPC_EXEC_NEXT();
    MPC_EXEC_OP(FLoadImm)
        fr[rec->rd] = std::bit_cast<double>(rec->imm);
        MPC_EXEC_RETIRE();
        ++rec;
        MPC_EXEC_NEXT();
    MPC_EXEC_OP(CvtIF)
        fr[rec->rd] = static_cast<double>(ir[rec->ra]);
        MPC_EXEC_RETIRE();
        ++rec;
        MPC_EXEC_NEXT();
    MPC_EXEC_OP(CvtFI)
        ir[rec->rd] = static_cast<std::int64_t>(fr[rec->ra]);
        MPC_EXEC_RETIRE();
        ++rec;
        MPC_EXEC_NEXT();

    MPC_EXEC_OP(Prefetch) {
        // Nonbinding: reported as a load, no architectural effect.
        const Addr addr = static_cast<Addr>(wrapAdd(ir[rec->ra], rec->imm));
        MPC_EXEC_RETIRE();
        hook(core_idx, src[rec->pc], addr, true);
        ++rec;
        MPC_EXEC_NEXT();
    }
    MPC_EXEC_OP(LdI) {
        const Addr addr = static_cast<Addr>(wrapAdd(ir[rec->ra], rec->imm));
        ir[rec->rd] = static_cast<std::int64_t>(*wordPtr(addr));
        MPC_EXEC_RETIRE();
        hook(core_idx, src[rec->pc], addr, true);
        ++rec;
        MPC_EXEC_NEXT();
    }
    MPC_EXEC_OP(LdF) {
        const Addr addr = static_cast<Addr>(wrapAdd(ir[rec->ra], rec->imm));
        fr[rec->rd] = std::bit_cast<double>(*wordPtr(addr));
        MPC_EXEC_RETIRE();
        hook(core_idx, src[rec->pc], addr, true);
        ++rec;
        MPC_EXEC_NEXT();
    }
    MPC_EXEC_OP(StI) {
        const Addr addr = static_cast<Addr>(wrapAdd(ir[rec->ra], rec->imm));
        *wordPtr(addr) = static_cast<std::uint64_t>(ir[rec->rb]);
        MPC_EXEC_RETIRE();
        hook(core_idx, src[rec->pc], addr, false);
        ++rec;
        MPC_EXEC_NEXT();
    }
    MPC_EXEC_OP(StF) {
        const Addr addr = static_cast<Addr>(wrapAdd(ir[rec->ra], rec->imm));
        *wordPtr(addr) = std::bit_cast<std::uint64_t>(fr[rec->rb]);
        MPC_EXEC_RETIRE();
        hook(core_idx, src[rec->pc], addr, false);
        ++rec;
        MPC_EXEC_NEXT();
    }

    MPC_EXEC_OP(BEq)
        rec = ir[rec->ra] == ir[rec->rb] ? base + rec->target : rec + 1;
        MPC_EXEC_RETIRE();
        MPC_EXEC_CHECK();
        MPC_EXEC_NEXT();
    MPC_EXEC_OP(BNe)
        rec = ir[rec->ra] != ir[rec->rb] ? base + rec->target : rec + 1;
        MPC_EXEC_RETIRE();
        MPC_EXEC_CHECK();
        MPC_EXEC_NEXT();
    MPC_EXEC_OP(BLt)
        rec = ir[rec->ra] < ir[rec->rb] ? base + rec->target : rec + 1;
        MPC_EXEC_RETIRE();
        MPC_EXEC_CHECK();
        MPC_EXEC_NEXT();
    MPC_EXEC_OP(BGe)
        rec = ir[rec->ra] >= ir[rec->rb] ? base + rec->target : rec + 1;
        MPC_EXEC_RETIRE();
        MPC_EXEC_CHECK();
        MPC_EXEC_NEXT();
    MPC_EXEC_OP(Jmp)
        rec = base + rec->target;
        MPC_EXEC_RETIRE();
        MPC_EXEC_CHECK();
        MPC_EXEC_NEXT();

    MPC_EXEC_OP(Barrier)
        MPC_EXEC_RETIRE();
        core.pc = rec->pc + 1;
        MPC_EXEC_LEAVE(Exit::Barrier);
    MPC_EXEC_OP(FlagWait) {
        const Addr addr = static_cast<Addr>(wrapAdd(ir[rec->ra], rec->imm));
        if (static_cast<std::int64_t>(*wordPtr(addr)) < ir[rec->rb]) {
            // Condition unsatisfied: does not count as an executed
            // instruction; pc holds (the interpreter's semantics).
            core.pc = rec->pc;
            MPC_EXEC_LEAVE(Exit::Blocked);
        }
        MPC_EXEC_RETIRE();
        hook(core_idx, src[rec->pc], addr, true);
        ++rec;
        MPC_EXEC_NEXT();
    }
    MPC_EXEC_OP(Halt)
        MPC_EXEC_RETIRE();
        core.pc = rec->pc;
        MPC_EXEC_LEAVE(Exit::Halted);

    MPC_EXEC_TRAP {
        // Unknown opcode, out-of-range branch target, or the off-the-
        // end sentinel: fall back to step(), the single semantic
        // definition (it asserts on an out-of-range pc, exactly as the
        // interpreter would at this point).
        const int pc = rec->pc;
        const StepResult res = step(*core.program, pc, core.regs, *mem_);
        if (res.syncBlocked) {
            core.pc = pc;
            MPC_EXEC_LEAVE(Exit::Blocked);
        }
        MPC_EXEC_RETIRE();
        MPC_EXEC_CHECK();
        if (res.isMem)
            hook(core_idx, src[pc], res.memAddr, res.isLoad);
        if (res.halted) {
            core.pc = res.nextPc;
            MPC_EXEC_LEAVE(Exit::Halted);
        }
        if (res.isBarrier) {
            core.pc = res.nextPc;
            MPC_EXEC_LEAVE(Exit::Barrier);
        }
        MPC_ASSERT(res.nextPc >= 0 && res.nextPc <= code_size,
                   "pc out of range");
        rec = base + res.nextPc;
        MPC_EXEC_NEXT();
    }

    // Superinstructions (see detail::fusedShlAdd): each replays its
    // constituent ops' exact effects in order, reading operands from
    // the swallowed records, which sit at the following slots.
    MPC_EXEC_FUSED(ShlAdd, detail::fusedShlAdd) {
        const detail::OpRec *const r1 = rec + 1;
        ir[rec->rd] = ir[rec->ra] << (rec->imm & 63);
        ir[r1->rd] = wrapAdd(ir[r1->ra], ir[r1->rb]);
        MPC_EXEC_RETIRE_N(2);
        rec += 2;
        MPC_EXEC_NEXT();
    }
    MPC_EXEC_FUSED(ShlAddLdI, detail::fusedShlAddLdI) {
        const detail::OpRec *const r1 = rec + 1;
        const detail::OpRec *const r2 = rec + 2;
        ir[rec->rd] = ir[rec->ra] << (rec->imm & 63);
        ir[r1->rd] = wrapAdd(ir[r1->ra], ir[r1->rb]);
        const Addr addr = static_cast<Addr>(wrapAdd(ir[r2->ra], r2->imm));
        ir[r2->rd] = static_cast<std::int64_t>(*wordPtr(addr));
        MPC_EXEC_RETIRE_N(3);
        hook(core_idx, src[r2->pc], addr, true);
        rec += 3;
        MPC_EXEC_NEXT();
    }
    MPC_EXEC_FUSED(ShlAddLdF, detail::fusedShlAddLdF) {
        const detail::OpRec *const r1 = rec + 1;
        const detail::OpRec *const r2 = rec + 2;
        ir[rec->rd] = ir[rec->ra] << (rec->imm & 63);
        ir[r1->rd] = wrapAdd(ir[r1->ra], ir[r1->rb]);
        const Addr addr = static_cast<Addr>(wrapAdd(ir[r2->ra], r2->imm));
        fr[r2->rd] = std::bit_cast<double>(*wordPtr(addr));
        MPC_EXEC_RETIRE_N(3);
        hook(core_idx, src[r2->pc], addr, true);
        rec += 3;
        MPC_EXEC_NEXT();
    }
    MPC_EXEC_FUSED(ShlAddStI, detail::fusedShlAddStI) {
        const detail::OpRec *const r1 = rec + 1;
        const detail::OpRec *const r2 = rec + 2;
        ir[rec->rd] = ir[rec->ra] << (rec->imm & 63);
        ir[r1->rd] = wrapAdd(ir[r1->ra], ir[r1->rb]);
        const Addr addr = static_cast<Addr>(wrapAdd(ir[r2->ra], r2->imm));
        *wordPtr(addr) = static_cast<std::uint64_t>(ir[r2->rb]);
        MPC_EXEC_RETIRE_N(3);
        hook(core_idx, src[r2->pc], addr, false);
        rec += 3;
        MPC_EXEC_NEXT();
    }
    MPC_EXEC_FUSED(ShlAddStF, detail::fusedShlAddStF) {
        const detail::OpRec *const r1 = rec + 1;
        const detail::OpRec *const r2 = rec + 2;
        ir[rec->rd] = ir[rec->ra] << (rec->imm & 63);
        ir[r1->rd] = wrapAdd(ir[r1->ra], ir[r1->rb]);
        const Addr addr = static_cast<Addr>(wrapAdd(ir[r2->ra], r2->imm));
        *wordPtr(addr) = std::bit_cast<std::uint64_t>(fr[r2->rb]);
        MPC_EXEC_RETIRE_N(3);
        hook(core_idx, src[r2->pc], addr, false);
        rec += 3;
        MPC_EXEC_NEXT();
    }
    MPC_EXEC_FUSED(AddImmBLt, detail::fusedAddImmBLt) {
        const detail::OpRec *const r1 = rec + 1;
        ir[rec->rd] = wrapAdd(ir[rec->ra], rec->imm);
        rec = ir[r1->ra] < ir[r1->rb] ? base + r1->target : rec + 2;
        MPC_EXEC_RETIRE_N(2);
        MPC_EXEC_CHECK();
        MPC_EXEC_NEXT();
    }

#if !MPC_EXEC_COMPUTED_GOTO
    }
#endif

  done:
    core.instrs += executed;
    total += executed;
    return exit_kind;
}

#undef MPC_EXEC_OP
#undef MPC_EXEC_FUSED
#undef MPC_EXEC_RETIRE_N
#undef MPC_EXEC_TRAP
#undef MPC_EXEC_NEXT
#undef MPC_EXEC_RETIRE
#undef MPC_EXEC_CHECK
#undef MPC_EXEC_LEAVE

// --- tier-dispatching entry points -----------------------------------

/**
 * Functionally execute @p count programs (one core each) against
 * @p mem on @p tier, calling @p hook for every memory access. This is
 * the single entry point the profiler, the pipeline verifier, and the
 * benches route through; the default tier comes from MPC_EXEC_TIER.
 * @return total dynamic instructions executed.
 */
template <typename Hook>
std::uint64_t
executeWithHook(const Program *const *programs, std::size_t count,
                MemoryImage &mem, Hook &&hook,
                std::uint64_t max_steps = 1ull << 32,
                ExecTier tier = execTierFromEnv())
{
    if (tier == ExecTier::Interp) {
        Interpreter interp(mem);
        for (std::size_t i = 0; i < count; ++i)
            interp.addCore(*programs[i]);
        return interp.runWithHook(std::forward<Hook>(hook), max_steps);
    }
    ThreadedExecutor exec(mem);
    for (std::size_t i = 0; i < count; ++i)
        exec.addCore(*programs[i]);
    return exec.runWithHook(std::forward<Hook>(hook), max_steps);
}

/** Single-program convenience. */
template <typename Hook>
std::uint64_t
executeWithHook(const Program &program, MemoryImage &mem, Hook &&hook,
                std::uint64_t max_steps = 1ull << 32,
                ExecTier tier = execTierFromEnv())
{
    const Program *ptr = &program;
    return executeWithHook(&ptr, 1, mem, std::forward<Hook>(hook),
                           max_steps, tier);
}

/** Vector-of-programs convenience (one core per program). */
template <typename Hook>
std::uint64_t
executeWithHook(const std::vector<Program> &programs, MemoryImage &mem,
                Hook &&hook, std::uint64_t max_steps = 1ull << 32,
                ExecTier tier = execTierFromEnv())
{
    std::vector<const Program *> ptrs;
    ptrs.reserve(programs.size());
    for (const Program &p : programs)
        ptrs.push_back(&p);
    return executeWithHook(ptrs.data(), ptrs.size(), mem,
                           std::forward<Hook>(hook), max_steps, tier);
}

/** Hook-free execution on the selected tier. */
std::uint64_t execute(const Program &program, MemoryImage &mem,
                      std::uint64_t max_steps = 1ull << 32,
                      ExecTier tier = execTierFromEnv());
std::uint64_t execute(const std::vector<Program> &programs,
                      MemoryImage &mem,
                      std::uint64_t max_steps = 1ull << 32,
                      ExecTier tier = execTierFromEnv());

} // namespace mpc::kisa

#endif // MPC_KISA_EXEC_THREADED_HH
