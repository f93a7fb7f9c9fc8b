/**
 * @file
 * Cycle-stepped out-of-order processor core.
 *
 * Modeling approach: instructions execute *functionally* at dispatch
 * (the standard functional-first technique of sim-outorder-style
 * simulators), while issue, memory access, completion, and in-order
 * retirement are timed separately. This keeps the timing model honest
 * about the phenomena the paper studies — window occupancy, nonblocking
 * loads, MSHR back-pressure, in-order retire stalls — while guaranteeing
 * functional correctness of transformed kernels.
 *
 * Execution-time attribution follows the paper (Section 5.2): each
 * cycle, retired/retireWidth is counted as busy time; the remainder is
 * charged to the first instruction that could not retire — data-read
 * stall for incomplete loads, sync stall for Barrier/FlagWait, data-
 * write stall for stores blocked on a full write buffer, CPU stall
 * otherwise. Cycles with an empty window count as CPU (fetch/mispredict)
 * time; instruction-memory stalls are structurally zero because the
 * kernel programs are resident (the paper also measured near-zero
 * I-stalls for these loop-intensive codes).
 */

#ifndef MPC_CPU_CORE_HH
#define MPC_CPU_CORE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "cpu/config.hh"
#include "cpu/monitor.hh"
#include "cpu/predictor.hh"
#include "cpu/sync.hh"
#include "kisa/interp.hh"
#include "kisa/memimage.hh"
#include "kisa/program.hh"
#include "mem/eventq.hh"
#include "mem/hierarchy.hh"
#include "obs/metrics.hh"
#include "obs/registry.hh"

namespace mpc::cpu
{

/** Stall-time categories, per the paper's execution-time breakdown. */
enum class StallCat { Busy, DataRead, DataWrite, Sync, Cpu, Instr };

/** Per-core statistics. Slot units: one cycle = retireWidth slots. */
struct CoreStats
{
    Tick doneTick = 0;              ///< cycle the Halt retired
    std::uint64_t retired = 0;      ///< instructions retired
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t branches = 0;

    std::uint64_t busySlots = 0;
    std::uint64_t dataReadSlots = 0;
    std::uint64_t dataWriteSlots = 0;
    std::uint64_t syncSlots = 0;
    std::uint64_t cpuSlots = 0;

    /** Latency (issue to data-ready) of loads that missed the L1. */
    StatSummary loadMissLatency;
    /** Latency of loads that went past the L2 (long misses). */
    StatSummary longMissLatency;

    /** Seconds-equivalent helpers (in cycles). */
    double
    busyCycles(int retire_width) const
    {
        return static_cast<double>(busySlots) / retire_width;
    }
};

/**
 * Host-side work of one core's wakeup/select logic. Deterministic (a
 * pure function of the simulated run and the step mode), but never
 * part of RunResult or any report: it measures the simulator, not the
 * simulated machine.
 */
struct ScanWork
{
    std::uint64_t ticks = 0;    ///< core ticks
    /** Window entries visited: by the issue pass, by consumer-list
     *  walks at producer completion, and by wake-heap pops. */
    std::uint64_t visits = 0;
    std::uint64_t issued = 0;   ///< entries that left WaitOperands
    std::uint64_t woken = 0;    ///< entries that joined the active set
};

/**
 * One simulated out-of-order core running a KISA program.
 */
class Core
{
  public:
    /**
     * @param sync Barrier device; may be null for uniprocessor kernels
     *        that never execute Barrier.
     */
    Core(int id, mem::EventQueue &eq, const CoreConfig &cfg,
         const kisa::Program &program, kisa::MemoryImage &mem,
         mem::MemHierarchy &hier, SyncDevice *sync);

    /** Advance one cycle at the event queue's current time. */
    void tick();

    /**
     * Quiescence protocol: the earliest cycle at which ticking this
     * core can change any state (its own, the caches', or the stats).
     * System::run fast-forwards to min(next event, next core wake)
     * instead of ticking every core every cycle; a sleeping core
     * catches up its per-cycle stall attribution on its next tick, so
     * results are bit-identical to the reference cycle-step mode.
     * maxTick means "woken only by an event or sync callback".
     */
    Tick nextWake() const { return nextWake_; }

    /**
     * Reference cycle-step mode ticks every core every cycle, so the
     * wake computation is pure overhead there; System disables it when
     * skipAhead is off (nextWake_ stays 0 = always runnable).
     */
    void enableQuiescence(bool on) { quiescence_ = on; }

    /** True once Halt retired and all buffered stores drained. */
    bool done() const;

    /**
     * Sharded-stepping hazard inputs: the next fetch pc (index into the
     * program; instructions within a fetch group of it may dispatch —
     * and so arrive at a barrier or read a flag — this very tick), and
     * whether dispatch is parked on a FlagWait (which polls shared
     * functional memory every cycle). System::run serializes any cycle
     * where either could interact across shards.
     */
    int fetchPc() const { return pc_; }
    bool
    blockedOnFlagWait() const
    {
        return dispatchBlockedSync_ &&
               slot(blockedSyncSeq_).instr->op == kisa::Op::FlagWait;
    }

    const CoreStats &stats() const { return stats_; }
    int id() const { return id_; }

    /** Architectural registers (for post-run result checks). */
    const kisa::RegFile &regs() const { return regs_; }

    /** Attach a validation observer (not owned; null detaches). */
    void attachMonitor(CoreMonitor *monitor) { monitor_ = monitor; }

    /** Attach the observability sink (not owned; null detaches). All
     *  hooks read frozen pipeline state only, so attaching never
     *  changes simulated results. */
    void attachObs(obs::CoreObs *obs) { obs_ = obs; }

    /** Publish this core's counters on the telemetry registry (epoch
     *  Sampler); names are "<prefix>.<counter>". */
    void
    registerMetrics(obs::MetricsRegistry &reg,
                    const std::string &prefix) const
    {
        reg.addCounter(prefix + ".retired", &stats_.retired);
        reg.addCounter(prefix + ".loads", &stats_.loads);
        reg.addCounter(prefix + ".stores", &stats_.stores);
        reg.addCounter(prefix + ".branches", &stats_.branches);
        reg.addCounter(prefix + ".mispredicts", &stats_.mispredicts);
        reg.addCounter(prefix + ".busySlots", &stats_.busySlots);
        reg.addCounter(prefix + ".dataReadSlots",
                       &stats_.dataReadSlots);
        reg.addCounter(prefix + ".dataWriteSlots",
                       &stats_.dataWriteSlots);
        reg.addCounter(prefix + ".syncSlots", &stats_.syncSlots);
        reg.addCounter(prefix + ".cpuSlots", &stats_.cpuSlots);
    }

    /**
     * Fault injection for validation tests: at the first tick at or
     * after @p when, flip the low bit of integer register @p reg. The
     * golden lockstep checker must flag the divergence on the next
     * instruction that reads or overwrites the register.
     */
    void
    injectRegisterFaultAt(Tick when, std::uint16_t reg)
    {
        faultTick_ = when;
        faultReg_ = reg;
    }

    /** Dump the in-flight window (one entry per line) for diagnostics. */
    std::string dumpWindow() const;

    /** Instruction-window occupancy (for tests). */
    int windowOccupancy() const
    {
        return static_cast<int>(tailSeq_ - headSeq_);
    }

    /** Wakeup/select work counters (see ScanWork). */
    const ScanWork &scanWork() const { return scanWork_; }

  private:
    /**
     * Select queues of the active set: one per functional-unit pool
     * (plus NOPs, which need no unit), and one for memory ops past
     * address generation (cache launches and retries).
     */
    enum Queue : std::uint8_t { QNop, QAlu, QFpu, QAddr, QMem, NumQueues };
    static constexpr unsigned allQueues = (1u << NumQueues) - 1;

    /** Scheduling state of a window entry. */
    enum class EState : std::uint8_t {
        WaitOperands,   ///< source registers not ready
        WaitAgen,       ///< memory op: address generation in flight
        WaitCache,      ///< memory op: retrying cache access
        Outstanding,    ///< load launched into the hierarchy
        WaitSync,       ///< Barrier/FlagWait pending
        Completed,
    };

    /** One window slot, kept to 64 bytes so a window full of
     *  outstanding misses stays small to keep in the host's caches. */
    struct Entry
    {
        EState state = EState::WaitOperands;
        Queue unit = QNop;          ///< select queue while WaitOperands
        std::uint8_t pendingProds = 0;  ///< producers not yet Completed
        kisa::OpClass cls = kisa::OpClass::Nop;
        bool isBranch = false;
        bool isLoad = false;
        bool isStore = false;
        bool isPrefetch = false;
        bool mispredicted = false;

        // Observability annotations (never read by the timing model).
        bool coalesced = false;     ///< load merged into in-flight line
        bool rejectMshr = false;    ///< last cache retry hit MSHR limit
        bool addrFromLoad = false;  ///< address depends on in-flight load
        int obsOverlap = -1;        ///< outstanding reads after issue

        /** Intrusive consumer lists: firstConsumer heads this entry's
         *  list; nextConsumer[src] chains the list of the producer of
         *  this entry's source src. Links encode (slot << 1 | src) + 1;
         *  0 ends a list. */
        std::uint32_t firstConsumer = 0;
        std::uint32_t nextConsumer[2] = {0, 0};
        Tick completeTick = maxTick;
        /** WaitOperands: operands-ready tick (max completeTick of the
         *  completed producers); WaitAgen: address-generation done;
         *  Outstanding: cache-access launch. */
        Tick readyTick = 0;
        Addr memAddr = invalidAddr;
        const kisa::Instr *instr = nullptr;
    };
    static_assert(sizeof(Entry) == 64, "a window slot stays 64 bytes");

    /** Producer seqs of an instruction's two sources (seq+1; 0 = none). */
    struct Producers
    {
        std::uint64_t a = 0;
        std::uint64_t b = 0;
    };

    /** A timed wakeup: at @p tick, entry @p seq joins the active set. */
    struct Wake
    {
        Tick tick;
        std::uint64_t seq;

        bool operator==(const Wake &) const = default;
    };

    Entry &slot(std::uint64_t seq) { return window_[seq & windowMask_]; }
    const Entry &slot(std::uint64_t seq) const
    {
        return window_[seq & windowMask_];
    }
    /** The in-flight seq occupying window slot @p s. */
    std::uint64_t
    seqAt(std::uint64_t s) const
    {
        return headSeq_ + ((s - headSeq_) & windowMask_);
    }

    void doRetire(Tick now);
    void doIssue(Tick now);
    void doDispatch(Tick now);
    void drainWriteBuffer(Tick now);

    /** Program index of @p e's instruction. */
    int
    pcOf(const Entry &e) const
    {
        return static_cast<int>(e.instr - program_.code.data());
    }

    /** The in-flight producers of @p instr's sources. */
    Producers producersOf(const kisa::Instr &instr,
                          const kisa::InstrMeta &meta) const;

    /** A dispatched WaitOperands entry: link it onto the consumer list
     *  of each in-flight producer, or schedule it if none is pending. */
    void waitForOperands(std::uint64_t seq, const Producers &prods,
                         Tick now);

    /** Mark @p e Completed at @p when and notify its consumers. */
    void complete(Entry &e, Tick when, Tick now);

    /** The select queue of a WaitOperands entry of class @p cls. */
    static Queue unitQueue(kisa::OpClass cls);

    /** Make @p seq active on queue @p q from tick @p at on: now, at the
     *  next tick (the next-cycle latch), or through the wake heap. */
    void schedule(std::uint64_t seq, Queue q, Tick at, Tick now);

    /** Add @p seq to (activate) or remove it from (deactivate) the
     *  active set on queue @p q. */
    void
    activate(std::uint64_t seq, Queue q)
    {
        const std::uint64_t s = seq & windowMask_;
        const std::uint64_t bit = std::uint64_t(1) << (s & 63);
        active_[(s >> 6) * NumQueues + q] |= bit;
        anyActive_[s >> 6] |= bit;
        ++activeCount_;
        ++scanWork_.woken;
    }
    void
    deactivate(std::uint64_t seq, Queue q)
    {
        const std::uint64_t s = seq & windowMask_;
        const std::uint64_t clear = ~(std::uint64_t(1) << (s & 63));
        active_[(s >> 6) * NumQueues + q] &= clear;
        anyActive_[s >> 6] &= clear;    // an entry is on one queue only
        --activeCount_;
    }
    /** A pending wake of @p seq came due: activate it on its queue. */
    void
    wake(std::uint64_t seq)
    {
        ++scanWork_.visits;
        const Entry &e = slot(seq);
        activate(seq, e.state == EState::WaitAgen ? QMem : e.unit);
    }

    /** Oldest active seq at or after @p from on the queues in the
     *  bitmask @p queues, or tailSeq_ if none. */
    std::uint64_t nextActive(std::uint64_t from, unsigned queues) const;

    /** Stall category of the window head (the entry that could not
     *  retire), shared by doRetire and the sleep-time attribution. */
    StallCat headStallCat() const;

    /** Try to claim a unit of @p unit's pool for an op of class @p cls
     *  at @p now. @return completion tick, or maxTick if none is free. */
    Tick tryFunctionalUnit(Queue unit, kisa::OpClass cls, Tick now);

    /** Attribute the non-busy remainder of a cycle (or of a batch of
     *  skipped stall cycles). */
    void attributeStall(StallCat cat, std::uint64_t slots);

    /** Refine the stall into the observability taxonomy. Pure function
     *  of frozen window state (no clock reads), so the answer is stable
     *  across a quiescent sleep window: any state change wakes the
     *  core. */
    obs::StallWhy classifyWhy() const;

    /** True if @p prod (seq+1 encoding) is an in-flight load at @p now
     *  (dispatch-time address-dependence detection). */
    bool producerLoadInFlight(std::uint64_t prod, Tick now) const;

    /**
     * Compute the earliest cycle after @p now at which a tick could
     * change state, from post-tick state (see nextWake). Also records
     * the stall category reference mode would charge while we sleep.
     */
    Tick computeNextWake(Tick now);

    /** Completion callbacks pull the wake tick forward to @p t. */
    void
    wakeAt(Tick t)
    {
        if (t < nextWake_)
            nextWake_ = t;
    }

    /** Launch a load into the memory hierarchy. */
    bool tryLoadAccess(std::uint64_t seq, Tick now);

    /** Debug builds: rebuild the active set, the pending wakes and the
     *  consumer lists from a full window walk and compare them with the
     *  live ones. */
    void auditWakeup(Tick now);

    const int id_;
    mem::EventQueue &eq_;
    CoreConfig cfg_;
    const kisa::Program &program_;
    kisa::MemoryImage &mem_;
    mem::MemHierarchy &hier_;
    SyncDevice *sync_;
    BranchPredictor predictor_;

    kisa::RegFile regs_;
    int pc_ = 0;

    /**
     * Window ring buffer, sized to the next power of two above the
     * configured capacity (and at least 64, one active-set word) so
     * slot() indexes with a mask instead of a runtime modulo. At most
     * windowCap_ seqs are in flight, so masked indices never collide.
     */
    std::vector<Entry> window_;
    std::uint64_t windowMask_ = 0;  ///< window_.size() - 1
    std::uint64_t windowCap_ = 0;   ///< configured capacity (<= size)
    std::uint64_t headSeq_ = 0;     ///< oldest in-flight
    std::uint64_t tailSeq_ = 0;     ///< next to allocate

    /**
     * Wakeup and select, as hardware does it: no per-tick window walk.
     *
     * - The active set holds exactly the entries the issue pass acts on
     *   this cycle: WaitOperands entries whose producers have all
     *   completed by now (on their unit's queue), and WaitAgen entries
     *   whose address is generated plus WaitCache retries (on QMem).
     *   active_ stores it as one bitmap per queue over window slots,
     *   interleaved per 64-slot word; doIssue walks the set bits from
     *   the head, i.e. oldest first.
     * - Producers reach consumers through the intrusive consumer lists
     *   (Entry::firstConsumer), filled at dispatch.
     * - nextCycle_ lists the entries that join the active set at the
     *   tick after lastTick_: one-cycle units and address generation,
     *   the common case. wakeHeap_ holds every later tick. An in-flight
     *   entry has at most one pending wake, so neither grows past the
     *   window capacity both are reserved to.
     *
     * Debug builds rebuild all of it from the window every tick
     * (auditWakeup).
     */
    std::vector<std::uint64_t> active_;
    std::vector<std::uint64_t> anyActive_;  ///< union of active_ queues
    std::vector<std::uint64_t> nextCycle_;  ///< seqs
    int activeCount_ = 0;               ///< bits set in active_
    std::vector<Wake> wakeHeap_;
    ScanWork scanWork_;
    std::vector<Wake> auditLive_;       ///< auditWakeup work buffers
    std::vector<Wake> auditExpect_;
    std::vector<Producers> auditProds_; ///< per slot, debug builds only

    /** Youngest in-flight producer per register (seq+1; 0 = none). */
    std::vector<std::uint64_t> intWriter_;
    std::vector<std::uint64_t> fpWriter_;

    /** Per-unit busy-until ticks of each FU pool, indexed by the
     *  pool's select queue (QAlu, QFpu, QAddr). */
    std::vector<Tick> unitBusy_[NumQueues];

    /** Per op class: result latency, and whether the unit stays busy
     *  for all of it (iterative multiply, divide and square root). */
    struct UnitTiming
    {
        Tick lat = 1;
        bool blocking = false;
    };
    UnitTiming unitTiming_[static_cast<int>(kisa::OpClass::Halt) + 1];

    // Dispatch-blocking conditions.
    bool haltDispatched_ = false;
    bool dispatchBlockedSync_ = false;  ///< barrier/flag at dispatch
    std::uint64_t blockedSyncSeq_ = 0;
    Tick fetchResumeTick_ = 0;          ///< mispredict redirect
    int unresolvedBranches_ = 0;

    // Write buffer (shares the memory queue with in-flight loads).
    struct WbEntry
    {
        Addr addr = invalidAddr;
        std::uint32_t refId = 0xffffffff;
        std::uint64_t id = 0;
        bool outstanding = false;
    };
    std::vector<WbEntry> writeBuffer_;
    std::uint64_t nextWbId_ = 1;
    int wbUnsent_ = 0;                  ///< entries not yet outstanding
    /** In-window memory ops plus write-buffer entries. */
    int memQueueUsed_ = 0;

    bool haltRetired_ = false;
    CoreStats stats_;

    CoreMonitor *monitor_ = nullptr;
    obs::CoreObs *obs_ = nullptr;
    Tick faultTick_ = maxTick;      ///< pending injected fault (tests)
    std::uint16_t faultReg_ = 0;

    // Quiescence bookkeeping (see nextWake).
    bool quiescence_ = true;        ///< compute wakes at all?
    Tick nextWake_ = 0;             ///< earliest useful tick
    Tick lastTick_ = maxTick;       ///< cycle of the last tick (sentinel:
                                    ///< never ticked)
    StallCat sleepCat_ = StallCat::Cpu; ///< stall charged while asleep
    obs::StallWhy sleepWhy_ = obs::StallWhy::Cpu; ///< taxonomy twin
};

} // namespace mpc::cpu

#endif // MPC_CPU_CORE_HH
