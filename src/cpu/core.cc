#include "cpu/core.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace mpc::cpu
{

using kisa::Op;
using kisa::OpClass;

namespace
{

/** Wake-heap comparator: earliest tick on top. */
constexpr auto wakeLater = [](const auto &a, const auto &b) {
    return a.tick > b.tick;
};

} // namespace

Core::Core(int id, mem::EventQueue &eq, const CoreConfig &cfg,
           const kisa::Program &program, kisa::MemoryImage &mem,
           mem::MemHierarchy &hier, SyncDevice *sync)
    : id_(id), eq_(eq), cfg_(cfg), program_(program), mem_(mem),
      hier_(hier), sync_(sync), predictor_(cfg.predictorEntries),
      window_(std::max<size_t>(
          64, std::bit_ceil(static_cast<size_t>(cfg.windowSize)))),
      windowMask_(window_.size() - 1),
      windowCap_(static_cast<std::uint64_t>(cfg.windowSize)),
      active_(window_.size() / 64 * NumQueues, 0),
      anyActive_(window_.size() / 64, 0),
      intWriter_(kisa::numIntRegs, 0), fpWriter_(kisa::numFpRegs, 0)
{
    unitBusy_[QAlu].assign(static_cast<size_t>(cfg.numAlus), 0);
    unitBusy_[QFpu].assign(static_cast<size_t>(cfg.numFpus), 0);
    unitBusy_[QAddr].assign(static_cast<size_t>(cfg.numAddrUnits), 0);
    auto timing = [this](OpClass cls, Tick lat, bool blocking) {
        unitTiming_[static_cast<int>(cls)] = {lat, blocking};
    };
    timing(OpClass::IntAlu, cfg.latIntAlu, false);
    timing(OpClass::IntMul, cfg.latIntMul, true);
    timing(OpClass::FpArith, cfg.latFpArith, false);
    timing(OpClass::FpDiv, cfg.latFpDiv, true);
    timing(OpClass::FpSqrt, cfg.latFpSqrt, true);
    timing(OpClass::MemRead, cfg.latAddrGen, false);
    timing(OpClass::MemWrite, cfg.latAddrGen, false);

    // At most one pending wake per in-flight entry: sized once, so the
    // per-tick paths never allocate.
    wakeHeap_.reserve(windowCap_);
    nextCycle_.reserve(windowCap_);
    MPC_ASSERT(!program.code.empty(), "empty program");
    MPC_ASSERT(program.meta.size() == program.code.size(),
               "program missing predecode sidecar (call predecode())");
#ifndef NDEBUG
    // The sidecar is derived data; step() plus the opcode helpers stay
    // the single semantic definition. Cross-check on every construction
    // in debug builds.
    for (size_t i = 0; i < program.code.size(); ++i)
        MPC_ASSERT(program.meta[i] == kisa::deriveMeta(program.code[i]),
                   "stale predecode sidecar at pc %zu", i);
    auditLive_.reserve(windowCap_);
    auditExpect_.reserve(windowCap_);
    auditProds_.resize(window_.size());
#endif
}

bool
Core::done() const
{
    return haltRetired_ && writeBuffer_.empty();
}

void
Core::tick()
{
    const Tick now = eq_.now();
    if (now >= faultTick_) {
        // Validation-test fault injection (see injectRegisterFaultAt).
        regs_.intRegs[faultReg_] ^= 1;
        faultTick_ = maxTick;
    }
    if (lastTick_ != maxTick && now > lastTick_ + 1 && !haltRetired_) {
        // Skip-ahead catch-up: reference mode would have ticked through
        // the quiescent cycles, retiring nothing and charging the full
        // retire width to the stall category of the (unchanged) window
        // head each cycle. Batch-charge the identical amount.
        const Tick skipped = now - lastTick_ - 1;
        attributeStall(sleepCat_,
                       skipped * static_cast<Tick>(cfg_.retireWidth));
        if (obs_ != nullptr)
            obs_->stallRange(lastTick_ + 1, now, sleepWhy_,
                             skipped *
                                 static_cast<Tick>(cfg_.retireWidth));
    }
    lastTick_ = now;
    ++scanWork_.ticks;
    doRetire(now);
    doIssue(now);
    doDispatch(now);
    drainWriteBuffer(now);
#ifndef NDEBUG
    auditWakeup(now);
#endif
    if (quiescence_)
        nextWake_ = computeNextWake(now);
}

void
Core::auditWakeup(Tick now)
{
#ifndef NDEBUG
    // Rebuild the active set, the pending wakes and the consumer lists
    // from the window alone: an entry is issuable when every producer
    // is Completed with completeTick <= now.
    auditExpect_.clear();
    int active = 0;
    int links = 0;
    for (std::uint64_t seq = headSeq_; seq < tailSeq_; ++seq) {
        const Entry &e = slot(seq);
        int want = -1;      // expected active queue, -1 = none
        switch (e.state) {
          case EState::WaitOperands: {
            int pending = 0;
            Tick at = 0;
            const Producers &pr = auditProds_[seq & windowMask_];
            for (const std::uint64_t prod : {pr.a, pr.b == pr.a ? 0 : pr.b}) {
                if (prod == 0 || prod - 1 < headSeq_)
                    continue;
                const Entry &p = slot(prod - 1);
                if (p.state == EState::Completed)
                    at = std::max(at, p.completeTick);
                else
                    ++pending;
            }
            MPC_ASSERT(pending == e.pendingProds,
                       "core %d seq %llu: %d producers pending, tracked %d",
                       id_, static_cast<unsigned long long>(seq), pending,
                       e.pendingProds);
            MPC_ASSERT(e.unit == unitQueue(e.cls),
                       "core %d seq %llu: wrong select queue", id_,
                       static_cast<unsigned long long>(seq));
            if (pending == 0) {
                // Producers that retired since completed by now, so the
                // tracked tick may exceed the recount only in the past.
                MPC_ASSERT(at <= now ? e.readyTick <= now
                                     : e.readyTick == at,
                           "core %d seq %llu: operands ready at %llu, "
                           "tracked %llu",
                           id_, static_cast<unsigned long long>(seq),
                           static_cast<unsigned long long>(at),
                           static_cast<unsigned long long>(e.readyTick));
                if (at <= now)
                    want = e.unit;
                else
                    auditExpect_.push_back({at, seq});
            }
            links += pending;
            break;
          }
          case EState::WaitAgen:
            auditExpect_.push_back({std::max(e.readyTick, now + 1), seq});
            break;
          case EState::WaitCache:
            want = QMem;
            break;
          case EState::Outstanding:
          case EState::WaitSync:
          case EState::Completed:
            break;
        }
        const std::uint64_t s = seq & windowMask_;
        const std::uint64_t bit = std::uint64_t(1) << (s & 63);
        for (int q = 0; q < NumQueues; ++q) {
            const size_t i = (s >> 6) * NumQueues + static_cast<size_t>(q);
            MPC_ASSERT(((active_[i] & bit) != 0) == (q == want),
                       "core %d seq %llu: active bit drift on queue %d",
                       id_, static_cast<unsigned long long>(seq), q);
        }
        active += want >= 0;

        // Every link on this entry's consumer list names a consumer
        // whose source really is this entry.
        if (e.state == EState::Completed)
            continue;
        for (std::uint32_t link = e.firstConsumer; link != 0;) {
            const std::uint64_t cseq = seqAt((link - 1) >> 1);
            const int src = static_cast<int>((link - 1) & 1);
            const Producers &pr = auditProds_[cseq & windowMask_];
            MPC_ASSERT(cseq > seq && cseq < tailSeq_ &&
                           (src == 0 ? pr.a : pr.b) == seq + 1,
                       "core %d seq %llu: bad consumer link",
                       id_, static_cast<unsigned long long>(seq));
            --links;
            link = slot(cseq).nextConsumer[src];
        }
    }
    int active_bits = 0;
    for (const std::uint64_t word : active_)
        active_bits += std::popcount(word);
    for (size_t w = 0; w < anyActive_.size(); ++w) {
        std::uint64_t any = 0;
        for (int q = 0; q < NumQueues; ++q)
            any |= active_[w * NumQueues + static_cast<size_t>(q)];
        MPC_ASSERT(any == anyActive_[w], "core %d: union bitmap drift",
                   id_);
    }
    MPC_ASSERT(active_bits == active && active_bits == activeCount_,
               "core %d: active bits outside the window or miscounted",
               id_);
    MPC_ASSERT(links == 0, "core %d: %d consumer links missing", id_,
               links);
    MPC_ASSERT(std::is_heap(wakeHeap_.begin(), wakeHeap_.end(), wakeLater),
               "core %d: wake heap order broken", id_);
    auditLive_.assign(wakeHeap_.begin(), wakeHeap_.end());
    for (const std::uint64_t seq : nextCycle_)
        auditLive_.push_back({lastTick_ + 1, seq});
    auto by_seq = [](const Wake &a, const Wake &b) { return a.seq < b.seq; };
    std::sort(auditLive_.begin(), auditLive_.end(), by_seq);
    std::sort(auditExpect_.begin(), auditExpect_.end(), by_seq);
    MPC_ASSERT(auditLive_ == auditExpect_,
               "core %d: %zu wakes pending, window implies %zu", id_,
               auditLive_.size(), auditExpect_.size());
    auditLive_.clear();
#else
    (void)now;
#endif
}

StallCat
Core::headStallCat() const
{
    if (headSeq_ == tailSeq_)
        return StallCat::Cpu;   // empty window: fetch/mispredict
    const Entry &head = slot(headSeq_);
    if (head.isLoad)
        return StallCat::DataRead;
    const Op op = head.instr->op;
    if (op == Op::Barrier || op == Op::FlagWait)
        return StallCat::Sync;
    return StallCat::Cpu;       // includes stores waiting on operands
}

Tick
Core::computeNextWake(Tick now)
{
    // Stall category reference mode's doRetire would charge while this
    // core sleeps: recomputed from post-tick state, which is exactly the
    // state reference mode would see at the start of each skipped cycle.
    if (obs_ != nullptr)
        sleepWhy_ = classifyWhy();
    sleepCat_ = headStallCat();

    if (done())
        return maxTick;

    // The write buffer retries rejected stores every cycle (mutating
    // cache reject counters), so any not-yet-outstanding entry keeps
    // the core ticking.
    if (wbUnsent_ > 0)
        return now + 1;

    Tick wake = maxTick;

    if (dispatchBlockedSync_) {
        const Entry &blocked = slot(blockedSyncSeq_);
        if (blocked.instr->op == Op::FlagWait)
            return now + 1;     // polls functional memory every cycle
        if (blocked.state == EState::Completed)
            return now + 1;     // barrier released; unblocks next tick
        // Barrier pending: the release callback calls wakeAt.
    } else if (!haltDispatched_) {
        if (now < fetchResumeTick_) {
            // Mispredict redirect. maxTick = branch not yet issued; its
            // issue is tracked through the active set below.
            if (fetchResumeTick_ != maxTick)
                wake = std::min(wake, fetchResumeTick_);
        } else if (tailSeq_ - headSeq_ < windowCap_) {
            const kisa::InstrMeta &m = program_.meta[pc_];
            const bool branch_gated = m.isBranch &&
                                      unresolvedBranches_ >= cfg_.maxBranches;
            const bool mem_gated = m.isMem &&
                                   memQueueUsed_ >= cfg_.memQueueSize;
            if (!branch_gated && !mem_gated)
                return now + 1; // can dispatch next cycle
            // Gated: freed by a retire (head check below), a write-
            // buffer completion, or a branch-resolution event (both
            // call wakeAt).
        }
        // Window full: unblocked by a retire, tracked below.
    }

    // Active entries act next cycle: issuable ones blocked on issue
    // width or a busy unit, and cache retries (which mutate reject
    // counters).
    if (activeCount_ > 0 || !nextCycle_.empty())
        return now + 1;

    // Retirement changes state only when the head can retire. Younger
    // completed entries matter once they are the head, and a retire
    // happens only in a tick, which recomputes this.
    if (headSeq_ < tailSeq_) {
        const Entry &head = slot(headSeq_);
        if (head.state == EState::Completed) {
            if (head.completeTick > now)
                wake = std::min(wake, head.completeTick);
            else
                return now + 1; // retire width exhausted this cycle
        }
    }

    // Timed wakeups; Outstanding/WaitSync entries wake the core through
    // their completion callbacks (wakeAt).
    if (!wakeHeap_.empty())
        wake = std::min(wake, wakeHeap_.front().tick);
    return std::max(wake, now + 1);
}

Core::Queue
Core::unitQueue(OpClass cls)
{
    switch (cls) {
      case OpClass::Nop:
        return QNop;
      case OpClass::IntAlu:
      case OpClass::IntMul:
        return QAlu;
      case OpClass::FpArith:
      case OpClass::FpDiv:
      case OpClass::FpSqrt:
        return QFpu;
      case OpClass::MemRead:
      case OpClass::MemWrite:
        return QAddr;
      default:
        panic("unitQueue: op class never waits for operands");
    }
}

std::uint64_t
Core::nextActive(std::uint64_t from, unsigned queues) const
{
    // Walk the bitmaps one 64-slot word at a time from from's slot. The
    // ring holds at most windowCap_ <= window_.size() seqs, so a set
    // bit at or after from's slot in its word is either the seq at the
    // same offset from @p from, or (offset past tailSeq_) none at all.
    while (from < tailSeq_) {
        const std::uint64_t pos = from & windowMask_;
        const unsigned off = static_cast<unsigned>(pos & 63);
        std::uint64_t word = anyActive_[pos >> 6];
        if (queues != allQueues) {
            const std::uint64_t *words = &active_[(pos >> 6) * NumQueues];
            word = 0;
            for (int q = 0; q < NumQueues; ++q)
                if ((queues >> q) & 1)
                    word |= words[q];
        }
        word &= ~std::uint64_t(0) << off;
        if (word != 0) {
            const std::uint64_t seq =
                from + static_cast<unsigned>(std::countr_zero(word)) - off;
            return std::min(seq, tailSeq_);
        }
        from += 64 - off;
    }
    return tailSeq_;
}

void
Core::schedule(std::uint64_t seq, Queue q, Tick at, Tick now)
{
    if (at <= now) {
        activate(seq, q);
        return;
    }
    // Any tick after lastTick_ is at or past lastTick_ + 1, so the latch
    // is exact even from a completion callback between ticks.
    if (at == lastTick_ + 1)
        nextCycle_.push_back(seq);
    else {
        wakeHeap_.push_back({at, seq});
        std::push_heap(wakeHeap_.begin(), wakeHeap_.end(), wakeLater);
    }
    wakeAt(at);     // a completion callback may schedule between ticks
}

void
Core::complete(Entry &e, Tick when, Tick now)
{
    e.state = EState::Completed;
    e.completeTick = when;
    for (std::uint32_t link = e.firstConsumer; link != 0;) {
        const std::uint64_t cslot = (link - 1) >> 1;
        Entry &c = window_[cslot];
        link = c.nextConsumer[(link - 1) & 1];
        ++scanWork_.visits;
        c.readyTick = std::max(c.readyTick, when);
        if (--c.pendingProds == 0)
            schedule(seqAt(cslot), c.unit, c.readyTick, now);
    }
}

void
Core::waitForOperands(std::uint64_t seq, const Producers &prods, Tick now)
{
    Entry &e = slot(seq);
    e.unit = unitQueue(e.cls);
#ifndef NDEBUG
    auditProds_[seq & windowMask_] = prods;
#endif
    auto link = [&](int src, std::uint64_t prod) {
        if (prod == 0 || prod - 1 < headSeq_)
            return;     // no producer, or retired (hence completed)
        Entry &p = slot(prod - 1);
        if (p.state == EState::Completed) {
            e.readyTick = std::max(e.readyTick, p.completeTick);
            return;
        }
        ++e.pendingProds;
        e.nextConsumer[src] = p.firstConsumer;
        p.firstConsumer = static_cast<std::uint32_t>(
            (((seq & windowMask_) << 1) | static_cast<std::uint64_t>(src)) +
            1);
    };
    link(0, prods.a);
    if (prods.b != prods.a)
        link(1, prods.b);
    if (e.pendingProds == 0)
        schedule(seq, e.unit, e.readyTick, now);
}

Core::Producers
Core::producersOf(const kisa::Instr &instr,
                  const kisa::InstrMeta &meta) const
{
    using kisa::noReg;
    Producers prods;
    if (instr.ra != noReg)
        prods.a = meta.srcAFp ? fpWriter_[instr.ra] : intWriter_[instr.ra];
    if (instr.rb != noReg)
        prods.b = meta.srcBFp ? fpWriter_[instr.rb] : intWriter_[instr.rb];
    return prods;
}

Tick
Core::tryFunctionalUnit(Queue unit, OpClass cls, Tick now)
{
    const UnitTiming t = unitTiming_[static_cast<int>(cls)];
    for (Tick &busy_until : unitBusy_[unit]) {
        if (busy_until <= now) {
            busy_until = now + (t.blocking ? t.lat : 1);
            return now + t.lat;
        }
    }
    return maxTick;
}

void
Core::doRetire(Tick now)
{
    if (haltRetired_)
        return;

    int retired = 0;
    while (retired < cfg_.retireWidth && headSeq_ < tailSeq_) {
        Entry &e = slot(headSeq_);
        if (e.state != EState::Completed || e.completeTick > now)
            break;
        if (e.isStore) {
            WbEntry wb;
            wb.addr = e.memAddr;
            wb.refId = e.instr->refId;
            wb.id = nextWbId_++;
            writeBuffer_.push_back(wb);
            ++wbUnsent_;
            ++stats_.stores;
        }
        if (e.isLoad || e.isPrefetch) {
            --memQueueUsed_;
            if (e.isLoad)
                ++stats_.loads;
        }
        if (e.instr->op == Op::Halt) {
            haltRetired_ = true;
            stats_.doneTick = now;
        }
        if (monitor_)
            monitor_->onRetire(now, pcOf(e), headSeq_);
        if (obs_ != nullptr)
            obs_->retired(now, pcOf(e));
        ++headSeq_;
        ++retired;
        ++stats_.retired;
        if (haltRetired_)
            break;
    }

    stats_.busySlots += static_cast<std::uint64_t>(retired);
    const int stall_slots = cfg_.retireWidth - retired;
    if (stall_slots <= 0 || haltRetired_)
        return;

    attributeStall(headStallCat(), stall_slots);
    if (obs_ != nullptr)
        obs_->stallRange(now, now + 1, classifyWhy(),
                         static_cast<std::uint64_t>(stall_slots));
}

obs::StallWhy
Core::classifyWhy() const
{
    if (headSeq_ >= tailSeq_)
        return obs::StallWhy::Cpu;      // empty window: fetch/mispredict
    const Entry &head = slot(headSeq_);
    const Op op = head.instr->op;
    if (op == Op::Barrier || op == Op::FlagWait)
        return obs::StallWhy::Sync;
    if (head.isLoad) {
        switch (head.state) {
          case EState::WaitCache:
            return head.rejectMshr ? obs::StallWhy::MshrFull
                                   : obs::StallWhy::Other;
          case EState::Outstanding:
            if (head.coalesced)
                return obs::StallWhy::LineDep;
            if (head.addrFromLoad)
                return obs::StallWhy::AddrDep;
            return tailSeq_ - headSeq_ >= windowCap_
                       ? obs::StallWhy::WindowFull
                       : obs::StallWhy::Leader;
          default:
            // WaitOperands/WaitAgen (issue-side latency) or Completed
            // (drains later this same cycle).
            return obs::StallWhy::Other;
        }
    }
    if (head.isStore && head.state != EState::Completed)
        return obs::StallWhy::Store;
    return obs::StallWhy::Other;
}

bool
Core::producerLoadInFlight(std::uint64_t prod, Tick now) const
{
    if (prod == 0)
        return false;
    const std::uint64_t seq = prod - 1;
    if (seq < headSeq_)
        return false;   // retired: value was available long before
    const Entry &p = slot(seq);
    return p.isLoad &&
           !(p.state == EState::Completed && p.completeTick <= now);
}

void
Core::attributeStall(StallCat cat, std::uint64_t slots)
{
    const auto s = slots;
    switch (cat) {
      case StallCat::Busy:
        stats_.busySlots += s;
        break;
      case StallCat::DataRead:
        stats_.dataReadSlots += s;
        break;
      case StallCat::DataWrite:
        stats_.dataWriteSlots += s;
        break;
      case StallCat::Sync:
        stats_.syncSlots += s;
        break;
      case StallCat::Cpu:
      case StallCat::Instr:
        stats_.cpuSlots += s;
        break;
    }
}

bool
Core::tryLoadAccess(std::uint64_t seq, Tick now)
{
    Entry &e = slot(seq);
    mem::AccessInfo info;
    const auto status = hier_.load(
        e.memAddr, e.instr->refId,
        [this, seq](Tick t) {
            wakeAt(t);
            Entry &entry = slot(seq);
            complete(entry, t, eq_.now());
            const auto latency =
                static_cast<double>(t - entry.readyTick);
            const Tick l1_hit = hier_.l1().config().hitLatency;
            if (latency > static_cast<double>(l1_hit) + 1) {
                stats_.loadMissLatency.sample(latency);
                if (obs_ != nullptr)
                    obs_->loadMiss(entry.instr->refId, latency,
                                   entry.obsOverlap, entry.coalesced);
            }
            const Tick l2_hit = hier_.l2().config().hitLatency;
            if (latency > static_cast<double>(l1_hit + l2_hit) + 4)
                stats_.longMissLatency.sample(latency);
        },
        &info);
    if (status != mem::Cache::Status::Ok) {
        e.rejectMshr = status == mem::Cache::Status::RejectMshr;
        return false;
    }
    e.state = EState::Outstanding;
    deactivate(seq, QMem);
    e.readyTick = now;      // launch tick, for the miss latency
    e.coalesced = info.coalesced;
    if (obs_ != nullptr)
        e.obsOverlap = obs_->overlapNow();
    return true;
}

void
Core::doIssue(Tick now)
{
    // Wakeups that have come due join the active set: the next-cycle
    // latch, then the heap.
    for (const std::uint64_t seq : nextCycle_)
        wake(seq);
    nextCycle_.clear();
    while (!wakeHeap_.empty() && wakeHeap_.front().tick <= now) {
        const std::uint64_t seq = wakeHeap_.front().seq;
        std::pop_heap(wakeHeap_.begin(), wakeHeap_.end(), wakeLater);
        wakeHeap_.pop_back();
        wake(seq);
    }

    // One oldest-first pass over the active set. A queue drops out of
    // the pass when its unit pool has no free unit (units only get
    // busier within a cycle, so no younger entry of that pool could
    // issue either), and every unit queue drops out once the issue
    // budget is spent. Memory ops past address generation still launch
    // and cache retries still run, in sequence order. Acting on an
    // entry can activate only younger entries (its consumers), which
    // the pass then reaches in the same cycle.
    if (activeCount_ == 0)
        return;
    unsigned queues = allQueues;
    int budget = cfg_.issueWidth;
    for (std::uint64_t seq = nextActive(headSeq_, queues); seq < tailSeq_;
         seq = nextActive(seq + 1, queues)) {
        ++scanWork_.visits;
        Entry &e = slot(seq);
        switch (e.state) {
          case EState::WaitOperands: {
            if (e.unit == QNop) {
                deactivate(seq, QNop);
                ++scanWork_.issued;
                complete(e, now, now);
                break;
            }
            const Tick done = tryFunctionalUnit(e.unit, e.cls, now);
            if (done == maxTick) {
                queues &= ~(1u << e.unit);  // no free unit this cycle
                break;
            }
            if (--budget == 0)
                queues = 1u << QMem;
            deactivate(seq, e.unit);
            ++scanWork_.issued;
            if (e.unit == QAddr) {
                // Address generation; cache access follows.
                e.state = EState::WaitAgen;
                e.readyTick = done;
                schedule(seq, QMem, std::max(done, now + 1), now);
            } else {
                complete(e, done, now);
                if (e.isBranch) {
                    eq_.schedule(done, [this] {
                        --unresolvedBranches_;
                        wakeAt(eq_.now());  // may unblock dispatch
                    });
                    if (e.mispredicted)
                        fetchResumeTick_ = done + cfg_.mispredictPenalty;
                }
            }
            break;
          }
          case EState::WaitAgen:
            // Active only once now >= readyTick.
            if (e.isStore) {
                // Store is retire-ready once its address and data are
                // known; memory is updated from the write buffer after
                // retirement (release consistency).
                deactivate(seq, QMem);
                complete(e, e.readyTick, now);
            } else if (e.isPrefetch) {
                // Fire-and-forget; dropped if the cache rejects.
                hier_.load(e.memAddr, e.instr->refId, mem::CompletionFn{});
                deactivate(seq, QMem);
                complete(e, e.readyTick, now);
            } else {
                e.state = EState::WaitCache;
                tryLoadAccess(seq, now);
            }
            break;
          case EState::WaitCache:
            tryLoadAccess(seq, now);
            break;
          case EState::Outstanding:
          case EState::WaitSync:
          case EState::Completed:
            panic("core %d: seq %llu active in state %d", id_,
                  static_cast<unsigned long long>(seq),
                  static_cast<int>(e.state));
        }
    }
}

void
Core::doDispatch(Tick now)
{
    for (int n = 0; n < cfg_.fetchWidth; ++n) {
        if (haltDispatched_)
            return;
        if (dispatchBlockedSync_) {
            Entry &blocked = slot(blockedSyncSeq_);
            const kisa::Instr &in = *blocked.instr;
            if (in.op == Op::FlagWait) {
                const Addr addr = static_cast<Addr>(
                    wrapAdd(regs_.intRegs[in.ra], in.imm));
                const auto value =
                    static_cast<std::int64_t>(mem_.ld64(addr));
                if (value < regs_.intRegs[in.rb])
                    return;  // still waiting
                // Condition satisfied: architecturally execute it now.
                auto res = kisa::step(program_, pcOf(blocked), regs_, mem_);
                MPC_ASSERT(!res.syncBlocked, "flag re-check failed");
                if (monitor_)
                    monitor_->onDispatch(now, pcOf(blocked), res, regs_);
                pc_ = res.nextPc;
                complete(blocked, now, now);
                dispatchBlockedSync_ = false;
            } else {
                // Barrier: released by the SyncDevice callback.
                if (blocked.state != EState::Completed)
                    return;
                dispatchBlockedSync_ = false;
            }
            continue;
        }
        if (now < fetchResumeTick_)
            return;  // mispredict redirect pending
        if (tailSeq_ - headSeq_ >= windowCap_)
            return;  // window full

        const kisa::Instr &in = program_.code[pc_];
        const kisa::InstrMeta &m = program_.meta[pc_];
        if (m.isBranch && unresolvedBranches_ >= cfg_.maxBranches)
            return;
        if (m.isMem && memQueueUsed_ >= cfg_.memQueueSize)
            return;

        const std::uint64_t seq = tailSeq_++;
        Entry &e = slot(seq);
        e = Entry{};
        e.cls = m.cls;
        e.isBranch = m.isBranch;
        e.instr = &in;

        if (in.op == Op::Halt) {
            complete(e, now, now);
            haltDispatched_ = true;
            return;
        }
        if (in.op == Op::FlagWait) {
            e.state = EState::WaitSync;
            dispatchBlockedSync_ = true;
            blockedSyncSeq_ = seq;
            return;  // poll next cycle (at least one cycle of wait)
        }
        if (in.op == Op::Barrier) {
            MPC_ASSERT(sync_ != nullptr, "Barrier with no SyncDevice");
            auto res = kisa::step(program_, pc_, regs_, mem_);
            if (monitor_)
                monitor_->onDispatch(now, pcOf(e), res, regs_);
            pc_ = res.nextPc;
            e.state = EState::WaitSync;
            dispatchBlockedSync_ = true;
            blockedSyncSeq_ = seq;
            sync_->arrive(id_, [this, seq] {
                wakeAt(eq_.now());
                complete(slot(seq), eq_.now(), eq_.now());
            });
            // The last arriver's callback fires synchronously; loop
            // re-checks dispatchBlockedSync_ next iteration.
            continue;
        }

        // Ordinary instruction: functionally execute at dispatch. The
        // entry waits in WaitOperands until its producers complete.
        const Producers prods = producersOf(in, m);
        waitForOperands(seq, prods, now);
        auto res = kisa::step(program_, pc_, regs_, mem_);
        const int branch_pc = pc_;
        if (monitor_)
            monitor_->onDispatch(now, branch_pc, res, regs_);
        pc_ = res.nextPc;

        if (res.isMem) {
            e.memAddr = res.memAddr;
            if (in.op == Op::Prefetch) {
                // Nonbinding: occupies a memory-queue slot but never
                // blocks retirement.
                e.isPrefetch = true;
            } else {
                e.isLoad = res.isLoad;
                e.isStore = !res.isLoad;
            }
            ++memQueueUsed_;
            if (obs_ != nullptr && e.isLoad)
                e.addrFromLoad = producerLoadInFlight(prods.a, now) ||
                                 producerLoadInFlight(prods.b, now);
        }
        if (m.isBranch) {
            ++stats_.branches;
            ++unresolvedBranches_;
            const bool predicted = predictor_.predict(branch_pc, in);
            predictor_.update(branch_pc, in, res.branchTaken);
            if (predicted != res.branchTaken) {
                e.mispredicted = true;
                ++stats_.mispredicts;
                // Block fetch until the branch resolves (set at issue).
                fetchResumeTick_ = maxTick;
                // Record destination register writer after mispredict
                // handling below; branches have no destination.
                return;
            }
        }
        if (m.writesReg) {
            if (m.destFp)
                fpWriter_[in.rd] = seq + 1;
            else
                intWriter_[in.rd] = seq + 1;
        }
    }
}

std::string
Core::dumpWindow() const
{
    static const char *const state_names[] = {
        "WaitOperands", "WaitAgen", "WaitCache",
        "Outstanding",  "WaitSync", "Completed",
    };
    std::string out = strprintf(
        "core %d: pc=%d window=%llu..%llu wb=%zu memq=%d%s%s%s\n", id_,
        pc_, static_cast<unsigned long long>(headSeq_),
        static_cast<unsigned long long>(tailSeq_), writeBuffer_.size(),
        memQueueUsed_, dispatchBlockedSync_ ? " sync-blocked" : "",
        haltDispatched_ ? " halt-dispatched" : "",
        haltRetired_ ? " halt-retired" : "");
    for (std::uint64_t seq = headSeq_; seq < tailSeq_; ++seq) {
        const Entry &e = slot(seq);
        out += strprintf(
            "  [%llu] pc=%-4d %-8s %-12s complete=%lld",
            static_cast<unsigned long long>(seq), pcOf(e),
            kisa::opName(e.instr->op),
            state_names[static_cast<int>(e.state)],
            e.completeTick == maxTick
                ? -1LL
                : static_cast<long long>(e.completeTick));
        if (e.memAddr != invalidAddr)
            out += strprintf(" addr=0x%llx%s",
                             static_cast<unsigned long long>(e.memAddr),
                             e.isLoad      ? " load"
                             : e.isStore   ? " store"
                             : e.isPrefetch ? " prefetch"
                                            : "");
        out += "\n";
    }
    return out;
}

void
Core::drainWriteBuffer(Tick now)
{
    (void)now;
    if (wbUnsent_ == 0)
        return;     // every buffered store is already in the hierarchy
    int tries = cfg_.storeIssueWidth;
    for (auto &wb : writeBuffer_) {
        if (tries <= 0)
            break;
        if (wb.outstanding)
            continue;
        const std::uint64_t id = wb.id;
        const auto status =
            hier_.store(wb.addr, wb.refId, [this, id](Tick t) {
                wakeAt(t);  // frees a memory-queue slot
                for (auto it = writeBuffer_.begin();
                     it != writeBuffer_.end(); ++it) {
                    if (it->id == id) {
                        writeBuffer_.erase(it);
                        break;
                    }
                }
                --memQueueUsed_;
            });
        if (status != mem::Cache::Status::Ok)
            break;  // port or MSHR pressure; retry next cycle
        wb.outstanding = true;
        --wbUnsent_;
        --tries;
    }
}

} // namespace mpc::cpu
