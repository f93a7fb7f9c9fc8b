#include "codegen/codegen.hh"

#include <functional>
#include <map>
#include <optional>
#include <queue>
#include <set>
#include <tuple>
#include <vector>

#include "analysis/affine.hh"
#include "common/logging.hh"

namespace mpc::codegen
{

using ir::Expr;
using ir::Kernel;
using ir::ScalType;
using ir::Stmt;
using kisa::AsmBuilder;
using kisa::Instr;
using kisa::Op;
using kisa::Reg;

namespace
{

/**
 * Decompose @p v into (1 << hi) + (1 << lo) or, with the bool set,
 * (1 << hi) - (1 << lo), so constant multiplies by such values (array
 * pitches with one line of padding, say) lower to two shifts and one
 * add/sub of single-cycle ALU ops instead of a multi-cycle multiply.
 */
std::optional<std::tuple<std::int64_t, std::int64_t, bool>>
shiftPairSplit(std::uint64_t v)
{
    if (v < 3)
        return std::nullopt;
    // Sum of two powers of two: exactly two bits set.
    if ((v & (v - 1)) != 0 &&
        ((v & (v - 1)) & ((v & (v - 1)) - 1)) == 0) {
        const std::int64_t lo = log2Floor(v & ~(v - 1));
        const std::int64_t hi = log2Floor(v);
        return std::make_tuple(hi, lo, false);
    }
    // Difference of two powers of two: v + lowbit(v) a power of two.
    const std::uint64_t low_bit = v & ~(v - 1);
    if (isPowerOf2(v + low_bit)) {
        const std::int64_t hi = log2Floor(v + low_bit);
        const std::int64_t lo = log2Floor(low_bit);
        return std::make_tuple(hi, lo, true);
    }
    return std::nullopt;
}

/**
 * Alias information for a memory instruction, used by the scheduler's
 * memory-dependence test. Two same-array references with the same
 * affine index shape and different constants are provably distinct
 * (e.g. unrolled copies A[i] vs A[i+1]); different shapes on the same
 * array are conservatively assumed to alias.
 */
struct AliasInfo
{
    bool any = true;            ///< pointer deref: may alias anything
    int arrayId = -1;
    std::size_t shapeHash = 0;
    std::int64_t c = 0;
    bool shapeKnown = false;

    static bool
    mayAlias(const AliasInfo &a, const AliasInfo &b)
    {
        if (a.any || b.any)
            return true;
        if (a.arrayId != b.arrayId)
            return false;
        if (!a.shapeKnown || !b.shapeKnown ||
            a.shapeHash != b.shapeHash)
            return true;
        return a.c == b.c;
    }
};

/**
 * Register def/use of one instruction as history slots: int register r
 * is slot r and FP register r is slot numIntRegs + r, so one table
 * serves both files and the files never alias. -1 means none.
 */
struct DefUse
{
    int reads[2] = {-1, -1};
    int write = -1;
};

constexpr int kRegSlots = kisa::numIntRegs + kisa::numFpRegs;

DefUse
defUse(const Instr &in)
{
    const auto slot = [](Reg r, bool fp) {
        return fp ? kisa::numIntRegs + r : static_cast<int>(r);
    };
    DefUse du;
    const bool is_store = in.op == Op::StI || in.op == Op::StF;
    const bool is_branch = kisa::isBranch(in.op);
    if (in.ra != kisa::noReg)
        du.reads[0] = slot(in.ra, kisa::srcAIsFp(in.op));
    if (in.rb != kisa::noReg)
        du.reads[1] = slot(in.rb, kisa::srcBIsFp(in.op));
    if (in.rd != kisa::noReg && !is_store && !is_branch &&
        in.op != Op::FlagWait)
        du.write = slot(in.rd, kisa::destIsFp(in.op));
    return du;
}

/**
 * The lowering engine. One instance produces one core's program.
 */
class Lowerer
{
  public:
    Lowerer(const Kernel &kernel, const CodegenOptions &options)
        : kernel_(kernel), opts_(options),
          builder_(kernel.name + (options.numProcs > 1
                                      ? ".p" + std::to_string(options.procId)
                                      : ""))
    {}

    kisa::Program
    lower()
    {
        prologue();
        for (const auto &stmt : kernel_.body)
            lowerStmt(*stmt);
        flushRegion();
        builder_.halt();
        return builder_.finish();
    }

    /** Measure the lowered per-iteration size of @p loop. */
    int
    measure(const Stmt &loop)
    {
        measureTarget_ = &loop;
        prologue();
        lowerStmt(loop);
        flushRegion();
        return measuredBody_ > 0 ? measuredBody_ : 8;
    }

  private:
    // --- registers ----------------------------------------------------
    static constexpr Reg regZero = 0;

    Reg
    allocPersistentInt()
    {
        MPC_ASSERT(nextInt_ < tempBaseInt_,
                   "out of integer registers (persistent)");
        return static_cast<Reg>(nextInt_++);
    }

    Reg
    allocPersistentFp()
    {
        MPC_ASSERT(nextFp_ < tempBaseFp_,
                   "out of FP registers (persistent)");
        return static_cast<Reg>(nextFp_++);
    }

    Reg
    intVarReg(const std::string &name)
    {
        auto it = intVars_.find(name);
        if (it != intVars_.end())
            return it->second;
        const Reg r = allocPersistentInt();
        intVars_[name] = r;
        return r;
    }

    Reg
    fpVarReg(const std::string &name)
    {
        auto it = fpVars_.find(name);
        if (it != fpVars_.end())
            return it->second;
        const Reg r = allocPersistentFp();
        fpVars_[name] = r;
        return r;
    }

    bool
    varIsFp(const std::string &name) const
    {
        const auto it = kernel_.scalars.find(name);
        return it != kernel_.scalars.end() &&
               it->second == ScalType::F64;
    }

    /** A value held in a register; temps are returned to the pool. */
    struct Operand
    {
        Reg reg = kisa::noReg;
        bool isFp = false;
        bool isTemp = false;
    };

    // In clustered-schedule mode, temps within a region are allocated
    // fresh-first so register reuse does not impose WAR/WAW false
    // dependences on the list scheduler (a real compiler allocates
    // registers after scheduling); the pool falls back to reuse when
    // exhausted, then resets at region boundaries.
    Reg
    allocTempInt()
    {
        if (opts_.clusteredSchedule &&
            intTempNext_ < kisa::numIntRegs)
            return static_cast<Reg>(intTempNext_++);
        if (!intFree_.empty()) {
            const Reg r = intFree_.back();
            intFree_.pop_back();
            return r;
        }
        MPC_ASSERT(intTempNext_ < kisa::numIntRegs,
                   "out of integer registers (temps)");
        return static_cast<Reg>(intTempNext_++);
    }

    Reg
    allocTempFp()
    {
        if (opts_.clusteredSchedule && fpTempNext_ < kisa::numFpRegs)
            return static_cast<Reg>(fpTempNext_++);
        if (!fpFree_.empty()) {
            const Reg r = fpFree_.back();
            fpFree_.pop_back();
            return r;
        }
        MPC_ASSERT(fpTempNext_ < kisa::numFpRegs,
                   "out of FP registers (temps)");
        return static_cast<Reg>(fpTempNext_++);
    }

    void
    release(const Operand &operand)
    {
        if (!operand.isTemp)
            return;
        if (operand.isFp)
            fpFree_.push_back(operand.reg);
        else
            intFree_.push_back(operand.reg);
    }

    // --- emission and scheduling ---------------------------------------
    void
    emit(Instr in, AliasInfo alias = {})
    {
        alias.any = alias.arrayId < 0;
        region_.push_back(in);
        aliasClass_.push_back(alias);
    }

    void
    emit(Instr in, std::nullptr_t) = delete;

    /** Emit the region buffer, list-scheduling it in clustered mode. */
    void
    flushRegion()
    {
        if (region_.empty())
            return;
        if (!opts_.clusteredSchedule || region_.size() < 3) {
            for (const auto &in : region_)
                builder_.emit(in);
        } else {
            scheduleAndEmit();
        }
        region_.clear();
        aliasClass_.clear();
        if (opts_.clusteredSchedule) {
            // Region boundary: the fresh-temp window restarts.
            intTempNext_ = tempBaseInt_;
            fpTempNext_ = tempBaseFp_;
            intFree_.clear();
            fpFree_.clear();
        }
    }

    /**
     * List-schedule the region. Edge i -> j (i < j) when j reads a
     * register i writes (RAW), both write one (WAW), j writes a register
     * i reads (WAR), or one is a store, the other a load or store, and
     * AliasInfo::mayAlias holds. Each instruction finds its
     * predecessors in per-register histories of earlier writers and
     * readers and in the lists of earlier loads and stores; a stamp per
     * instruction records each edge once.
     */
    void
    scheduleAndEmit()
    {
        const int n = static_cast<int>(region_.size());
        std::vector<std::vector<int>> succs(n);
        std::vector<int> preds(n, 0);
        std::vector<int> stamp(n, -1);
        std::vector<int> loads, stores;
        if (regHistory_.empty())
            regHistory_.resize(kRegSlots);
        auto is_load = [this](int i) {
            return region_[i].op == Op::LdI || region_[i].op == Op::LdF;
        };
        auto is_store = [this](int i) {
            return region_[i].op == Op::StI || region_[i].op == Op::StF;
        };
        for (int j = 0; j < n; ++j) {
            const auto depend = [&](int i) {
                if (stamp[i] == j)
                    return;
                stamp[i] = j;
                succs[i].push_back(j);
                ++preds[j];
            };
            const DefUse du = defUse(region_[j]);
            for (const int r : du.reads)
                if (r >= 0)
                    for (const int i : regHistory_[r].writers)
                        depend(i);
            if (du.write >= 0) {
                for (const int i : regHistory_[du.write].writers)
                    depend(i);
                for (const int i : regHistory_[du.write].readers)
                    depend(i);
            }
            // Memory ordering: loads may pass loads always, and any
            // pair of provably distinct references.
            if (is_load(j) || is_store(j)) {
                for (const int i : stores)
                    if (AliasInfo::mayAlias(aliasClass_[i], aliasClass_[j]))
                        depend(i);
                if (is_store(j))
                    for (const int i : loads)
                        if (AliasInfo::mayAlias(aliasClass_[i],
                                                aliasClass_[j]))
                            depend(i);
            }
            for (const int r : du.reads) {
                if (r < 0)
                    continue;
                std::vector<int> &readers = regHistory_[r].readers;
                if (readers.empty() || readers.back() != j)
                    readers.push_back(j);
            }
            if (du.write >= 0)
                regHistory_[du.write].writers.push_back(j);
            if (is_load(j))
                loads.push_back(j);
            else if (is_store(j))
                stores.push_back(j);
        }
        for (const Instr &in : region_) {
            const DefUse du = defUse(in);
            for (const int r : {du.reads[0], du.reads[1], du.write}) {
                if (r >= 0) {
                    regHistory_[r].writers.clear();
                    regHistory_[r].readers.clear();
                }
            }
        }
        // List schedule keyed by the earliest load an instruction
        // (transitively) feeds: a load's key is its original position,
        // address arithmetic inherits the key of the load it feeds,
        // compute chains that feed only stores sink late, and stores
        // sink last. The effect is the Section 3.3 packing: the
        // independent miss loads (and only their address chains) bunch
        // at the top of the body, compute and stores follow. Edges
        // point forward, so original order is a topological order for
        // the backward key propagation.
        const int big = n;
        auto is_leading = [this](int i) {
            return opts_.leadingRefs.empty() ||
                   opts_.leadingRefs.count(region_[i].refId) != 0;
        };
        std::vector<int> key(n);
        for (int i = 0; i < n; ++i) {
            if (is_load(i) && is_leading(i))
                key[i] = i;
            else if (is_store(i))
                key[i] = 2 * big + i;
            else
                key[i] = big + i;
        }
        for (int i = n; i-- > 0;) {
            if ((is_load(i) && is_leading(i)) || is_store(i))
                continue;
            for (const int s : succs[i])
                key[i] = std::min(key[i], key[s]);
        }
        // Lowest key first, ties to the earlier instruction.
        using Ready = std::pair<int, int>;  // (key, index)
        std::priority_queue<Ready, std::vector<Ready>, std::greater<>>
            ready;
        for (int i = 0; i < n; ++i)
            if (preds[i] == 0)
                ready.emplace(key[i], i);
        int emitted = 0;
        while (!ready.empty()) {
            const int best = ready.top().second;
            ready.pop();
            for (const int s : succs[best])
                if (--preds[s] == 0)
                    ready.emplace(key[s], s);
            builder_.emit(region_[best]);
            ++emitted;
        }
        MPC_ASSERT(emitted == n, "scheduler dependence cycle");
    }

    AsmBuilder::Label
    newLabel()
    {
        return builder_.newLabel();
    }

    void
    bindLabel(AsmBuilder::Label label)
    {
        flushRegion();
        builder_.bind(label);
    }

    void
    emitBranch(Op op, Reg ra, Reg rb, AsmBuilder::Label target)
    {
        flushRegion();
        switch (op) {
          case Op::BEq: builder_.bEq(ra, rb, target); break;
          case Op::BNe: builder_.bNe(ra, rb, target); break;
          case Op::BLt: builder_.bLt(ra, rb, target); break;
          case Op::BGe: builder_.bGe(ra, rb, target); break;
          case Op::Jmp: builder_.jmp(target); break;
          default: panic("emitBranch: not a branch");
        }
    }

    // --- prologue -------------------------------------------------------
    void
    prologue()
    {
        // r0 is the hardwired-by-convention zero.
        Instr zero;
        zero.op = Op::ILoadImm;
        zero.rd = regZero;
        zero.imm = 0;
        emit(zero);
        nextInt_ = 1;
        // Reserved partitioning variables (see partitionParallelLoops).
        for (const auto &[name, value] :
             {std::pair<const char *, int>{"__procid", opts_.procId},
              {"__nprocs", opts_.numProcs}}) {
            Instr li;
            li.op = Op::ILoadImm;
            li.rd = intVarReg(name);
            li.imm = value;
            emit(li);
        }
        // A base register per array.
        int alias_id = 1;
        for (const auto &array : kernel_.arrays) {
            const Reg r = allocPersistentInt();
            baseRegs_[&array] = r;
            aliasIds_[&array] = alias_id++;
            Instr li;
            li.op = Op::ILoadImm;
            li.rd = r;
            li.imm = static_cast<std::int64_t>(array.base);
            emit(li);
        }
        flushRegion();
    }

    // --- expressions ----------------------------------------------------
    /** Split `expr` into (non-constant part, constant) for displacement
     *  folding. The non-constant part may be null (pure constant). */
    static std::pair<const Expr *, std::int64_t>
    splitConst(const Expr &expr)
    {
        if (const auto c = analysis::constEval(expr))
            return {nullptr, *c};
        if (expr.kind == Expr::Kind::Bin &&
            (expr.bop == ir::BinOp::Add || expr.bop == ir::BinOp::Sub)) {
            const auto rc = analysis::constEval(*expr.children[1]);
            if (rc) {
                auto [inner, c] = splitConst(*expr.children[0]);
                const std::int64_t sign =
                    expr.bop == ir::BinOp::Add ? 1 : -1;
                if (inner == nullptr && c == 0)
                    return {expr.children[0].get(), sign * *rc};
                return {inner != nullptr ? inner
                                         : expr.children[0].get(),
                        c + sign * *rc};
            }
            const auto lc = analysis::constEval(*expr.children[0]);
            if (lc && expr.bop == ir::BinOp::Add)
                return {expr.children[1].get(), *lc};
        }
        return {&expr, 0};
    }

    /** Address of a memory reference as (base reg, displacement,
     *  released-on-use temp). */
    struct Address
    {
        Reg base = kisa::noReg;
        std::int64_t disp = 0;
        Operand temp;   ///< holds base when it is a temp
        AliasInfo alias;
    };

    Address
    lowerAddress(const Expr &ref)
    {
        Address out;
        if (ref.kind == Expr::Kind::Deref) {
            Operand ptr = lowerExpr(*ref.children[0]);
            out.base = ptr.reg;
            out.disp = ref.ival;
            out.temp = ptr;
            out.alias.any = true;
            return out;
        }
        MPC_ASSERT(ref.kind == Expr::Kind::ArrayRef, "not a memory ref");
        const ir::Array &array = *ref.array;
        if (!baseRegs_.count(&array)) {
            // Measurement mode may lower loops referencing arrays of a
            // cloned kernel; register them on demand.
            const Reg r = allocPersistentInt();
            baseRegs_[&array] = r;
            aliasIds_[&array] = static_cast<int>(baseRegs_.size());
            Instr li;
            li.op = Op::ILoadImm;
            li.rd = r;
            li.imm = static_cast<std::int64_t>(array.base);
            emit(li);
        }
        out.alias.any = false;
        out.alias.arrayId = aliasIds_.at(&array);
        if (auto form = analysis::linearIndexForm(ref)) {
            std::string shape;
            for (const auto &[v, coef] : form->coefs) {
                if (coef != 0)
                    shape += v + ":" + std::to_string(coef) + ";";
            }
            out.alias.shapeKnown = true;
            out.alias.shapeHash = std::hash<std::string>{}(shape);
            out.alias.c = form->c;
        }

        // index = sum over dims of (nonconst_d * rowstride_d), with the
        // constant parts folded into the displacement.
        Operand index;
        std::int64_t const_index = 0;
        for (size_t d = 0; d < ref.children.size(); ++d) {
            auto [part, c] = splitConst(*ref.children[d]);
            const std::int64_t dim = array.dims[d];
            // Scale the accumulator by this dimension. Constants of
            // the form 2^a +/- 2^b (e.g. padded row pitches) are
            // strength-reduced to two shifts and an add/sub of 1-cycle
            // ALU ops instead of a multi-cycle multiply.
            if (index.reg != kisa::noReg && d > 0) {
                const Reg scaled = index.isTemp ? index.reg
                                                : allocTempInt();
                const auto two_term = shiftPairSplit(
                    static_cast<std::uint64_t>(dim));
                if (isPowerOf2(static_cast<std::uint64_t>(dim))) {
                    Instr sc;
                    sc.op = Op::IShlImm;
                    sc.imm = log2Floor(static_cast<std::uint64_t>(dim));
                    sc.rd = scaled;
                    sc.ra = index.reg;
                    emit(sc);
                } else if (two_term) {
                    const auto [hi_sh, lo_sh, negate] = *two_term;
                    const Reg hi = allocTempInt();
                    Instr sh;
                    sh.op = Op::IShlImm;
                    sh.rd = hi;
                    sh.ra = index.reg;
                    sh.imm = hi_sh;
                    emit(sh);
                    Instr sl;
                    sl.op = Op::IShlImm;
                    sl.rd = scaled;
                    sl.ra = index.reg;
                    sl.imm = lo_sh;
                    emit(sl);
                    Instr comb;
                    comb.op = negate ? Op::ISub : Op::IAdd;
                    comb.rd = scaled;
                    comb.ra = hi;
                    comb.rb = scaled;
                    emit(comb);
                    intFree_.push_back(hi);
                } else {
                    Instr sc;
                    sc.op = Op::IMulImm;
                    sc.imm = dim;
                    sc.rd = scaled;
                    sc.ra = index.reg;
                    emit(sc);
                }
                index.reg = scaled;
                index.isTemp = true;
            }
            const_index = const_index * dim + c;
            if (part != nullptr) {
                Operand sub = lowerExpr(*part);
                MPC_ASSERT(!sub.isFp, "FP value used as subscript");
                if (index.reg == kisa::noReg) {
                    index = sub;
                } else {
                    Instr addi;
                    addi.op = Op::IAdd;
                    addi.rd = index.isTemp ? index.reg : allocTempInt();
                    addi.ra = index.reg;
                    addi.rb = sub.reg;
                    emit(addi);
                    if (!index.isTemp) {
                        index.reg = addi.rd;
                        index.isTemp = true;
                    }
                    release(sub);
                }
            }
        }
        const Reg base_reg = baseRegs_.at(&array);
        if (index.reg == kisa::noReg) {
            out.base = base_reg;
            out.disp = const_index * 8;
            return out;
        }
        // byte address = base + (index << 3)
        const Reg bytes = index.isTemp ? index.reg : allocTempInt();
        Instr shl;
        shl.op = Op::IShlImm;
        shl.rd = bytes;
        shl.ra = index.reg;
        shl.imm = 3;
        emit(shl);
        Instr addb;
        addb.op = Op::IAdd;
        addb.rd = bytes;
        addb.ra = bytes;
        addb.rb = base_reg;
        emit(addb);
        out.base = bytes;
        out.disp = const_index * 8;
        out.temp = Operand{bytes, false, true};
        return out;
    }

    Operand
    lowerExpr(const Expr &expr)
    {
        switch (expr.kind) {
          case Expr::Kind::IntConst: {
            if (expr.ival == 0)
                return {regZero, false, false};
            const Reg r = allocTempInt();
            Instr li;
            li.op = Op::ILoadImm;
            li.rd = r;
            li.imm = expr.ival;
            emit(li);
            return {r, false, true};
          }
          case Expr::Kind::FloatConst: {
            const Reg r = allocTempFp();
            Instr li;
            li.op = Op::FLoadImm;
            li.rd = r;
            li.imm = std::bit_cast<std::int64_t>(expr.fval);
            emit(li);
            return {r, true, true};
          }
          case Expr::Kind::VarRef:
            if (varIsFp(expr.var))
                return {fpVarReg(expr.var), true, false};
            return {intVarReg(expr.var), false, false};
          case Expr::Kind::ArrayRef:
          case Expr::Kind::Deref: {
            const bool fp = expr.kind == Expr::Kind::ArrayRef
                                ? expr.array->elem == ScalType::F64
                                : expr.vtype == ScalType::F64;
            Address addr = lowerAddress(expr);
            const Reg dest = fp ? allocTempFp() : allocTempInt();
            Instr ld;
            ld.op = fp ? Op::LdF : Op::LdI;
            ld.rd = dest;
            ld.ra = addr.base;
            ld.imm = addr.disp;
            ld.refId = static_cast<std::uint32_t>(expr.refId);
            emit(ld, addr.alias);
            release(addr.temp);
            return {dest, fp, true};
          }
          case Expr::Kind::Bin: {
            Operand a = lowerExpr(*expr.children[0]);
            Operand b = lowerExpr(*expr.children[1]);
            const bool fp = a.isFp || b.isFp;
            if (fp) {
                a = coerceFp(a);
                b = coerceFp(b);
            }
            const Reg dest = fp ? allocTempFp() : allocTempInt();
            Instr in;
            switch (expr.bop) {
              case ir::BinOp::Add: in.op = fp ? Op::FAdd : Op::IAdd; break;
              case ir::BinOp::Sub: in.op = fp ? Op::FSub : Op::ISub; break;
              case ir::BinOp::Mul: in.op = fp ? Op::FMul : Op::IMul; break;
              case ir::BinOp::Div: in.op = fp ? Op::FDiv : Op::IDiv; break;
              case ir::BinOp::Mod:
                MPC_ASSERT(!fp, "FP modulo not supported in codegen");
                in.op = Op::IRem;
                break;
              case ir::BinOp::Min: in.op = fp ? Op::FMin : Op::IMin; break;
              case ir::BinOp::Max: in.op = fp ? Op::FMax : Op::IMax; break;
            }
            in.rd = dest;
            in.ra = a.reg;
            in.rb = b.reg;
            emit(in);
            release(a);
            release(b);
            return {dest, fp, true};
          }
          case Expr::Kind::Un: {
            Operand a = lowerExpr(*expr.children[0]);
            switch (expr.uop) {
              case ir::UnOp::Neg: {
                if (a.isFp) {
                    const Reg dest = allocTempFp();
                    Instr in;
                    in.op = Op::FNeg;
                    in.rd = dest;
                    in.ra = a.reg;
                    emit(in);
                    release(a);
                    return {dest, true, true};
                }
                const Reg dest = allocTempInt();
                Instr in;
                in.op = Op::ISub;
                in.rd = dest;
                in.ra = regZero;
                in.rb = a.reg;
                emit(in);
                release(a);
                return {dest, false, true};
              }
              case ir::UnOp::Sqrt: {
                a = coerceFp(a);
                const Reg dest = allocTempFp();
                Instr in;
                in.op = Op::FSqrt;
                in.rd = dest;
                in.ra = a.reg;
                emit(in);
                release(a);
                return {dest, true, true};
              }
              case ir::UnOp::Abs: {
                a = coerceFp(a);
                const Reg dest = allocTempFp();
                Instr in;
                in.op = Op::FAbs;
                in.rd = dest;
                in.ra = a.reg;
                emit(in);
                release(a);
                return {dest, true, true};
              }
              case ir::UnOp::Trunc: {
                if (!a.isFp)
                    return a;
                const Reg dest = allocTempInt();
                Instr in;
                in.op = Op::CvtFI;
                in.rd = dest;
                in.ra = a.reg;
                emit(in);
                release(a);
                return {dest, false, true};
              }
            }
            panic("lowerExpr: bad unary op");
          }
        }
        panic("lowerExpr: bad expression kind");
    }

    Operand
    coerceFp(Operand operand)
    {
        if (operand.isFp)
            return operand;
        const Reg dest = allocTempFp();
        Instr in;
        in.op = Op::CvtIF;
        in.rd = dest;
        in.ra = operand.reg;
        emit(in);
        release(operand);
        return {dest, true, true};
    }

    /** Lower @p expr, placing the result in the given register. The
     *  destination is only written by the final instruction, so the
     *  destination may appear inside @p expr. */
    void
    lowerInto(const Expr &expr, Reg dest, bool dest_fp)
    {
        // Binary roots can write the destination directly: operands are
        // fully evaluated before the final instruction writes dest.
        if (expr.kind == Expr::Kind::Bin && expr.bop != ir::BinOp::Mod) {
            Operand a = lowerExpr(*expr.children[0]);
            Operand b = lowerExpr(*expr.children[1]);
            const bool fp = a.isFp || b.isFp;
            if (fp == dest_fp) {
                if (fp) {
                    a = coerceFp(a);
                    b = coerceFp(b);
                }
                Instr in;
                switch (expr.bop) {
                  case ir::BinOp::Add: in.op = fp ? Op::FAdd : Op::IAdd; break;
                  case ir::BinOp::Sub: in.op = fp ? Op::FSub : Op::ISub; break;
                  case ir::BinOp::Mul: in.op = fp ? Op::FMul : Op::IMul; break;
                  case ir::BinOp::Div: in.op = fp ? Op::FDiv : Op::IDiv; break;
                  case ir::BinOp::Min: in.op = fp ? Op::FMin : Op::IMin; break;
                  case ir::BinOp::Max: in.op = fp ? Op::FMax : Op::IMax; break;
                  default: panic("unreachable binop");
                }
                in.rd = dest;
                in.ra = a.reg;
                in.rb = b.reg;
                emit(in);
                release(a);
                release(b);
                return;
            }
            release(a);
            release(b);
            // Type mismatch: fall through to the generic path below
            // (re-lowering the children; rare).
        }
        Operand v = lowerExpr(expr);
        if (dest_fp && !v.isFp)
            v = coerceFp(v);
        if (!dest_fp && v.isFp) {
            Instr cv;
            cv.op = Op::CvtFI;
            cv.rd = dest;
            cv.ra = v.reg;
            emit(cv);
            release(v);
            return;
        }
        if (v.reg == dest) {
            release(v);
            return;
        }
        Instr mv;
        if (dest_fp) {
            mv.op = Op::FMov;
            mv.rd = dest;
            mv.ra = v.reg;
        } else {
            mv.op = Op::IAddImm;
            mv.rd = dest;
            mv.ra = v.reg;
            mv.imm = 0;
        }
        emit(mv);
        release(v);
    }

    // --- statements -----------------------------------------------------
    void
    lowerStmt(const Stmt &stmt)
    {
        switch (stmt.kind) {
          case Stmt::Kind::Assign:
          case Stmt::Kind::FlagSet:
            lowerAssign(stmt);
            break;
          case Stmt::Kind::Loop:
            lowerLoop(stmt);
            break;
          case Stmt::Kind::PtrLoop:
            lowerPtrLoop(stmt);
            break;
          case Stmt::Kind::While:
            lowerWhile(stmt);
            break;
          case Stmt::Kind::Prefetch: {
            Address addr = lowerAddress(*stmt.lhs);
            Instr pf;
            pf.op = Op::Prefetch;
            pf.ra = addr.base;
            pf.imm = addr.disp;
            pf.refId = static_cast<std::uint32_t>(stmt.lhs->refId);
            emit(pf, addr.alias);
            release(addr.temp);
            break;
          }
          case Stmt::Kind::Barrier: {
            flushRegion();
            builder_.barrier();
            break;
          }
          case Stmt::Kind::FlagWait: {
            flushRegion();
            Address addr = lowerAddress(*stmt.lhs);
            Operand threshold = lowerExpr(*stmt.rhs);
            flushRegion();
            builder_.flagWait(addr.base, addr.disp, threshold.reg);
            release(addr.temp);
            release(threshold);
            break;
          }
        }
    }

    void
    lowerAssign(const Stmt &stmt)
    {
        const Expr &lhs = *stmt.lhs;
        if (lhs.kind == Expr::Kind::VarRef) {
            if (varIsFp(lhs.var))
                lowerInto(*stmt.rhs, fpVarReg(lhs.var), true);
            else
                lowerInto(*stmt.rhs, intVarReg(lhs.var), false);
            return;
        }
        // Store.
        const bool fp = lhs.kind == Expr::Kind::ArrayRef
                            ? lhs.array->elem == ScalType::F64
                            : lhs.vtype == ScalType::F64;
        Operand value = lowerExpr(*stmt.rhs);
        if (fp && !value.isFp)
            value = coerceFp(value);
        if (!fp && value.isFp) {
            const Reg iv = allocTempInt();
            Instr cv;
            cv.op = Op::CvtFI;
            cv.rd = iv;
            cv.ra = value.reg;
            emit(cv);
            release(value);
            value = {iv, false, true};
        }
        Address addr = lowerAddress(lhs);
        Instr st;
        st.op = fp ? Op::StF : Op::StI;
        st.ra = addr.base;
        st.rb = value.reg;
        st.imm = addr.disp;
        st.refId = static_cast<std::uint32_t>(lhs.refId);
        emit(st, addr.alias);
        release(addr.temp);
        release(value);
    }

    /** True if the loop bound must be re-evaluated every iteration. */
    static bool
    boundIsDynamic(const Stmt &loop)
    {
        std::set<std::string> assigned;
        for (const auto &child : loop.body) {
            ir::walkStmts(*child, [&assigned](const Stmt &s) {
                if (s.kind == Stmt::Kind::Assign &&
                    s.lhs->kind == Expr::Kind::VarRef)
                    assigned.insert(s.lhs->var);
                if (s.kind == Stmt::Kind::PtrLoop)
                    assigned.insert(s.var);
            });
        }
        bool dynamic = false;
        std::function<void(const Expr &)> scan = [&](const Expr &e) {
            if (e.isMemRef())
                dynamic = true;
            if (e.kind == Expr::Kind::VarRef && assigned.count(e.var))
                dynamic = true;
            for (const auto &c : e.children)
                scan(*c);
        };
        scan(*loop.hi);
        return dynamic;
    }

    void
    lowerLoop(const Stmt &stmt)
    {
        MPC_ASSERT(stmt.step != 0, "zero loop step");
        const bool down = stmt.step < 0;
        const Reg var = intVarReg(stmt.var);
        lowerInto(*stmt.lo, var, false);

        const Reg hi = allocPersistentInt();
        const bool dynamic_hi = boundIsDynamic(stmt);
        lowerInto(*stmt.hi, hi, false);

        const bool partition = stmt.parallel && opts_.numProcs > 1 &&
                               !stmt.prePartitioned && !partitioned_;
        MPC_ASSERT(!(partition && down),
                   "partitioning downward loops is unsupported");
        if (partition) {
            // chunk = ceil(ceil(trip / P) / step) * step, so chunk
            // boundaries stay aligned to the (possibly unroll-and-
            // jammed) step; lo += procId * chunk; hi = min(lo+chunk,hi)
            MPC_ASSERT(!dynamic_hi, "cannot partition a dynamic bound");
            const std::int64_t pstep =
                static_cast<std::int64_t>(opts_.numProcs) * stmt.step;
            const Reg trip = allocTempInt();
            Instr sub;
            sub.op = Op::ISub;
            sub.rd = trip;
            sub.ra = hi;
            sub.rb = var;
            emit(sub);
            Instr addp;
            addp.op = Op::IAddImm;
            addp.rd = trip;
            addp.ra = trip;
            addp.imm = pstep - 1;
            emit(addp);
            const Reg preg = allocTempInt();
            Instr lp;
            lp.op = Op::ILoadImm;
            lp.rd = preg;
            lp.imm = pstep;
            emit(lp);
            Instr divp;
            divp.op = Op::IDiv;
            divp.rd = trip;    // trip now holds chunk / step
            divp.ra = trip;
            divp.rb = preg;
            emit(divp);
            Instr scl;
            scl.op = Op::IMulImm;
            scl.rd = trip;     // chunk, step-aligned
            scl.ra = trip;
            scl.imm = stmt.step;
            emit(scl);
            intFree_.push_back(preg);
            if (opts_.procId > 0) {
                const Reg off = allocTempInt();
                Instr mo;
                mo.op = Op::IMulImm;
                mo.rd = off;
                mo.ra = trip;
                mo.imm = opts_.procId;
                emit(mo);
                Instr av;
                av.op = Op::IAdd;
                av.rd = var;
                av.ra = var;
                av.rb = off;
                emit(av);
                intFree_.push_back(off);
            }
            const Reg my_hi = allocTempInt();
            Instr ah;
            ah.op = Op::IAdd;
            ah.rd = my_hi;
            ah.ra = var;
            ah.rb = trip;
            emit(ah);
            Instr mn;
            mn.op = Op::IMin;
            mn.rd = hi;
            mn.ra = my_hi;
            mn.rb = hi;
            emit(mn);
            intFree_.push_back(my_hi);
            intFree_.push_back(trip);
            partitioned_ = true;
        }

        auto l_top = newLabel();
        auto l_exit = newLabel();
        // Guard (also flushes): exit when the range is empty. Upward
        // loops run while var < hi; downward loops while var > hi.
        if (down)
            emitBranch(Op::BGe, hi, var, l_exit);
        else
            emitBranch(Op::BGe, var, hi, l_exit);
        bindLabel(l_top);
        const int body_start = builder_.here();

        for (const auto &child : stmt.body)
            lowerStmt(*child);

        // Increment and backedge.
        Instr inc;
        inc.op = Op::IAddImm;
        inc.rd = var;
        inc.ra = var;
        inc.imm = stmt.step;
        emit(inc);
        if (dynamic_hi)
            lowerInto(*stmt.hi, hi, false);
        if (down)
            emitBranch(Op::BLt, hi, var, l_top);
        else
            emitBranch(Op::BLt, var, hi, l_top);
        bindLabel(l_exit);

        if (measureTarget_ == &stmt)
            measuredBody_ = builder_.here() - body_start - 1;
        if (partition)
            partitioned_ = false;
    }

    void
    lowerPtrLoop(const Stmt &stmt)
    {
        const Reg var = intVarReg(stmt.var);
        lowerInto(*stmt.lo, var, false);
        auto l_top = newLabel();
        auto l_exit = newLabel();
        emitBranch(Op::BEq, var, regZero, l_exit);
        bindLabel(l_top);
        const int body_start = builder_.here();

        for (const auto &child : stmt.body)
            lowerStmt(*child);

        // Advance: var = *(var + next_offset)
        Instr adv;
        adv.op = Op::LdI;
        adv.rd = var;
        adv.ra = var;
        adv.imm = stmt.step;
        adv.refId = stmt.rhs
                        ? static_cast<std::uint32_t>(stmt.rhs->refId)
                        : 0xffffffff;
        AliasInfo deref_alias;
        deref_alias.any = true;
        emit(adv, deref_alias);
        emitBranch(Op::BNe, var, regZero, l_top);
        bindLabel(l_exit);

        if (measureTarget_ == &stmt)
            measuredBody_ = builder_.here() - body_start - 1;
    }

    void
    lowerWhile(const Stmt &stmt)
    {
        auto l_check = newLabel();
        auto l_exit = newLabel();
        bindLabel(l_check);
        Operand cond = lowerExpr(*stmt.lo);
        emitBranch(Op::BEq, cond.reg, regZero, l_exit);
        release(cond);
        const int body_start = builder_.here();

        for (const auto &child : stmt.body)
            lowerStmt(*child);

        emitBranch(Op::Jmp, kisa::noReg, kisa::noReg, l_check);
        bindLabel(l_exit);

        if (measureTarget_ == &stmt)
            measuredBody_ = builder_.here() - body_start - 1;
    }

    const Kernel &kernel_;
    CodegenOptions opts_;
    AsmBuilder builder_;

    std::vector<Instr> region_;
    std::vector<AliasInfo> aliasClass_;

    /** The scheduler's earlier writers and readers of each register
     *  slot (see DefUse); sized at the first scheduled region and
     *  emptied after every region. */
    struct RegHistory
    {
        std::vector<int> writers, readers;
    };
    std::vector<RegHistory> regHistory_;

    int nextInt_ = 1;
    int nextFp_ = 0;
    static constexpr int tempBaseInt_ = 112;
    static constexpr int tempBaseFp_ = 112;
    int intTempNext_ = tempBaseInt_;
    int fpTempNext_ = tempBaseFp_;
    std::vector<Reg> intFree_;
    std::vector<Reg> fpFree_;

    std::map<std::string, Reg> intVars_;
    std::map<std::string, Reg> fpVars_;
    std::map<const ir::Array *, Reg> baseRegs_;
    std::map<const ir::Array *, int> aliasIds_;

    bool partitioned_ = false;

    const Stmt *measureTarget_ = nullptr;
    int measuredBody_ = -1;
};

} // namespace

kisa::Program
lower(const ir::Kernel &kernel, const CodegenOptions &options)
{
    for (const auto &array : kernel.arrays)
        MPC_ASSERT(array.base != 0, "layoutArrays before lowering");
    Lowerer lowerer(kernel, options);
    return lowerer.lower();
}

std::vector<kisa::Program>
lowerForCores(const ir::Kernel &kernel, int num_procs,
              bool clustered_schedule,
              const std::set<std::uint32_t> &leading_refs)
{
    std::vector<kisa::Program> programs;
    for (int p = 0; p < num_procs; ++p) {
        CodegenOptions options;
        options.clusteredSchedule = clustered_schedule;
        options.leadingRefs = leading_refs;
        options.procId = p;
        options.numProcs = num_procs;
        programs.push_back(lower(kernel, options));
    }
    return programs;
}

int
loweredBodySize(const ir::Kernel &kernel, const ir::Stmt &loop)
{
    CodegenOptions options;
    Lowerer lowerer(kernel, options);
    return lowerer.measure(loop);
}

} // namespace mpc::codegen
