/**
 * @file
 * Loop-nest intermediate representation.
 *
 * Kernels are the unit the clustering framework operates on: a set of
 * arrays (row-major, 8-byte elements), scalar variables, and a
 * statement tree of counted loops, pointer-chase loops, assignments,
 * and synchronization statements. The analysis passes (src/analysis)
 * classify memory references; the transformations (src/transform)
 * rewrite the tree; the code generator (src/codegen) lowers it to KISA.
 */

#ifndef MPC_IR_KERNEL_HH
#define MPC_IR_KERNEL_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"

namespace mpc::ir
{

/** Element type of arrays and scalars. */
enum class ScalType { I64, F64 };

/**
 * A dense row-major array of 8-byte elements. The last dimension is
 * contiguous in memory.
 */
struct Array
{
    std::string name;
    ScalType elem = ScalType::F64;
    std::vector<std::int64_t> dims;
    Addr base = 0;      ///< assigned by layoutArrays()

    std::int64_t
    numElems() const
    {
        std::int64_t n = 1;
        for (auto d : dims)
            n *= d;
        return n;
    }

    std::uint64_t sizeBytes() const
    {
        return static_cast<std::uint64_t>(numElems()) * 8;
    }

    /** Row-major linear index of the given subscripts. */
    std::int64_t linearIndex(const std::vector<std::int64_t> &subs) const;

    /** Byte address of the given element (after layout). */
    Addr addrOf(const std::vector<std::int64_t> &subs) const;
};

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/** Binary operators. */
enum class BinOp { Add, Sub, Mul, Div, Mod, Min, Max };

/** Unary operators. */
enum class UnOp { Neg, Sqrt, Abs, Trunc /* f64 -> i64 */ };

/**
 * Expression node (tagged union style; see the `kind` field for which
 * members are meaningful).
 */
struct Expr
{
    enum class Kind {
        IntConst,   ///< ival
        FloatConst, ///< fval
        VarRef,     ///< var (scalar variable or loop index)
        ArrayRef,   ///< array + children = subscripts; refId
        Deref,      ///< children[0] = pointer expr; ival = byte offset;
                    ///< refId (pointer-chasing field access)
        Bin,        ///< bop + children[0..1]
        Un,         ///< uop + children[0]
    };

    Kind kind = Kind::IntConst;
    std::int64_t ival = 0;
    double fval = 0.0;
    std::string var;
    const Array *array = nullptr;
    BinOp bop = BinOp::Add;
    UnOp uop = UnOp::Neg;
    std::vector<ExprPtr> children;

    /** Value type of a Deref (pointer loads are I64; payload fields
     *  may be F64). Meaningless for other kinds. */
    ScalType vtype = ScalType::I64;

    /**
     * Stable identity of a static memory reference, preserved across
     * transformation cloning so that profiled miss rates (P_m) and
     * simulator statistics can be attributed to the original reference.
     * Assigned by assignRefIds(); -1 until then.
     */
    int refId = -1;

    bool isMemRef() const
    {
        return kind == Kind::ArrayRef || kind == Kind::Deref;
    }

    ExprPtr clone() const;
    std::string toString() const;
};

// --- expression factories --------------------------------------------
ExprPtr iconst(std::int64_t v);
ExprPtr fconst(double v);
ExprPtr varref(std::string name);
ExprPtr aref(const Array *array, std::vector<ExprPtr> subs);
ExprPtr deref(ExprPtr ptr, std::int64_t byte_offset,
              ScalType vtype = ScalType::I64);
ExprPtr bin(BinOp op, ExprPtr a, ExprPtr b);
ExprPtr un(UnOp op, ExprPtr a);
ExprPtr add(ExprPtr a, ExprPtr b);
ExprPtr sub(ExprPtr a, ExprPtr b);
ExprPtr mul(ExprPtr a, ExprPtr b);
ExprPtr divx(ExprPtr a, ExprPtr b);
ExprPtr minx(ExprPtr a, ExprPtr b);
ExprPtr modx(ExprPtr a, ExprPtr b);

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

/**
 * Statement node.
 */
struct Stmt
{
    enum class Kind {
        Assign,     ///< lhs = rhs (lhs: VarRef, ArrayRef, or Deref)
        Loop,       ///< for (var = lo; var < hi; var += step) body
        PtrLoop,    ///< for (var = lo; var != 0; var = *(var+step)) body
        While,      ///< while (lo != 0) body  (jammed pointer chases)
        Prefetch,   ///< nonbinding prefetch of lhs (a memory ref)
        Barrier,    ///< multiprocessor barrier
        FlagSet,    ///< store rhs to flag location lhs (release)
        FlagWait,   ///< wait until value at lhs >= rhs (acquire)
    };

    Kind kind = Kind::Assign;

    // Assign / FlagSet / FlagWait
    ExprPtr lhs;
    ExprPtr rhs;

    // Loop / PtrLoop
    std::string var;
    ExprPtr lo;                 ///< PtrLoop: initial pointer expression
    ExprPtr hi;
    std::int64_t step = 1;      ///< PtrLoop: byte offset of next field
    std::vector<StmtPtr> body;

    /**
     * Loop marked safe for iteration reordering and multiprocessor
     * partitioning (the paper assumes such annotations for the
     * pointer-based codes Mp3d and MST).
     */
    bool parallel = false;

    /** Free marker for driver passes (copied by clone). */
    int mark = 0;

    /** Loop bounds already rewritten to per-processor ranges; codegen
     *  must not partition it again. */
    bool prePartitioned = false;

    StmtPtr clone() const;
    std::string toString(int indent = 0) const;
};

// --- statement factories ---------------------------------------------
StmtPtr assign(ExprPtr lhs, ExprPtr rhs);
StmtPtr forLoop(std::string var, ExprPtr lo, ExprPtr hi,
                std::vector<StmtPtr> body, std::int64_t step = 1,
                bool parallel = false);
StmtPtr ptrLoop(std::string var, ExprPtr init, std::int64_t next_offset,
                std::vector<StmtPtr> body);
StmtPtr whileLoop(ExprPtr cond, std::vector<StmtPtr> body);
StmtPtr prefetch(ExprPtr ref);
StmtPtr barrier();
StmtPtr flagSet(ExprPtr loc, ExprPtr value);
StmtPtr flagWait(ExprPtr loc, ExprPtr value);

/**
 * A complete kernel.
 */
struct Kernel
{
    Kernel() = default;
    // Copying must go through clone() (array pointers need remapping).
    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;
    Kernel(Kernel &&) = default;
    Kernel &operator=(Kernel &&) = default;

    std::string name;
    std::deque<Array> arrays;                   ///< stable addresses
    std::map<std::string, ScalType> scalars;
    std::vector<StmtPtr> body;

    /** Declare an array; returned pointer stays valid. */
    Array *addArray(std::string name, ScalType elem,
                    std::vector<std::int64_t> dims);

    /** Declare a scalar variable (loop indices are implicit). */
    void declareScalar(std::string name, ScalType type);

    Array *findArray(const std::string &name);
    const Array *findArray(const std::string &name) const;

    Kernel clone() const;
    std::string toString() const;
};

/**
 * Full structural equality: every field that layout, memory init,
 * lowering, execution and checksumArrays read. That is the name, the
 * arrays (name, elem, dims, base), the scalars, and every Stmt and Expr
 * field, refId, vtype, parallel, prePartitioned and mark included.
 * Array pointers compare by their index in each kernel's array list,
 * doubles by their bits. A kernel compares equal to its clone().
 */
bool operator==(const Kernel &a, const Kernel &b);

/**
 * Assign stable refIds to memory references that do not have one yet
 * (preorder). @return the number of distinct ids in the kernel.
 */
int assignRefIds(Kernel &kernel);

/**
 * Assign base addresses to all arrays: consecutive, line-aligned, with
 * @p gap_bytes of padding between arrays.
 */
void layoutArrays(Kernel &kernel, Addr base = 0x10000000,
                  Addr align = 64, Addr gap_bytes = 4096);

/** Walk all expressions in a statement subtree (preorder). */
void walkExprs(const Stmt &stmt, const std::function<void(const Expr &)> &fn);
void walkExprs(Stmt &stmt, const std::function<void(Expr &)> &fn);

/** Walk all statements in a subtree (preorder, including @p stmt). */
void walkStmts(Stmt &stmt, const std::function<void(Stmt &)> &fn);
void walkStmts(const Stmt &stmt,
               const std::function<void(const Stmt &)> &fn);

} // namespace mpc::ir

#endif // MPC_IR_KERNEL_HH
