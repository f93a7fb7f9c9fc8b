#include "ir/kernel.hh"

#include <algorithm>
#include <bit>
#include <functional>
#include <sstream>

#include "common/logging.hh"

namespace mpc::ir
{

std::int64_t
Array::linearIndex(const std::vector<std::int64_t> &subs) const
{
    MPC_ASSERT(subs.size() == dims.size(), "subscript count mismatch");
    std::int64_t idx = 0;
    for (size_t d = 0; d < dims.size(); ++d) {
        MPC_ASSERT(subs[d] >= 0 && subs[d] < dims[d],
                   "subscript out of bounds");
        idx = idx * dims[d] + subs[d];
    }
    return idx;
}

Addr
Array::addrOf(const std::vector<std::int64_t> &subs) const
{
    return base + static_cast<Addr>(linearIndex(subs)) * 8;
}

ExprPtr
Expr::clone() const
{
    auto copy = std::make_unique<Expr>();
    copy->kind = kind;
    copy->ival = ival;
    copy->fval = fval;
    copy->var = var;
    copy->array = array;
    copy->bop = bop;
    copy->uop = uop;
    copy->vtype = vtype;
    copy->refId = refId;
    for (const auto &child : children)
        copy->children.push_back(child->clone());
    return copy;
}

std::string
Expr::toString() const
{
    switch (kind) {
      case Kind::IntConst:
        return std::to_string(ival);
      case Kind::FloatConst:
        return strprintf("%g", fval);
      case Kind::VarRef:
        return var;
      case Kind::ArrayRef: {
        std::string s = array->name;
        for (const auto &sub : children)
            s += "[" + sub->toString() + "]";
        return s;
      }
      case Kind::Deref:
        return strprintf("*(%s + %lld)", children[0]->toString().c_str(),
                         static_cast<long long>(ival));
      case Kind::Bin: {
        const char *op = "?";
        switch (bop) {
          case BinOp::Add: op = "+"; break;
          case BinOp::Sub: op = "-"; break;
          case BinOp::Mul: op = "*"; break;
          case BinOp::Div: op = "/"; break;
          case BinOp::Mod: op = "%"; break;
          case BinOp::Min: op = "min"; break;
          case BinOp::Max: op = "max"; break;
        }
        if (bop == BinOp::Min || bop == BinOp::Max) {
            return strprintf("%s(%s, %s)", op,
                             children[0]->toString().c_str(),
                             children[1]->toString().c_str());
        }
        return strprintf("(%s %s %s)", children[0]->toString().c_str(), op,
                         children[1]->toString().c_str());
      }
      case Kind::Un: {
        const char *op = uop == UnOp::Neg      ? "-"
                         : uop == UnOp::Sqrt ? "sqrt"
                         : uop == UnOp::Abs  ? "abs"
                                             : "trunc";
        return strprintf("%s(%s)", op, children[0]->toString().c_str());
      }
    }
    return "?";
}

ExprPtr
iconst(std::int64_t v)
{
    auto e = std::make_unique<Expr>();
    e->kind = Expr::Kind::IntConst;
    e->ival = v;
    return e;
}

ExprPtr
fconst(double v)
{
    auto e = std::make_unique<Expr>();
    e->kind = Expr::Kind::FloatConst;
    e->fval = v;
    return e;
}

ExprPtr
varref(std::string name)
{
    auto e = std::make_unique<Expr>();
    e->kind = Expr::Kind::VarRef;
    e->var = std::move(name);
    return e;
}

ExprPtr
aref(const Array *array, std::vector<ExprPtr> subs)
{
    MPC_ASSERT(array != nullptr, "aref of null array");
    MPC_ASSERT(subs.size() == array->dims.size(),
               "aref subscript count mismatch");
    auto e = std::make_unique<Expr>();
    e->kind = Expr::Kind::ArrayRef;
    e->array = array;
    e->children = std::move(subs);
    return e;
}

ExprPtr
deref(ExprPtr ptr, std::int64_t byte_offset, ScalType vtype)
{
    auto e = std::make_unique<Expr>();
    e->kind = Expr::Kind::Deref;
    e->ival = byte_offset;
    e->vtype = vtype;
    e->children.push_back(std::move(ptr));
    return e;
}

ExprPtr
bin(BinOp op, ExprPtr a, ExprPtr b)
{
    auto e = std::make_unique<Expr>();
    e->kind = Expr::Kind::Bin;
    e->bop = op;
    e->children.push_back(std::move(a));
    e->children.push_back(std::move(b));
    return e;
}

ExprPtr
un(UnOp op, ExprPtr a)
{
    auto e = std::make_unique<Expr>();
    e->kind = Expr::Kind::Un;
    e->uop = op;
    e->children.push_back(std::move(a));
    return e;
}

ExprPtr add(ExprPtr a, ExprPtr b) { return bin(BinOp::Add, std::move(a), std::move(b)); }
ExprPtr sub(ExprPtr a, ExprPtr b) { return bin(BinOp::Sub, std::move(a), std::move(b)); }
ExprPtr mul(ExprPtr a, ExprPtr b) { return bin(BinOp::Mul, std::move(a), std::move(b)); }
ExprPtr divx(ExprPtr a, ExprPtr b) { return bin(BinOp::Div, std::move(a), std::move(b)); }
ExprPtr minx(ExprPtr a, ExprPtr b) { return bin(BinOp::Min, std::move(a), std::move(b)); }
ExprPtr modx(ExprPtr a, ExprPtr b) { return bin(BinOp::Mod, std::move(a), std::move(b)); }

StmtPtr
Stmt::clone() const
{
    auto copy = std::make_unique<Stmt>();
    copy->kind = kind;
    if (lhs)
        copy->lhs = lhs->clone();
    if (rhs)
        copy->rhs = rhs->clone();
    copy->var = var;
    if (lo)
        copy->lo = lo->clone();
    if (hi)
        copy->hi = hi->clone();
    copy->step = step;
    copy->parallel = parallel;
    copy->mark = mark;
    copy->prePartitioned = prePartitioned;
    for (const auto &stmt : body)
        copy->body.push_back(stmt->clone());
    return copy;
}

std::string
Stmt::toString(int indent) const
{
    const std::string pad(static_cast<size_t>(indent) * 2, ' ');
    std::ostringstream out;
    switch (kind) {
      case Kind::Assign:
        out << pad << lhs->toString() << " = " << rhs->toString() << "\n";
        break;
      case Kind::Loop:
        out << pad << "for (" << var << " = " << lo->toString() << "; "
            << var << (step < 0 ? " > " : " < ") << hi->toString()
            << "; " << var << " += " << step << ")"
            << (parallel ? " [parallel]" : "") << "\n";
        for (const auto &s : body)
            out << s->toString(indent + 1);
        break;
      case Kind::PtrLoop:
        out << pad << "for (" << var << " = " << lo->toString() << "; "
            << var << " != 0; " << var << " = *(" << var << " + " << step
            << "))" << (parallel ? " [parallel]" : "") << "\n";
        for (const auto &s : body)
            out << s->toString(indent + 1);
        break;
      case Kind::While:
        out << pad << "while (" << lo->toString() << " != 0)\n";
        for (const auto &s : body)
            out << s->toString(indent + 1);
        break;
      case Kind::Prefetch:
        out << pad << "prefetch " << lhs->toString() << "\n";
        break;
      case Kind::Barrier:
        out << pad << "barrier\n";
        break;
      case Kind::FlagSet:
        out << pad << "flag_set " << lhs->toString() << " = "
            << rhs->toString() << "\n";
        break;
      case Kind::FlagWait:
        out << pad << "flag_wait " << lhs->toString() << " >= "
            << rhs->toString() << "\n";
        break;
    }
    return out.str();
}

StmtPtr
assign(ExprPtr lhs, ExprPtr rhs)
{
    MPC_ASSERT(lhs->kind == Expr::Kind::VarRef || lhs->isMemRef(),
               "assign target must be an lvalue");
    auto s = std::make_unique<Stmt>();
    s->kind = Stmt::Kind::Assign;
    s->lhs = std::move(lhs);
    s->rhs = std::move(rhs);
    return s;
}

StmtPtr
forLoop(std::string var, ExprPtr lo, ExprPtr hi,
        std::vector<StmtPtr> body, std::int64_t step, bool parallel)
{
    MPC_ASSERT(step != 0, "zero loop step");
    auto s = std::make_unique<Stmt>();
    s->kind = Stmt::Kind::Loop;
    s->var = std::move(var);
    s->lo = std::move(lo);
    s->hi = std::move(hi);
    s->step = step;
    s->body = std::move(body);
    s->parallel = parallel;
    return s;
}

StmtPtr
ptrLoop(std::string var, ExprPtr init, std::int64_t next_offset,
        std::vector<StmtPtr> body)
{
    auto s = std::make_unique<Stmt>();
    s->kind = Stmt::Kind::PtrLoop;
    s->var = var;
    s->lo = std::move(init);
    s->step = next_offset;
    s->body = std::move(body);
    // Materialize the loop-advance load `var = *(var + next_offset)` as
    // an expression so analysis sees the pointer-chase memory reference
    // (an address recurrence of distance 1) and codegen can lower it.
    s->rhs = deref(varref(std::move(var)), next_offset);
    return s;
}

StmtPtr
whileLoop(ExprPtr cond, std::vector<StmtPtr> body)
{
    auto s = std::make_unique<Stmt>();
    s->kind = Stmt::Kind::While;
    s->lo = std::move(cond);
    s->body = std::move(body);
    return s;
}

StmtPtr
prefetch(ExprPtr ref)
{
    MPC_ASSERT(ref->isMemRef(), "prefetch target must be a memory ref");
    auto s = std::make_unique<Stmt>();
    s->kind = Stmt::Kind::Prefetch;
    s->lhs = std::move(ref);
    return s;
}

StmtPtr
barrier()
{
    auto s = std::make_unique<Stmt>();
    s->kind = Stmt::Kind::Barrier;
    return s;
}

StmtPtr
flagSet(ExprPtr loc, ExprPtr value)
{
    auto s = std::make_unique<Stmt>();
    s->kind = Stmt::Kind::FlagSet;
    s->lhs = std::move(loc);
    s->rhs = std::move(value);
    return s;
}

StmtPtr
flagWait(ExprPtr loc, ExprPtr value)
{
    auto s = std::make_unique<Stmt>();
    s->kind = Stmt::Kind::FlagWait;
    s->lhs = std::move(loc);
    s->rhs = std::move(value);
    return s;
}

Array *
Kernel::addArray(std::string name, ScalType elem,
                 std::vector<std::int64_t> dims)
{
    arrays.push_back(Array{std::move(name), elem, std::move(dims), 0});
    return &arrays.back();
}

void
Kernel::declareScalar(std::string name, ScalType type)
{
    scalars[std::move(name)] = type;
}

Array *
Kernel::findArray(const std::string &name)
{
    for (auto &array : arrays)
        if (array.name == name)
            return &array;
    return nullptr;
}

const Array *
Kernel::findArray(const std::string &name) const
{
    return const_cast<Kernel *>(this)->findArray(name);
}

Kernel
Kernel::clone() const
{
    Kernel copy;
    copy.name = name;
    copy.arrays = arrays;   // values; remap pointers below
    copy.scalars = scalars;
    for (const auto &stmt : body)
        copy.body.push_back(stmt->clone());
    // Remap array pointers in the cloned tree to the cloned arrays.
    for (auto &stmt : copy.body) {
        walkExprs(*stmt, [&copy](Expr &e) {
            if (e.kind == Expr::Kind::ArrayRef)
                e.array = copy.findArray(e.array->name);
        });
    }
    return copy;
}

namespace
{

// Adding a field to these structs changes their size: extend
// KernelEquality to compare it, then update the size here.
#if defined(__GLIBCXX__) && __SIZEOF_POINTER__ == 8
static_assert(sizeof(Array) == 72, "Array changed: update KernelEquality");
static_assert(sizeof(Expr) == 104, "Expr changed: update KernelEquality");
static_assert(sizeof(Stmt) == 120, "Stmt changed: update KernelEquality");
static_assert(sizeof(Kernel) == 184,
              "Kernel changed: update KernelEquality");
#endif

/** operator==(Kernel, Kernel), field by field. */
struct KernelEquality
{
    const Kernel &ka, &kb;

    static int
    arrayIndex(const Kernel &k, const Array *array)
    {
        int index = 0;
        for (const Array &a : k.arrays) {
            if (&a == array)
                return index;
            ++index;
        }
        return -1;
    }

    /** Owned arrays match by position; null or foreign pointers only
     *  match themselves. */
    bool
    sameArray(const Array *a, const Array *b) const
    {
        const int ia = a == nullptr ? -1 : arrayIndex(ka, a);
        const int ib = b == nullptr ? -1 : arrayIndex(kb, b);
        return ia < 0 || ib < 0 ? ia == ib && a == b : ia == ib;
    }

    static bool
    equal(const Array &a, const Array &b)
    {
        return a.name == b.name && a.elem == b.elem && a.dims == b.dims &&
               a.base == b.base;
    }

    bool
    equal(const ExprPtr &a, const ExprPtr &b) const
    {
        if (a == nullptr || b == nullptr)
            return a == b;
        if (a->kind != b->kind || a->ival != b->ival ||
            std::bit_cast<std::uint64_t>(a->fval) !=
                std::bit_cast<std::uint64_t>(b->fval) ||
            a->var != b->var || !sameArray(a->array, b->array) ||
            a->bop != b->bop || a->uop != b->uop || a->vtype != b->vtype ||
            a->refId != b->refId ||
            a->children.size() != b->children.size())
            return false;
        for (size_t i = 0; i < a->children.size(); ++i)
            if (!equal(a->children[i], b->children[i]))
                return false;
        return true;
    }

    bool
    equal(const std::vector<StmtPtr> &a,
          const std::vector<StmtPtr> &b) const
    {
        if (a.size() != b.size())
            return false;
        for (size_t i = 0; i < a.size(); ++i)
            if (!equal(a[i], b[i]))
                return false;
        return true;
    }

    bool
    equal(const StmtPtr &a, const StmtPtr &b) const
    {
        if (a == nullptr || b == nullptr)
            return a == b;
        return a->kind == b->kind && equal(a->lhs, b->lhs) &&
               equal(a->rhs, b->rhs) && a->var == b->var &&
               equal(a->lo, b->lo) && equal(a->hi, b->hi) &&
               a->step == b->step && equal(a->body, b->body) &&
               a->parallel == b->parallel && a->mark == b->mark &&
               a->prePartitioned == b->prePartitioned;
    }

    bool
    equal() const
    {
        return ka.name == kb.name &&
               std::equal(ka.arrays.begin(), ka.arrays.end(),
                          kb.arrays.begin(), kb.arrays.end(),
                          [](const Array &a, const Array &b) {
                              return equal(a, b);
                          }) &&
               ka.scalars == kb.scalars && equal(ka.body, kb.body);
    }
};

} // namespace

bool
operator==(const Kernel &a, const Kernel &b)
{
    return KernelEquality{a, b}.equal();
}

std::string
Kernel::toString() const
{
    std::ostringstream out;
    out << "kernel " << name << "\n";
    for (const auto &array : arrays) {
        out << "  array " << array.name << "[";
        for (size_t d = 0; d < array.dims.size(); ++d)
            out << (d ? "," : "") << array.dims[d];
        out << "] " << (array.elem == ScalType::F64 ? "f64" : "i64")
            << "\n";
    }
    for (const auto &stmt : body)
        out << stmt->toString(1);
    return out.str();
}

namespace
{

void
walkExprTree(Expr &expr, const std::function<void(Expr &)> &fn)
{
    fn(expr);
    for (auto &child : expr.children)
        walkExprTree(*child, fn);
}

} // namespace

void
walkExprs(Stmt &stmt, const std::function<void(Expr &)> &fn)
{
    walkStmts(stmt, [&fn](Stmt &s) {
        for (Expr *root : {s.lhs.get(), s.rhs.get(), s.lo.get(),
                           s.hi.get()}) {
            if (root != nullptr)
                walkExprTree(*root, fn);
        }
    });
}

void
walkExprs(const Stmt &stmt, const std::function<void(const Expr &)> &fn)
{
    walkExprs(const_cast<Stmt &>(stmt),
              [&fn](Expr &e) { fn(static_cast<const Expr &>(e)); });
}

void
walkStmts(Stmt &stmt, const std::function<void(Stmt &)> &fn)
{
    fn(stmt);
    for (auto &child : stmt.body)
        walkStmts(*child, fn);
}

void
walkStmts(const Stmt &stmt, const std::function<void(const Stmt &)> &fn)
{
    walkStmts(const_cast<Stmt &>(stmt),
              [&fn](Stmt &s) { fn(static_cast<const Stmt &>(s)); });
}

int
assignRefIds(Kernel &kernel)
{
    int next = 0;
    // First find the maximum already-assigned id.
    for (auto &stmt : kernel.body) {
        walkExprs(*stmt, [&next](Expr &e) {
            if (e.isMemRef() && e.refId >= next)
                next = e.refId + 1;
        });
    }
    for (auto &stmt : kernel.body) {
        walkExprs(*stmt, [&next](Expr &e) {
            if (e.isMemRef() && e.refId < 0)
                e.refId = next++;
        });
    }
    return next;
}

void
layoutArrays(Kernel &kernel, Addr base, Addr align, Addr gap_bytes)
{
    Addr cursor = base;
    for (auto &array : kernel.arrays) {
        cursor = alignUp(cursor, align);
        array.base = cursor;
        cursor += array.sizeBytes() + gap_bytes;
    }
}

} // namespace mpc::ir
