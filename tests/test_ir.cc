/**
 * @file
 * Unit tests for the loop-nest IR: construction, cloning, layout,
 * refId assignment, printing, and tree walking.
 */

#include <gtest/gtest.h>

#include <functional>

#include "ir/eval.hh"
#include "ir/kernel.hh"

namespace mpc::ir
{
namespace
{

Kernel
matrixTraversal()
{
    // Figure 2(a): for j, for i: A[j,i] = A[j,i] + 1  (row-major,
    // i innermost -> spatial locality, minimal clustering).
    Kernel k;
    k.name = "fig2a";
    Array *a = k.addArray("A", ScalType::F64, {64, 64});
    std::vector<StmtPtr> inner_body;
    inner_body.push_back(assign(
        aref(a, [] {
            std::vector<ExprPtr> subs;
            subs.push_back(varref("j"));
            subs.push_back(varref("i"));
            return subs;
        }()),
        add(aref(a, [] {
            std::vector<ExprPtr> subs;
            subs.push_back(varref("j"));
            subs.push_back(varref("i"));
            return subs;
        }()), fconst(1.0))));
    std::vector<StmtPtr> outer_body;
    outer_body.push_back(forLoop("i", iconst(0), iconst(64),
                                 std::move(inner_body)));
    k.body.push_back(forLoop("j", iconst(0), iconst(64),
                             std::move(outer_body)));
    return k;
}

TEST(Array, LinearIndexRowMajor)
{
    Array a{"A", ScalType::F64, {4, 8}, 0x1000};
    EXPECT_EQ(a.linearIndex({0, 0}), 0);
    EXPECT_EQ(a.linearIndex({0, 7}), 7);
    EXPECT_EQ(a.linearIndex({1, 0}), 8);
    EXPECT_EQ(a.linearIndex({3, 5}), 29);
    EXPECT_EQ(a.addrOf({1, 0}), 0x1000u + 64u);
    EXPECT_EQ(a.sizeBytes(), 4u * 8u * 8u);
}

TEST(Kernel, BuildAndPrint)
{
    Kernel k = matrixTraversal();
    const std::string s = k.toString();
    EXPECT_NE(s.find("for (j = 0; j < 64; j += 1)"), std::string::npos);
    EXPECT_NE(s.find("A[j][i]"), std::string::npos);
}

TEST(Kernel, AssignRefIdsStable)
{
    Kernel k = matrixTraversal();
    const int count = assignRefIds(k);
    EXPECT_EQ(count, 2);  // write A[j,i] and read A[j,i]
    // Idempotent.
    EXPECT_EQ(assignRefIds(k), 2);
    // Clone preserves ids.
    Kernel c = k.clone();
    std::vector<int> ids;
    for (auto &stmt : c.body)
        walkExprs(*stmt, [&](const Expr &e) {
            if (e.isMemRef())
                ids.push_back(e.refId);
        });
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids, (std::vector<int>{0, 1}));
}

TEST(Kernel, CloneIsDeepAndRemapsArrays)
{
    Kernel k = matrixTraversal();
    assignRefIds(k);
    layoutArrays(k);
    Kernel c = k.clone();
    // Mutating the clone must not touch the original.
    c.body[0]->step = 5;
    EXPECT_EQ(k.body[0]->step, 1);
    // Array pointers in the clone must point into the clone.
    walkExprs(*c.body[0], [&](const Expr &e) {
        if (e.kind == Expr::Kind::ArrayRef) {
            EXPECT_EQ(e.array, c.findArray("A"));
        }
    });
    EXPECT_NE(c.findArray("A"), k.findArray("A"));
    EXPECT_EQ(c.findArray("A")->base, k.findArray("A")->base);
}

/** Subscript list builder. */
template <typename... Exprs>
std::vector<ExprPtr>
subsOf(Exprs... exprs)
{
    std::vector<ExprPtr> v;
    (v.push_back(std::move(exprs)), ...);
    return v;
}

/** A kernel with every statement kind and every Expr/Stmt field set to
 *  something other than its default somewhere. */
Kernel
everyNode()
{
    Kernel k;
    k.name = "every";
    Array *a = k.addArray("A", ScalType::F64, {8, 8});
    Array *b = k.addArray("B", ScalType::I64, {8});
    k.declareScalar("s", ScalType::F64);
    std::vector<StmtPtr> inner;
    inner.push_back(assign(
        aref(a, subsOf(varref("j"), varref("i"))),
        add(un(UnOp::Sqrt, aref(a, subsOf(varref("j"), varref("i")))),
            fconst(1.5))));
    inner.push_back(prefetch(aref(b, subsOf(varref("i")))));
    std::vector<StmtPtr> outer;
    outer.push_back(
        forLoop("i", iconst(0), iconst(8), std::move(inner), 2));
    k.body.push_back(forLoop("j", iconst(0), iconst(8), std::move(outer),
                             1, true));
    k.body[0]->mark = 3;
    k.body[0]->prePartitioned = true;
    std::vector<StmtPtr> chase;
    chase.push_back(
        assign(varref("s"), deref(varref("p"), 8, ScalType::F64)));
    k.body.push_back(
        ptrLoop("p", aref(b, subsOf(iconst(0))), 16, std::move(chase)));
    k.body.push_back(whileLoop(varref("s"), {}));
    k.body.push_back(barrier());
    k.body.push_back(flagSet(aref(b, subsOf(iconst(1))), iconst(1)));
    k.body.push_back(flagWait(aref(b, subsOf(iconst(1))), iconst(1)));
    assignRefIds(k);
    layoutArrays(k);
    return k;
}

Expr &
firstExpr(Kernel &k, Expr::Kind kind)
{
    Expr *found = nullptr;
    for (auto &stmt : k.body)
        walkExprs(*stmt, [&](Expr &e) {
            if (found == nullptr && e.kind == kind)
                found = &e;
        });
    EXPECT_NE(found, nullptr);
    return *found;
}

Stmt &
firstStmt(Kernel &k, Stmt::Kind kind)
{
    Stmt *found = nullptr;
    for (auto &stmt : k.body)
        walkStmts(*stmt, [&](Stmt &s) {
            if (found == nullptr && s.kind == kind)
                found = &s;
        });
    EXPECT_NE(found, nullptr);
    return *found;
}

TEST(KernelEquality, CloneComparesEqual)
{
    const Kernel k = everyNode();
    const Kernel c = k.clone();
    EXPECT_TRUE(k == c);
    EXPECT_TRUE(c == k);
    EXPECT_TRUE(k == k);
    // Array pointers differ between the two; they match by position.
    EXPECT_NE(c.findArray("A"), k.findArray("A"));
}

TEST(KernelEquality, AnySingleFieldChangeComparesUnequal)
{
    const Kernel k = everyNode();
    using Mutation = std::pair<const char *, std::function<void(Kernel &)>>;
    const std::vector<Mutation> mutations = {
        // Array
        {"array name", [](Kernel &c) { c.arrays[0].name = "Z"; }},
        {"array elem", [](Kernel &c) { c.arrays[0].elem = ScalType::I64; }},
        {"array dim", [](Kernel &c) { c.arrays[0].dims[1] = 9; }},
        {"array rank", [](Kernel &c) { c.arrays[1].dims.push_back(1); }},
        {"array base", [](Kernel &c) { c.arrays[1].base += 64; }},
        // Kernel
        {"kernel name", [](Kernel &c) { c.name = "other"; }},
        {"extra array",
         [](Kernel &c) { c.addArray("C", ScalType::F64, {4}); }},
        {"extra scalar",
         [](Kernel &c) { c.declareScalar("t", ScalType::I64); }},
        {"scalar type",
         [](Kernel &c) { c.scalars["s"] = ScalType::I64; }},
        {"extra statement", [](Kernel &c) { c.body.push_back(barrier()); }},
        // Stmt
        {"stmt kind",
         [](Kernel &c) {
             firstStmt(c, Stmt::Kind::Barrier).kind = Stmt::Kind::FlagSet;
         }},
        {"stmt lhs",
         [](Kernel &c) {
             firstStmt(c, Stmt::Kind::Assign).lhs = varref("s");
         }},
        {"stmt rhs",
         [](Kernel &c) {
             firstStmt(c, Stmt::Kind::Assign).rhs = fconst(1.5);
         }},
        {"stmt lhs null",
         [](Kernel &c) { firstStmt(c, Stmt::Kind::Assign).lhs.reset(); }},
        {"stmt var",
         [](Kernel &c) { firstStmt(c, Stmt::Kind::PtrLoop).var = "q"; }},
        {"stmt lo", [](Kernel &c) { c.body[0]->lo = iconst(1); }},
        {"stmt hi", [](Kernel &c) { c.body[0]->hi = iconst(7); }},
        {"stmt step", [](Kernel &c) { c.body[0]->step = 2; }},
        {"stmt body",
         [](Kernel &c) { c.body[0]->body.push_back(barrier()); }},
        {"stmt parallel", [](Kernel &c) { c.body[0]->parallel = false; }},
        {"stmt mark", [](Kernel &c) { c.body[0]->mark = 0; }},
        {"stmt prePartitioned",
         [](Kernel &c) { c.body[0]->prePartitioned = false; }},
        // Expr
        {"expr kind",
         [](Kernel &c) {
             firstExpr(c, Expr::Kind::IntConst).kind =
                 Expr::Kind::FloatConst;
         }},
        {"expr ival",
         [](Kernel &c) { firstExpr(c, Expr::Kind::IntConst).ival = 5; }},
        {"expr fval",
         [](Kernel &c) { firstExpr(c, Expr::Kind::FloatConst).fval = 2; }},
        {"expr fval sign of zero",
         [](Kernel &c) {
             Expr &e = firstExpr(c, Expr::Kind::IntConst);
             e.fval = -0.0;
         }},
        {"expr var",
         [](Kernel &c) { firstExpr(c, Expr::Kind::VarRef).var = "x"; }},
        {"expr array",
         [](Kernel &c) {
             firstExpr(c, Expr::Kind::ArrayRef).array = &c.arrays[1];
         }},
        {"expr foreign array",
         [](Kernel &c) {
             static const Array foreign{"A", ScalType::F64, {8, 8}, 0};
             firstExpr(c, Expr::Kind::ArrayRef).array = &foreign;
         }},
        {"expr bop",
         [](Kernel &c) {
             firstExpr(c, Expr::Kind::Bin).bop = BinOp::Sub;
         }},
        {"expr uop",
         [](Kernel &c) { firstExpr(c, Expr::Kind::Un).uop = UnOp::Abs; }},
        {"expr children",
         [](Kernel &c) {
             firstExpr(c, Expr::Kind::Un).children.push_back(iconst(0));
         }},
        {"expr vtype",
         [](Kernel &c) {
             Expr &e = firstExpr(c, Expr::Kind::Deref);
             e.vtype = e.vtype == ScalType::I64 ? ScalType::F64
                                                : ScalType::I64;
         }},
        {"expr refId",
         [](Kernel &c) { firstExpr(c, Expr::Kind::ArrayRef).refId += 40; }},
    };
    for (const auto &[what, mutate] : mutations) {
        SCOPED_TRACE(what);
        Kernel c = k.clone();
        mutate(c);
        EXPECT_FALSE(k == c);
        EXPECT_FALSE(c == k);
    }
}

TEST(Kernel, LayoutAlignsAndSeparates)
{
    Kernel k;
    k.addArray("X", ScalType::F64, {100});
    k.addArray("Y", ScalType::F64, {100});
    layoutArrays(k, 0x1000, 64, 4096);
    const Array *x = k.findArray("X");
    const Array *y = k.findArray("Y");
    EXPECT_EQ(x->base % 64, 0u);
    EXPECT_EQ(y->base % 64, 0u);
    EXPECT_GE(y->base, x->base + x->sizeBytes() + 4096);
}

TEST(Kernel, PtrLoopCarriesAdvanceRef)
{
    Kernel k;
    k.declareScalar("p", ScalType::I64);
    std::vector<StmtPtr> body;
    body.push_back(assign(varref("s"),
                          add(varref("s"), deref(varref("p"), 8))));
    k.body.push_back(ptrLoop("p", iconst(0x1000), 0, std::move(body)));
    const int ids = assignRefIds(k);
    EXPECT_EQ(ids, 2);  // the data deref and the advance deref
    EXPECT_NE(k.body[0]->rhs, nullptr);
    EXPECT_EQ(k.body[0]->rhs->kind, Expr::Kind::Deref);
}

TEST(Kernel, WalkStmtsVisitsNested)
{
    Kernel k = matrixTraversal();
    int loops = 0, assigns = 0;
    walkStmts(*k.body[0], [&](const Stmt &s) {
        loops += s.kind == Stmt::Kind::Loop;
        assigns += s.kind == Stmt::Kind::Assign;
    });
    EXPECT_EQ(loops, 2);
    EXPECT_EQ(assigns, 1);
}

TEST(Expr, ToStringForms)
{
    EXPECT_EQ(iconst(5)->toString(), "5");
    EXPECT_EQ(varref("x")->toString(), "x");
    EXPECT_EQ(add(varref("a"), iconst(1))->toString(), "(a + 1)");
    EXPECT_EQ(minx(varref("a"), varref("b"))->toString(), "min(a, b)");
    EXPECT_EQ(deref(varref("p"), 16)->toString(), "*(p + 16)");
}


TEST(Eval, WhileLoopRunsUntilZero)
{
    // while (n != 0) { s = s + n; n = n - 1 }
    Kernel k;
    k.declareScalar("n", ScalType::I64);
    k.declareScalar("s", ScalType::I64);
    k.body.push_back(assign(varref("n"), iconst(5)));
    std::vector<StmtPtr> body;
    body.push_back(assign(varref("s"), add(varref("s"), varref("n"))));
    body.push_back(assign(varref("n"), sub(varref("n"), iconst(1))));
    k.body.push_back(whileLoop(varref("n"), std::move(body)));
    kisa::MemoryImage mem;
    Evaluator ev(k, mem);
    ev.run();
    EXPECT_EQ(ev.intVar("s"), 15);
    EXPECT_EQ(ev.intVar("n"), 0);
}

TEST(Eval, MinMaxModOperators)
{
    Kernel k;
    k.declareScalar("a", ScalType::I64);
    k.declareScalar("b", ScalType::F64);
    k.body.push_back(assign(
        varref("a"), modx(iconst(17), minx(iconst(5), iconst(9)))));
    k.body.push_back(assign(
        varref("b"), bin(BinOp::Max, fconst(2.5), fconst(-1.0))));
    kisa::MemoryImage mem;
    Evaluator ev(k, mem);
    ev.run();
    EXPECT_EQ(ev.intVar("a"), 17 % 5);
    EXPECT_DOUBLE_EQ(ev.fpVar("b"), 2.5);
}

TEST(Eval, TruncConvertsFloatToInt)
{
    Kernel k;
    k.declareScalar("c", ScalType::I64);
    k.body.push_back(assign(
        varref("c"), un(UnOp::Trunc, mul(fconst(3.9), fconst(2.0)))));
    kisa::MemoryImage mem;
    Evaluator ev(k, mem);
    ev.run();
    EXPECT_EQ(ev.intVar("c"), 7);
}

TEST(Eval, PrefetchIsArchitecturalNoop)
{
    Kernel k;
    Array *x = k.addArray("x", ScalType::F64, {8});
    std::vector<ExprPtr> subs;
    subs.push_back(iconst(2));
    k.body.push_back(prefetch(aref(x, std::move(subs))));
    layoutArrays(k);
    kisa::MemoryImage mem;
    mem.stF64(x->base + 16, 9.0);
    Evaluator ev(k, mem);
    ev.run();
    EXPECT_DOUBLE_EQ(mem.ldF64(x->base + 16), 9.0);
}

TEST(Print, WhileAndPrefetchRender)
{
    Kernel k;
    Array *x = k.addArray("x", ScalType::F64, {8});
    std::vector<ExprPtr> subs;
    subs.push_back(varref("i"));
    std::vector<StmtPtr> body;
    body.push_back(prefetch(aref(x, std::move(subs))));
    k.body.push_back(whileLoop(varref("i"), std::move(body)));
    const std::string s = k.toString();
    EXPECT_NE(s.find("while (i != 0)"), std::string::npos);
    EXPECT_NE(s.find("prefetch x[i]"), std::string::npos);
}

TEST(Print, DownwardLoopRendersDirection)
{
    Kernel k;
    std::vector<StmtPtr> body;
    body.push_back(assign(varref("s"), varref("i")));
    k.body.push_back(forLoop("i", iconst(9), iconst(-1),
                             std::move(body), -1));
    EXPECT_NE(k.toString().find("i > -1"), std::string::npos);
}

TEST(ExprDeath, AssignToNonLvalue)
{
    EXPECT_DEATH({ auto s = assign(iconst(3), iconst(4)); (void)s; },
                 "lvalue");
}

} // namespace
} // namespace mpc::ir
