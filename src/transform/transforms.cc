#include "transform/transforms.hh"

#include <functional>
#include <optional>
#include <set>

#include "analysis/affine.hh"
#include "common/logging.hh"
#include "transform/legality.hh"

namespace mpc::transform
{

using ir::Expr;
using ir::ExprPtr;
using ir::Kernel;
using ir::Stmt;
using ir::StmtPtr;

/** Locate the statement list and index owning @p target. */
std::pair<std::vector<StmtPtr> *, size_t>
findOwner(Kernel &kernel, const Stmt *target)
{
    std::pair<std::vector<StmtPtr> *, size_t> found{nullptr, 0};
    std::function<void(std::vector<StmtPtr> &)> search =
        [&](std::vector<StmtPtr> &list) {
            for (size_t i = 0; i < list.size(); ++i) {
                if (list[i].get() == target) {
                    found = {&list, i};
                    return;
                }
                search(list[i]->body);
                if (found.first != nullptr)
                    return;
            }
        };
    search(kernel.body);
    MPC_ASSERT(found.first != nullptr, "statement not found in kernel");
    return found;
}

namespace
{

/** In-place morph of an expression node into a variable reference. */
void
morphToVar(Expr &e, const std::string &name)
{
    e.kind = Expr::Kind::VarRef;
    e.var = name;
    e.array = nullptr;
    e.children.clear();
    e.refId = -1;
}

/** Variables assigned within @p stmts (including nested PtrLoop vars,
 *  excluding counted-loop indices). */
std::set<std::string>
assignedScalars(const std::vector<StmtPtr> &stmts)
{
    std::set<std::string> vars;
    for (const auto &s : stmts) {
        ir::walkStmts(*s, [&vars](const Stmt &x) {
            if (x.kind == Stmt::Kind::Assign &&
                x.lhs->kind == Expr::Kind::VarRef)
                vars.insert(x.lhs->var);
            if (x.kind == Stmt::Kind::PtrLoop)
                vars.insert(x.var);
        });
    }
    return vars;
}

/** True if the first dynamic occurrence of @p var in @p stmts is a
 *  definition (so per-copy renaming is sound). */
bool
firstUseIsWrite(const std::vector<StmtPtr> &stmts, const std::string &var)
{
    enum class R { NotSeen, Write, Read };
    std::function<R(const Expr &)> scan_expr = [&](const Expr &e) {
        if (e.kind == Expr::Kind::VarRef && e.var == var)
            return R::Read;
        for (const auto &c : e.children) {
            const R r = scan_expr(*c);
            if (r != R::NotSeen)
                return r;
        }
        return R::NotSeen;
    };
    std::function<R(const Stmt &)> scan_stmt = [&](const Stmt &s) {
        switch (s.kind) {
          case Stmt::Kind::Assign: {
            const R rhs = scan_expr(*s.rhs);
            if (rhs != R::NotSeen)
                return rhs;
            // Subscripts of the LHS are reads.
            for (const auto &c : s.lhs->children) {
                const R r = scan_expr(*c);
                if (r != R::NotSeen)
                    return r;
            }
            if (s.lhs->kind == Expr::Kind::VarRef && s.lhs->var == var)
                return R::Write;
            return R::NotSeen;
          }
          case Stmt::Kind::PtrLoop: {
            const R init = scan_expr(*s.lo);
            if (init != R::NotSeen)
                return init;
            if (s.var == var)
                return R::Write;
            break;
          }
          case Stmt::Kind::Loop:
          case Stmt::Kind::While: {
            for (const Expr *e : {s.lo.get(), s.hi.get()}) {
                if (e != nullptr) {
                    const R r = scan_expr(*e);
                    if (r != R::NotSeen)
                        return r;
                }
            }
            break;
          }
          default:
            for (const Expr *e : {s.lhs.get(), s.rhs.get()}) {
                if (e != nullptr) {
                    const R r = scan_expr(*e);
                    if (r != R::NotSeen)
                        return r;
                }
            }
            break;
        }
        for (const auto &child : s.body) {
            const R r = scan_stmt(*child);
            if (r != R::NotSeen)
                return r;
        }
        return R::NotSeen;
    };
    for (const auto &s : stmts) {
        const R r = scan_stmt(*s);
        if (r != R::NotSeen)
            return r == R::Write;
    }
    return true;  // never used: renaming is trivially sound
}

/** Defined later in this file (fusion core; used by unrollAndJam). */
bool fuseAdjacentAt(std::vector<StmtPtr> &list, size_t pos);

bool
usesVar(const Expr &e, const std::string &var)
{
    if (e.kind == Expr::Kind::VarRef && e.var == var)
        return true;
    for (const auto &c : e.children)
        if (usesVar(*c, var))
            return true;
    return false;
}

} // namespace

namespace
{

/** Replace uses of @p var in the pointed-to expression. Unlike a
 *  generic walk, this does not descend into freshly substituted nodes
 *  (the replacement may itself mention @p var). */
void
substExpr(ExprPtr &e, const std::string &var, const Expr &replacement)
{
    if (e->kind == Expr::Kind::VarRef && e->var == var) {
        e = replacement.clone();
        return;
    }
    for (auto &child : e->children)
        substExpr(child, var, replacement);
}

} // namespace

void
substituteVar(Stmt &stmt, const std::string &var, const Expr &replacement)
{
    ir::walkStmts(stmt, [&](Stmt &s) {
        for (ExprPtr *slot : {&s.lhs, &s.rhs, &s.lo, &s.hi}) {
            if (*slot)
                substExpr(*slot, var, replacement);
        }
    });
}

void
renameVar(Stmt &stmt, const std::string &from, const std::string &to)
{
    ir::walkExprs(stmt, [&](Expr &e) {
        if (e.kind == Expr::Kind::VarRef && e.var == from)
            e.var = to;
    });
    ir::walkStmts(stmt, [&](Stmt &s) {
        if ((s.kind == Stmt::Kind::Loop || s.kind == Stmt::Kind::PtrLoop) &&
            s.var == from)
            s.var = to;
    });
}

namespace
{

/**
 * Upper bound of the unrolled steady-state loop:
 * hi - ((hi - lo) mod big_step), folded when the trip count is a
 * compile-time constant (including symbolic bounds with a constant
 * difference, e.g. tile loops over [jb, jb+8)).
 */
ir::ExprPtr
jammedUpperBound(const Stmt &loop, std::int64_t big_step,
                 bool &need_postlude)
{
    need_postlude = true;
    const bool down = loop.step < 0;
    const std::int64_t span = std::abs(big_step);
    const auto lo_c = analysis::constEval(*loop.lo);
    const auto hi_c = analysis::constEval(*loop.hi);
    std::optional<std::int64_t> trip;   // span from lo toward hi, > 0
    if (lo_c && hi_c) {
        trip = down ? *lo_c - *hi_c : *hi_c - *lo_c;
    } else {
        const auto lo_f = analysis::affineOf(*loop.lo);
        const auto hi_f = analysis::affineOf(*loop.hi);
        if (lo_f && hi_f && lo_f->sameShape(*hi_f))
            trip = down ? lo_f->c - hi_f->c : hi_f->c - lo_f->c;
    }
    if (trip) {
        const std::int64_t rem = ((*trip % span) + span) % span;
        need_postlude = rem != 0;
        if (hi_c)
            return ir::iconst(down ? *hi_c + rem : *hi_c - rem);
        return down ? ir::add(loop.hi->clone(), ir::iconst(rem))
                    : ir::sub(loop.hi->clone(), ir::iconst(rem));
    }
    if (down) {
        // hi + ((lo - hi) mod span)
        return ir::add(
            loop.hi->clone(),
            ir::modx(ir::sub(loop.lo->clone(), loop.hi->clone()),
                     ir::iconst(span)));
    }
    return ir::sub(
        loop.hi->clone(),
        ir::modx(ir::sub(loop.hi->clone(), loop.lo->clone()),
                 ir::iconst(big_step)));
}

} // namespace

bool
unrollAndJam(Kernel &kernel, Stmt &outer, int factor,
             bool interchange_postlude)
{
    if (factor <= 1)
        return true;
    if (outer.kind != Stmt::Kind::Loop || !canUnrollAndJam(outer))
        return false;

    // Shape check: nested counted loops need outer-independent bounds;
    // already-jammed While loops are not re-jammed.
    for (const auto &child : outer.body) {
        if (child->kind == Stmt::Kind::While)
            return false;
        if (child->kind == Stmt::Kind::Loop &&
            (usesVar(*child->lo, outer.var) ||
             usesVar(*child->hi, outer.var)))
            return false;
    }

    // Scalars assigned in the body get per-copy names; that is only
    // sound if their live ranges start inside the body.
    std::set<std::string> rename;
    for (const auto &var : assignedScalars(outer.body)) {
        if (!firstUseIsWrite(outer.body, var))
            return false;
        rename.insert(var);
    }
    // Counted-loop indices are shared by the jammed copies.
    for (const auto &child : outer.body)
        if (child->kind == Stmt::Kind::Loop)
            rename.erase(child->var);

    const std::int64_t big_step = outer.step * factor;

    // Postlude: the original loop starting at the jammed upper bound.
    // mainHi = hi - ((hi - lo) mod big_step), folded when constant.
    bool need_postlude = true;
    ExprPtr main_hi = jammedUpperBound(outer, big_step, need_postlude);

    StmtPtr postlude;
    if (need_postlude) {
        // The original loop, rebased to start at the jammed bound.
        postlude = outer.clone();
        postlude->lo = main_hi->clone();
    }

    // Build the u body copies.
    auto make_copy = [&](const StmtPtr &src, int k) {
        StmtPtr copy = src->clone();
        if (k > 0) {
            // var -> var + k*step
            const ExprPtr shifted = ir::add(
                ir::varref(outer.var), ir::iconst(k * outer.step));
            substituteVar(*copy, outer.var, *shifted);
            for (const auto &v : rename) {
                const std::string renamed =
                    v + "__" + std::to_string(k);
                renameVar(*copy, v, renamed);
                const auto it = kernel.scalars.find(v);
                kernel.declareScalar(renamed,
                                     it != kernel.scalars.end()
                                         ? it->second
                                         : ir::ScalType::I64);
            }
        }
        return copy;
    };

    std::vector<StmtPtr> new_body;
    for (const auto &child : outer.body) {
        if (child->kind == Stmt::Kind::Loop) {
            // Jam: one loop whose body is the concatenation of copies.
            StmtPtr jammed = child->clone();
            jammed->body.clear();
            for (int k = 0; k < factor; ++k) {
                StmtPtr copy = make_copy(child, k);
                for (auto &s : copy->body)
                    jammed->body.push_back(std::move(s));
            }
            // Deeper nests: the concatenated copies of any loop nested
            // inside `child` now sit side by side; fuse adjacent pairs
            // (when legal) so unroll-and-jam reaches the innermost
            // level, as for multi-level jamming in the literature.
            for (size_t p = 0; p + 1 < jammed->body.size();) {
                if (!fuseAdjacentAt(jammed->body, p))
                    ++p;
            }
            new_body.push_back(std::move(jammed));
        } else if (child->kind == Stmt::Kind::PtrLoop) {
            // Jam pointer chases: interleave the minimum length, then
            // per-chain epilogues (the MST treatment, Section 4.2).
            const std::string base_var = child->var;
            auto chain_var = [&](int k) {
                return k == 0 ? base_var
                              : base_var + "__" + std::to_string(k);
            };
            std::vector<StmtPtr> copies;
            for (int k = 0; k < factor; ++k)
                copies.push_back(make_copy(child, k));
            // Chain initializations.
            for (int k = 0; k < factor; ++k)
                new_body.push_back(ir::assign(ir::varref(chain_var(k)),
                                              copies[k]->lo->clone()));
            // while (min(p_0, ..., p_{u-1}) != 0): pointers are
            // nonnegative addresses, so min != 0 iff all != 0.
            ExprPtr cond = ir::varref(chain_var(0));
            for (int k = 1; k < factor; ++k)
                cond = ir::minx(std::move(cond),
                                ir::varref(chain_var(k)));
            std::vector<StmtPtr> while_body;
            for (int k = 0; k < factor; ++k) {
                for (auto &s : copies[k]->body)
                    while_body.push_back(std::move(s));
                // Advance: p_k = *(p_k + next_offset)
                while_body.push_back(ir::assign(
                    ir::varref(chain_var(k)),
                    ir::deref(ir::varref(chain_var(k)), child->step)));
            }
            new_body.push_back(
                ir::whileLoop(std::move(cond), std::move(while_body)));
            // Epilogues: each chain finishes separately.
            for (int k = 0; k < factor; ++k) {
                StmtPtr epilogue = make_copy(child, k);
                epilogue->var = chain_var(k);
                epilogue->lo = ir::varref(chain_var(k));
                new_body.push_back(std::move(epilogue));
            }
        } else {
            for (int k = 0; k < factor; ++k)
                new_body.push_back(make_copy(child, k));
        }
    }

    outer.body = std::move(new_body);
    outer.hi = std::move(main_hi);
    outer.step = big_step;

    if (postlude) {
        if (interchange_postlude)
            interchange(kernel, *postlude);  // best effort
        auto [list, idx] = findOwner(kernel, &outer);
        list->insert(list->begin() + static_cast<std::ptrdiff_t>(idx) + 1,
                     std::move(postlude));
    }
    return true;
}

bool
interchange(Kernel &kernel, Stmt &outer)
{
    (void)kernel;
    if (!canInterchange(outer))
        return false;
    Stmt &inner = *outer.body[0];
    std::swap(outer.var, inner.var);
    std::swap(outer.lo, inner.lo);
    std::swap(outer.hi, inner.hi);
    std::swap(outer.step, inner.step);
    std::swap(outer.parallel, inner.parallel);
    return true;
}

bool
stripMine(Kernel &kernel, Stmt &loop, int strip)
{
    (void)kernel;
    if (loop.kind != Stmt::Kind::Loop || strip <= 1)
        return false;
    const std::string tile_var = loop.var + "__tile";
    const std::int64_t tile_step = loop.step * strip;

    auto inner = ir::forLoop(
        loop.var, ir::varref(tile_var),
        ir::minx(ir::add(ir::varref(tile_var), ir::iconst(tile_step)),
                 loop.hi->clone()),
        std::move(loop.body), loop.step);
    loop.var = tile_var;
    loop.step = tile_step;
    loop.body.clear();
    loop.body.push_back(std::move(inner));
    return true;
}

bool
innerUnroll(Kernel &kernel, Stmt &loop, int factor)
{
    if (loop.kind != Stmt::Kind::Loop || factor <= 1)
        return false;
    for (const auto &child : loop.body) {
        if (child->kind == Stmt::Kind::Loop ||
            child->kind == Stmt::Kind::PtrLoop ||
            child->kind == Stmt::Kind::While)
            return false;  // innermost only
    }

    const std::int64_t big_step = loop.step * factor;
    bool need_postlude = true;
    ExprPtr main_hi = jammedUpperBound(loop, big_step, need_postlude);

    StmtPtr postlude;
    if (need_postlude) {
        postlude = loop.clone();
        postlude->lo = main_hi->clone();
    }

    std::vector<StmtPtr> new_body;
    for (int k = 0; k < factor; ++k) {
        for (const auto &child : loop.body) {
            StmtPtr copy = child->clone();
            if (k > 0) {
                const ExprPtr shifted = ir::add(
                    ir::varref(loop.var), ir::iconst(k * loop.step));
                substituteVar(*copy, loop.var, *shifted);
            }
            new_body.push_back(std::move(copy));
        }
    }
    loop.body = std::move(new_body);
    loop.hi = std::move(main_hi);
    loop.step = big_step;

    if (postlude) {
        auto [list, idx] = findOwner(kernel, &loop);
        list->insert(list->begin() + static_cast<std::ptrdiff_t>(idx) + 1,
                     std::move(postlude));
    }
    return true;
}


namespace
{

/** Collect (expr, isWrite) reference sites in a statement list. */
void
collectRefSites(const std::vector<StmtPtr> &stmts,
                std::vector<std::pair<const Expr *, bool>> &out)
{
    std::function<void(const Expr &, bool)> rec =
        [&](const Expr &e, bool is_write) {
            if (e.isMemRef())
                out.push_back({&e, is_write});
            for (const auto &c : e.children)
                rec(*c, false);
        };
    std::function<void(const Stmt &)> walk = [&](const Stmt &s) {
        if (s.kind == Stmt::Kind::Assign) {
            rec(*s.rhs, false);
            rec(*s.lhs, true);
        } else if (s.kind == Stmt::Kind::PtrLoop && s.rhs) {
            rec(*s.rhs, false);
        }
        for (const auto &child : s.body)
            walk(*child);
    };
    for (const auto &s : stmts)
        walk(*s);
}

} // namespace


int
insertPrefetches(Kernel &kernel, int distance_lines, int line_bytes)
{
    ir::assignRefIds(kernel);
    int inserted = 0;
    // Work over innermost counted loops; recompute nests after each
    // edit (inserting statements invalidates nothing structural here,
    // but keep it simple and safe).
    std::vector<Stmt *> inners;
    {
        std::function<void(Stmt &)> scan = [&](Stmt &s) {
            bool has_nested = false;
            for (const auto &child : s.body)
                has_nested |= child->kind == Stmt::Kind::Loop ||
                              child->kind == Stmt::Kind::PtrLoop ||
                              child->kind == Stmt::Kind::While;
            if (s.kind == Stmt::Kind::Loop && !has_nested)
                inners.push_back(&s);
            for (auto &child : s.body)
                scan(*child);
        };
        for (auto &stmt : kernel.body)
            scan(*stmt);
    }

    for (Stmt *loop : inners) {
        // Mowry's scheme prefetches once per cache line, not once per
        // iteration: unroll unit-stride loops by L = line / stride
        // first so the per-line spatial groups collapse into single
        // prefetches (the bucketing below merges same-line copies).
        {
            std::int64_t min_stride = 0;
            std::function<void(const Expr &)> scan = [&](const Expr &e) {
                for (const auto &c : e.children)
                    scan(*c);
                if (e.kind != Expr::Kind::ArrayRef)
                    return;
                const auto form = analysis::linearIndexForm(e);
                if (!form)
                    return;
                const std::int64_t stride =
                    std::abs(8 * form->coef(loop->var));
                if (stride > 0 &&
                    (min_stride == 0 || stride < min_stride))
                    min_stride = stride;
            };
            for (const auto &s : loop->body)
                ir::walkStmts(*s, [&](Stmt &x) {
                    for (const Expr *root : {x.lhs.get(), x.rhs.get()})
                        if (root != nullptr)
                            scan(*root);
                });
            if (min_stride > 0 && min_stride < line_bytes) {
                const int unroll = static_cast<int>(
                    line_bytes / min_stride);
                innerUnroll(kernel, *loop, unroll);
            }
        }

        // Distinct (array, shape, const-bucket) streams that move with
        // the loop index: one prefetch per stream per iteration group.
        struct Stream
        {
            const Expr *ref;
            std::int64_t strideBytes;
        };
        std::vector<Stream> streams;
        std::set<std::string> seen;
        std::function<void(const Expr &)> find = [&](const Expr &e) {
            for (const auto &c : e.children)
                find(*c);
            if (e.kind != Expr::Kind::ArrayRef)
                return;
            const auto form = analysis::linearIndexForm(e);
            if (!form)
                return;
            const std::int64_t stride = 8 * form->coef(loop->var);
            if (stride == 0)
                return;
            // Bucket by array + shape + line-rounded constant so the
            // members of one spatial group share one prefetch.
            std::string key = e.array->name;
            key += '#';
            for (const auto &[v, coef] : form->coefs) {
                if (coef == 0)
                    continue;
                key += v;
                key += ':';
                key += std::to_string(coef);
                key += ';';
            }
            key += '@';
            key += std::to_string((form->c * 8) / (line_bytes * 2));
            if (seen.insert(key).second)
                streams.push_back({&e, stride});
        };
        for (const auto &s : loop->body)
            ir::walkStmts(*s, [&](Stmt &x) {
                for (const Expr *root : {x.lhs.get(), x.rhs.get()})
                    if (root != nullptr)
                        find(*root);
            });

        std::vector<StmtPtr> prefetches;
        for (const auto &stream : streams) {
            // Iterations until the stream is distance_lines lines
            // ahead of the demand access.
            const std::int64_t iterations_ahead = std::max<std::int64_t>(
                1, distance_lines * line_bytes /
                       std::abs(stream.strideBytes));
            // Shift every use of the loop variable in the reference.
            Stmt holder;   // wrapper to reuse the substitution pass
            holder.kind = Stmt::Kind::Prefetch;
            holder.lhs = stream.ref->clone();
            const ir::ExprPtr shifted = ir::add(
                ir::varref(loop->var), ir::iconst(iterations_ahead));
            substituteVar(holder, loop->var, *shifted);
            prefetches.push_back(ir::prefetch(std::move(holder.lhs)));
            ++inserted;
        }
        for (auto &pf : prefetches)
            loop->body.insert(loop->body.begin(), std::move(pf));
    }
    ir::assignRefIds(kernel);
    return inserted;
}

namespace
{

/** Core of fuseLoops: fuse list[pos] and list[pos+1] (see header). */
bool
fuseAdjacentAt(std::vector<StmtPtr> &list, size_t pos)
{
    if (pos + 1 >= list.size())
        return false;
    Stmt &first = *list[pos];
    Stmt &second = *list[pos + 1];
    if (first.kind != Stmt::Kind::Loop || second.kind != Stmt::Kind::Loop)
        return false;
    if (first.step != second.step)
        return false;

    // Identical trip counts: equal constant bounds, or affine bounds
    // differing by the same shape with zero delta.
    auto bounds_equal = [](const Expr &a, const Expr &b) {
        const auto fa = analysis::affineOf(a);
        const auto fb = analysis::affineOf(b);
        return fa && fb && fa->sameShape(*fb) && fa->c == fb->c;
    };
    if (!bounds_equal(*first.lo, *second.lo) ||
        !bounds_equal(*first.hi, *second.hi))
        return false;
    // Trip count, when derivable, bounds the reachable dependence
    // distances below.
    std::optional<std::int64_t> trip;
    {
        const auto lo_f = analysis::affineOf(*first.lo);
        const auto hi_f = analysis::affineOf(*first.hi);
        if (lo_f && hi_f && lo_f->sameShape(*hi_f))
            trip = (hi_f->c - lo_f->c) / (first.step != 0 ? first.step
                                                          : 1);
    }

    // Scalars assigned in either body must not flow between the loops
    // in a way fusion would break; require disjoint assigned-scalar
    // sets from used-scalar crossings by simply refusing when the
    // second body reads a scalar the first body assigns (conservative;
    // loop indices excluded via renaming below).
    const auto first_defs = assignedScalars(first.body);
    bool scalar_crossing = false;
    for (const auto &s : second.body) {
        ir::walkExprs(*s, [&](Expr &e) {
            if (e.kind == Expr::Kind::VarRef && e.var != second.var &&
                first_defs.count(e.var))
                scalar_crossing = true;
        });
    }
    if (scalar_crossing)
        return false;

    // Array dependence legality (see header comment).
    std::vector<std::pair<const Expr *, bool>> refs1, refs2;
    collectRefSites(first.body, refs1);
    collectRefSites(second.body, refs2);
    for (const auto &[r1, w1] : refs1) {
        for (const auto &[r2, w2] : refs2) {
            if (!w1 && !w2)
                continue;
            if (r1->kind != Expr::Kind::ArrayRef ||
                r2->kind != Expr::Kind::ArrayRef)
                return false;   // pointer refs: unanalyzable
            if (r1->array != r2->array)
                continue;
            auto f1 = analysis::linearIndexForm(*r1);
            auto f2 = analysis::linearIndexForm(*r2);
            if (!f1 || !f2)
                return false;
            // Rebase the second loop's index onto the first's.
            if (second.var != first.var) {
                auto it = f2->coefs.find(second.var);
                if (it != f2->coefs.end()) {
                    f2->coefs[first.var] += it->second;
                    f2->coefs.erase(it);
                }
            }
            if (!f1->sameShape(*f2))
                return false;
            const std::int64_t coef = f1->coef(first.var);
            const std::int64_t delta = f2->c - f1->c;
            if (coef == 0) {
                if (delta != 0)
                    continue;   // constant, distinct addresses
                return false;   // same element every iteration
            }
            if (delta % coef != 0)
                continue;       // no integer iteration solves it
            const std::int64_t dist = delta / coef;
            if (trip && std::abs(dist) >= std::abs(*trip))
                continue;       // beyond the iteration range
            if (dist > 0)
                return false;   // second runs ahead of the producer
        }
    }

    // Fuse: rename the second loop's index and append its body.
    for (auto &stmt : second.body) {
        if (second.var != first.var) {
            renameVar(*stmt, second.var, first.var);
        }
        first.body.push_back(std::move(stmt));
    }
    first.parallel = first.parallel && second.parallel;
    list.erase(list.begin() + static_cast<std::ptrdiff_t>(pos) + 1);
    return true;
}

} // namespace

bool
fuseLoops(Kernel &kernel, Stmt &first, Stmt &second)
{
    auto [owner, pos] = findOwner(kernel, &first);
    if (pos + 1 >= owner->size() || (*owner)[pos + 1].get() != &second)
        return false;
    return fuseAdjacentAt(*owner, pos);
}

int
partitionParallelLoops(Kernel &kernel)
{
    // Collect outermost parallel counted loops (not nested inside
    // another parallel loop).
    std::vector<Stmt *> targets;
    std::function<void(Stmt &, bool)> scan = [&](Stmt &s,
                                                 bool inside) {
        const bool take = !inside && s.kind == Stmt::Kind::Loop &&
                          s.parallel && !s.prePartitioned;
        if (take)
            targets.push_back(&s);
        for (auto &child : s.body)
            scan(*child, inside || take);
    };
    for (auto &stmt : kernel.body)
        scan(*stmt, false);

    int count = 0;
    for (Stmt *loop : targets) {
        const std::string v = loop->var;
        const std::string trip = "__trip_" + v;
        const std::string chunk = "__chunk_" + v;
        const std::string mylo = "__mylo_" + v;
        const std::string myhi = "__myhi_" + v;
        for (const auto &name : {trip, chunk, mylo, myhi})
            kernel.declareScalar(name, ir::ScalType::I64);

        auto [owner, pos] = findOwner(kernel, loop);
        std::vector<StmtPtr> setup;
        // trip = hi - lo (in steps); chunk = ceil(trip / nprocs) steps
        setup.push_back(ir::assign(
            ir::varref(trip),
            ir::divx(ir::sub(ir::sub(loop->hi->clone(),
                                     loop->lo->clone()),
                             ir::iconst(1 - loop->step)),
                     ir::iconst(loop->step))));
        setup.push_back(ir::assign(
            ir::varref(chunk),
            ir::mul(ir::divx(ir::sub(ir::add(ir::varref(trip),
                                             ir::varref("__nprocs")),
                                     ir::iconst(1)),
                             ir::varref("__nprocs")),
                    ir::iconst(loop->step))));
        setup.push_back(ir::assign(
            ir::varref(mylo),
            ir::add(loop->lo->clone(),
                    ir::mul(ir::varref("__procid"),
                            ir::varref(chunk)))));
        setup.push_back(ir::assign(
            ir::varref(myhi),
            ir::minx(ir::add(ir::varref(mylo), ir::varref(chunk)),
                     loop->hi->clone())));
        loop->lo = ir::varref(mylo);
        loop->hi = ir::varref(myhi);
        loop->prePartitioned = true;
        owner->insert(owner->begin() + static_cast<std::ptrdiff_t>(pos),
                      std::make_move_iterator(setup.begin()),
                      std::make_move_iterator(setup.end()));
        ++count;
    }
    return count;
}

int
scalarReplace(Kernel &kernel, Stmt &inner)
{
    if (inner.kind != Stmt::Kind::Loop)
        return 0;

    // Gather candidate (inner-invariant, affine) references, and track
    // per-array whether any variant (inner-dependent) access exists.
    struct Candidate
    {
        Expr *expr;
        analysis::AffineForm index;
        bool isWrite;
    };
    std::vector<Candidate> cands;
    std::set<const ir::Array *> has_variant;
    std::set<std::string> body_defined;
    ir::walkStmts(inner, [&](Stmt &s) {
        if (s.kind == Stmt::Kind::Assign &&
            s.lhs->kind == Expr::Kind::VarRef)
            body_defined.insert(s.lhs->var);
        if (s.kind == Stmt::Kind::PtrLoop)
            body_defined.insert(s.var);
    });
    std::function<void(Expr &, bool)> visit = [&](Expr &e, bool is_write) {
        for (auto &c : e.children)
            visit(*c, false);
        if (e.kind != Expr::Kind::ArrayRef)
            return;
        auto form = analysis::linearIndexForm(e);
        bool invariant = form.has_value();
        if (form) {
            for (const auto &[v, coef] : form->coefs) {
                if (coef == 0)
                    continue;
                if (v == inner.var || body_defined.count(v))
                    invariant = false;
            }
        }
        if (invariant)
            cands.push_back({&e, *form, is_write});
        else
            has_variant.insert(e.array);
    };
    ir::walkStmts(inner, [&](Stmt &s) {
        if (s.kind == Stmt::Kind::Assign) {
            visit(*s.rhs, false);
            for (auto &c : s.lhs->children)
                visit(*c, false);
            if (s.lhs->isMemRef())
                visit(*s.lhs, true);
        }
    });

    // Group candidates by (array, index form); skip arrays with variant
    // accesses (may alias) and groups written before read soundness is
    // checked trivially by construction (same location).
    int replaced = 0;
    std::vector<char> used(cands.size(), 0);
    auto [owner_list, owner_idx] = findOwner(kernel, &inner);
    size_t insert_before = owner_idx;
    size_t insert_after = owner_idx + 1;
    int tmp_counter = 0;
    for (size_t i = 0; i < cands.size(); ++i) {
        if (used[i] || has_variant.count(cands[i].expr->array))
            continue;
        std::vector<size_t> group{i};
        for (size_t j = i + 1; j < cands.size(); ++j) {
            if (used[j] || cands[j].expr->array != cands[i].expr->array)
                continue;
            if (cands[j].index.sameShape(cands[i].index) &&
                cands[j].index.c == cands[i].index.c)
                group.push_back(j);
        }
        const bool any_write = [&] {
            for (size_t g : group)
                if (cands[g].isWrite)
                    return true;
            return false;
        }();
        const std::string tmp =
            "__sr" + std::to_string(tmp_counter++) + "_" + inner.var;
        kernel.declareScalar(tmp, cands[i].expr->array->elem);
        // Hoisted load before the loop; store-back after if written.
        ExprPtr original = cands[i].expr->clone();
        owner_list->insert(
            owner_list->begin() +
                static_cast<std::ptrdiff_t>(insert_before),
            ir::assign(ir::varref(tmp), original->clone()));
        ++insert_before;
        ++insert_after;
        if (any_write) {
            owner_list->insert(
                owner_list->begin() +
                    static_cast<std::ptrdiff_t>(insert_after),
                ir::assign(std::move(original), ir::varref(tmp)));
        }
        for (size_t g : group) {
            morphToVar(*cands[g].expr, tmp);
            used[g] = 1;
            ++replaced;
        }
    }
    return replaced;
}

} // namespace mpc::transform
