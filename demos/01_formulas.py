#!/usr/bin/env python3
"""Counting formulas walkthrough: Gaussian binomials and the closed-form
degree / independence number / treewidth of generalized q-Kneser graphs."""

from qkneser.qcount import (
    Params,
    Window,
    alpha_formula,
    degree_formula,
    gauss,
    intersect_count,
    tw_formula_applies,
    tw_formula_cograssmann,
    tw_formula_qkneser,
    tw_value,
)

print("Gaussian binomial [n,k]_q counts the k-subspaces of F_q^n:")
for q in (2, 3, 4):
    row = "  q=%d:  " % q + "  ".join(str(gauss(6, k, q)) for k in range(7))
    print(row + "   ([6,k]_q for k = 0..6)")

print()
print("They grow fast; everything here is exact big-integer arithmetic:")
print("  [40,20]_2 =", gauss(40, 20, 2))

print()
print("For a fixed k-subspace X of F_q^n, the other k-subspaces split into")
print("layers by intersection dimension (shown: q=2, n=4, k=2):")
for m in range(3):
    print(f"  dim(X cap Y) = {m}:  {intersect_count(4, 2, 2, m, 2)} subspaces")
print("  total:", sum(intersect_count(4, 2, 2, m, 2) for m in range(3)),
      "= [4,2]_2 =", gauss(4, 2, 2))

print()
print("K_q(n,k,t) joins k-subspaces meeting in dimension < t.  Its vertex")
print("degree sums the layers below t, and for n >= 2k the independence")
print("number is the extremal t-intersecting family size [n-t,k-t]_q:")
for p in (Params(7, 2, 1, 2), Params(10, 3, 1, 2), Params(12, 3, 2, 3)):
    print(f"  q={p.q} n={p.n} k={p.k} t={p.t}:  |V| = {gauss(p.n, p.k, p.q)},  "
          f"Delta = {degree_formula(p)},  alpha = {alpha_formula(p)}")

print()
print("For n >= 2t(k-t+1)+k+1 the treewidth is exactly |V| - alpha - 1:")
for p in (Params(7, 2, 1, 2), Params(8, 2, 1, 2), Params(10, 3, 1, 2)):
    assert tw_formula_applies(p)
    print(f"  tw(K_{p.q}({p.n},{p.k},{p.t})) = {tw_formula_qkneser(p)}")

print()
print("The complement of the Grassmann graph is the t = k-1 case.  Its")
print("treewidth is known exactly for every n >= k+2 except (n,k) = (4,2),")
print("where only a window survives:")
print("  tw(co-Grassmann q=2, n=5, k=2) =", tw_formula_cograssmann(5, 2, 2))
print("  tw(co-Grassmann q=2, n=6, k=3) =", tw_formula_cograssmann(6, 3, 2))
w = tw_formula_cograssmann(4, 2, 2)
assert isinstance(w, Window)
print(f"  tw(co-Grassmann q=2, n=4, k=2) in [{w.lower}, {w.upper}]"
      "   (see demos/03_exact_solvers.py: it is 27)")

print()
print("For n < 2k, U -> U^perp maps K_q(n,k,t) onto K_q(n, n-k, t-(2k-n)),")
print("since dim(U^perp cap V^perp) = dim(U cap V) + n - 2k; both sides of a")
print("dual pair get the same values:")
for p in (Params(6, 4, 3, 2), Params(6, 2, 1, 2)):
    print(f"  q={p.q} n={p.n} k={p.k} t={p.t}:  Delta = {degree_formula(p)},  "
          f"alpha = {alpha_formula(p)},  tw = {tw_value(p)}")
