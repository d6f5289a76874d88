#!/usr/bin/env python3
"""Desk-scale exact solvers: maximum independent set, treewidth, and
balanced separators, cross-checking the closed forms on real graphs."""

from qkneser.ekr import max_independent_set_exact
from qkneser.families import complete_graph, grid_graph, petersen_graph
from qkneser.graph import build_cograssmann, build_qkneser
from qkneser.qcount import Params, alpha_formula, tw_formula_cograssmann
from qkneser.td import validate, width
from qkneser.twsolve import balanced_separator_search, clique_lower_bound, treewidth_exact

print("Exact maximum independent set (bitset branch and bound with a")
print("greedy-coloring bound, run on the complement):")
for n in (4, 5):
    p = Params(n, 2, 1, 2)
    g = build_qkneser(p)
    r = max_independent_set_exact(g)
    print(f"  alpha(K_2({n},2,1)) = {r.size}  (formula {alpha_formula(p)}, "
          f"exact={r.exact}, {r.nodes} nodes)")

g = build_qkneser(Params(4, 2, 1, 2))
print()
print("Cliques in K_q(n,k,t) are partial t-spreads; no closed form is")
print("asserted, the solver just reports what it proves:")
print(f"  omega(K_2(4,2,1)) = {clique_lower_bound(g)} "
      "(five pairwise-disjoint 2-subspaces tile F_2^4 minus the origin)")

print()
print("Exact treewidth via elimination search, deciding widths top-down:")
pet = petersen_graph()
r = treewidth_exact(pet)
print(f"  tw(Petersen) = {r.value} ({r.status}, {r.nodes} nodes); certificate "
      f"width {width(r.decomposition)}, valid={validate(pet, r.decomposition).valid}")

print()
print("The open-window instance: co-Grassmann at q=2, n=4, k=2 (35 vertices).")
w = tw_formula_cograssmann(4, 2, 2)
print(f"  formula window: [{w.lower}, {w.upper}]")
cg = build_cograssmann(4, 2, 2)
# GL(4,2) acts transitively on the 2-subspaces, so the search may start
# from vertex 0
r = treewidth_exact(cg, time_budget=240, vertex_transitive=True)
print(f"  solver: bracket [{r.lower}, {r.upper}], status {r.status}, "
      f"{r.nodes} nodes, {r.memo_hits} memo hits, {r.forced} forced, "
      f"clique of {r.kept} kept last")
for level, verdict, nodes in r.levels:
    print(f"    width {level}: {verdict} in {nodes} nodes")
if r.status == "exact":
    print(f"  => tw = {r.value}: the upper endpoint q^4+q^3+q^2-1 is tight at q=2")

print()
print("Every graph has a 2/3-separator of order <= tw+1; exhaustive search")
print("finds one (or certifies none) at desk scale:")
for name, graph, cap in (("Petersen", pet, 5), ("3x3 grid", grid_graph(3, 3), 4)):
    wit = balanced_separator_search(graph, cap)
    parts = (wit.side_a.bit_count(), wit.side_b.bit_count())
    print(f"  {name}: |X| = {wit.separator.bit_count()} <= {cap}, "
          f"parts {parts} of {sum(parts)} remaining vertices")
print("  K_5 with cap 3:", balanced_separator_search(complete_graph(5), 3),
      "(no small separator exists, certified)")
