#!/usr/bin/env python3
"""Materialize a q-Kneser graph, check it against the formulas, and realize
the treewidth upper bound constructively with a star decomposition."""

import tempfile
from pathlib import Path

from qkneser.ekr import point_pencil
from qkneser.graph import build_qkneser, edge_count, read_gr, write_gr
from qkneser.qcount import Params, alpha_formula, degree_formula, tw_formula_cograssmann
from qkneser.td import star_decomposition, validate, width, write_td
from qkneser.verify import unit_subspace

p = Params(5, 2, 1, 2)
g = build_qkneser(p)
print(f"K_2(5,2,1): {g.n_vertices} vertices (2-subspaces of F_2^5 in a fixed")
print("canonical order), edges between subspaces meeting only in 0.")
degrees = {r.bit_count() for r in g.rows}
print(f"  vertex degrees {sorted(degrees)} (formula: {degree_formula(p)}), "
      f"edges {edge_count(g)}")

print()
print("Vertices are labeled subspaces; vertex 0 is", g.labels[0])

# the point pencil through a fixed 1-subspace is a maximum independent set
pencil = point_pencil(g, unit_subspace(2, 5, 1))
print()
print(f"All 2-subspaces through span{{e1}} form a {pencil.bit_count()}-member")
print(f"independent set = alpha = {alpha_formula(p)} (EKR extremal family).")

# star decomposition: center bag = everything else, one leaf per pencil member
d = star_decomposition(g, pencil)
report = validate(g, d)
print()
print(f"Star decomposition: {len(d.bags)} bags, width {width(d)}.")
print(f"  validator: valid={report.valid}; witnesses, None where the condition holds:")
print(f"    uncovered vertex {report.uncovered_vertex}, uncovered edge "
      f"{report.uncovered_edge}, incoherent vertex {report.incoherent_vertex}")
# t = k-1, so this is the complement Grassmann graph; its exact treewidth
# |V| - alpha - 1 is met by the construction
formula = tw_formula_cograssmann(p.n, p.k, p.q)
print(f"  width equals the treewidth formula |V| - alpha - 1 = "
      f"{formula}: {width(d) == formula}")

# exports round-trip bit-exactly (PACE 2017 .gr / .td formats)
with tempfile.TemporaryDirectory() as tmp:
    gr = Path(tmp) / "k25.gr"
    td = Path(tmp) / "k25.td"
    write_gr(g, gr)
    write_td(d, td)
    again = read_gr(gr)
    print()
    print(f"PACE exports: {gr.name} ({gr.stat().st_size} bytes, "
          f"round-trip ok={again.rows == g.rows}), {td.name} written.")
    print("  header comments:", ", ".join(c[2:] for c in again.comments))
