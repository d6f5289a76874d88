#!/usr/bin/env python3
"""Verification sweeps: run the named suites over their fixed grids and
show the sweep-record export.  The claims suite deliberately reports the
five exact-arithmetic counterexamples it finds (see README)."""

from qkneser.qcount import Params, sweep_records
from qkneser.verify import SUITES, claims_params

print("Sweep records are one comma-separated line per parameter point:")
print("q, n, k, t, the two inequality verdicts (layer bound, pigeonhole")
print("bound), then delta, alpha, tw ('-' when the hypothesis fails):")
for line in sweep_records([Params(7, 2, 1, 2), Params(6, 2, 1, 2),
                           Params(13, 4, 1, 2)]):
    print("  " + line)

print()
print("Named suites (same entry points the CLI uses):")
for name in ("identities", "claims", "td", "separators"):
    rep = SUITES[name]()
    print(f"  {name:12s} {rep.checks:6d} checks  ok={rep.ok}")
    for line in rep.lines:
        print(f"    {line}")
    for failure in rep.failures:
        print(f"    counterexample: {failure}")

print()
print(f"(the claims grid has {len(claims_params())} parameter points; the")
print("degrees and ekr suites rebuild every graph up to 3000 vertices, in")
print("about 0.25 s and 0.37 s per CLI call on a 2-core host - run")
print("`qkneser verify degrees` / `qkneser verify ekr`)")
