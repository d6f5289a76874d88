"""Extremal t-intersecting families and the exact independence-number oracle.

A t-intersecting family of k-subspaces is exactly an independent set in
K_q(n,k,t).  The two extremal constructions are implemented directly:

* point pencil: all k-subspaces containing a fixed t-subspace
  (size [n-t, k-t]_q, the independence number for n >= 2k);
* nest family (n <= 2k): all k-subspaces of a fixed nest_dim-subspace
  (the independence number for n < 2k; at n = 2k the other equality case).

Both families test each label by row reduction (Subspace.contains), not
through the keyed pencils of graph._kneser_graph, so that the independence
of a pencil in the built graph checks the builder by a second route.

Vertex sets are bitmasks over the graph's vertex range.  The exact solver
reduces maximum independent set to maximum clique on the complement graph
and returns the clique engine's CliqueResult after checking that its
members are independent in the graph itself.
"""

from __future__ import annotations

from itertools import compress

from .cliques import CliqueResult, max_clique
from .errors import DimMismatchError, NotIndependentError, OutOfRangeError
from .graph import Graph, _flags, bits
from .qcount import nest_dim
from .subspace import Subspace


def point_pencil(g: Graph, t_space: Subspace) -> int:
    """Bitmask of the vertices whose subspace contains the fixed t-subspace."""
    if g.labels is None or g.meta is None:
        raise OutOfRangeError("graph has no subspace labels")
    if t_space.k != g.meta.t:
        raise DimMismatchError(f"need a {g.meta.t}-subspace, got dim {t_space.k}")
    mask = 0
    for i, s in enumerate(g.labels):
        if s.contains(t_space):
            mask |= 1 << i
    return mask


def nest_family(g: Graph, w_space: Subspace) -> int:
    """Bitmask of the vertices whose subspace lies inside the fixed
    nest_dim-subspace; only defined when n <= 2k (otherwise not extremal)."""
    if g.labels is None or g.meta is None:
        raise OutOfRangeError("graph has no subspace labels")
    p = g.meta
    if p.n > 2 * p.k:
        raise OutOfRangeError(f"nest family needs n <= 2k, got n={p.n} k={p.k}")
    if w_space.k != nest_dim(p):
        raise DimMismatchError(f"need a {nest_dim(p)}-subspace, got dim {w_space.k}")
    mask = 0
    for i, s in enumerate(g.labels):
        if w_space.contains(s):
            mask |= 1 << i
    return mask


def is_independent(g: Graph, members: int) -> bool:
    """True iff the vertex bitmask induces no edge.  A negative mask, or one
    with a bit at or above n_vertices, raises OutOfRangeError."""
    if members < 0 or members >> g.n_vertices:
        raise OutOfRangeError(f"vertex mask is not a subset of the {g.n_vertices} vertices")
    return not any(g.rows[v] & members for v in bits(members))


def max_independent_set_exact(g: Graph, node_budget: int | None = None,
                              time_budget: float | None = None,
                              vertex_transitive: bool = False) -> CliqueResult:
    """Exact maximum independent set: the maximum clique of the complement,
    returned as its CliqueResult once its members are checked independent.

    vertex_transitive=True searches only the sets that hold vertex 0, as
    some maximum set does in a vertex-transitive graph, such as K_q(n,k,t)
    built from its parameters; on other graphs the size may be too small.

    On budget exhaustion the best set found is returned with exact=False;
    an inexact size is a valid lower bound for alpha, never reported as it.
    """
    root = 0 if vertex_transitive and g.n_vertices else None
    r = max_clique(g.complement().rows, node_budget=node_budget, time_budget=time_budget,
                   root=root)
    if not is_independent(g, r.members):
        raise NotIndependentError("clique search returned a set that induces an edge")
    return r


def write_vertex_set(members: int, path) -> None:
    """Persist a witness as sorted 1-indexed vertex ids, one per line."""
    ids = [f"{v + 1}\n" for v in range(members.bit_length())]
    with open(path, "w") as fh:
        fh.write("".join(compress(ids, _flags(members))))
