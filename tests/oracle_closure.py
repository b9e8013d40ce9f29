"""Reference closure of a matrix group, kept as an independent oracle.

This is the breadth-first Cayley-graph closure that
crystmono.affine.linear_closure replaced with Dimino's coset
enumeration; tests/test_closure.py checks the package against it.
"""

from crystmono.affine import AffineError, ClosureBoundError
from crystmono.linalg import Matrix, identity, mat_mul


def linear_closure(generators, max_size: int = 2000) -> list[Matrix]:
    """BFS closure of a matrix group, in deterministic encounter order."""
    gens = list(generators)
    if not gens:
        raise AffineError("no generators")
    field = gens[0][0][0].field
    ident = identity(field, len(gens[0]))
    seen = {ident}
    order = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                p = mat_mul(m, g)
                if p not in seen:
                    seen.add(p)
                    order.append(p)
                    nxt.append(p)
                    if len(order) > max_size:
                        raise ClosureBoundError(f"closure exceeds {max_size} elements")
        frontier = nxt
    return order
