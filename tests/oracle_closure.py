"""Reference closures of a matrix group, kept as independent oracles.

`linear_closure` is a breadth-first closure by right multiplication,
level by level, and fixes the set the package must list.
`left_bfs_closure` is the package's own search, left multiplication from
the identity, run on the matrices themselves instead of on index tuples
of the basis orbit; it fixes the order the package's list must keep.
tests/test_closure.py checks the package against both.
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


def left_bfs_closure(generators, max_size: int = 2000) -> list[Matrix]:
    """BFS closure by left multiplication, identity first: each listed m,
    in turn, lists g*m for each generator g in order, if new."""
    gens = list(generators)
    if not gens:
        raise AffineError("no generators")
    order = [identity(gens[0][0][0].field, len(gens[0]))]
    seen = set(order)
    for m in order:  # grows as new elements are found
        for g in gens:
            p = mat_mul(g, m)
            if p not in seen:
                if len(order) >= max_size:
                    raise ClosureBoundError(f"closure exceeds {max_size} elements")
                seen.add(p)
                order.append(p)
    return order
