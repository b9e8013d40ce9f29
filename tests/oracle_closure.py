"""Reference closures of a matrix group, kept as independent oracles.

`linear_closure` is the breadth-first Cayley-graph closure that
crystmono.affine.linear_closure first replaced with Dimino's coset
enumeration.  `dimino_closure` is that Dimino enumeration on the matrices
themselves, which the package now runs on index tuples of the basis
orbit instead; it fixes the order the package's list must keep.
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


def dimino_closure(generators, max_size: int = 2000) -> list[Matrix]:
    """Dimino's closure by matrix products, identity first: with H the group
    of the earlier generators, each new generator extends the list by whole
    right cosets H*x, x first."""
    gens = list(generators)
    if not gens:
        raise AffineError("no generators")
    field = gens[0][0][0].field
    order = [identity(field, len(gens[0]))]
    seen = set(order)
    used: list[Matrix] = []

    def add_coset(x: Matrix) -> None:
        if len(order) + len(h) > max_size:
            raise ClosureBoundError(f"closure exceeds {max_size} elements")
        block = [x] + [mat_mul(e, x) for e in h[1:]]
        order.extend(block)
        seen.update(block)
        reps.append(x)

    for g in gens:
        if g in seen:
            continue
        used.append(g)
        h, reps = order[:], []
        add_coset(g)
        for x in reps:
            for s in used:
                y = mat_mul(x, s)
                if y not in seen:
                    add_coset(y)
    return order
