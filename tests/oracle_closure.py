"""Reference closures of a matrix group, kept as independent oracles.

`linear_closure` is a breadth-first closure by right multiplication,
level by level, and fixes the set the package must list.
`left_bfs_closure` is the package's own search, left multiplication from
the identity, run on the matrices themselves instead of on index tuples
of the basis orbit; it fixes the order the package's list must keep.
`reflection_orders` is the package's earlier reading of the reflection
test, a second pass over a listed closure, and `Generator` hands the
package's closure a bare matrix with its determinant by elimination.
tests/test_closure.py checks the package against them.
"""

from math import lcm
from operator import getitem, mul
from typing import NamedTuple

from crystmono.affine import AffineError, Closure, ClosureBoundError
from crystmono.cyclo import CycloNum, roots_of_unity
from crystmono.linalg import Matrix, det, identity, mat_mul, mat_rank, vec_sub


class Generator(NamedTuple):
    """A matrix that need not be a reflection, as a closure generator."""

    matrix: Matrix

    def det(self) -> CycloNum:
        return det(self.matrix)


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


def reflection_orders(group: Closure) -> list[int]:
    """Each element's order as a reflection, or 0, in a second pass over
    the listed closure: an element of determinant exponent d != 0 whose
    Kronecker-packed trace is (n - 1) + zeta^d, confirmed for n >= 4 by
    the rank of m - I, has the order of zeta^d (affine._trace_keys)."""
    points, r = group.points, group.field.degree
    n = (len(points[0]) - 1) // r
    roots = sorted(roots_of_unity(group.field).items(), key=lambda item: item[1])  # by exponent
    den = lcm(*(p[-1] for p in points))
    bound = max(
        max(max(map(abs, p[:-1])) * (den // p[-1]) for p in points),
        den * max(max(map(abs, z.num)) for z, _ in roots),
    )
    powers = [(2 * n * bound + 1) ** k for k in range(r)]
    cols = [[sum(map(mul, p[i * r : (i + 1) * r], powers)) * (den // p[-1]) for p in points] for i in range(n)]
    keys = [(sum(map(mul, z.num, powers)) + n - 1) * den for z, _ in roots]
    orders = [k for _, (_, k) in roots]

    def confirmed(x) -> bool:
        return n <= 3 or mat_rank(tuple(map(vec_sub, group.matrix(x), identity(group.field, n)))) == 1

    return [
        orders[d] if d and sum(map(getitem, cols, x)) == keys[d] and confirmed(x) else 0
        for x, d in zip(group.elements, group.dets)
    ]
