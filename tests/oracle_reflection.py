"""Matrix oracles for the reflections the package keeps by their factors.

The package builds every reflection as I - root coroot^T and reads its
checks off the two factors: form preservation by a rank-one identity,
"is a reflection" as two nonzero factors, the order from 1 - coroot^T
root, and the Cartan matrix A_ij = coroot_i^T root_j.  These read the same
facts off the matrix alone, by n x n products, a rank, a trace and a
column search, with no factor given.  `pair` is the form's value
<u, v> = u^T G conj(v), by dot and mat_vec.
"""

from crystmono.linalg import (
    conj_matrix,
    conj_vector,
    dot,
    identity,
    is_zero_vector,
    mat_inverse,
    mat_mul,
    mat_rank,
    mat_vec,
    transpose,
    vec_scale,
    vec_sub,
)
from crystmono.monodromy import PLOperator


def pair(form, u, v):
    """<u, v> = u^T G conj(v)."""
    return dot(u, mat_vec(form.gram, conj_vector(v)))


def minus_outer(root, coroot):
    """I - root coroot^T, entry by entry."""
    one, zero = root[0].field.one, root[0].field.zero
    return tuple(tuple((one if i == j else zero) - a * b for j, b in enumerate(coroot)) for i, a in enumerate(root))


def moved(m):
    """I - m."""
    return tuple(map(vec_sub, identity(m[0][0].field, len(m)), m))


def trace(m):
    return sum((row[k] for k, row in enumerate(m)), m[0][0].field.zero)


def is_preserved_by(form, m):
    """Whether <m u, m v> = <u, v>: m^T G conj(m) = G."""
    return mat_mul(transpose(m), mat_mul(form.gram, conj_matrix(m))) == form.gram


def is_reflection(m):
    """Whether m - I has rank one, by a full elimination."""
    return mat_rank(moved(m)) == 1


def reflection_order(m):
    """The order of tr m - (n - 1), a reflection's eigenvalue other than 1."""
    return (trace(m) - (len(m) - 1)).multiplicative_order()


def factors(m):
    """(root, coroot) with m = I - root coroot^T, the root the first nonzero
    column of I - m, or None when I - m does not have rank one."""
    if not is_reflection(m):
        return None
    a = moved(m)
    root = next(c for c in zip(*a) if not is_zero_vector(c))
    r = next(k for k, x in enumerate(root) if x)
    return root, vec_scale(root[r].inverse(), a[r])


def as_reflection(m):
    """m as a PLOperator, its factors read off the matrix alone."""
    return PLOperator(m, trace(m) - (len(m) - 1), *factors(m))


def cartan(ms):
    """(U, U^-1, A, F) for matrices m_i whose I - m_i have rank one and
    whose roots, the first nonzero columns of I - m_i, form a basis, else
    None: the coroot w_i^T is row i of U^-1 (I - m_i), A_ij = w_i^T u_j,
    and F holds A_ii and A_ij A_ji."""
    if len(ms) != len(ms[0]) or not all(map(is_reflection, ms)):
        return None
    a_s = [moved(m) for m in ms]
    u = transpose([next(c for c in zip(*a) if not is_zero_vector(c)) for a in a_s])
    try:
        u_inv = mat_inverse(u)
    except ValueError:
        return None
    a = mat_mul([mat_vec(transpose(m), row) for m, row in zip(a_s, u_inv)], u)
    return u, u_inv, a, tuple(tuple(x * a[j][i] if i != j else x for j, x in enumerate(row)) for i, row in enumerate(a))
