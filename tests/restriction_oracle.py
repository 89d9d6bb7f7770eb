"""Reference restriction: A^H projected through `kernel_basis([H])`, the way
`weylinv.arrangement` computed it before the closed form of that basis.
Differential tests compare `weylinv.arrangement.restriction` against it."""

import functools

import fraction_linalg as ref
from weylinv.arrangement import Arrangement
from weylinv.linalg import primitive


@functools.lru_cache(maxsize=None)
def restriction_basis(normal):
    """Canonical (RREF-derived) basis of the hyperplane ker(normal)."""
    return ref.kernel_basis([primitive(normal)], len(normal))


def restriction(A, normal):
    h = primitive(normal)
    if h not in A.normals:
        raise ValueError("hyperplane not in arrangement")
    basis = restriction_basis(h)
    return Arrangement(A.dim - 1, [tuple(sum(x * y for x, y in zip(v, b)) for b in basis)
                                   for v in A.normals if v != h])
