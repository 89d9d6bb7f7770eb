"""Reference subsystem construction: the inner-product route that
`weylinv.rootsys.subsystem` replaced.

The Cartan matrix of the subsystem's simple roots comes from the ambient
`Fraction` form, c_ij = 2(b_i, b_j)/(b_i, b_i); each component's norms are
rescaled so that its long roots have norm 2, and each component is typed by
building the standard `cartan_datum` of every candidate label.  Differential
tests compare the package's root-string construction against it.
"""

from fractions import Fraction
from typing import List, Sequence

from weylinv.linalg import Eliminator
from weylinv.rootsys import (
    CartanDatum, RootSystem, _candidate_labels, _components, cartan_datum,
    cartan_isomorphisms, root_height,
)


def datum_from_cartan(matrix: Sequence[Sequence[int]], norms: Sequence[Fraction],
                      label: str = "sub") -> CartanDatum:
    n = len(matrix)
    return CartanDatum(label, n, tuple(tuple(int(x) for x in row) for row in matrix),
                       tuple(Fraction(x) / 2 for x in norms))


def normalized_norms(cart, norms) -> List[Fraction]:
    """Rescale norms so that each component's long roots have norm 2."""
    out = [Fraction(x) for x in norms]
    for comp in _components(cart):
        top = max(out[i] for i in comp)
        for i in comp:
            out[i] = out[i] * 2 / top
    return out


def classify_irreducible(cart: Sequence[Sequence[int]]) -> str:
    for label in _candidate_labels(len(cart)):
        std = cartan_datum(label).cartan_matrix
        if next(cartan_isomorphisms(std, cart), None) is not None:
            return label
    raise ValueError("Cartan matrix is not of finite type")


def subsystem(system: RootSystem, U_basis: Sequence[Sequence[int]]):
    """(positive roots, simple roots, type components, datum) of R cap span(U_basis)."""
    elim = Eliminator()
    for v in U_basis:
        if not elim.add(v):
            raise ValueError("U_basis must be linearly independent")
    pos = tuple(b for b in system.positive_roots if elim.in_span(b))
    pos_set = set(pos)
    simples = [b for b in pos
               if not any(tuple(x - y for x, y in zip(b, c)) in pos_set for c in pos if c != b)]
    simples.sort(key=lambda b: (root_height(b), b))
    if not simples:
        return pos, (), (), None
    n = len(simples)
    norms = [system.inner_product(d, d) for d in simples]
    cart = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            c = 2 * system.inner_product(simples[i], simples[j]) / norms[i]
            assert c.denominator == 1
            cart[i][j] = int(c)
    labels = sorted(classify_irreducible([[cart[i][j] for j in comp] for i in comp])
                    for comp in _components(cart))
    datum = datum_from_cartan(cart, normalized_norms(cart, norms))
    return pos, tuple(simples), tuple(labels), datum
