"""Chain decompositions along parabolic cosets, pattern avoidance, and the
classifiers tying rational smoothness to freeness and supersolvability.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .arrangement import (
    Flat, every_pair_meets, flats_of_rank, is_supersolvable, pairs_meet_flat,
    poincare_polynomial,
)
from .cache import cached
from .inversion import flatten, inversion_arrangement, inversion_set
from .linalg import Eliminator
from .polynomials import IntPolynomial, product, q_int, q_integer_factorization
from .rootsys import RootSystem, Subsystem, cartan_isomorphisms, root_height
from .weyl import (
    WeylElement, WeylGroup, coset_poincare, is_palindromic, longest_element,
    parabolic_decomposition, poincare,
)


@dataclass(frozen=True)
class BPDecomposition:
    side: str                      # "left": w = u*v; "right": w = v*u
    J: FrozenSet[int]
    u: WeylElement
    v: WeylElement
    is_chain: bool
    # the coset Poincare polynomial of v; left as None when the cheap
    # chain pre-filters already failed (it is only needed for chains)
    coset_poincare: Optional[IntPolynomial]

    def reassemble(self) -> WeylElement:
        return self.u * self.v if self.side == "left" else self.v * self.u


@dataclass(frozen=True)
class ChainBPTree:
    """Leaf (identity) has decomposition None; otherwise inner is the tree for u."""
    decomposition: Optional[BPDecomposition]
    inner: Optional["ChainBPTree"]

    def nodes(self) -> List[BPDecomposition]:
        out, t = [], self
        while t.decomposition is not None:
            out.append(t.decomposition)
            t = t.inner
        return out


def tree_exponents(tree: ChainBPTree, rank: Optional[int] = None) -> Tuple[int, ...]:
    ms = [d.v.length() for d in tree.nodes()]
    if rank is not None:
        ms += [0] * (rank - len(ms))
    return tuple(sorted(ms))


def is_bp(w: WeylElement, J: Iterable[int], side: str = "left"):
    """(holds, u, v); criterion: S(v) and J overlap only in descents of u."""
    J = frozenset(J)
    u, v = parabolic_decomposition(w, J, side)
    dec = u.right_descents() if side == "left" else u.left_descents()
    return (v.support() & J) <= dec, u, v


def _parabolic_roots(system: RootSystem, J: FrozenSet[int]) -> List[tuple]:
    return [b for b in system.positive_roots
            if all(c == 0 for i, c in enumerate(b) if i not in J)]


def _pair_span_chain(v: WeylElement, J: FrozenSet[int]) -> bool:
    """Every pair of inversions of v must span a plane meeting R_J."""
    return every_pair_meets(inversion_set(v).roots, _parabolic_roots(v.group.system, J))


def coset_chain_poincare(v: WeylElement, J: FrozenSet[int], side: str):
    """(is_chain, coset Poincare polynomial) for a minimal representative v."""
    # a chain forces a unique descent on the far side, then the linear
    # pre-filter on the inversion set, then confirm on the interval
    probe = v if side == "left" else v.inverse()
    if v.length() >= 2 and len(probe.right_descents()) != 1:
        return False, None
    if not _pair_span_chain(probe, J):
        return False, None
    p = coset_poincare(v, J, side)
    return p == q_int(v.length() + 1), p


def bp_decomposition(w: WeylElement, J: Iterable[int], side: str = "left") -> Optional[BPDecomposition]:
    """The BP decomposition of w along (J, side) if the criterion holds."""
    J = frozenset(J)
    ok, u, v = is_bp(w, J, side)
    if not ok:
        return None
    chain, p = coset_chain_poincare(v, J, side)
    return BPDecomposition(side, J, u, v, chain, p)


def _maximal_pairs(w: WeylElement) -> List[Tuple[str, FrozenSet[int]]]:
    """(side, supp(w) − {s}) for each side and s ∈ supp(w), s descending.

    No other J carries a chain BP decomposition w = u·v with v ≠ e (the lemma):
    a chain ^J[e, v] ([e, v]^J on the right) has q^1 coefficient 1, which counts
    supp(v) − J (s ≤ v is a minimal coset representative iff s ∉ J), and by
    length-additivity supp(w) − J = supp(v) − J, so |J| = |supp(w)| − 1."""
    support = w.support()
    return [(side, support - {s}) for side in ("left", "right")
            for s in sorted(support, reverse=True)]


def chain_bp_candidates(w: WeylElement) -> Iterator[BPDecomposition]:
    """All chain BP decompositions of w, in the fixed deterministic order."""
    for side, J in _maximal_pairs(w):
        dec = bp_decomposition(w, J, side)
        if dec is not None and dec.is_chain:
            yield dec


def find_chain_bp(w: WeylElement) -> Optional[BPDecomposition]:
    return next(chain_bp_candidates(w), None)


@cached
def complete_chain_bp(w: WeylElement) -> Optional[ChainBPTree]:
    if w.is_identity():
        return ChainBPTree(None, None)
    for dec in chain_bp_candidates(w):
        inner = complete_chain_bp(dec.u)
        if inner is not None:
            return ChainBPTree(dec, inner)
    return None


def exponents_of(w: WeylElement) -> Optional[Tuple[int, ...]]:
    """Nonzero exponents plus zero padding, or None if P_w is not a product
    of q-integers (only rationally smooth elements have exponents)."""
    P = poincare(w)
    if not is_palindromic(P):
        return None
    ms = q_integer_factorization(P)
    if ms is None:
        return None
    return tuple(sorted(ms + [0] * (w.group.rank - len(ms))))


# -- exceptional elements in type E ----------------------------------------


def exceptional_element(k: int, l: int) -> WeylElement:
    """w_kl = v~_l u~_k in E_k, for 5 <= l < k <= 8."""
    if not (5 <= l < k <= 8):
        raise ValueError("need 5 <= l < k <= 8")
    g = WeylGroup.get(f"E{k}")
    J_k = frozenset(range(k)) - {1}
    J_l = frozenset(range(l)) - {1}
    S_l = frozenset(range(l))
    u_k = longest_element(g, J_k)
    u_l = longest_element(g, J_l)
    w_l = longest_element(g, S_l)
    v_l = g.mul(w_l, u_l)
    return g.mul(v_l, u_k)


def parabolic_exponents(system: RootSystem, J: Iterable[int]) -> Tuple[int, ...]:
    """Exponents of W_J, read off the dual partition of root heights."""
    J = frozenset(J)
    heights = [root_height(b) for b in _parabolic_roots(system, J)]
    if not heights:
        return ()
    counts = [sum(1 for h in heights if h == j) for j in range(1, max(heights) + 1)]
    exps = [sum(1 for c in counts if c >= i) for i in range(1, counts[0] + 1)]
    return tuple(sorted(exps))


def parabolic_poincare(system: RootSystem, J: Iterable[int]) -> IntPolynomial:
    """Poincare polynomial of the maximal element of W_J."""
    return product(q_int(e + 1) for e in parabolic_exponents(system, J))


def exceptional_poincare(k: int, l: int) -> IntPolynomial:
    """P_{w_kl} via the coset factorization, no interval enumeration."""
    if not (5 <= l < k <= 8):
        raise ValueError("need 5 <= l < k <= 8")
    system = RootSystem.get(f"E{k}")
    J_k = frozenset(range(k)) - {1}
    J_l = frozenset(range(l)) - {1}
    S_l = frozenset(range(l))
    num = parabolic_poincare(system, S_l) * parabolic_poincare(system, J_k)
    out = num.divide_exact(parabolic_poincare(system, J_l))
    if out is None:
        raise ArithmeticError("coset Poincare factorization failed")
    return out


def exceptional_exponents(k: int, l: int) -> Tuple[int, ...]:
    ms = q_integer_factorization(exceptional_poincare(k, l))
    if ms is None:
        raise ArithmeticError("Poincare polynomial is not a product of q-integers")
    return tuple(sorted(ms))


# -- HLSS condition ---------------------------------------------------------


def hlss(w: WeylElement) -> bool:
    """π(1) of the inversion arrangement, its number of NBC sets (π comes by
    deletion-restriction), against the size of the Bruhat interval [e, w]."""
    return poincare_polynomial(inversion_arrangement(w))(1) == len(w.group.bruhat_interval(w))


# -- root system pattern avoidance ------------------------------------------


@dataclass(frozen=True)
class Pattern:
    pattern_id: str
    realizations: Tuple[str, ...]       # root system labels, e.g. ("B3", "C3")
    word: Tuple[int, ...]               # 1-based generator indices
    q_factors: Tuple[Tuple[int, ...], ...]
    nbc_count: int
    interval_size: int

    def q_poly(self) -> IntPolynomial:
        return product(IntPolynomial(f) for f in self.q_factors)

    def element(self, label: str) -> WeylElement:
        return WeylGroup.get(label).from_word([s - 1 for s in self.word])


_T = [
    ("A3-3412", ("A3",), (2, 1, 3, 2), ((1, 1), (1, 3, 3)), 14, 14),
    ("A3-4231", ("A3",), (1, 2, 3, 2, 1), ((1, 1), (1, 2), (1, 2)), 18, 20),
    ("D4-s2s1s3s4s2", ("D4",), (2, 1, 3, 4, 2), ((1, 1), (1, 2), (1, 2, 2)), 30, 30),
    ("B3-r01", ("B3", "C3"), (2, 1, 3, 2), ((1, 1), (1, 3, 3)), 14, 14),
    ("B3-r02", ("B3", "C3"), (3, 2, 1, 3, 2), ((1, 1), (1, 4, 5)), 20, 20),
    ("B3-r03", ("B3", "C3"), (2, 1, 3, 2, 3), ((1, 1), (1, 4, 5)), 20, 20),
    ("B3-r04", ("B3", "C3"), (3, 2, 1, 3, 2, 3), ((1, 1), (1, 5, 7)), 26, 26),
    ("B3-r05", ("B3", "C3"), (3, 2, 1, 2, 3), ((1, 1), (1, 2), (1, 2)), 18, 20),
    ("B3-r06", ("B3", "C3"), (2, 3, 2, 1, 2, 3), ((1, 1), (1, 5, 7)), 26, 28),
    ("B3-r07", ("B3", "C3"), (3, 2, 1, 2, 3, 2), ((1, 1), (1, 5, 7)), 26, 28),
    ("B3-r08", ("B3", "C3"), (2, 3, 2, 1, 2, 3, 2), ((1, 1), (1, 6, 10)), 34, 36),
    ("B3-r09", ("B3", "C3"), (1, 2, 3, 2, 1), ((1, 1), (1, 2), (1, 2)), 18, 20),
    ("B3-r10", ("B3", "C3"), (1, 2, 3, 2, 1, 3), ((1, 1), (1, 2), (1, 3)), 24, 28),
    ("B3-r11", ("B3", "C3"), (1, 2, 3, 2, 1, 2, 3), ((1, 1), (1, 3), (1, 3)), 32, 36),
    ("B3-r12", ("B3", "C3"), (1, 2, 3, 2, 1, 3, 2), ((1, 1), (1, 3), (1, 3)), 32, 36),
    ("B3-r13", ("B3", "C3"), (1, 2, 3, 2, 1, 2, 3, 2), ((1, 1), (1, 3), (1, 4)), 40, 42),
    ("B3-r14", ("B3", "C3"), (1, 2, 3, 2, 1, 3, 2, 3), ((1, 1), (1, 3), (1, 4)), 40, 44),
]

PATTERNS: Dict[str, Pattern] = {
    row[0]: Pattern(*row) for row in _T
}


def _flattening_is(fl: WeylElement, sub: Subsystem, pat: Pattern) -> bool:
    """Whether the flattening fl, of type sub, is pat up to a Cartan isomorphism."""
    target = RootSystem.get(sub.type_string)
    pattern_elt = pat.element(sub.type_string)
    word = fl.word()
    return any(pattern_elt.group.from_word([p[s] for s in word]) == pattern_elt
               for p in cartan_isomorphisms(sub.datum.cartan_matrix, target.datum.cartan_matrix))


@cached
def pattern_hits(w: WeylElement) -> FrozenSet[str]:
    """Ids of the patterns that w contains.

    Every pattern has full support in its rank-r system, so the flattening of
    w to a subspace U can be a pattern only if I(w) cap U spans U. Those
    subspaces are the spans of the rank-r flats of I(w), so the scan runs
    over those flats, flattening each once for all patterns through a basis
    of its normals."""
    A = inversion_arrangement(w)
    rank = A.rank()
    hits = set()
    for r in sorted({RootSystem.get(p.realizations[0]).rank for p in PATTERNS.values()}):
        if r > rank:
            break   # I(w) has no flat of rank r
        for X in flats_of_rank(A, r):
            elim = Eliminator()
            fl, sub = flatten(w, [v for i, v in enumerate(A.normals)
                                  if i in X.contains and elim.add(v)])
            hits.update(pid for pid, pat in PATTERNS.items()
                        if sub.type_string in pat.realizations and _flattening_is(fl, sub, pat))
    return frozenset(hits)


def contains_pattern(w: WeylElement, pattern_id: str) -> bool:
    if pattern_id not in PATTERNS:
        raise KeyError(f"unknown pattern id: {pattern_id}")
    return pattern_id in pattern_hits(w)


def rationally_smooth(w: WeylElement, method: str = "palindromic") -> bool:
    if method == "palindromic":
        return is_palindromic(poincare(w))
    if method == "patterns":
        return not pattern_hits(w)
    raise ValueError("method must be 'palindromic' or 'patterns'")


# -- type A permutation utilities -------------------------------------------


def _require_type_a(group: WeylGroup) -> int:
    label = group.system.datum.type_label
    if not label.startswith("A"):
        raise ValueError("type A only")
    return group.rank + 1


def perm_of(w: WeylElement) -> Tuple[int, ...]:
    """One-line notation; s_i swaps positions i, i+1 under right multiplication."""
    n = _require_type_a(w.group)
    perm = list(range(1, n + 1))
    for s in w.word():
        perm[s], perm[s + 1] = perm[s + 1], perm[s]
    return tuple(perm)


def word_of(perm: Sequence[int], group: WeylGroup) -> WeylElement:
    n = _require_type_a(group)
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError("not a permutation of 1..n")
    p = list(perm)
    out = []
    while True:
        i = next((i for i in range(n - 1) if p[i] > p[i + 1]), None)
        if i is None:
            break
        p[i], p[i + 1] = p[i + 1], p[i]
        out.append(i)
    return group.from_word(reversed(out))


def avoids_perm_pattern(perm: Sequence[int], pattern: Sequence[int]) -> bool:
    k = len(pattern)
    order = {v: i for i, v in enumerate(sorted(pattern))}
    flat = tuple(order[v] for v in pattern)
    for sub in itertools.combinations(perm, k):
        suborder = {v: i for i, v in enumerate(sorted(sub))}
        if tuple(suborder[v] for v in sub) == flat:
            return False
    return True


def inversion_graph(w: WeylElement) -> Tuple[int, FrozenSet[Tuple[int, int]]]:
    """(n, edges); edge (i, j), i < j, iff e_i - e_j is an inversion of w."""
    n = _require_type_a(w.group)
    inv = inversion_set(w).as_set()
    edges = set()
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            root = tuple(int(i <= k + 1 < j) for k in range(n - 1))
            if root in inv:
                edges.add((i, j))
    return n, frozenset(edges)


def is_chordal(graph: Tuple[int, FrozenSet[Tuple[int, int]]]) -> bool:
    """Repeated removal of simplicial vertices (perfect elimination order)."""
    n, edges = graph
    adj: Dict[int, Set[int]] = {i: set() for i in range(1, n + 1)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    remaining = set(adj)
    while remaining:
        for v in sorted(remaining):
            nb = adj[v] & remaining
            if all(b in adj[a] for a, b in itertools.combinations(sorted(nb), 2)):
                remaining.discard(v)
                break
        else:
            return False
    return True


# -- the combined audit ------------------------------------------------------

AUDIT_GUARD = 10 ** 5
ALL_CHECKS = ("free_interval", "modular_coatom", "supersolvable", "hlss")


class AuditGuardError(ValueError):
    """theorem_audit refused a group of more than AUDIT_GUARD elements."""


def theorem_audit(group: WeylGroup, checks: Optional[Sequence[str]] = None,
                  sample_j: Optional[int] = None, seed: int = 0,
                  override: bool = False) -> dict:
    """Test the paper's equivalences on every element w of `group`.

    Each check counts every element, but evaluates its costly operand only
    where that operand can change the check's verdict:

    - ``free_interval``: smooth iff I(w) is free with ∏(1 + d_i) = |[e, w]|,
      and then the coexponents d_i are the exponents of w.  A free
      arrangement's coexponents are the roots of π, so ∏(1 + d_i) = π(1);
      `inductively_free` runs only where π(I(w))(1) = |[e, w]|, and for a
      counterexample's status.
    - ``modular_coatom``: for every (side, J = supp(w) − {s}) (a sample of
      `sample_j` pairs when given), w = u·v (v·u on the right) is a chain BP
      decomposition iff the flat of the inversions of u (u^-1), read off root
      supports as I(w) ∩ Φ_J (I(w^-1) ∩ Φ_J), is a modular coatom of I(w)
      (I(w^-1)).  For smaller J both sides are false (the flat's rank is
      |supp(u)| ≤ |J|; no chain, by the lemma at `_maximal_pairs`).
    - ``supersolvable``: w has a complete chain BP tree iff w is smooth and
      I(w) is supersolvable.  With neither a tree nor smoothness both sides
      are false, so `is_supersolvable` runs only where w is smooth or has a
      tree.
    - ``hlss``: smooth implies hlss; `hlss` runs only on smooth elements.

    Raises AuditGuardError for a group of more than AUDIT_GUARD elements
    unless `override` is set.
    """
    from .freeness import inductively_free

    checks = tuple(checks) if checks else ALL_CHECKS
    # order from the exponents formula; enumerating first would defeat the guard
    order = _coexp_product(parabolic_exponents(group.system, range(group.rank)))
    if order > AUDIT_GUARD and not override:
        raise AuditGuardError(
            f"group has {order} > {AUDIT_GUARD} elements; pass override to scan anyway")
    rng = random.Random(seed)
    counts = {c: 0 for c in checks}
    counterexamples: List[tuple] = []

    for w in sorted(group.elements(), key=lambda x: (x.length(), x.word())):
        smooth = rationally_smooth(w)
        word1 = tuple(s + 1 for s in w.word())
        A = inversion_arrangement(w)
        if "free_interval" in checks:
            counts["free_interval"] += 1
            res = inductively_free(A) if hlss(w) else None
            prod_ok = res is not None and res.free
            ok = (smooth == prod_ok)
            if ok and smooth:
                ok = tuple(res.coexponents) == exponents_of(w)
            if not ok:
                status = (res or inductively_free(A)).status
                counterexamples.append(("free_interval", word1, status))
        if "modular_coatom" in checks:
            counts["modular_coatom"] += 1
            pairs = _maximal_pairs(w)
            if sample_j is not None and len(pairs) > sample_j:
                pairs = rng.sample(pairs, sample_j)
            # u ∈ W_J, so the flat of I(u) in I(w) is I(w) ∩ Φ_J, of rank |supp(u)|
            arrangements = {"left": A, "right": inversion_arrangement(w.inverse())}
            supports = {side: [frozenset(k for k, c in enumerate(b) if c) for b in B.normals]
                        for side, B in arrangements.items()}
            support = w.support()
            for side, J in pairs:
                dec = bp_decomposition(w, J, side)
                X = Flat(frozenset(i for i, s in enumerate(supports[side]) if s <= J))
                rank_x = len(frozenset().union(*(supports[side][i] for i in X.contains)))
                modular = rank_x == len(support) - 1 and pairs_meet_flat(arrangements[side], X)
                if (dec is not None and dec.is_chain) != modular:
                    counterexamples.append(("modular_coatom", word1, (side, tuple(sorted(J)))))
        if "supersolvable" in checks:
            counts["supersolvable"] += 1
            has_tree = complete_chain_bp(w) is not None
            if smooth or has_tree:
                ss, _ = is_supersolvable(A)
                if has_tree != (smooth and ss):
                    counterexamples.append(("supersolvable", word1, (has_tree, smooth, ss)))
        if "hlss" in checks:
            counts["hlss"] += 1
            if smooth and not hlss(w):
                counterexamples.append(("hlss", word1, None))

    counterexamples.sort()
    return {
        "group": group.system.datum.type_label,
        "order": group.order(),
        "checks": {c: counts[c] for c in checks},
        "counterexamples": counterexamples,
    }


def _coexp_product(coexps: Sequence[int]) -> int:
    out = 1
    for d in coexps:
        out *= 1 + d
    return out
