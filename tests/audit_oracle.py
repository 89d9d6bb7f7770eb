"""Reference audit: the eager `theorem_audit` that `weylinv.smoothness`
replaced.

It runs every check's operands on every element: `inductively_free` and
the product of the coexponents for ``free_interval``, `is_supersolvable`
for ``supersolvable``, whether or not they can change the verdict.
Differential tests compare `weylinv.smoothness.theorem_audit` against it,
also with faults injected into the names both of them look up.

It also keeps two pieces of the group work the audit replaced:
`bruhat_interval`, the subword loop along the whole canonical word, with no
memo, and `chain_bp_candidates`, which also decomposes w along J = supp(w)
and drops v = e afterwards.
"""

import random
from typing import FrozenSet, Iterator, List, Optional, Sequence

from weylinv.arrangement import every_pair_meets, flat_of, is_supersolvable
from weylinv.inversion import inversion_arrangement, inversion_set
from weylinv.linalg import rank as matrix_rank
from weylinv.smoothness import (
    ALL_CHECKS, AUDIT_GUARD, BPDecomposition, _candidate_subsets, _coexp_product,
    bp_decomposition, complete_chain_bp, coset_chain_poincare, exponents_of, hlss, is_bp,
    parabolic_exponents, rationally_smooth,
)
from weylinv.weyl import WeylElement, WeylGroup


def bruhat_interval(w: WeylElement) -> FrozenSet[WeylElement]:
    """[e, w] by the subword property: X <- X u Xs along a reduced word."""
    g = w.group
    X = {g.identity}
    for s in w.word():
        gen, k = g.generators[s], g.simple[s]
        X.update([g.mul(x, gen) for x in X if x.perm[k] < g.n_pos])
    return frozenset(X)


def chain_bp_candidates(w: WeylElement) -> Iterator[BPDecomposition]:
    """Every chain BP decomposition of w with v != e, trying every J."""
    for side in ("left", "right"):
        for J in _candidate_subsets(w):
            dec = bp_decomposition(w, J, side)
            if dec is not None and dec.v.length() >= 1 and dec.is_chain:
                yield dec


def theorem_audit(group: WeylGroup, checks: Optional[Sequence[str]] = None,
                  sample_j: Optional[int] = None, seed: int = 0,
                  override: bool = False) -> dict:
    from weylinv.freeness import inductively_free

    checks = tuple(checks) if checks else ALL_CHECKS
    order = _coexp_product(parabolic_exponents(group.system, range(group.rank)))
    if order > AUDIT_GUARD and not override:
        raise ValueError(f"group has {order} > {AUDIT_GUARD} elements; pass override to scan anyway")
    rng = random.Random(seed)
    counts = {c: 0 for c in checks}
    counterexamples: List[tuple] = []

    for w in sorted(group.elements(), key=lambda x: (x.length(), x.word())):
        smooth = rationally_smooth(w)
        word1 = tuple(s + 1 for s in w.word())
        A = inversion_arrangement(w)
        if "free_interval" in checks:
            counts["free_interval"] += 1
            res = inductively_free(A)
            size = len(group.bruhat_interval(w))
            prod_ok = res.free and _coexp_product(res.coexponents) == size
            ok = (smooth == prod_ok)
            if ok and smooth:
                ok = tuple(res.coexponents) == exponents_of(w)
            if not ok:
                counterexamples.append(("free_interval", word1, res.status))
        if "modular_coatom" in checks:
            counts["modular_coatom"] += 1
            pairs = [(side, J) for side in ("left", "right") for J in _candidate_subsets(w)]
            if sample_j is not None and len(pairs) > sample_j:
                pairs = rng.sample(pairs, sample_j)
            arrangements = {"left": A, "right": inversion_arrangement(w.inverse())}
            ranks = {side: B.rank() for side, B in arrangements.items()}
            for side, J in pairs:
                ok, u, v = is_bp(w, J, side)
                if v.is_identity():
                    continue
                chain_bp = ok and coset_chain_poincare(v, J, side)[0]
                inv_u = inversion_set(u if side == "left" else u.inverse()).as_set()
                B = arrangements[side]
                X = flat_of(B, [i for i, nrm in enumerate(B.normals) if nrm in inv_u])
                x_rank = matrix_rank([B.normals[i] for i in X.contains])
                modular = x_rank == ranks[side] - 1 and every_pair_meets(
                    [nrm for i, nrm in enumerate(B.normals) if i not in X.contains],
                    [B.normals[i] for i in sorted(X.contains)])
                if chain_bp != modular:
                    counterexamples.append(("modular_coatom", word1, (side, tuple(sorted(J)))))
        if "supersolvable" in checks:
            counts["supersolvable"] += 1
            has_tree = complete_chain_bp(w) is not None
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
