"""Reference pattern scan: the all-roots scan that `smoothness.pattern_hits`
replaced.

For each pattern id it flattens w to every subspace spanned by r positive
roots of the whole system, whatever w is.  Differential tests compare
`weylinv.smoothness.pattern_hits` against it.
"""

import functools
import itertools
from typing import Dict

import fraction_linalg as ref
from weylinv.inversion import flatten
from weylinv.rootsys import RootSystem, cartan_isomorphisms
from weylinv.smoothness import PATTERNS


@functools.lru_cache(maxsize=None)
def _root_subspaces(system: RootSystem, r: int):
    """One basis of each r-dimensional subspace spanned by positive roots,
    told apart by RREF."""
    seen: Dict[tuple, tuple] = {}
    for subset in itertools.combinations(system.positive_roots, r):
        key = ref.rref(subset)
        if len(key) == r and key not in seen:
            seen[key] = subset
    return tuple(seen.values())


def contains_pattern(w, pattern_id: str) -> bool:
    if pattern_id not in PATTERNS:
        raise KeyError(f"unknown pattern id: {pattern_id}")
    pat = PATTERNS[pattern_id]
    r = RootSystem.get(pat.realizations[0]).rank
    system = w.group.system
    if system.rank < r:
        return False
    for basis in _root_subspaces(system, r):
        fl, sub = flatten(w, basis)
        if sub.type_string not in pat.realizations:
            continue
        target = RootSystem.get(sub.type_string)
        pattern_elt = pat.element(sub.type_string)
        word = fl.word()
        for p in cartan_isomorphisms(sub.datum.cartan_matrix, target.datum.cartan_matrix):
            mapped = pattern_elt.group.from_word([p[s] for s in word])
            if mapped == pattern_elt:
                return True
    return False


def pattern_hits(w) -> frozenset:
    return frozenset(pid for pid in PATTERNS if contains_pattern(w, pid))
