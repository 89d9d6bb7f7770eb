"""Seeded workload inputs, generated without importing weylinv.

A small model of each Weyl group (elements as the images of the simple
roots, acted on by a Cartan matrix with the same Dynkin labelling as
``weylinv.rootsys``) draws random reduced words and tells elements apart, so
every element within a workload is distinct.  The program under test only
ever receives the 1-based words.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from typing import Dict, Iterator, List, Tuple

GROUP_ORDERS = {"A3": 24, "B3": 48, "C3": 48, "G2": 12, "D4": 192, "B4": 384}


def _coxeter_edges(name: str) -> Dict[Tuple[int, int], int]:
    """0-based Dynkin edges with their Coxeter numbers m_ij."""
    label, n = name[0], int(name[1:])
    if label in "ABC":
        edges = {(i, i + 1): 3 for i in range(n - 1)}
        if label != "A":
            edges[(n - 2, n - 1)] = 4
        return edges
    if label == "D":
        return {(0, 1): 3, (2, 1): 3, (1, 3): 3, **{(i, i + 1): 3 for i in range(3, n - 1)}}
    if label == "F":
        return {(0, 1): 3, (1, 2): 4, (2, 3): 3}
    raise ValueError(f"unknown group {name!r}")


class Group:
    """Weyl group W as the images w(alpha_1), ..., w(alpha_n) of the simple roots."""

    def __init__(self, name: str):
        self.name = name
        self.rank = int(name[1:])
        n = self.rank
        self.cartan = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for (i, j), m in _coxeter_edges(name).items():
            self.cartan[i][j] = -1
            self.cartan[j][i] = {3: -1, 4: -2}[m]
        self.identity = tuple(tuple(int(i == j) for i in range(n)) for j in range(n))

    def times_generator(self, w, i: int):
        """w * s_i: column k becomes w(alpha_k - a_ik alpha_i)."""
        wi, row = w[i], self.cartan[i]
        return tuple(tuple(c - row[k] * x for c, x in zip(w[k], wi)) for k in range(self.rank))

    def element(self, word0):
        w = self.identity
        for s in word0:
            w = self.times_generator(w, s)
        return w

    def ascents(self, w) -> List[int]:
        # l(w s_i) > l(w) iff w(alpha_i) is a positive root
        return [i for i, col in enumerate(w) if sum(col) > 0]

    def reduced_word(self, w) -> List[int]:
        """A reduced word (0-based) of w, found by stripping right descents."""
        out = []
        while True:
            desc = [i for i, col in enumerate(w) if sum(col) < 0]
            if not desc:
                return out[::-1]
            w = self.times_generator(w, desc[0])
            out.append(desc[0])

    def random_reduced(self, rng: random.Random, length: int):
        """(element, 0-based reduced word) of a random walk up the weak order."""
        w, word = self.identity, []
        for _ in range(length):
            up = self.ascents(w)
            if not up:
                break
            i = rng.choice(up)
            w = self.times_generator(w, i)
            word.append(i)
        return w, word

    def longest(self):
        w, word = self.identity, []
        while True:
            up = self.ascents(w)
            if not up:
                return w, word
            w = self.times_generator(w, up[0])
            word.append(up[0])


class _Distinct:
    """Rejection sampling of elements not drawn before in this workload."""

    TRIES = 200

    def __init__(self):
        self.seen = set()

    def draw(self, group: Group, sample):
        for _ in range(self.TRIES):
            w, word = sample()
            key = (group.name, w)
            if key not in self.seen:
                self.seen.add(key)
                return w, word
        return None


def _item(group: Group, w, word0, **extra) -> dict:
    reduced = group.reduced_word(w)
    return {"group": group.name, "word": [s + 1 for s in word0],
            "length": len(reduced), "support": sorted({s + 1 for s in reduced}), **extra}


def longest_items(groups) -> List[dict]:
    out = []
    for name in groups:
        g = Group(name)
        out.append(_item(g, *g.longest(), w0=True))
    return out


def certify_rounds(seed: int, groups, max_length: int) -> Iterator[List[dict]]:
    """One random element per group and round, never a longest element.
    Group i of round r has length 1 + (r + i) mod L, L = min(max_length, l(w0) - 1),
    so the mix of lengths is the same for every seed.  A (group, length)
    class that runs out of new elements is dropped."""
    rng = random.Random(f"certify:{seed}")
    distinct = _Distinct()
    models = [(g, min(max_length, len(g.longest()[1]) - 1)) for g in map(Group, groups)]
    exhausted = set()
    for r in itertools.count():
        if len(exhausted) == sum(top for _, top in models):
            return
        out = []
        for i, (g, top) in enumerate(models):
            length = 1 + (r + i) % top
            if (g.name, length) in exhausted:
                continue
            got = distinct.draw(g, lambda: g.random_reduced(rng, length))
            if got is None:
                exhausted.add((g.name, length))
                continue
            out.append(_item(g, *got))
        if out:
            yield out


def analyze_rounds(seed: int, groups, max_len: int) -> Iterator[List[dict]]:
    """One random word (not necessarily reduced) per entry of groups and round."""
    rng = random.Random(f"analyze:{seed}")
    distinct = _Distinct()
    models = [Group(name) for name in groups]

    def sample(g: Group):
        word = [rng.randrange(g.rank) for _ in range(rng.randint(1, max_len))]
        return g.element(word), word

    while True:
        out = []
        for g in models:
            got = distinct.draw(g, lambda: sample(g))
            if got is None:
                return
            out.append(_item(g, *got))
        yield out


def audit_ladder(seed: int, ladder) -> List[dict]:
    """The audit calls in ladder order, each given the workload seed."""
    return [{"group": name, "options": list(options) + ["--seed", str(seed)],
             "order": GROUP_ORDERS[name]} for name, options in ladder]


def digest(items: List[dict]) -> str:
    """Short digest of the inputs a run attempted, to show two runs used the same."""
    text = json.dumps([[it["group"], it.get("word", it.get("options"))] for it in items],
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
