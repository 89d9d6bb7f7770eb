"""Command-line front end.

Words are 1-based: ``weylinv analyze A3 2 3 2 1`` means s2 s3 s2 s1.  Exit
codes: 0 ok, 2 input error, 3 unknown root system, 4 guard refusal (audit
group size, analyze interval bound), 5 certificate verification reject.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from .arrangement import is_supersolvable, poincare_polynomial
from .cache import cached
from .freeness import inductively_free, verify_certificate
from .inversion import inversion_arrangement
from .polynomials import linear_split
from .smoothness import (
    ALL_CHECKS, AUDIT_GUARD, PATTERNS, AuditGuardError, avoids_perm_pattern,
    complete_chain_bp, exceptional_element, exceptional_exponents, exponents_of, hlss,
    inversion_graph, is_chordal, parabolic_poincare, pattern_hits, perm_of, theorem_audit,
)
from .weyl import WeylGroup, poincare

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNKNOWN_SYSTEM = 3
EXIT_GUARD = 4
EXIT_REJECT = 5


class CLIError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        super().__init__(message)


def _group(system_id: str) -> WeylGroup:
    try:
        return WeylGroup.get(system_id)
    except ValueError as e:
        raise CLIError(EXIT_UNKNOWN_SYSTEM, str(e))


def _element(group: WeylGroup, word1: Sequence[int]):
    try:
        return group.from_word([s - 1 for s in word1])
    except ValueError as e:
        raise CLIError(EXIT_INPUT, str(e))


def _emit(obj: dict, as_json: bool):
    if as_json:
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    else:
        for k in obj:
            print(f"{k}: {obj[k]}")


# -- analyze -----------------------------------------------------------------


def element_report(system_id: str, word1: Sequence[int]) -> dict:
    g = _group(system_id)
    w = _element(g, word1)
    # |[e, w]| <= min(2^l(w), |W_J|) for J = supp(w); refuse before building it
    bound = min(2 ** w.length(), parabolic_poincare(g.system, w.support())(1))
    if bound > AUDIT_GUARD:
        raise CLIError(EXIT_GUARD, f"[e, w] may have up to {bound} > {AUDIT_GUARD} elements")
    P = poincare(w)
    exps = exponents_of(w)
    A = inversion_arrangement(w)
    res = inductively_free(A)
    ss, _ = is_supersolvable(A)
    tree = complete_chain_bp(w)
    return {
        "system": system_id,
        "word": [s + 1 for s in w.word()],
        "length": w.length(),
        "left_descents": sorted(s + 1 for s in w.left_descents()),
        "right_descents": sorted(s + 1 for s in w.right_descents()),
        "support": sorted(s + 1 for s in w.support()),
        "poincare": list(P.coeffs),
        "palindromic": P.is_palindromic(),
        "exponents": list(exps) if exps is not None else None,
        "hlss": hlss(w),
        "q_poly": list(res.q_poly.coeffs),
        "q_linear_factors": linear_split(res.q_poly),
        "freeness": res.status,
        "coexponents": list(res.coexponents) if res.coexponents is not None else None,
        "supersolvable": ss,
        "chain_bp_tree": _tree_obj(tree) if tree is not None else None,
        "pattern_hits": sorted(pattern_hits(w)),
    }


def _tree_obj(tree) -> List[dict]:
    return [
        {
            "side": d.side,
            "J": sorted(s + 1 for s in d.J),
            "u": [s + 1 for s in d.u.word()],
            "v": [s + 1 for s in d.v.word()],
        }
        for d in tree.nodes()
    ]


def cmd_analyze(args) -> int:
    report = element_report(args.system, args.word)
    _emit(report, args.json)
    return EXIT_OK


# -- audit -------------------------------------------------------------------


def cmd_audit(args) -> int:
    g = _group(args.system)
    checks = None
    if args.checks is not None:
        checks = args.checks.split(",")
        if "" in checks:
            raise CLIError(EXIT_INPUT, f"--checks {args.checks!r} has an empty check name; "
                                       f"name some of {','.join(ALL_CHECKS)}")
        unknown = sorted(set(checks) - set(ALL_CHECKS))
        if unknown:
            raise CLIError(EXIT_INPUT, f"unknown checks: {','.join(unknown)}")
    if args.sample_j is not None and args.sample_j < 1:
        raise CLIError(EXIT_INPUT, f"--sample-j must be at least 1, not {args.sample_j}")
    try:
        report = theorem_audit(g, checks=checks, sample_j=args.sample_j,
                               seed=args.seed, override=args.override)
    except AuditGuardError as e:
        print(str(e), file=sys.stderr)
        return EXIT_GUARD
    out = {
        "group": report["group"],
        "order": report["order"],
        "checks": report["checks"],
        "counterexamples": [list(c[:2]) for c in report["counterexamples"]],
    }
    _emit(out, args.json)
    return EXIT_OK if not report["counterexamples"] else 1


# -- tables ------------------------------------------------------------------

TABLE1 = {
    (6, 5): (1, 4, 4, 5, 7, 7),
    (7, 5): (1, 4, 5, 5, 7, 7, 9),
    (8, 5): (1, 4, 5, 6, 7, 7, 9, 11),
    (7, 6): (1, 5, 5, 7, 8, 9, 11),
    (8, 6): (1, 5, 6, 7, 8, 9, 11, 11),
    (8, 7): (1, 6, 7, 9, 11, 11, 13, 17),
}
TABLE2 = {
    (6, 5): 28, (7, 5): 38, (8, 5): 50, (7, 6): 46, (8, 6): 58, (8, 7): 75,
}
_KL_ORDER = [(6, 5), (7, 5), (8, 5), (7, 6), (8, 6), (8, 7)]


def _kl_rows(long: bool):
    return [(k, l) for k, l in _KL_ORDER if long or k <= 6]


def cmd_tables(args) -> int:
    ok = True
    if args.which == 3:
        for pat in PATTERNS.values():
            for label in pat.realizations:
                w = pat.element(label)
                Q = poincare_polynomial(inversion_arrangement(w))
                nbc = Q(1)
                size = len(w.group.bruhat_interval(w))
                good = (Q == pat.q_poly() and nbc == pat.nbc_count
                        and size == pat.interval_size)
                ok = ok and good
                word = "".join(f"s{s}" for s in pat.word)
                print(f"{pat.pattern_id} {label} {word} Q={list(Q.coeffs)} "
                      f"nbc={nbc} interval={size} {'PASS' if good else 'FAIL'}")
    elif args.which == 2:
        for k, l in _kl_rows(args.long):
            length = exceptional_element(k, l).length()
            good = length == TABLE2[(k, l)]
            ok = ok and good
            print(f"w_{k}{l} length={length} expected={TABLE2[(k, l)]} "
                  f"{'PASS' if good else 'FAIL'}")
    else:
        for k, l in _kl_rows(args.long):
            exps = exceptional_exponents(k, l)
            good = exps == TABLE1[(k, l)]
            ok = ok and good
            print(f"w_{k}{l} exponents={list(exps)} expected={list(TABLE1[(k, l)])} "
                  f"{'PASS' if good else 'FAIL'}")
    return EXIT_OK if ok else 1


# -- certify / verify --------------------------------------------------------


def cmd_certify(args) -> int:
    g = _group(args.system)
    w = _element(g, args.word)
    A = inversion_arrangement(w)
    res = inductively_free(A, order=args.order, with_certificate=True)
    if res.status != "free":
        print(f"not inductively free (Q splits: {res.q_splits})", file=sys.stderr)
        return EXIT_REJECT
    obj = {
        "header": {
            "system": args.system,
            "word": [s + 1 for s in w.word()],
            "normals": [list(v) for v in A.normals],
        },
        "certificate": res.certificate,
    }
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as f:
                f.write(text + "\n")
        except OSError as e:
            raise CLIError(EXIT_INPUT, f"cannot write certificate: {e}")
    else:
        print(text)
    print(f"coexponents: {sorted(res.coexponents)}", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    g = _group(args.system)
    w = _element(g, args.word)
    A = inversion_arrangement(w)
    try:
        with open(args.cert, "r", encoding="utf-8") as f:
            obj = json.load(f)
        header, cert = obj["header"], obj["certificate"]
        if not isinstance(header, dict):
            raise TypeError("the header is not a JSON object")
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as e:
        print(f"malformed certificate file: {e}", file=sys.stderr)
        return EXIT_INPUT
    if header.get("system") != args.system or \
            [list(v) for v in A.normals] != header.get("normals"):
        print("certificate header does not match the given element", file=sys.stderr)
        return EXIT_INPUT
    status, payload = verify_certificate(A, cert)
    if status == "accept":
        print(f"accept: coexponents {sorted(payload)}")
        return EXIT_OK
    path, reason = payload
    print(f"reject: {reason} at {'/'.join(path) or 'root'}", file=sys.stderr)
    return EXIT_REJECT


# -- patterns (type A permutation utilities) ---------------------------------

_PERM_PATTERNS = ((3, 4, 1, 2), (4, 2, 3, 1), (3, 5, 1, 4, 2),
                  (4, 2, 5, 1, 3), (3, 5, 1, 6, 2, 4))


def cmd_patterns(args) -> int:
    g = _group(args.system)
    w = _element(g, args.word)
    try:
        perm = perm_of(w)
    except ValueError as e:
        raise CLIError(EXIT_INPUT, str(e))
    n, edges = inversion_graph(w)
    out = {
        "system": args.system,
        "word": [s + 1 for s in w.word()],
        "permutation": list(perm),
        "inversion_graph_edges": sorted(map(list, edges)),
        "chordal": is_chordal((n, edges)),
        "avoids": {
            "".join(map(str, p)): avoids_perm_pattern(perm, p) for p in _PERM_PATTERNS
        },
    }
    _emit(out, args.json)
    return EXIT_OK


# -- entry point -------------------------------------------------------------


@cached
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once and cached; parse_args returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="weylinv",
        description="Inversion hyperplane arrangements of Weyl group elements "
                    "(words are 1-based generator indices)")
    sub = parser.add_subparsers(dest="command", required=True)

    def word_cmd(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("system", help="root system id, e.g. A3, B3, D4, E6")
        p.add_argument("word", type=int, nargs="*", help="1-based word (may be non-reduced)")
        p.set_defaults(func=fn)
        return p

    p = word_cmd("analyze", cmd_analyze, help="full report on one element")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("audit", help="scan a whole group against the classifiers")
    p.add_argument("system")
    p.add_argument("--checks", default=None,
                   help="comma list: free_interval,modular_coatom,supersolvable,hlss")
    p.add_argument("--sample-j", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--override", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("tables", help="reproduce the embedded reference tables")
    p.add_argument("which", type=int, choices=(1, 2, 3))
    p.add_argument("--long", action="store_true",
                   help="include the k >= 7 exceptional elements")
    p.set_defaults(func=cmd_tables)

    p = word_cmd("certify", cmd_certify, help="emit an inductive-freeness certificate")
    p.add_argument("--out", default=None)
    p.add_argument("--order", choices=("lex", "height"), default="lex")

    p = word_cmd("verify", cmd_verify, help="independently check a certificate")
    p.add_argument("--cert", required=True)

    p = word_cmd("patterns", cmd_patterns, help="type A permutation utilities")
    p.add_argument("--json", action="store_true")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CLIError as e:
        print(str(e), file=sys.stderr)
        return e.code


if __name__ == "__main__":
    sys.exit(main())
