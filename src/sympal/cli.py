"""Command-line front end.

Exit codes are a fixed contract for scripting:
  0  success
  1  malformed input (unreadable file, bad JSON, bad document shape)
  2  precondition failure (guards like CharTooSmall, NoTransvection,
     InvalidParams, odd n, ...)
  3  enumeration cap exceeded
  4  regularity collision detected
  5  verification sweep found a counterexample
"""

from __future__ import annotations

import argparse
import json
import sys

from .classify import classify, serialize_verdict
from .errors import (
    CapExceeded,
    CharTooSmall,
    InvalidParams,
    NoTransvection,
    SympalError,
    TwistBreaksRegularity,
)
from .groupkit import DEFAULT_CAP, from_fixture, to_fixture
from .npgroup import build_chi, build_np_group, find_np_primes, np_params
from .regularity import (
    check_npower_distinct,
    profile_from_doc,
    profile_to_doc,
    twist_by_cyclotomic,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_PRECONDITION = 2
EXIT_CAP = 3
EXIT_COLLISION = 4
EXIT_COUNTEREXAMPLE = 5


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _emit(doc: dict, as_json: bool):
    if as_json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for key, val in doc.items():
            print(f"{key}: {val}")


def run_classify(args) -> int:
    doc = _load_json(args.input)
    try:
        g = from_fixture(doc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        print(f"error: malformed fixture: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        verdict = classify(g, args.cap)
    except (NoTransvection, CharTooSmall) as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except CapExceeded as exc:
        print(f"cap exceeded: enumeration reached {exc.count}", file=sys.stderr)
        return EXIT_CAP
    out = serialize_verdict(verdict)
    _emit(out if args.json else {"case": out["case"]}, args.json)
    return EXIT_OK


def run_np_group(args) -> int:
    try:
        params = np_params(args.n, args.q, args.p, args.ell)
        chi = build_chi(params)
        g, form = build_np_group(chi)
    except InvalidParams as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    doc = to_fixture(g)
    ctx = g.space.field.ctx
    doc["form"] = [[list(ctx.digits(x)) for x in row] for row in form]
    if args.N1 is not None and args.N2 is not None:
        from math import gcd

        if gcd(args.N1, args.N2) != 1:
            print("precondition failed: N1 and N2 must be coprime", file=sys.stderr)
            return EXIT_PRECONDITION
        doc["metadata"] = {"N1": args.N1, "N2": args.N2}
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"group over F_{params.ell}^{params.ext_degree}, "
              f"n = {params.n}, generators D, F emitted (use --json for the fixture)")
    if args.classify:
        try:
            classify(g, args.cap)
        except NoTransvection as exc:
            # expected: the monomial group contains no transvection
            print(f"classify: precondition failed as expected: {exc}",
                  file=sys.stderr)
            return EXIT_PRECONDITION
        except CapExceeded as exc:
            print(f"cap exceeded: {exc.count}", file=sys.stderr)
            return EXIT_CAP
    return EXIT_OK


def run_find_primes(args) -> int:
    try:
        pairs = find_np_primes(args.n, args.q_max)
    except InvalidParams as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    if args.json:
        print(json.dumps({"n": args.n, "q_max": args.q_max,
                          "pairs": [list(x) for x in pairs]}))
    else:
        for q, p in pairs:
            print(f"q = {q}  p = {p}")
    return EXIT_OK


def run_regularity(args) -> int:
    doc = _load_json(args.input)
    try:
        prof = profile_from_doc(doc)
    except (KeyError, TypeError, ValueError, InvalidParams) as exc:
        print(f"error: malformed profile: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if args.twist:
        try:
            prof = twist_by_cyclotomic(prof, args.twist)
        except TwistBreaksRegularity as exc:
            print(f"collision: {exc}", file=sys.stderr)
            return EXIT_COLLISION
    report = check_npower_distinct(prof)
    if report.distinct:
        _emit({"verdict": "Distinct", "profile": profile_to_doc(prof)}
              if args.json else {"verdict": "Distinct"}, args.json)
        return EXIT_OK
    c1, c2 = report.colliding
    _emit({"verdict": "Collision", "pair": list(report.collision),
           "characters": [[c1.niveau, c1.exponent], [c2.niveau, c2.exponent]]},
          args.json)
    return EXIT_COLLISION


def _mackey_group(doc: dict):
    from . import mackey as mk

    spec = doc["group"]
    if "semidirect" in spec:
        p, n = spec["semidirect"]
        return mk.semidirect_cyclic(int(p), int(n))
    if "permutations" in spec:
        return mk.from_permutations([tuple(g) for g in spec["permutations"]])
    if "table" in spec:
        return mk.FiniteGroup(spec["table"])
    raise KeyError("group document needs 'semidirect', 'permutations' or 'table'")


def run_mackey(args) -> int:
    from . import mackey as mk
    from .errors import HypothesisFailed

    doc = _load_json(args.input)
    try:
        g = _mackey_group(doc)
        sweep = doc["sweep"]
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        print(f"error: malformed sweep document: {exc}", file=sys.stderr)
        return EXIT_PARSE

    dixon: dict = {}    # multiplication table -> its character table
    tables: dict = {}   # subgroup -> its character table

    def table(s):
        # conjugate subgroups often have equal tables, and equal tables have
        # equal characters: run Dixon once per table, attach the values to
        # each subgroup's own group
        if s not in tables:
            ct = dixon.get(s.group.table)
            if ct is None:
                ct = dixon[s.group.table] = mk.character_table(s.group, g.exponent)
            tables[s] = [mk.ClassFunction(s.group, c.cyc_order, c.values) for c in ct]
        return tables[s]

    def linear(s):
        return [c for c in table(s) if c.degree == 1]

    counterexamples = 0
    checks = skipped = 0
    subs = mk.all_subgroups(g)
    if sweep == "mackey":
        for n in subs:
            chars = table(n)
            for h in subs:
                for chi in chars:
                    checks += 1
                    if not mk.mackey_check(g, h, n, chi):
                        counterexamples += 1
    elif sweep == "prop-nh":
        p = int(doc["p"])
        norms = [s for s in subs if mk.is_normal(g, s) and 0 < s.order < g.order]
        for n in norms:
            for chi in linear(n):
                target = mk.induce(g, n, chi)
                for h in subs:
                    for s_char in table(h):
                        if mk.induce(g, h, s_char) != target:
                            continue
                        try:
                            rep = mk.verify_prop_nh(g, n, h, chi, s_char, p)
                        except HypothesisFailed:
                            skipped += 1
                            continue
                        checks += 1
                        if not rep.holds:
                            counterexamples += 1
    elif sweep == "res-nontrivial":
        p = int(doc["p"])
        bound = int(doc.get("bound", 0)) or None
        norms = [s for s in subs if mk.is_normal(g, s) and 0 < s.order < g.order]
        for n in norms:
            b = bound if bound is not None else n.index
            chars = linear(n)
            for h in subs:
                for chi in chars:
                    try:
                        ok = mk.check_res_nontrivial(g, n, h, chi, p, b)
                    except HypothesisFailed:
                        skipped += 1
                        continue
                    checks += 1
                    if not ok:
                        counterexamples += 1
    else:
        print(f"error: unknown sweep '{sweep}'", file=sys.stderr)
        return EXIT_PARSE

    _emit({"sweep": sweep, "checks": checks, "skipped": skipped,
           "counterexamples": counterexamples}, args.json)
    return EXIT_COUNTEREXAMPLE if counterexamples else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sympal")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="trichotomy verdict for a group fixture")
    c.add_argument("--input", required=True)
    c.add_argument("--cap", type=int, default=DEFAULT_CAP)
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=run_classify)

    np_ = sub.add_parser("np-group", help="construct the monomial (n,p)-group")
    np_.add_argument("--n", type=int, required=True)
    np_.add_argument("--q", type=int, required=True)
    np_.add_argument("--p", type=int, required=True)
    np_.add_argument("--ell", type=int, required=True)
    np_.add_argument("--cap", type=int, default=DEFAULT_CAP)
    np_.add_argument("--json", action="store_true")
    np_.add_argument("--classify", action="store_true",
                     help="pipe the result into the classifier")
    np_.add_argument("--N1", type=int, default=None)
    np_.add_argument("--N2", type=int, default=None)
    np_.set_defaults(func=run_np_group)

    fp = sub.add_parser("find-primes", help="search (q, p) pairs")
    fp.add_argument("--n", type=int, required=True)
    fp.add_argument("--q-max", type=int, required=True)
    fp.add_argument("--json", action="store_true")
    fp.set_defaults(func=run_find_primes)

    rg = sub.add_parser("regularity", help="n!-power distinctness of a profile")
    rg.add_argument("--input", required=True)
    rg.add_argument("--twist", type=int, default=0)
    rg.add_argument("--json", action="store_true")
    rg.set_defaults(func=run_regularity)

    mk = sub.add_parser("mackey", help="character-theory verification sweeps")
    mk.add_argument("--input", required=True)
    mk.add_argument("--json", action="store_true")
    mk.set_defaults(func=run_mackey)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE
    except SympalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
