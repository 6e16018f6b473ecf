"""Command-line front end: tables, expression evaluation, classification,
and theorem sweeps.

Exit codes: 0 success; 1 an --expect property failed or a sweep found a
counterexample; 2 invalid parameters or unknown sweep/query; 3 expression
parse error (message carries the position); 4 domain mismatch; 5 a
--require-exhaustive run did not reach exhaustiveness.
"""

import argparse
import json
import os
import sys
import time

from .errors import DomainMismatchError, ParseError, SpecError

# Each command imports what it uses when it runs: `isl --help` loads only
# this module and errors, `isl table` adds carriers, and `isl eval` adds
# domains, handle and expressions, with formalsums for a basis (carriers
# too for a carrier one) or matrices for a matrix spec.  So the parser
# spells out carriers.carrier_kinds() here.
TABLE_KINDS = ("additive-group", "cyclic", "dihedral", "groupoid", "loop",
               "mult-group", "mult-semigroup", "symmetric-group",
               "symmetric-semigroup")

_EXIT_EXPECT = 1
_EXIT_PARAMS = 2
_EXIT_PARSE = 3
_EXIT_DOMAIN = 4
_EXIT_EXHAUSTIVE = 5

_SPEC_KEYS = {"schema", "coefficients", "basis", "matrix", "flags"}
_FLAG_KEYS = {"absorb_zero_basis", "interval_labels"}
_MATRIX_KEYS = {"shape", "n"}


def load_spec_file(path):
    """Build a SemiringHandle from a SpecFile JSON document."""
    from .domains import domain_from_json
    from .handle import SemiringHandle

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise SpecError(f"cannot read spec file: {e}")
    except json.JSONDecodeError as e:
        raise SpecError(f"spec file is not valid JSON: {e}")
    if not isinstance(doc, dict):
        raise SpecError("spec file must hold a JSON object")
    unknown = set(doc) - _SPEC_KEYS
    if unknown:
        raise SpecError(f"unknown spec file keys: {', '.join(sorted(unknown))}")
    if doc.get("schema") != "1":
        raise SpecError('spec file needs "schema": "1"')
    if "coefficients" not in doc:
        raise SpecError('spec file needs a "coefficients" domain')
    domain = domain_from_json(doc["coefficients"])
    flags = doc.get("flags", {})
    if not isinstance(flags, dict):
        raise SpecError('"flags" must be an object')
    unknown = set(flags) - _FLAG_KEYS
    if unknown:
        raise SpecError(f"unknown flag keys: {', '.join(sorted(unknown))}")
    absorb = flags.get("absorb_zero_basis")
    interval_labels = flags.get("interval_labels", False)
    if not isinstance(absorb, (bool, type(None))):
        raise SpecError('flag "absorb_zero_basis" must be true, false or null')
    if not isinstance(interval_labels, bool):
        raise SpecError('flag "interval_labels" must be true or false')
    if "basis" in doc and "matrix" in doc:
        raise SpecError('spec file may hold "basis" or "matrix", not both')
    if "basis" in doc:
        from .formalsums import make_spec

        basis = _basis_from_json(doc["basis"], interval_labels)
        spec = make_spec(domain, basis, absorb_zero_basis=absorb)
        return SemiringHandle.for_formal_sums(spec)
    if "matrix" in doc:
        if absorb is not None or "interval_labels" in flags:
            raise SpecError("flags apply to formal-sum specs only")
        return SemiringHandle.for_matrices(domain,
                                           _shape_from_json(doc["matrix"]))
    if absorb is not None or "interval_labels" in flags:
        raise SpecError("flags apply to formal-sum specs only")
    return SemiringHandle.for_domain(domain)


def _basis_from_json(node, interval_labels):
    from .formalsums import PolyBasis

    if not isinstance(node, dict) or "kind" not in node:
        raise SpecError('"basis" must be an object with a "kind"')
    kind = node["kind"]
    params = {k: v for k, v in node.items() if k != "kind"}
    if kind == "poly":
        unknown = set(params) - {"cyclic"}
        if unknown:
            raise SpecError(
                f"unknown poly keys: {', '.join(sorted(unknown))}")
        cyclic = params.get("cyclic")
        # a JSON true is a bool, not 1
        if cyclic is not None and (type(cyclic) is not int or cyclic < 1):
            raise SpecError('"cyclic" must be a positive integer')
        if interval_labels:
            raise SpecError("interval_labels applies to carrier bases only")
        return PolyBasis(cyclic=cyclic)
    from .carriers import build_carrier

    return build_carrier(kind, interval=interval_labels, **params)


def _shape_from_json(node):
    if not isinstance(node, dict):
        raise SpecError('"matrix" must be an object')
    unknown = set(node) - _MATRIX_KEYS
    if unknown:
        raise SpecError(f"unknown matrix keys: {', '.join(sorted(unknown))}")
    shape = node.get("shape")
    n = node.get("n")
    if shape not in ("row", "square"):
        raise SpecError('matrix "shape" must be "row" or "square"')
    if type(n) is not int or n < 1:
        raise SpecError('matrix "n" must be a positive integer')
    return (shape, n)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_table(args, out):
    from .carriers import build_carrier, carrier_to_json, render_table

    params = {}
    for name in ("n", "m", "t", "u", "k", "p"):
        v = getattr(args, name)
        if v is not None:
            params[name] = v
    g = build_carrier(args.kind, interval=args.interval, **params)
    if args.json:
        out.write(json.dumps(carrier_to_json(g)) + "\n")
    else:
        out.write(render_table(g) + "\n")
    return 0


def _cmd_eval(args, out):
    from .expressions import eval_pair

    h = load_spec_file(args.spec)
    result = eval_pair(h, args.lhs, args.rhs, args.op)
    if args.trace and args.op == "mul" and h.kind == "formal-sum":
        _write_trace(h, args, out)
    if args.json:
        out.write(json.dumps({"result": h.render(result)}) + "\n")
    else:
        out.write(h.render(result) + "\n")
    return 0


def _write_trace(h, args, out):
    from .domains import format_element
    from .expressions import eval_expression
    from .formalsums import _basis_op, basis_token

    spec = h.spec
    p = eval_expression(h, args.lhs)
    q = eval_expression(h, args.rhs)
    for g, cg in p.terms.items():
        for k, ck in q.terms.items():
            cprod = cg * ck
            bk = _basis_op(spec, g, k)
            out.write(f"  {format_element(cg)}*{format_element(ck)} = "
                      f"{format_element(cprod)} ; "
                      f"{basis_token(spec, g)}*{basis_token(spec, k)} = "
                      f"{basis_token(spec, bk)}\n")


_FINDING_QUERIES = {
    "zero-divisors": lambda an, h, a: an.find_zero_divisors(h, budget=a.budget),
    "idempotents": lambda an, h, a: an.find_idempotents(h),
    "nilpotents": lambda an, h, a: an.find_nilpotents(h, max_index=a.max_index),
    "units": lambda an, h, a: an.find_units(h),
    "s-zero-divisors": lambda an, h, a: an.find_s_special(
        h, "s-zero-divisor", budget=a.budget),
    "s-anti-zero-divisors": lambda an, h, a: an.find_s_special(
        h, "s-anti-zero-divisor", budget=a.budget),
    "s-idempotents": lambda an, h, a: an.find_s_special(
        h, "s-idempotent", budget=a.budget),
    "s-units": lambda an, h, a: an.find_s_special(
        h, "s-unit", budget=a.budget),
}

_SUBSET_QUERIES = ("subsemiring", "ideal", "left-ideal", "right-ideal")
_SEMIFIELD_PROPERTIES = ("strict", "commutative", "has_one",
                         "zero_divisor_free", "semifield")


def _parse_subset(h, text):
    from .expressions import eval_expression

    if text is None:
        raise SpecError("this query needs --subset")
    if text.startswith("multiples-of-"):
        return text
    return [eval_expression(h, part) for part in text.split(";")
            if part.strip()]


def _cmd_classify(args, out):
    from . import analysis

    h = load_spec_file(args.spec)
    query = args.query
    _check_expect(query, args.expect)
    expect_ok = True
    exhaustive = True
    if query in _FINDING_QUERIES:
        report = _FINDING_QUERIES[query](analysis, h, args)
        exhaustive = report.exhaustive
        expect_ok = _write_findings(args, report, out)
    elif query == "semifield":
        c = analysis.classify_semiring(h)
        exhaustive = c.exhaustive
        if args.json:
            out.write(json.dumps(c.to_json()) + "\n")
        else:
            for name in _SEMIFIELD_PROPERTIES:
                out.write(f"{name}: {str(getattr(c, name)).lower()}\n")
                if name in c.witnesses:
                    out.write("  witness: "
                              + ", ".join(c.witnesses[name]) + "\n")
            out.write(f"exhaustive: {str(c.exhaustive).lower()}\n")
        if args.expect is not None:
            expect_ok = bool(getattr(c, args.expect))
    elif query in _SUBSET_QUERIES:
        subset = _parse_subset(h, args.subset)
        ok, witness = analysis.check_substructure(h, subset, query)
        w = [] if witness is None else \
            [witness[0]] + [h.render(x) for x in witness[1:]]
        if args.json:
            out.write(json.dumps({"query": query, "ok": ok, "witness": w})
                      + "\n")
        else:
            out.write(f"{query}: {str(ok).lower()}\n")
            if w:
                out.write("  witness: " + ", ".join(w) + "\n")
        if args.expect is not None:
            expect_ok = ok
    elif query == "smarandache":
        kwargs = {"mode": args.mode}
        if args.subset is not None:
            kwargs = {"candidate": _parse_subset(h, args.subset),
                      "candidate_kind": args.candidate_kind}
        report = analysis.smarandache_search(h, **kwargs)
        exhaustive = report.exhaustive
        expect_ok = _write_findings(args, report, out)
    if args.require_exhaustive and not exhaustive:
        return _EXIT_EXHAUSTIVE
    if not expect_ok:
        return _EXIT_EXPECT
    return 0


def _check_expect(query, prop):
    """Refuse an unknown query, or an --expect property the query does not
    have, before the query runs."""
    if query in _FINDING_QUERIES or query == "smarandache":
        names, where = ("findings", "no-findings", "exhaustive"), "this query"
    elif query == "semifield":
        names, where = _SEMIFIELD_PROPERTIES, "the semifield query"
    elif query in _SUBSET_QUERIES:
        names, where = (query,), f"the {query} query"
    else:
        raise SpecError(f"unknown query {query!r}")
    if prop is not None and prop not in names:
        raise SpecError(f"unknown property {prop!r} for {where}")


def _write_findings(args, report, out):
    """Print a findings report; returns whether its --expect property holds."""
    if args.json:
        out.write(report.to_json_str() + "\n")
    else:
        for f in report.findings:
            out.write(f"{f.kind}: " + ", ".join(f.witness) + "\n")
        out.write(f"findings: {len(report.findings)}\n")
        out.write(f"exhaustive: {str(report.exhaustive).lower()}\n")
    if args.expect is None:
        return True
    return _check_report_expect(args.expect, report)


def _check_report_expect(prop, report):
    if prop == "findings":
        return bool(report.findings)
    if prop == "no-findings":
        return not report.findings
    return report.exhaustive


def _parse_range(text):
    lo, sep, hi = text.partition("..")
    if not sep:
        raise SpecError(f"range must look like A..B, got {text!r}")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise SpecError(f"range must hold integers, got {text!r}")
    if lo > hi:
        raise SpecError(f"range must not run backwards, got {text!r}")
    return lo, hi


def _cmd_verify(args, out):
    from . import sweeps

    params = {}
    if args.sweep == "loop-laws" and args.n is not None:
        params["nmin"], params["nmax"] = _parse_range(args.n)
    if args.sweep == "zn-prime-clean" and args.pmax is not None:
        params["pmax"] = args.pmax
    if args.sweep == "zn-composite-zd" and args.nmax is not None:
        params["nmax"] = args.nmax
    if args.sweep == "neutro-prime-no-subsemiring" and args.primes is not None:
        try:
            params["primes"] = tuple(int(p) for p in args.primes.split(","))
        except ValueError:
            raise SpecError("primes must be comma-separated integers")
    report = sweeps.theorem_sweep(args.sweep, **params)
    ok = sweeps.sweep_passed(report)
    if args.json:
        out.write(report.to_json_str() + "\n")
    else:
        for f in report.findings:
            out.write(" ".join(f.witness) + "\n")
        verdict = "pass" if ok else "FAIL"
        out.write(f"{args.sweep}: {verdict} ({len(report.findings)} "
                  f"instances)\n")
    return 0 if ok else _EXIT_EXPECT


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="isl",
        description="Interval semiring construction and analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="print a carrier's Cayley table")
    p_table.add_argument("kind", choices=TABLE_KINDS)
    for name in ("n", "m", "t", "u", "k", "p"):
        p_table.add_argument(f"--{name}", type=int, default=None)
    p_table.add_argument("--interval", action="store_true",
                         help="label elements as intervals [0,x]")
    p_table.add_argument("--json", action="store_true")
    p_table.add_argument("--timing", action="store_true")

    p_eval = sub.add_parser("eval", help="evaluate a two-operand expression")
    p_eval.add_argument("--spec", required=True)
    p_eval.add_argument("--lhs", required=True)
    p_eval.add_argument("--rhs", required=True)
    p_eval.add_argument("--op", choices=("add", "mul"), required=True)
    p_eval.add_argument("--trace", action="store_true",
                        help="print every convolution term")
    p_eval.add_argument("--json", action="store_true")
    p_eval.add_argument("--timing", action="store_true")

    p_cls = sub.add_parser("classify", help="run an analysis query")
    p_cls.add_argument("--spec", required=True)
    p_cls.add_argument("--query", required=True)
    p_cls.add_argument("--subset", default=None,
                       help="semicolon-separated elements, or multiples-of-k")
    p_cls.add_argument("--budget", type=int, default=None)
    p_cls.add_argument("--max-index", type=int, default=8, dest="max_index")
    p_cls.add_argument("--mode", choices=("generated", "exhaustive"),
                       default="generated")
    p_cls.add_argument("--candidate-kind", dest="candidate_kind",
                       default="semifield-subset")
    p_cls.add_argument("--require-exhaustive", action="store_true")
    p_cls.add_argument("--expect", default=None)
    p_cls.add_argument("--json", action="store_true")
    p_cls.add_argument("--timing", action="store_true")

    p_ver = sub.add_parser("verify", help="run a named theorem sweep")
    p_ver.add_argument("sweep")
    p_ver.add_argument("--n", default=None, help="range A..B for loop-laws")
    p_ver.add_argument("--pmax", type=int, default=None)
    p_ver.add_argument("--nmax", type=int, default=None)
    p_ver.add_argument("--primes", default=None)
    p_ver.add_argument("--json", action="store_true")
    p_ver.add_argument("--timing", action="store_true")
    return parser


_COMMANDS = {
    "table": _cmd_table,
    "eval": _cmd_eval,
    "classify": _cmd_classify,
    "verify": _cmd_verify,
}


def main(argv=None, out=None, err=None):
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    threads = os.environ.get("ISL_THREADS")
    if threads is not None:
        if not threads.isdigit() or int(threads) < 1:
            err.write("error: ISL_THREADS must be a positive integer\n")
            return _EXIT_PARAMS
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return _EXIT_PARAMS if e.code not in (0, None) else 0
    t0 = time.perf_counter()
    try:
        code = _COMMANDS[args.command](args, out)
    except ParseError as e:
        err.write(f"error: {e}\n")
        return _EXIT_PARSE
    except DomainMismatchError as e:
        err.write(f"error: {e}\n")
        return _EXIT_DOMAIN
    except SpecError as e:
        err.write(f"error: {e}\n")
        return _EXIT_PARAMS
    if getattr(args, "timing", False):
        out.write("---\n")
        out.write(f"elapsed: {time.perf_counter() - t0:.6f}s\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
