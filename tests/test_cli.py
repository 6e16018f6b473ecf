import importlib.util
import io
import json
import os
import subprocess
import sys
import textwrap

import pytest

from intervalsemirings import (
    SpecError,
    associator_closure,
    build_groupoid,
    build_loop,
    cli,
    enumerate_substructures,
)
from intervalsemirings.carriers import carrier_kinds
from intervalsemirings.cli import load_spec_file, main


def run_cli(argv, env_threads=None):
    out, err = io.StringIO(), io.StringIO()
    old = os.environ.pop("ISL_THREADS", None)
    if env_threads is not None:
        os.environ["ISL_THREADS"] = env_threads
    try:
        code = main(argv, out=out, err=err)
    finally:
        os.environ.pop("ISL_THREADS", None)
        if old is not None:
            os.environ["ISL_THREADS"] = old
    return code, out.getvalue(), err.getvalue()


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


ZN18 = {"schema": "1", "coefficients": {"kind": "zn-interval", "n": 18}}
POLY_NAT = {"schema": "1", "coefficients": {"kind": "nat-interval"},
            "basis": {"kind": "poly"}}
GROUPOID_NAT = {"schema": "1", "coefficients": {"kind": "nat-interval"},
                "basis": {"kind": "groupoid", "n": 5, "t": 3, "u": 2}}
ROW2_ZN4 = {"schema": "1", "coefficients": {"kind": "zn-interval", "n": 4},
            "matrix": {"shape": "row", "n": 2}}


# ---------------------------------------------------------------------------
# spec files


def test_spec_without_basis_or_matrix_is_domain(tmp_path):
    h = load_spec_file(write_spec(tmp_path, ZN18))
    assert h.kind == "domain"


def test_spec_basis(tmp_path):
    h = load_spec_file(write_spec(tmp_path, POLY_NAT))
    assert h.kind == "formal-sum"


def test_spec_matrix(tmp_path):
    h = load_spec_file(write_spec(tmp_path, ROW2_ZN4))
    assert h.kind == "matrix"


def test_spec_unknown_top_key(tmp_path):
    doc = dict(ZN18, extra=1)
    with pytest.raises(Exception) as e:
        load_spec_file(write_spec(tmp_path, doc))
    assert "unknown spec file keys" in str(e.value)


def test_spec_requires_schema(tmp_path):
    doc = {"coefficients": {"kind": "nat-interval"}}
    with pytest.raises(Exception) as e:
        load_spec_file(write_spec(tmp_path, doc))
    assert "schema" in str(e.value)


def test_spec_basis_and_matrix_conflict(tmp_path):
    doc = dict(POLY_NAT, matrix={"shape": "row", "n": 2})
    with pytest.raises(Exception) as e:
        load_spec_file(write_spec(tmp_path, doc))
    assert "not both" in str(e.value)


def test_spec_flags_only_for_formal_sums(tmp_path):
    doc = dict(ZN18, flags={"absorb_zero_basis": True})
    with pytest.raises(Exception):
        load_spec_file(write_spec(tmp_path, doc))


def test_spec_unknown_flag(tmp_path):
    doc = dict(POLY_NAT, flags={"bogus": 1})
    with pytest.raises(Exception) as e:
        load_spec_file(write_spec(tmp_path, doc))
    assert "unknown flag keys" in str(e.value)


def test_spec_interval_labels(tmp_path):
    doc = {"schema": "1", "coefficients": {"kind": "zn-interval", "n": 2},
           "basis": {"kind": "loop", "n": 5, "m": 2},
           "flags": {"interval_labels": True}}
    h = load_spec_file(write_spec(tmp_path, doc))
    assert h.spec.basis.elements[0] == "[0,e]"


M4_NAT = {"schema": "1", "coefficients": {"kind": "nat-interval"},
          "basis": {"kind": "mult-semigroup", "n": 4}}


def _square_2b(tmp_path, flags):
    spec = write_spec(tmp_path, dict(M4_NAT, flags=flags))
    return run_cli(["eval", "--spec", spec, "--lhs", "[0,1]*2b",
                    "--rhs", "[0,1]*2b", "--op", "mul"])


@pytest.mark.parametrize("flags, want", [
    ({"absorb_zero_basis": False}, "[0,1]*0b"),
    ({"absorb_zero_basis": True}, "0"),
    ({"absorb_zero_basis": None}, "0"),   # the carrier's default
    ({}, "0"),
])
def test_spec_absorb_zero_basis_flag(tmp_path, flags, want):
    # 2b * 2b = 0b in mult-semigroup(4), whose 0b absorbs
    code, out, _ = _square_2b(tmp_path, flags)
    assert (code, out.strip()) == (0, want)


@pytest.mark.parametrize("value", ["no", "false", 0, 1, [], {}])
def test_spec_absorb_zero_basis_must_be_a_boolean(tmp_path, value):
    # a string once turned absorption on
    code, out, err = _square_2b(tmp_path, {"absorb_zero_basis": value})
    assert (code, out) == (2, "")
    assert 'flag "absorb_zero_basis" must be true, false or null' in err


@pytest.mark.parametrize("value", ["false", "true", None, 0, 1])
def test_spec_interval_labels_must_be_a_boolean(tmp_path, value):
    # "false" once read as true, and a poly basis then refused the labels
    doc = dict(POLY_NAT, flags={"interval_labels": value})
    with pytest.raises(SpecError, match='flag "interval_labels" must be '
                                        'true or false'):
        load_spec_file(write_spec(tmp_path, doc))


def test_spec_interval_labels_false(tmp_path):
    h = load_spec_file(write_spec(tmp_path, dict(
        POLY_NAT, flags={"interval_labels": False})))
    assert h.kind == "formal-sum"


def test_spec_missing_file():
    code, out, err = run_cli(["classify", "--spec", "/nonexistent.json",
                              "--query", "zero-divisors"])
    assert code == 2
    assert "cannot read spec file" in err


def _run_isl(argv):
    """(exit code, stdout, stderr) of an isl process run with argv."""
    path = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH"))
        if p)
    r = subprocess.run([sys.executable, "-m", "intervalsemirings.cli", *argv],
                       capture_output=True, text=True,
                       env=dict(os.environ, PYTHONPATH=path))
    return r.returncode, r.stdout, r.stderr


_DIAMOND = {"kind": "table-lattice",
            "join": [[0, 1, 2, 3], [1, 1, 3, 3], [2, 3, 2, 3], [3, 3, 3, 3]],
            "meet": [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]]}


@pytest.mark.parametrize("doc", [
    {"schema": "1", "coefficients": {"kind": "chain-lattice", "k": 3,
                                     "names": [1, 2, 3]}},
    {"schema": "1", "coefficients": dict(_DIAMOND, join=5)},
    {"schema": "1", "coefficients": {"kind": "zn-interval", "n": 3},
     "basis": {"kind": ["x"]}},
    {"schema": "1", "coefficients": {"kind": "chain-lattice", "k": 3,
                                     "names": "abc"}},
    {"schema": "1", "coefficients": {"kind": ["zn-interval"], "n": 3}},
    # a JSON true is a bool, never the integer 1
    {"schema": "1", "coefficients": {"kind": "zn-interval", "n": 3},
     "basis": {"kind": "cyclic", "k": True}},
    dict(ROW2_ZN4, matrix={"shape": "row", "n": True}),
    {"schema": "1", "coefficients": {"kind": "zn-interval", "n": 3},
     "basis": {"kind": "poly", "cyclic": True}},
    {"schema": "1", "coefficients": {"kind": "nat-interval", "multiple": True}},
    {"schema": "1", "coefficients": {"kind": "table-lattice",
                                     "join": [[0, True], [True, True]],
                                     "meet": [[0, 0], [0, True]]}},
], ids=["integer-names", "scalar-join", "list-basis-kind", "string-names",
        "list-domain-kind", "bool-cyclic-k", "bool-matrix-n", "bool-poly-cyclic",
        "bool-nat-multiple", "bool-table-entries"])
def test_malformed_spec_exits_2_without_a_traceback(tmp_path, doc):
    code, out, err = _run_isl(["classify", "--spec", write_spec(tmp_path, doc),
                               "--query", "idempotents"])
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# table


def test_table_text():
    code, out, _ = run_cli(["table", "loop", "--n", "5", "--m", "2"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["*", "e", "1", "2", "3", "4", "5"]
    assert len(lines) == 7


def test_table_json():
    code, out, _ = run_cli(["table", "cyclic", "--k", "3", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["elements"] == ["e", "g1", "g2"]


def test_table_bad_params():
    code, _, err = run_cli(["table", "loop", "--n", "4", "--m", "2"])
    assert code == 2


def test_table_missing_params():
    code, _, _ = run_cli(["table", "loop", "--n", "5"])
    assert code == 2


# ---------------------------------------------------------------------------
# eval


def test_eval_text(tmp_path):
    spec = write_spec(tmp_path, POLY_NAT)
    code, out, _ = run_cli(["eval", "--spec", spec,
                            "--lhs", "[0,2]*x^1", "--rhs", "[0,3]*x^2",
                            "--op", "mul"])
    assert code == 0
    assert out.strip() == "[0,6]*x^3"


def test_eval_json(tmp_path):
    spec = write_spec(tmp_path, POLY_NAT)
    code, out, _ = run_cli(["eval", "--spec", spec,
                            "--lhs", "[0,1]", "--rhs", "[0,2]*x^1",
                            "--op", "add", "--json"])
    assert json.loads(out) == {"result": "[0,1]*x^0 + [0,2]*x^1"}


def test_eval_trace_lists_cross_terms(tmp_path):
    spec = write_spec(tmp_path, GROUPOID_NAT)
    code, out, _ = run_cli(["eval", "--spec", spec,
                            "--lhs", "[0,7]*4b", "--rhs", "[0,12]*2b",
                            "--op", "mul", "--trace"])
    assert code == 0
    assert "4b*2b = 1b" in out
    assert out.strip().endswith("[0,84]*1b")


def test_eval_identity_element(tmp_path):
    doc = {"schema": "1", "coefficients": {"kind": "nat-interval"},
           "basis": {"kind": "loop", "n": 7, "m": 3}}
    spec = write_spec(tmp_path, doc)
    code, out, _ = run_cli(["eval", "--spec", spec,
                            "--lhs", "[0,1]*e",
                            "--rhs", "[0,5]*g2 + [0,7]*g3",
                            "--op", "mul"])
    assert code == 0
    assert out.strip() == "[0,5]*g2 + [0,7]*g3"


def test_eval_parse_error_exit_3(tmp_path):
    spec = write_spec(tmp_path, POLY_NAT)
    code, _, err = run_cli(["eval", "--spec", spec,
                            "--lhs", "[0,1] * [0,2] * [0,3]",
                            "--rhs", "[0,1]", "--op", "mul"])
    assert code == 3
    assert "position" in err


def test_eval_domain_mismatch_exit_4(tmp_path):
    spec = write_spec(tmp_path, ZN18)
    code, _, err = run_cli(["eval", "--spec", spec,
                            "--lhs", "[0,1/2]", "--rhs", "[0,1]",
                            "--op", "add"])
    assert code == 4


def test_eval_timing_footer(tmp_path):
    spec = write_spec(tmp_path, POLY_NAT)
    code, out, _ = run_cli(["eval", "--spec", spec, "--lhs", "[0,1]",
                            "--rhs", "[0,1]", "--op", "add", "--timing"])
    assert "---" in out and "elapsed:" in out


# ---------------------------------------------------------------------------
# classify


def test_classify_json_schema(tmp_path):
    spec = write_spec(tmp_path, ZN18)
    code, out, _ = run_cli(["classify", "--spec", spec,
                            "--query", "zero-divisors", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["query", "exhaustive", "findings", "budget"]
    assert len(doc["findings"]) == 15


def test_classify_expect_pass_and_fail(tmp_path):
    spec = write_spec(tmp_path, ZN18)
    code, _, _ = run_cli(["classify", "--spec", spec,
                          "--query", "zero-divisors", "--expect", "findings"])
    assert code == 0
    code, _, _ = run_cli(["classify", "--spec", spec,
                          "--query", "zero-divisors",
                          "--expect", "no-findings"])
    assert code == 1


def test_classify_unknown_query(tmp_path):
    spec = write_spec(tmp_path, ZN18)
    code, _, err = run_cli(["classify", "--spec", spec,
                            "--query", "primality"])
    assert code == 2
    assert "unknown query" in err


def test_classify_unknown_expect(tmp_path):
    spec = write_spec(tmp_path, ZN18)
    code, _, _ = run_cli(["classify", "--spec", spec,
                          "--query", "zero-divisors", "--expect", "frobnic"])
    assert code == 2


CHAIN3 = {"schema": "1", "coefficients": {"kind": "chain-lattice", "k": 3}}


@pytest.mark.parametrize("query, extra, runs, where", [
    ("smarandache", ["--mode", "exhaustive"], "smarandache_search",
     "this query"),
    ("zero-divisors", [], "find_zero_divisors", "this query"),
    ("semifield", [], "classify_semiring", "the semifield query"),
    ("subsemiring", ["--subset", "0;1"], "check_substructure",
     "the subsemiring query"),
], ids=["smarandache", "zero-divisors", "semifield", "subsemiring"])
def test_classify_refuses_an_unknown_expect_before_the_query_runs(
        tmp_path, monkeypatch, query, extra, runs, where):
    from intervalsemirings import analysis

    def refuse(*args, **kwargs):
        raise AssertionError(f"{runs} ran")

    monkeypatch.setattr(analysis, runs, refuse)
    spec = write_spec(tmp_path, CHAIN3)
    code, out, err = run_cli(["classify", "--spec", spec, "--query", query,
                              *extra, "--expect", "typo"])
    assert (code, out) == (2, "")
    assert err == f"error: unknown property 'typo' for {where}\n"


def test_classify_semifield(tmp_path):
    doc = {"schema": "1", "coefficients": {"kind": "chain-lattice", "k": 2},
           "basis": {"kind": "loop", "n": 5, "m": 3}}
    spec = write_spec(tmp_path, doc)
    code, out, _ = run_cli(["classify", "--spec", spec,
                            "--query", "semifield",
                            "--expect", "semifield"])
    assert code == 0
    assert "semifield: true" in out


def test_classify_semifield_expect_fails(tmp_path):
    spec = write_spec(tmp_path, ZN18)
    code, out, _ = run_cli(["classify", "--spec", spec,
                            "--query", "semifield",
                            "--expect", "semifield"])
    assert code == 1
    assert "witness" in out


def test_classify_subset_ideal(tmp_path):
    doc = {"schema": "1", "coefficients": {"kind": "zn-interval", "n": 15}}
    spec = write_spec(tmp_path, doc)
    code, out, _ = run_cli(["classify", "--spec", spec, "--query", "ideal",
                            "--subset",
                            "[0,0]; [0,3]; [0,6]; [0,9]; [0,12]",
                            "--expect", "ideal"])
    assert code == 0
    assert "ideal: true" in out


def test_classify_subset_pattern(tmp_path):
    doc = {"schema": "1", "coefficients": {"kind": "nat-interval"}}
    spec = write_spec(tmp_path, doc)
    code, out, _ = run_cli(["classify", "--spec", spec, "--query", "ideal",
                            "--subset", "multiples-of-3"])
    assert code == 0
    assert "ideal: true" in out


@pytest.mark.parametrize("n, query, subset, flags, want", [
    (4, "subsemiring", "[0,0]; [0,1]", [],
     "subsemiring: false\n"
     "  witness: not-closed-under-addition, [0,1], [0,1]\n"),
    (4, "subsemiring", "[0,0]; [0,1]", ["--json"],
     '{"query": "subsemiring", "ok": false, "witness": '
     '["not-closed-under-addition", "[0,1]", "[0,1]"]}\n'),
    (12, "ideal", "multiples-of-4", [], "ideal: true\n"),
    (10, "subsemiring", "multiples-of-3", [],
     "subsemiring: false\n"
     "  witness: not-closed-under-multiplication, [0,3], [0,6]\n"),
])
def test_classify_subset_output(tmp_path, n, query, subset, flags, want):
    doc = {"schema": "1", "coefficients": {"kind": "zn-interval", "n": n}}
    spec = write_spec(tmp_path, doc)
    code, out, _ = run_cli(["classify", "--spec", spec, "--query", query,
                            "--subset", subset, *flags])
    assert code == 0
    assert out == want


def test_classify_subset_missing(tmp_path):
    spec = write_spec(tmp_path, ZN18)
    code, _, err = run_cli(["classify", "--spec", spec, "--query", "ideal"])
    assert code == 2
    assert "--subset" in err


def test_classify_require_exhaustive_violation(tmp_path):
    doc = {"schema": "1", "coefficients": {"kind": "nat-interval"},
           "basis": {"kind": "mult-semigroup", "n": 4}}
    spec = write_spec(tmp_path, doc)
    code, out, _ = run_cli(["classify", "--spec", spec,
                            "--query", "zero-divisors",
                            "--require-exhaustive"])
    assert code == 5
    assert "exhaustive: false" in out


def test_classify_nilpotents_max_index(tmp_path):
    doc = {"schema": "1", "coefficients": {"kind": "zn-interval", "n": 8}}
    spec = write_spec(tmp_path, doc)
    code, out, _ = run_cli(["classify", "--spec", spec,
                            "--query", "nilpotents", "--max-index", "2"])
    assert code == 0
    assert "nilpotent-index-2: [0,4]" in out
    assert "index-3" not in out


def test_classify_smarandache(tmp_path):
    doc = {"schema": "1", "coefficients": {"kind": "chain-lattice", "k": 3}}
    spec = write_spec(tmp_path, doc)
    code, out, _ = run_cli(["classify", "--spec", spec,
                            "--query", "smarandache", "--mode", "exhaustive",
                            "--expect", "findings"])
    assert code == 0
    assert "semifield-subset: 0, a1" in out


def test_classify_smarandache_candidate(tmp_path):
    doc = {"schema": "1", "coefficients": {"kind": "chain-lattice", "k": 3}}
    spec = write_spec(tmp_path, doc)
    code, out, _ = run_cli(["classify", "--spec", spec,
                            "--query", "smarandache",
                            "--subset", "0; 1",
                            "--candidate-kind", "semifield-subset",
                            "--expect", "findings"])
    assert code == 0


# ---------------------------------------------------------------------------
# verify


def test_verify_pass():
    code, out, _ = run_cli(["verify", "loop-laws", "--n", "5..9"])
    assert code == 0
    assert "loop-laws: pass" in out


def test_verify_json():
    code, out, _ = run_cli(["verify", "zn-prime-clean", "--pmax", "13",
                            "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["exhaustive"] is True
    assert len(doc["findings"]) == 6


def test_verify_unknown_sweep():
    code, _, err = run_cli(["verify", "abc-conjecture"])
    assert code == 2
    assert "unknown sweep" in err


def test_verify_bad_range():
    code, _, err = run_cli(["verify", "loop-laws", "--n", "5-9"])
    assert code == 2
    assert "A..B" in err
    # a reversed range would pass over no instances
    code, out, err = run_cli(["verify", "loop-laws", "--n", "9..5"])
    assert (code, out) == (2, "")
    assert "backwards" in err


def test_verify_loop_laws_from_an_even_lower_bound():
    # the sweep takes the odd n of the range, so 4..7 sweeps 5 and 7
    code, out, err = run_cli(["verify", "loop-laws", "--n", "4..7"])
    assert (code, out, err) == run_cli(["verify", "loop-laws", "--n", "5..7"])
    assert out.endswith("loop-laws: pass (8 instances)\n")


def test_verify_primes_list():
    code, out, _ = run_cli(["verify", "neutro-prime-no-subsemiring",
                            "--primes", "3,5"])
    assert code == 0


# ---------------------------------------------------------------------------
# pinned query results


_CHAIN2 = {"kind": "chain-lattice", "k": 2}
_ZN3 = {"kind": "zn-interval", "n": 3}
_SQUARE2 = {"shape": "square", "n": 2}


def _classify(coefficients, *argv, matrix=_SQUARE2, line=-2):
    """A classify run on the coefficients (square(2) matrices over them
    unless matrix is None): run(tmp_path) is its exit code and the line of
    its output, by default the findings count."""
    def run(tmp_path):
        doc = {"schema": "1", "coefficients": coefficients}
        if matrix is not None:
            doc["matrix"] = matrix
        code, out, _ = run_cli(["classify", "--spec", write_spec(tmp_path, doc),
                                *argv])
        return code, out.splitlines()[line]
    return run


@pytest.mark.parametrize("run, want", [
    (_classify(_CHAIN2, "--query", "smarandache", line=0),
     (0, "semifield-subset: [[0, 0], [0, 0]], [[0, 0], [0, 1]]")),
    (_classify(_CHAIN2, "--query", "smarandache"), (0, "findings: 28")),
    (_classify(_ZN3, "--query", "s-zero-divisors"), (0, "findings: 228")),
    (_classify(_ZN3, "--query", "s-units"), (0, "findings: 26")),
    (_classify({"kind": "nat-interval"}, "--query", "subsemiring",
               "--subset", "[0,0];[0,1];[0,2]", matrix=None, line=-1),
     (0, "  witness: not-closed-under-addition, [0,1], [0,2]")),
    # undecided on an infinite domain, so --require-exhaustive exits 5
    (_classify({"kind": "rat-interval"}, "--query", "smarandache",
               "--subset", "[0,0];[0,1]",
               "--candidate-kind", "s-pseudo-subsemiring",
               "--require-exhaustive", matrix=None), (5, "findings: 0")),
    (lambda _: len(associator_closure(build_loop(41, 3))), 42),
    (lambda _: len(enumerate_substructures(build_groupoid(15, 1, 0),
                                           "subgroup")), 15),
], ids=["smarandache-first", "smarandache-count", "s-zero-divisors-count",
        "s-units-count", "nat-subsemiring-witness", "rat-pseudo-exit-5",
        "associator-closure-L41(3)", "subgroups-of-groupoid(15,1,0)"])
def test_pinned_results(tmp_path, run, want):
    assert run(tmp_path) == want


# ---------------------------------------------------------------------------
# global behavior


def test_threads_env_validated():
    code, _, err = run_cli(["table", "cyclic", "--k", "2"],
                           env_threads="zero")
    assert code == 2
    assert "ISL_THREADS" in err
    code, _, _ = run_cli(["table", "cyclic", "--k", "2"], env_threads="0")
    assert code == 2
    code, _, _ = run_cli(["table", "cyclic", "--k", "2"], env_threads="2")
    assert code == 0


def test_repeated_runs_byte_identical(tmp_path):
    spec = write_spec(tmp_path, ZN18)
    argv = ["classify", "--spec", spec, "--query", "zero-divisors", "--json"]
    _, a, _ = run_cli(argv)
    _, b, _ = run_cli(argv)
    assert a == b


def test_subprocess_hash_seed_independence(tmp_path):
    spec = write_spec(tmp_path, {
        "schema": "1", "coefficients": {"kind": "zn-interval", "n": 3},
        "basis": {"kind": "cyclic", "k": 2}})
    cmd = [sys.executable, "-m", "intervalsemirings.cli", "classify",
           "--spec", spec, "--query", "idempotents", "--json"]
    outs = []
    for seed in ("0", "104729"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        r = subprocess.run(cmd, capture_output=True, env=env)
        assert r.returncode == 0
        outs.append(r.stdout)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("coefficients", [
    {"kind": "zn-interval", "n": 2097152},
    {"kind": "neutro-mixed", "base": {"kind": "zn-interval", "n": 1100}},
], ids=["zn(2^21)", "neutro-mixed(zn(1100))"])
def test_classify_does_not_decide_a_finite_domain_over_the_guard(
        tmp_path, coefficients):
    spec = write_spec(tmp_path, {"schema": "1", "coefficients": coefficients})
    code, out, err = run_cli(["classify", "--spec", spec,
                              "--query", "semifield"])
    assert code == 2 and out == ""
    assert "enumeration guard exceeded" in err
    code, out, _ = run_cli(["classify", "--spec", spec, "--query",
                            "zero-divisors", "--require-exhaustive"])
    assert code == 5
    assert "findings: 0" in out and "exhaustive: false" in out


def test_classify_nat_zero_divisors_stay_exhaustive(tmp_path):
    spec = write_spec(tmp_path, {"schema": "1",
                                 "coefficients": {"kind": "nat-interval"}})
    code, out, _ = run_cli(["classify", "--spec", spec, "--query",
                            "zero-divisors", "--require-exhaustive"])
    assert code == 0 and "exhaustive: true" in out


NEUTRO_PURE_NAT = {"kind": "neutro-pure", "base": {"kind": "nat-interval"}}


def test_classify_answers_on_neutrosophic_coefficients(tmp_path):
    spec = write_spec(tmp_path, {"schema": "1",
                                 "coefficients": NEUTRO_PURE_NAT})
    code, out, _ = run_cli(["classify", "--spec", spec, "--query",
                            "idempotents", "--json"])
    assert code == 0
    assert json.loads(out)["findings"] == [
        {"kind": "idempotent", "witness": ["[0,0]"]},
        {"kind": "idempotent", "witness": ["[0,1I]"]}]
    spec = write_spec(tmp_path, {"schema": "1",
                                 "coefficients": NEUTRO_PURE_NAT,
                                 "matrix": {"shape": "row", "n": 2}})
    code, out, _ = run_cli(["classify", "--spec", spec, "--query",
                            "semifield", "--json"])
    assert code == 0
    assert json.loads(out)["witnesses"]["zero_divisor_free"] == [
        "[[0,1I], [0,0]]", "[[0,0], [0,1I]]"]


def test_verify_neutro_prime_refuses_past_the_guard():
    code, out, err = run_cli(["verify", "neutro-prime-no-subsemiring",
                              "--primes", "3,23"])
    assert code == 2 and out == ""
    assert "2^22 subsets" in err


def test_verify_neutro_prime_refuses_a_composite():
    # zn(9) is no field, so its closed subset {0, 3I, 6I} is no
    # counterexample: the list is invalid input
    code, out, err = run_cli(["verify", "neutro-prime-no-subsemiring",
                              "--primes", "9"])
    assert code == 2 and out == ""
    assert "p=9 is not prime" in err


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script, args", [
    ("survey_special_elements.py", ["--json"]),
    ("sweep_loop_laws.py", ["--nmax", "9", "--json"]),
])
def test_script_prints_json_lines(script, args):
    path = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH"))
        if p)
    r = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script),
                        *args], capture_output=True, text=True,
                       env=dict(os.environ, PYTHONPATH=path))
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert lines
    for line in lines:
        assert isinstance(json.loads(line), dict)


@pytest.mark.parametrize("script, args, last", [
    ("sweep_loop_laws.py", ["--nmin", "5", "--nmax", "9"],
     "11 loops; commutative: 3, left-alternative: 3, right-alternative: 3, "
     "moufang: 0, left-bol: 0, right-bol: 0, wip: 2, p-groupoid: 11"),
    ("survey_special_elements.py", ["--nmin", "2", "--nmax", "6"],
     "  6       2       2       2       0       0       4       1       0"),
], ids=["sweep_loop_laws", "survey_special_elements"])
def test_script_main_ends_with_its_summary(capsys, script, args, last):
    # in-process through main(argv), as README runs them
    spec = importlib.util.spec_from_file_location(
        script[:-3], os.path.join(ROOT, "scripts", script))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(args) == 0
    assert capsys.readouterr().out.splitlines()[-1] == last


# ---------------------------------------------------------------------------
# what a short process loads

# numpy and every package module the process has loaded
_LOADED = ("sorted(m for m in sys.modules "
           "if m == 'numpy' or m.startswith('intervalsemirings.'))")
# the standard modules no table or eval process may load: dataclasses
# (with inspect) and fractions (with decimal)
_HEAVY = "sorted({'dataclasses', 'fractions'} & set(sys.modules))"
_CLI = ["cli", "errors"]
_EVAL = _CLI + ["domains", "expressions", "handle"]


def run_fresh(source):
    """Run source in a fresh interpreter with src/ on the path and return
    the JSON document on the last line of its stdout."""
    path = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH"))
        if p)
    r = subprocess.run([sys.executable, "-c", source], capture_output=True,
                       text=True, env=dict(os.environ, PYTHONPATH=path))
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout.splitlines()[-1])


@pytest.mark.parametrize("doc, argv, modules", [
    (None, ["--help"], _CLI),
    (None, ["table", "loop", "--n", "7", "--m", "3"], _CLI + ["carriers"]),
    (None, ["table", "cyclic", "--k", "6", "--json"], _CLI + ["carriers"]),
    (GROUPOID_NAT, ["eval", "--lhs", "[0,7]*4b", "--rhs", "[0,12]*2b",
                    "--op", "mul", "--trace"],
     _EVAL + ["carriers", "formalsums"]),
    (POLY_NAT, ["eval", "--lhs", "[0,7]*x^1", "--rhs", "[0,2]*x^3",
                "--op", "mul", "--trace"], _EVAL + ["formalsums"]),
    (ROW2_ZN4, ["eval", "--lhs", "[[0,1], [0,2]]", "--rhs", "[[0,3], [0,3]]",
                "--op", "mul"], _EVAL + ["matrices"]),
    (ZN18, ["eval", "--lhs", "[0,5]", "--rhs", "[0,7]", "--op", "add"], _EVAL),
], ids=["help", "table-loop", "table-cyclic-json", "eval-formal-sum-trace",
        "eval-poly-trace", "eval-matrix", "eval-domain"])
def test_short_command_loads_neither_numpy_nor_analysis(tmp_path, doc, argv,
                                                        modules):
    # table, eval and --help run no query, so they must not pay for numpy;
    # each loads exactly the package modules it uses: only a carrier (a
    # table, or a carrier basis) loads carriers, only a basis formalsums and
    # only a matrix spec matrices, and none loads dataclasses or fractions
    if doc is not None:
        argv = argv[:1] + ["--spec", write_spec(tmp_path, doc)] + argv[1:]
    code, loaded, heavy = run_fresh(
        "import json, sys\n"
        "from intervalsemirings.cli import main\n"
        f"code = main({argv!r})\n"
        f"print(json.dumps([code, {_LOADED}, {_HEAVY}]))")
    assert code == 0
    assert loaded == sorted(f"intervalsemirings.{m}" for m in modules)
    assert heavy == []


# what every query loads, numpy aside
_QUERY = _CLI + ["analysis", "domains", "handle", "laws", "reports", "tables"]


def _loaded_by(argv):
    """(exit code, loaded modules) of argv run in a fresh interpreter."""
    return run_fresh(
        "import json, sys\n"
        "from intervalsemirings.cli import main\n"
        f"code = main({argv!r})\n"
        f"print(json.dumps([code, {_LOADED}]))")


@pytest.mark.parametrize("doc, kind_module", [
    (ZN18, []),
    ({**ZN18, "basis": {"kind": "cyclic", "k": 2}}, ["carriers", "formalsums"]),
], ids=["domain", "basis"])
def test_classify_loads_no_matrices_and_formal_sums_only_for_a_basis(
        tmp_path, doc, kind_module):
    # the analysis builds its pattern elements through the handle, so only
    # a basis spec loads formalsums, and only a matrix spec matrices; only a
    # carrier basis loads carriers, and an enumerable handle no structural
    spec = write_spec(tmp_path, doc)
    code, loaded = _loaded_by(["classify", "--spec", spec, "--query",
                               "semifield"])
    assert code == 0
    assert loaded == sorted(["numpy"] + [f"intervalsemirings.{m}" for m in (
        _QUERY + kind_module)])


def test_classify_on_an_infinite_domain_loads_structural(tmp_path):
    spec = write_spec(tmp_path, {"schema": "1",
                                 "coefficients": {"kind": "nat-interval"}})
    code, loaded = _loaded_by(["classify", "--spec", spec, "--query",
                               "semifield"])
    assert code == 0
    assert loaded == sorted(["numpy"] + [f"intervalsemirings.{m}" for m in (
        _QUERY + ["structural"])])


_SWEEP = _CLI + ["reports", "sweeps"]


@pytest.mark.parametrize("argv, modules", [
    (["verify", "zn-composite-zd", "--nmax", "100"],
     _SWEEP + ["carriers", "domains"]),
    (["verify", "loop-laws", "--n", "5..25"],
     _SWEEP + ["carriers", "laws", "numpy"]),
    (["verify", "neutro-prime-no-subsemiring", "--primes", "3,5"],
     _SWEEP + ["carriers", "domains", "handle", "laws", "tables", "numpy"]),
    (["verify", "zn-prime-clean", "--pmax", "13"],
     _SWEEP + ["analysis", "carriers", "domains", "handle", "laws", "tables",
               "numpy"]),
], ids=["zn-composite-zd", "loop-laws", "neutro-prime", "zn-prime-clean"])
def test_verify_loads_only_what_its_sweep_runs(argv, modules):
    # each sweep imports its modules in its own body: zn-composite-zd is
    # domain arithmetic without numpy, loop-laws runs no handle or domain
    code, loaded = _loaded_by(argv)
    assert code == 0
    assert loaded == sorted(m if m == "numpy" else f"intervalsemirings.{m}"
                            for m in modules)


def test_table_kinds_are_the_carrier_kinds():
    # the parser offers them without loading carriers
    assert list(cli.TABLE_KINDS) == carrier_kinds()


def test_package_import_loads_analysis_on_first_access():
    # a bare import loads no submodule; each name is then the object its
    # home module defines (its __module__; the matrices module for the two
    # shape constants), and stays bound in the package
    before, same, after, wrong, unbound = run_fresh(textwrap.dedent(f"""
        import importlib, json, sys
        import intervalsemirings as isl
        before = {_LOADED}
        same = (isl.fs_mul is isl.formalsums.fs_mul
                and isl.find_units is isl.analysis.find_units)
        after = {_LOADED}
        wrong = []
        for name in isl.__all__:
            obj = getattr(isl, name)
            if isinstance(obj, type(isl)):
                ok = obj.__name__ == "intervalsemirings." + name
            else:
                home = getattr(obj, "__module__", "intervalsemirings.matrices")
                ok = (home.startswith("intervalsemirings.")
                      and getattr(importlib.import_module(home), name) is obj)
            if not ok:
                wrong.append(name)
        unbound = sorted(set(isl.__all__) - set(vars(isl)))
        print(json.dumps([before, same, after, wrong, unbound]))"""))
    assert before == []
    assert same is True
    assert after == sorted(
        ["numpy"] + [f"intervalsemirings.{m}" for m in (
            "analysis", "domains", "errors", "formalsums", "handle", "laws",
            "reports", "tables")])
    assert wrong == []
    assert unbound == []


STAR_NAMES = [
    "AnalysisReport", "CarrierMeta", "Classification", "DomainMismatchError",
    "DomainSpec", "Finding", "FormalSum", "HomReport", "IntervalElem",
    "IntervalMatrix", "LawProfile", "Magma", "ParseError", "PolyBasis", "ROW",
    "SQUARE", "SemiringHandle", "SemiringSpec", "SpecError",
    "additive_group_zn", "analysis", "associator_closure", "ast_to_str",
    "basis_is_finite", "basis_keys", "basis_token", "build_carrier",
    "build_groupoid", "build_loop", "canonical_pair", "carrier_kinds",
    "carrier_to_json", "carriers", "chain_lattice", "check_homomorphism",
    "check_laws", "check_substructure", "classify_semiring", "closure_of",
    "cyclic_group", "dihedral_group", "dom_add", "dom_mul", "domain_elements",
    "domain_from_json", "domain_one", "domain_to_json", "domain_zero",
    "domains", "element", "element_key", "enumerate_elements",
    "enumerate_substructures", "errors", "eval_expression", "eval_pair",
    "expressions", "find_idempotents", "find_nilpotents", "find_s_special",
    "find_units", "find_zero_divisors", "formalsums", "format_element",
    "fs_add", "fs_from_terms", "fs_mul", "fs_one", "fs_scale", "fs_term",
    "fs_zero", "identity_matrix", "is_finite_domain", "is_strict_domain",
    "lattice_element", "loop_law_summary", "loop_parameters", "make_spec",
    "mat_add", "mat_mul", "matrices", "matrix_from_rows", "matrix_to_json",
    "matrix_zd_comparison", "mult_group_zp", "mult_semigroup_zn",
    "nat_interval", "neutro_mixed", "neutro_pure", "pair_key", "parse_element",
    "parse_expression", "parse_formal_sum", "poly_mul", "rat_interval",
    "render_matrix", "render_table", "resolve_basis_token", "row_matrix",
    "scale_matrix", "semifield_within", "semiring_size", "smarandache_search",
    "square_matrix", "sweep_passed", "symmetric_group", "symmetric_semigroup",
    "table_lattice", "tables", "theorem_sweep", "validate_s_certificate",
    "validate_witness", "verify_axioms", "zero_matrix", "zn_interval"
]


def test_star_import_binds_the_same_names():
    names = run_fresh(
        "from intervalsemirings import *\n"
        "names = sorted(n for n in dir() if not n.startswith('_'))\n"
        "import json\n"
        "print(json.dumps(names))")
    assert names == STAR_NAMES
