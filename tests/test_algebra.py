import io
import json
import random
from fractions import Fraction as F

import pytest

from superhomology import (AlgebraError, CatalogError, JacobiError,
                           StructureConstants, catalog_get, catalog_names,
                           check_jacobi, format_rational, load_algebra, parse_rational)
from superhomology.cli import run_cli

from oracles import algebra_document, dense_jacobi_violations, jacobi_holds_via_adjoint


def test_parse_rational():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-7") == F(-7)
    assert parse_rational(" 2/6 ") == F(1, 3)
    for bad in ("1.5", "", "x", "1e3", "1/0"):
        with pytest.raises(ValueError):
            parse_rational(bad)
    assert format_rational(F(-10, 4)) == "-5/2"
    assert format_rational(F(8, 2)) == "4"


def test_catalog_g3d2_at_minus_one():
    sc = catalog_get("g3d2", {"alpha": "-1"})
    assert sc.bracket(1, 3) == (F(1), F(0), F(0))
    assert sc.bracket(2, 3) == (F(0), F(-1), F(0))
    assert sc.bracket(1, 2) == (F(0), F(0), F(0))


def test_catalog_examples():
    heis = catalog_get("heis3")
    assert heis.bracket(1, 2) == (F(0), F(0), F(1))
    g3d1n = catalog_get("g3d1n")
    assert g3d1n.bracket(1, 2) == (F(0), F(1), F(0))
    g3d3 = catalog_get("g3d3", {"alpha": "1", "beta": "1"})
    assert g3d3.bracket(1, 2) == (F(0), F(0), F(1))
    assert g3d3.bracket(1, 3) == (F(0), F(-1), F(0))
    assert g3d3.bracket(2, 3) == (F(1), F(0), F(0))
    abelian = catalog_get("abelian3")
    assert not abelian.entries


def test_catalog_constraint_and_errors():
    with pytest.raises(CatalogError):
        catalog_get("g3d2", {"alpha": "0"})
    with pytest.raises(CatalogError):
        catalog_get("nope")
    with pytest.raises(CatalogError):
        catalog_get("g3d2")  # unbound alpha
    with pytest.raises(CatalogError):
        catalog_get("heis3", {"alpha": "1"})  # takes no parameters


def test_antisymmetry_is_structural():
    sc = catalog_get("sl2_efh")
    for i in range(1, 4):
        for j in range(1, 4):
            assert sc.bracket(j, i) == tuple(-c for c in sc.bracket(i, j))


def test_check_jacobi_empty_cases():
    assert check_jacobi(catalog_get("sl2_efh")) == []
    assert check_jacobi(catalog_get("abelian4")) == []
    assert check_jacobi(catalog_get("gl2")) == []


def test_check_jacobi_violation_reports_triple_and_residual():
    # [z1,z2] = z3 and [z1,z3] = z1 cannot close up: the cyclic sum at
    # (1,2,3) leaves -z3.
    sc = StructureConstants(3, {(1, 2): (0, 0, 1), (1, 3): (1, 0, 0)})
    violations = check_jacobi(sc)
    assert violations == [((1, 2, 3), (F(0), F(0), F(-1)))]
    assert not jacobi_holds_via_adjoint(sc)


def test_check_jacobi_agrees_with_adjoint_oracle():
    rng = random.Random(20240811)
    for _ in range(60):
        n = rng.randint(2, 4)
        entries = {}
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if rng.random() < 0.5:
                    entries[(i, j)] = tuple(F(rng.randint(-2, 2)) for _ in range(n))
        sc = StructureConstants(n, entries)
        assert (check_jacobi(sc) == []) == jacobi_holds_via_adjoint(sc)


def test_check_jacobi_equals_the_dense_route():
    # the sparse check visits stored brackets only; the dense one every triple
    binds = {"g3d2": {"alpha": F(7, 3)}, "g3d3": {"alpha": F(2, 3), "beta": F(-5, 7)}}
    for name in catalog_names():
        sc = catalog_get(name, binds.get(name))
        assert check_jacobi(sc) == dense_jacobi_violations(sc) == []
    rng = random.Random(20261018)
    coeffs = [F(k, d) for k in range(-3, 4) for d in (1, 2, 5)]
    broken = 0
    for _ in range(80):
        n = rng.randint(3, 6)
        entries = {}
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if rng.random() < 0.4:
                    entries[(i, j)] = tuple(rng.choice(coeffs) if rng.random() < 0.4 else F(0)
                                            for _ in range(n))
        sc = StructureConstants(n, entries)
        violations = check_jacobi(sc)
        assert violations == dense_jacobi_violations(sc)
        assert all(type(c) is F for _, res in violations for c in res)
        broken += bool(violations)
    assert broken > 40


def test_catalog_jacobi_under_random_parameters():
    rng = random.Random(5)
    nonzero = [F(k, d) for k in (-3, -2, -1, 1, 2, 3) for d in (1, 2, 3)]
    for _ in range(25):
        alpha, beta = rng.choice(nonzero), rng.choice(nonzero)
        assert check_jacobi(catalog_get("g3d2", {"alpha": alpha})) == []
        assert check_jacobi(catalog_get("g3d3", {"alpha": alpha, "beta": beta})) == []
    for name in catalog_names():
        binds = {}
        if name == "g3d2":
            binds = {"alpha": F(7, 3)}
        elif name == "g3d3":
            binds = {"alpha": F(-5), "beta": F(1, 4)}
        assert check_jacobi(catalog_get(name, binds)) == []


def test_load_algebra_round_trip():
    for name, binds in [("heis3", {}), ("g3d3", {"alpha": "2", "beta": "-1/3"}),
                        ("gl2", {}), ("aff1", {})]:
        sc = catalog_get(name, binds)
        doc = algebra_document(sc)
        again = load_algebra(json.dumps(doc))
        assert again == sc


def test_load_algebra_document_forms(tmp_path):
    doc = {
        "name": "family",
        "dim": 3,
        "brackets": [
            {"i": 1, "j": 3, "out": {"1": "1"}},
            {"i": 2, "j": 3, "out": {"2": {"coef": "-1", "param": "alpha"}}},
        ],
        "params": ["alpha"],
        "constraints": [{"param": "alpha", "nonzero": True}],
    }
    sc = load_algebra(json.dumps(doc), {"alpha": "-2"})
    assert sc.bracket(2, 3) == (F(0), F(2), F(0))

    # bare parameter name and its negation are accepted coefficient forms
    doc["brackets"][1]["out"]["2"] = "alpha"
    sc = load_algebra(json.dumps(doc), {"alpha": "5"})
    assert sc.bracket(2, 3)[1] == F(5)
    doc["brackets"][1]["out"]["2"] = "-alpha"
    sc = load_algebra(json.dumps(doc), {"alpha": "5"})
    assert sc.bracket(2, 3)[1] == F(-5)

    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    sc = load_algebra(str(path), {"alpha": "1"})
    assert sc.bracket(2, 3)[1] == F(-1)


def test_load_algebra_path_with_braces(tmp_path, monkeypatch):
    heis3 = catalog_get("heis3")
    text = json.dumps(algebra_document(heis3))
    path = tmp_path / "run{1}" / "alg.json"
    path.parent.mkdir()
    path.write_text(text, encoding="utf-8")
    assert load_algebra(path) == heis3
    assert load_algebra(str(path)) == heis3
    # a str is JSON text only when its first non-blank character is "{"
    assert load_algebra("\n  " + text) == heis3

    def csv_table(*source):
        out = io.StringIO()
        code = run_cli(["table", *source, "--wmax", "2", "--format", "csv"],
                       out=out, err=io.StringIO())
        return code, out.getvalue()

    want = csv_table("--algebra", "heis3")
    assert want[0] == 0
    assert csv_table("--file", str(path)) == want
    # --file is a path even when the path itself starts with a brace
    (tmp_path / "{alg}.json").write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert csv_table("--file", "{alg}.json") == want


MALFORMED_DOCUMENTS = [
    ({"dim": 2, "params": ["a"], "constraints": ["a"]}, "'constraints' must be a list of objects"),
    ({"dim": 2, "brackets": [{"i": 1, "j": 2, "out": [1]}]}, "'out' must be an object"),
    ({"dim": 2, "params": 5}, "'params' must be a list of strings"),
    ({"dim": 2, "params": [1]}, "'params' must be a list of strings"),
    ({"dim": 2, "brackets": {"i": 1, "j": 2}}, "'brackets' must be a list of objects"),
    ({"dim": float("inf")}, "integer 'dim'"),
    ({"dim": 2, "brackets": [{"i": float("inf"), "j": 2}]}, "bad bracket entry"),
    # int() would cut these to an index, and the fractional one loads as aff1
    ({"dim": 2.9, "brackets": [{"i": 1.9, "j": 2, "out": {"1": "1"}}]}, "integer 'dim', got 2.9"),
    ({"dim": 2, "brackets": [{"i": 1.9, "j": 2, "out": {"1": "1"}}]},
     "'i' must be an integer, got 1.9"),
    ({"dim": 2, "brackets": [{"i": True, "j": 2, "out": {"1": "1"}}]},
     "'i' must be an integer, got True"),
    ({"dim": 2, "brackets": [{"i": 1, "j": 2.5, "out": {"1": "1"}}]},
     "'j' must be an integer, got 2.5"),
    ({"dim": True}, "integer 'dim', got True"),
    ({"dim": 2, "brackets": [{"i": 1, "j": 2, "out": {"1.5": "1"}}]},
     "output index must be an integer, got '1.5'"),
    # a second copy would silently win
    ({"dim": 2, "brackets": [{"i": 1, "j": 2, "out": {"1": "1"}},
                             {"i": 1, "j": 2, "out": {"2": "1"}}]},
     "is listed twice"),
    ({"dim": 2, "brackets": [{"i": 1, "j": 2, "out": {"1": "1", "01": "5"}}]},
     "output index 1 is given twice"),
    # a misspelled key would be dropped unread: each of the first two would load as abelian
    ({"dim": 3, "bracket": [{"i": 1, "j": 2, "out": {"3": "1"}}]},
     "algebra document: unknown key 'bracket'"),
    ({"dim": 3, "brackets": [{"i": 1, "j": 2, "output": {"3": "1"}}]}, "unknown key 'output'"),
    ({"dim": 2, "params": ["a"],
      "constraints": [{"param": "a", "nonzero": True, "positive": True}]},
     "unknown key 'positive'"),
    ({"dim": 2, "params": ["a"], "brackets": [{"i": 1, "j": 2, "out": {"1": {"coeff": "2"}}}]},
     "unknown key 'coeff'"),
    # a bool is an int to Python: true would read as 1, and false would drop the bracket
    ({"dim": 2, "brackets": [{"i": 1, "j": 2, "out": {"1": {"coef": True}}}]},
     "rational: True"),
    ({"dim": 2, "brackets": [{"i": 1, "j": 2, "out": {"1": {"coef": False}}}]},
     "rational: False"),
    ({"dim": 3, "brackets": [{"i": 1, "j": 2, "out": {"3": 2.0}}]},
     "decimal-free rational: 2.0"),
]


def test_load_algebra_errors():
    with pytest.raises(AlgebraError):
        load_algebra("{not json")
    with pytest.raises(AlgebraError):
        load_algebra(json.dumps({"dim": 2, "brackets": [{"i": 2, "j": 1, "out": {}}]}))
    with pytest.raises(AlgebraError):
        load_algebra(json.dumps({
            "dim": 2, "brackets": [{"i": 1, "j": 2, "out": {"1": "gamma"}}]}))
    # a field of the wrong JSON type is named in the error, not a traceback
    for doc, field in MALFORMED_DOCUMENTS:
        with pytest.raises(AlgebraError, match=field):
            load_algebra(doc)
    with pytest.raises(AlgebraError, match=r"pair \(1, 2\) is listed twice"):
        load_algebra({"dim": 2, "brackets": [{"i": 1, "j": 2}, {"i": 1, "j": 2}]})
    bad = {"dim": 3, "brackets": [
        {"i": 1, "j": 2, "out": {"3": "1"}},
        {"i": 1, "j": 3, "out": {"1": "1"}},
    ]}
    with pytest.raises(JacobiError) as err:
        load_algebra(json.dumps(bad))
    assert err.value.violations[0][0] == (1, 2, 3)
