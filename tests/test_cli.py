import io
import json
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from hornkit.cli import main

ZONO = str(FIXTURES / "zonotope.json")
TRI = str(FIXTURES / "triangle_sides.json")
SIMPLEX = str(FIXTURES / "triangle_simplex.json")
ATOMIC = str(FIXTURES / "atomic_32_43.json")
EX21 = str(FIXTURES / "example21.json")
QUAD = str(FIXTURES / "quadrilateral.json")


def run(*args):
    return CliRunner().invoke(main, list(args))


def test_analyze_zonotope():
    r = run("analyze", ZONO, "--window", "20")
    assert r.exit_code == 0, r.output
    d = json.loads(r.output)
    assert d["rank"] == 31
    assert d["persistent_dim"] == 6
    assert d["classification"]["kind"] == "Zonotope"
    assert d["S_per_vertex"] == [25] * 8
    assert d["rank_attained"] is True


def test_analyze_triangle_sides():
    r = run("analyze", TRI, "--window", "20")
    d = json.loads(r.output)
    assert d["rank"] == 40
    assert d["persistent_dim"] == 5
    assert d["classification"]["kind"] == "TrianglePlusSegments"


def test_malformed_input_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    r = run("analyze", str(bad))
    assert r.exit_code == 2
    assert "error" in json.loads(r.stderr)

    zero_den = tmp_path / "zero_den.json"
    zero_den.write_text(json.dumps({"matrix": [[1, 0], [-1, 0]], "parameters": ["1/0", 0]}))
    r = run("analyze", str(zero_den))
    assert r.exit_code == 2
    assert "zero denominator" in json.loads(r.stderr)["error"]

    # no coercion: floats and booleans are not integers, rows are pairs,
    # a zero row has no direction
    square = [[1, 0], [-1, 0], [0, 1], [0, -1]]
    for matrix, params in (([[1.5, 0]] + square[1:], [0] * 4),
                           ([[True, 0]] + square[1:], [0] * 4),
                           ([[1, 0, 5]] + square[1:], [0] * 4),
                           (square + [[0, 0]], [0] * 5),
                           (square, [True, 0, 0, 0])):
        bad.write_text(json.dumps({"matrix": matrix, "parameters": params}))
        for cmd in ("analyze", "rank"):
            r = run(cmd, str(bad))
            assert r.exit_code == 2, (matrix, params, r.output)
            assert "error" in json.loads(r.stderr)

    # the system's own checks: at least two rows, one parameter per row
    for matrix, message in (([[1, 0]], "a Horn system needs at least two rows"),
                            ([[1, 0], [-1, 0]], "rows and parameters must have equal length")):
        bad.write_text(json.dumps({"matrix": matrix, "parameters": [0]}))
        r = run("rank", str(bad))
        assert r.exit_code == 2 and r.stdout == "", (matrix, r.output)
        assert json.loads(r.stderr)["error"].endswith(message)

    # the zero polynomial, as an empty term list or a zero coefficient, is
    # no candidate solution
    sol = tmp_path / "sol.json"
    for terms in ([], [{"exponent": ["0", "0"], "coefficient": "0"}]):
        sol.write_text(json.dumps({"terms": terms}))
        r = run("verify", SIMPLEX, "--solution", str(sol))
        assert r.exit_code == 2, (terms, r.output)
        assert "zero polynomial" in json.loads(r.stderr)["error"]


NESTED = "[" * 100000 + "]" * 100000  # past the JSON decoder's recursion limit


@pytest.mark.parametrize("cmd", (["analyze"], ["rank"], ["classify"], ["solve"], ["series"],
                                 ["suggest-params"], ["verify", "--solution", ZONO],
                                 ["render", "--what", "polygon", "--out", "unused.svg"]))
def test_deeply_nested_system_exits_2(cmd, tmp_path):
    path = tmp_path / "nested.json"
    path.write_text(NESTED)
    r = run(cmd[0], str(path), *cmd[1:])
    assert r.exit_code == 2 and r.stdout == "", r.output[-300:]
    assert "recursion" in json.loads(r.stderr)["error"]


def test_deeply_nested_solution_exits_2(tmp_path):
    sol = tmp_path / "nested.json"
    sol.write_text(NESTED)
    r = run("verify", SIMPLEX, "--solution", str(sol))
    assert r.exit_code == 2 and r.stdout == "", r.output[-300:]
    assert "recursion" in json.loads(r.stderr)["error"]


@pytest.mark.parametrize("cmd", (["analyze", SIMPLEX], ["rank", ZONO], ["classify", ZONO],
                                 ["solve", SIMPLEX], ["series", EX21],
                                 ["series", EX21, "--submatrix", "0,1", "--window", "2"],
                                 ["verify", SIMPLEX, "--solution", "SOLUTION"],
                                 ["suggest-params", EX21, "--bound", "1", "--window", "2"],
                                 ["render", EX21, "--what", "polygon"]))
def test_unwritable_out_exits_2(cmd, tmp_path):
    """Every command that takes --out exits 2 with a JSON error, and no
    traceback, when the file cannot be opened for writing: in a missing
    directory, or an empty path, which names no file rather than stdout."""
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps({"terms": [{"exponent": ["0", "0"], "coefficient": "1"}]}))
    for out in (str(tmp_path / "missing" / "out.json"), ""):
        r = run(*(str(sol) if x == "SOLUTION" else x for x in cmd), "--out", out)
        assert r.exit_code == 2 and isinstance(r.exception, SystemExit), r.output[-300:]
        assert r.stdout == ""
        assert json.loads(r.stderr)["error"].startswith(f"cannot write {out}: ")
    assert not (tmp_path / "missing").exists()


def test_no_python_only_integer_spellings(tmp_path):
    # "1_0", an Arabic-Indic three and full-width 1/2 read as 10, 3 and 1/2
    # through int(); in a system's parameters and in a solution's terms they
    # are refused with exit 2
    system, sol = tmp_path / "system.json", tmp_path / "sol.json"
    for bad in ("1_0", "\u0663", "\uff11/\uff12"):
        system.write_text(json.dumps({"matrix": [[1, 0], [0, 1], [-1, -1]],
                                      "parameters": [bad, "0", "0"]}))
        r = run("analyze", str(system))
        assert r.exit_code == 2 and r.stdout == ""
        assert "invalid literal" in json.loads(r.stderr)["error"]
        for term in ({"exponent": [bad, "0"], "coefficient": "1"},
                     {"exponent": ["0", "0"], "coefficient": bad}):
            sol.write_text(json.dumps({"terms": [term]}))
            r = run("verify", SIMPLEX, "--solution", str(sol))
            assert r.exit_code == 2 and r.stdout == ""
            assert "invalid literal" in json.loads(r.stderr)["error"]


def test_confluent_exit_3(tmp_path):
    conf = tmp_path / "confluent.json"
    conf.write_text(json.dumps({"matrix": [[3, 2], [-4, -3]], "parameters": [0, 0]}))
    r = run("analyze", str(conf))
    assert r.exit_code == 3

    # nonconfluent, but the rows do not span rank 2: no polygon
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps({"matrix": [[1, 0], [-1, 0]], "parameters": ["1/2", "1/3"]}))
    for args in (["analyze"], ["classify"],
                 ["render", "--what", "polygon", "--out", str(tmp_path / "p.svg")]):
        r = run(*args, str(flat))
        assert r.exit_code == 3, (args, r.output)
        assert "rank 2" in json.loads(r.stderr)["error"]

    # two parallel rows: confluent and no atomic rank, so solve has no rank
    par = tmp_path / "parallel.json"
    par.write_text(json.dumps({"matrix": [[1, 0], [2, 0]], "parameters": ["1/2", "1/3"]}))
    for args in ([], ["--window", "8"]):
        r = run("solve", str(par), *args)
        assert r.exit_code == 3, r.output
        assert "error" in json.loads(r.stderr)


def test_negative_window_exit_2(tmp_path):
    for args in (["analyze", SIMPLEX, "--window", "-3"],
                 ["solve", SIMPLEX, "--window", "-3"],
                 ["series", EX21, "--submatrix", "1,2", "--window", "-1"],
                 ["render", SIMPLEX, "--what", "supports", "--window", "-3",
                  "--out", str(tmp_path / "s.svg")]):
        r = run(*args)
        assert r.exit_code == 2, (args, r.output)
        assert "nonnegative" in json.loads(r.stderr)["error"]


def test_one_solution_pass_per_command(monkeypatch, tmp_path):
    """Each command computes each part of its report at most once, and only
    the parts it prints, wherever a module refers to the function that
    computes it.  Each builds one `Report` and takes the rank
    (`counting.system_rank`) at most once; `check_constructive` is counted
    too: a command that prints solutions gets its report from it, and the
    report grows them on its one session (`series.Growth`)."""
    from hornkit.counting import system_rank
    from hornkit.polygon import build_polygon
    from hornkit.series import Growth, harvest_polynomials
    from hornkit.solver import Report, check_constructive, persistent_solutions
    from hornkit.system import detect_resonance

    calls = Counter()
    for cls in (Growth, Report):
        def counted_init(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
            calls[_cls.__name__] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted_init)
    for fn in (persistent_solutions, harvest_polynomials, check_constructive,
               build_polygon, detect_resonance, system_rank):
        def counted(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.startswith("hornkit"):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        monkeypatch.setattr(mod, attr, counted)
    solutions = {"persistent_solutions": 1, "harvest_polynomials": 1, "check_constructive": 1,
                 "Growth": 1, "Report": 1, "system_rank": 1}
    expected = {
        ("rank",): {"Report": 1, "system_rank": 1},
        ("classify",): {"Report": 1, "build_polygon": 1},
        ("solve", "--window", "12"): solutions,
        ("solve",): solutions,
        ("render", "--what", "supports", "--window", "12", "--out", str(tmp_path / "s.svg")):
            solutions,
        ("analyze", "--window", "12"): {**solutions, "build_polygon": 1, "detect_resonance": 1},
        ("analyze",): {**solutions, "build_polygon": 1, "detect_resonance": 1},
    }
    for (command, *options), want in expected.items():
        calls.clear()
        r = run(command, SIMPLEX, *options)
        assert r.exit_code == 0, (command, r.output)
        assert calls == want, (command, options, calls)


def test_atomic_pairs_and_nonconfluence_once_per_system(monkeypatch):
    """One `analyze` and one `solve` find each system's atomic pairs and
    decide its nonconfluence once, however often `enumerate_atomic` and
    `check_nonconfluent` are called."""
    import hornkit.system as system

    computed, called = Counter(), Counter()
    for name in ("_atomic_pairs", "_rows_sum_to_zero"):
        def counted(s, _fn=getattr(system, name), _name=name):
            computed[_name, id(s)] += 1
            return _fn(s)

        monkeypatch.setattr(system, name, counted)
    for fn in (system.enumerate_atomic, system.check_nonconfluent):
        def wrapped(s, _fn=fn):
            called[_fn.__name__] += 1
            return _fn(s)

        for name, mod in list(sys.modules.items()):
            if name.startswith("hornkit"):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        monkeypatch.setattr(mod, attr, wrapped)
    for command in ("analyze", "solve"):
        for path in (ZONO, SIMPLEX, EX21):
            computed.clear()
            called.clear()
            r = run(command, path, "--window", "6")
            assert r.exit_code == 0, r.output
            assert computed and set(computed.values()) == {1}, (command, path, computed)
            assert called["enumerate_atomic"] > 1 and called["check_nonconfluent"] > 1, called


def test_solve_builds_fractions_for_persistent_solutions_alone(monkeypatch, tmp_path):
    """`solve` on the zonotope, triangle_sides and triangle_simplex fixtures
    and their dilations by 2 writes every grown solution from its integers:
    the Fraction terms are built for no solution, persistent or harvested;
    the persistent sort reads the leading exponents alone."""
    from hornkit.puiseux import _GrownPolynomial

    built = []
    build = _GrownPolynomial._build_terms

    def counted(self):
        built.append(id(self))
        build(self)

    monkeypatch.setattr(_GrownPolynomial, "_build_terms", counted)
    for name in ("zonotope", "triangle_sides", "triangle_simplex"):
        system = json.loads((FIXTURES / f"{name}.json").read_text())
        for k in (1, 2):
            path = tmp_path / f"{name}x{k}.json"
            path.write_text(json.dumps({**system, "matrix": [[k * a, k * b]
                                                             for a, b in system["matrix"]]}))
            built.clear()
            r = run("solve", str(path))
            assert r.exit_code == 0, r.output
            solutions = json.loads(r.output)["solutions"]
            npersistent = sum(sol["persistent"] for sol in solutions)
            assert built == [] and 0 < npersistent < len(solutions), (name, k)


def test_solve_atomic_example():
    r = run("solve", ATOMIC, "--window", "16")
    assert r.exit_code == 0, r.output
    d = json.loads(r.output)
    # 6 monomials + the binomial + the 4-term completion; the one fully
    # supported branch collapses onto the monomial 1 at zero parameters
    assert d["rank"] == 9
    persistent = [s for s in d["solutions"] if s["persistent"]]
    assert len(persistent) == 8
    sizes = sorted(len(s["terms"]) for s in persistent)
    assert sizes == [1, 1, 1, 1, 1, 1, 2, 4]
    assert all(s["verified"] for s in d["solutions"])
    binom = next(s for s in d["solutions"] if len(s["terms"]) == 2)
    assert [t["coefficient"] for t in binom["terms"]] == ["1", "-1/3"]


def test_solve_atomic_default_window():
    # no --window: the window comes from the atomic rank
    r = run("solve", ATOMIC)
    assert r.exit_code == 0, r.output
    d = json.loads(r.output)
    assert d["window"] == 4 * (9 + 2 * 4)
    assert d["rank"] == 9
    assert len(d["solutions"]) == 8
    assert all(s["verified"] for s in d["solutions"])


def test_solve_triangle_simplex():
    r = run("solve", SIMPLEX, "--window", "12")
    d = json.loads(r.output)
    assert len(d["solutions"]) == 4
    assert d["rank_attained"] is True


def test_solve_zonotope_reaches_rank():
    r = run("solve", ZONO, "--window", "20")
    d = json.loads(r.output)
    assert len(d["solutions"]) == 31
    assert d["rank_attained"] is True


def test_rank_and_classify():
    r = run("rank", ZONO)
    assert json.loads(r.output)["rank"] == 31
    r = run("classify", TRI)
    d = json.loads(r.output)
    assert d["classification"]["kind"] == "TrianglePlusSegments"
    assert d["maximally_reducible"] is True


def test_series_listing_and_table():
    r = run("series", EX21)
    d = json.loads(r.output)
    assert len(d["branches"]) == 3  # three unordered pairs, each |det| = 1
    r = run("series", EX21, "--submatrix", "1,2", "--window", "3")
    d = json.loads(r.output)
    assert d["initial_exponent"] == ["-1/3", "-1/5"]
    coeffs = {tuple(c["offset"]): c["value"] for c in d["coefficients"]}
    assert coeffs[(0, 0)] == "1"
    # the pair in either order prints the same table; a repeated row is no pair
    assert run("series", EX21, "--submatrix", "2,1", "--window", "3").output == r.output
    r = run("series", EX21, "--submatrix", "1,1")
    assert r.exit_code == 2 and "degenerate" in json.loads(r.stderr)["error"]
    for branch in ("99", "-1"):
        r = run("series", EX21, "--submatrix", "0,1", "--branch", branch)
        assert r.exit_code == 2 and r.stdout == ""
        assert json.loads(r.stderr)["error"] == f"branch {branch} out of range 0..0"

    # --branch and --window select a table: without --submatrix they are
    # refused, not ignored
    for extra in (["--branch", "7"], ["--window", "3"], ["--branch", "0", "--window", "8"]):
        r = run("series", EX21, *extra)
        assert r.exit_code == 2 and r.stdout == ""
        error = json.loads(r.stderr)["error"]
        assert "--submatrix" in error and all(x in error for x in extra if x.startswith("--"))


def _table_oracle(path, pair, branch, window) -> str:
    """The report of a series table as `json.dumps` wrote it before the
    table text was written record by record."""
    from hornkit.puiseux import format_rational
    from hornkit.series import series_from_submatrix
    from hornkit.system import HornSystem

    with open(path) as fh:
        s = HornSystem.from_json(json.load(fh))
    t = series_from_submatrix(s, pair, branch, window)
    return json.dumps({
        "name": s.name,
        "subsystem": list(t.indices),
        "branch": branch,
        "initial_exponent": [format_rational(t.alpha0[0]), format_rational(t.alpha0[1])],
        "window": window,
        "coefficients": [
            {"offset": [d1, d2], "value": str(num) if den == 1 else f"{num}/{den}"}
            for (d1, d2), (num, den) in sorted(t.coeffs.items())
        ],
    }, indent=1) + "\n"


def test_series_collision_error_text(tmp_path):
    """A table that meets a resonant collision exits 3 and names the point
    as rationals, as every report writes them."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"matrix": [[-1, -3], [-1, -1], [3, -1], [0, 2], [-1, 3]],
                                "parameters": ["-1", "0", "-6", "2", "0"]}))
    r = run("series", str(path), "--submatrix", "2,3", "--branch", "4", "--window", "6")
    assert r.exit_code == 3, r.output
    assert r.stdout == ""
    assert r.stderr == '{"error": "resonant collision at (1, -2)"}\n'


def test_series_table_text_is_the_json_encoders():
    # every table of the series-tables benchmark fixtures, at small windows
    tables = 0
    for name in ("quadrilateral", "simplicial22", "example21", "example31"):
        path = str(FIXTURES / f"{name}.json")
        rows = json.loads(Path(path).read_text())["matrix"]
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                det = abs(rows[i][0] * rows[j][1] - rows[i][1] * rows[j][0])
                for branch in range(det):
                    for window in (0, 1, 8):
                        r = run("series", path, "--submatrix", f"{i},{j}",
                                "--branch", str(branch), "--window", str(window))
                        assert r.exit_code == 0, r.output
                        assert r.stdout == _table_oracle(path, (i, j), branch, window)
                        tables += 1
    assert tables == 3 * 40


def _capture_payloads(monkeypatch) -> list:
    """Record every payload that reaches `cli._emit`, and still emit it."""
    import hornkit.cli as cli

    payloads = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda payload, out: (payloads.append(payload),
                                                            emit(payload, out)))
    return payloads


def _oracle_payload(payload: dict) -> dict:
    """payload with each list that the writer renders from records
    (`cli._Records`) built as plain JSON values, apart from the records'
    text: a solution's terms by `PuiseuxPolynomial.to_json` of its Fraction
    terms, a table's values by `format_rational`."""
    import hornkit.cli as cli
    from conftest import as_fraction
    from hornkit.puiseux import PuiseuxPolynomial, format_rational

    out = dict(payload)
    for key, value in payload.items():
        if not isinstance(value, cli._Records):
            continue
        if key == "coefficients":
            out[key] = [{"offset": list(d), "value": format_rational(as_fraction(pair))}
                        for d, pair in value.items]
        else:
            assert key in ("solutions", "persistent_solutions"), key
            out[key] = [{"terms": PuiseuxPolynomial(p.terms).to_json(),
                         "persistent": persistent, "verified": True}
                        for p, persistent in value.items]
    return out


def _assert_oracle_text(r, payloads, args):
    """The one payload of a command that exited 0 is what its stdout
    says, byte for byte as `json.dumps(..., indent=1)` writes it."""
    assert r.exit_code == 0, (args, r.output)
    (payload,) = payloads
    assert r.stdout == json.dumps(_oracle_payload(payload), indent=1) + "\n", args
    return payload


def test_reports_are_the_json_encoders(monkeypatch, tmp_path):
    """Every JSON report, of every command on every fixture, is byte for
    byte `json.dumps(payload, indent=1)` and a newline: on Python 3.13 the
    encoder's C path, before it the pure-Python one.  The lists written
    from records are built by `_oracle_payload`."""
    payloads = _capture_payloads(monkeypatch)
    names = sorted(path.stem for path in FIXTURES.glob("*.json"))
    assert len(names) == 8
    reports = Counter()
    for name in names:
        path = str(FIXTURES / f"{name}.json")
        commands = [("analyze", path), ("analyze", path, "--allow-confluent"), ("solve", path),
                    ("rank", path), ("classify", path), ("series", path),
                    ("suggest-params", path, "--bound", "1", "--window", "6")]
        while commands:
            args = commands.pop(0)
            payloads.clear()
            r = run(*args)
            if r.exit_code:
                assert r.exit_code == 3 and not payloads, (args, r.output)
                continue
            payload = _assert_oracle_text(r, payloads, args)
            label = args[0] if args[0] != "verify" else f"verify {payload['is_solution']}"
            reports[label] += 1
            if args[0] == "solve":
                # a solution found, if any, and one that fails
                solutions = json.loads(r.stdout)["solutions"]
                terms = solutions[0]["terms"] if solutions else []
                for kind, extra in (("good", []), ("bad", [
                        {"exponent": ["1/7", "2/7"], "coefficient": "-3/5"}])):
                    if terms or extra:
                        sol = tmp_path / f"{name}.{kind}.json"
                        sol.write_text(json.dumps({"terms": terms + extra}))
                        commands.append(("verify", path, "--solution", str(sol)))
    assert reports["verify False"] == reports["solve"] == 8, reports
    assert reports["verify True"] == 6, reports
    assert all(reports[c] for c in ("analyze", "rank", "classify", "series", "suggest-params"))


def test_solutions_at_resonant_parameters_are_the_oracles(monkeypatch, tmp_path):
    """`solve` and `analyze` on seeded `random_nonconfluent_system` rows at
    integer parameters, where supports close off, write their solutions
    as `_oracle_payload` builds them: persistent and harvested ones, on
    integer and fractional exponent classes."""
    import random

    from conftest import random_nonconfluent_system

    payloads = _capture_payloads(monkeypatch)
    path = tmp_path / "system.json"
    seen = Counter()
    for seed in range(30):
        rows = random_nonconfluent_system(random.Random(seed), max_m=5).rows
        rng = random.Random(10000 + seed)
        path.write_text(json.dumps({"name": f"seed {seed}", "matrix": [[r.a, r.b] for r in rows],
                                    "parameters": [rng.randint(-6, 4) for _ in rows]}))
        for args in (("solve", str(path), "--window", "8"),
                     ("analyze", str(path), "--window", "8")):
            payloads.clear()
            payload = _assert_oracle_text(run(*args), payloads, args)
            key = "solutions" if args[0] == "solve" else "persistent_solutions"
            for p, persistent in payload[key].items:
                seen["persistent" if persistent else "harvested"] += 1
                seen["fractional" if p.key[1] * p.key[3] > 1 else "integer"] += 1
    assert seen["persistent"] > 50 and seen["harvested"] > 20, seen
    assert seen["fractional"] > 20 and seen["integer"] > 20, seen


@pytest.mark.parametrize("name", ['"solutions": []', '"coefficients": []', 'say "hi" \\ back\\',
                                  "d\u00e9j\u00e0 \u6f22\u5b57 \U0001f600 \"solutions\": [\n ]"])
def test_names_that_look_like_report_text(name, monkeypatch, tmp_path):
    """A system name holding report text, quotes, backslashes or non-ASCII
    text is escaped as the encoder escapes it, in every report that lists
    records: nothing is spliced by searching the rendered text."""
    payloads = _capture_payloads(monkeypatch)
    doc = json.loads(Path(SIMPLEX).read_text())
    path = tmp_path / "system.json"
    path.write_text(json.dumps({**doc, "name": name}))
    for args in (("solve", str(path), "--window", "6"), ("analyze", str(path), "--window", "6"),
                 ("series", str(path), "--submatrix", "0,1", "--window", "2")):
        payloads.clear()
        payload = _assert_oracle_text(run(*args), payloads, args)
        assert payload["name"] == name
        assert json.loads(run(*args).stdout)["name"] == name


_WRITER_CASES = [
    {"name": 'a "quoted" name'}, {"name": "back\\slash\\"},
    {"name": "".join(map(chr, range(32))) + "\x7f"}, {"name": "d\u00e9j\u00e0 \u6f22\u5b57 \U0001f600"},
    {"name": "lone \ud800 surrogate"}, [], {}, [[]], {"a": [], "b": {}, "c": [[], [{}], {"d": []}]},
    [None, True, False, 0, -12, 10**40, ""], {"": {"": ""}}, "top-level string", 7, None,
]


@pytest.mark.parametrize("payload", _WRITER_CASES)
def test_json_writer_edge_cases(payload):
    from hornkit.cli import _json_text

    assert _json_text(payload) == json.dumps(payload, indent=1) + "\n"


@pytest.mark.parametrize("payload", [1.5, float("inf"), (1, 2), {"a": (1,)}, {1: "a"},
                                     [b"x"], {"a": {1, 2}}, [Fraction(1, 2)]])
def test_json_writer_rejects_other_types(payload):
    from hornkit.cli import _json_text

    with pytest.raises(TypeError):
        _json_text(payload)


def test_names_are_escaped_as_the_encoder_does(tmp_path):
    path = tmp_path / "system.json"
    doc = json.loads(Path(ZONO).read_text())
    for case in _WRITER_CASES[:5]:
        path.write_text(json.dumps({**doc, **case}))
        r = run("rank", str(path))
        assert r.exit_code == 0, r.output
        assert r.stdout == json.dumps({"name": case["name"], "rank": 31}, indent=1) + "\n"


def test_system_name_must_be_a_string(tmp_path):
    """A name that is no JSON string exits 2 with a JSON error, where it
    was echoed into the report: 1.5e400, which JSON reads as infinity, came
    out as `"name": Infinity`, which is no JSON.  An absent name is ""."""
    path = tmp_path / "system.json"
    doc = json.loads(Path(ZONO).read_text())
    for raw in ("1.5e400", "7", '{"a": 1}', '["x"]', "true", "null"):
        path.write_text(json.dumps({**doc, "name": "@"}).replace('"@"', raw))
        for cmd in ("rank", "analyze", "solve"):
            r = run(cmd, str(path))
            assert r.exit_code == 2, (raw, cmd, r.output)
            assert "name must be a JSON string" in json.loads(r.stderr)["error"]
    del doc["name"]
    path.write_text(json.dumps(doc))
    r = run("rank", str(path))
    assert r.exit_code == 0 and json.loads(r.stdout) == {"name": "", "rank": 31}


def test_out_file_matches_stdout(tmp_path):
    out = tmp_path / "out.json"
    for args in (["series", QUAD, "--submatrix", "0,1", "--branch", "1"], ["analyze", EX21]):
        r = run(*args)
        assert r.exit_code == 0, r.output
        r_out = run(*args, "--out", str(out))
        assert r_out.exit_code == 0 and r_out.stdout_bytes == b""
        assert out.read_bytes() == r.stdout_bytes
        out.unlink()


def test_series_table_past_the_digit_limit():
    # at window 60 the quadrilateral's coefficients pass 4,300 digits, the
    # default limit of int/str conversion
    import decimal

    from conftest import as_pair, evaluator_at, grow_full
    from hornkit.puiseux import format_rational, parse_rational
    from hornkit.series import TruncatedSeries, verify_truncated
    from hornkit.system import HornSystem

    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    context = decimal.getcontext()
    prec, traps = context.prec, dict(context.traps)
    r = run("series", QUAD, "--submatrix", "0,1", "--branch", "0", "--window", "60")
    assert r.exit_code == 0, r.output[-300:]
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    assert decimal.getcontext().prec == prec and dict(decimal.getcontext().traps) == traps
    assert r.stdout == _table_oracle(QUAD, (0, 1), 0, 60)
    d = json.loads(r.output)
    assert max(len(c["value"]) for c in d["coefficients"]) > 4300
    alpha0 = tuple(parse_rational(x) for x in d["initial_exponent"])
    t = TruncatedSeries(tuple(d["subsystem"]), d["branch"], alpha0,
                        {tuple(c["offset"]): as_pair(parse_rational(c["value"]))
                         for c in d["coefficients"]}, d["window"])
    with open(QUAD) as fh:
        s = HornSystem.from_json(json.load(fh))
    assert verify_truncated(t, s)
    # the text is format_rational of the value the Fraction grower gives
    grown = grow_full(evaluator_at(s, alpha0), 60)
    assert [(tuple(c["offset"]), c["value"]) for c in d["coefficients"]] == \
        [(p, format_rational(v)) for p, v in sorted(grown.values.items())]


def test_series_listing_large_determinant(tmp_path):
    # four row pairs of |det| 3000: each class's base point in closed form
    path = tmp_path / "g3000.json"
    path.write_text(json.dumps({"matrix": [[3000, 0], [-3000, 0], [0, 1], [0, -1]],
                                "parameters": [0, 0, 0, 0]}))
    start = time.perf_counter()
    r = run("series", str(path))
    assert time.perf_counter() - start < 5.0
    assert r.exit_code == 0, r.output
    branches = json.loads(r.output)["branches"]
    assert len(branches) == 4 * 3000
    assert {tuple(b["base_point"]) for b in branches} == {(k, 0) for k in range(3000)}


def test_verify_command(tmp_path):
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps({"terms": [
        {"exponent": ["0", "0"], "coefficient": "4"},
        {"exponent": ["1", "0"], "coefficient": "2"},
        {"exponent": ["0", "1"], "coefficient": "2"},
        {"exponent": ["1", "1"], "coefficient": "6"},
        {"exponent": ["2", "1"], "coefficient": "1"},
        {"exponent": ["1", "2"], "coefficient": "1"},
    ]}))
    r = run("verify", SIMPLEX, "--solution", str(sol))
    d = json.loads(r.output)
    assert d["is_solution"] is True
    assert d["is_persistent"] is False

    # the same solution scaled by a 5,000-digit integer
    big = tmp_path / "big.json"
    terms = json.loads(sol.read_text())["terms"]
    for term in terms:
        term["coefficient"] += "0" * 5000
    big.write_text(json.dumps({"terms": terms}))
    r = run("verify", SIMPLEX, "--solution", str(big))
    assert r.exit_code == 0, r.output
    assert json.loads(r.output)["is_solution"] is True

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"terms": [{"exponent": ["1", "0"], "coefficient": "1"}]}))
    r = run("verify", SIMPLEX, "--solution", str(bad))
    d = json.loads(r.output)
    assert d["is_solution"] is False
    assert len(d["residuals"]) >= 1


def test_verify_rejects_a_repeated_exponent(tmp_path):
    """The solution of `test_verify_command` with (0, 0) listed twice, as
    "0" and as "0/1", with coefficient 4 each time: the polynomial written
    has 8 there and is no solution, and keeping either term alone would call
    it one.  The file is refused, naming the exponent."""
    sol = tmp_path / "sol.json"
    terms = [{"exponent": ["0", "0"], "coefficient": "4"},
             {"exponent": ["1", "0"], "coefficient": "2"},
             {"exponent": ["0", "1"], "coefficient": "2"},
             {"exponent": ["1", "1"], "coefficient": "6"},
             {"exponent": ["2", "1"], "coefficient": "1"},
             {"exponent": ["1", "2"], "coefficient": "1"},
             {"exponent": ["0/1", "0"], "coefficient": "4"}]
    sol.write_text(json.dumps({"terms": terms}))
    r = run("verify", SIMPLEX, "--solution", str(sol))
    assert r.exit_code == 2 and r.stdout == "", r.output
    assert "exponent (0, 0) is listed twice" in json.loads(r.stderr)["error"]
    # the polynomial written, with 8 at (0, 0), is no solution
    sol.write_text(json.dumps({"terms": [{**terms[0], "coefficient": "8"}] + terms[1:-1]}))
    r = run("verify", SIMPLEX, "--solution", str(sol))
    assert r.exit_code == 0 and json.loads(r.output)["is_solution"] is False


@pytest.mark.parametrize("exponent, got", [
    ("12", "a str"),  # once read as the exponent (1, 2)
    ({"1": 0, "2": 0}, "a dict"),  # once read as its keys, (1, 2)
    (["1"], "a list of 1"),
    (["1", "2", "3"], "a list of 3"),
], ids=["string", "object", "one-item-list", "three-item-list"])
def test_verify_rejects_an_exponent_not_a_pair(exponent, got, tmp_path):
    """An exponent must be a JSON list of exactly two rationals: anything
    else exits 2 with a JSON error naming the term, here the second."""
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps({"terms": [{"exponent": ["0", "0"], "coefficient": "1"},
                                         {"exponent": exponent, "coefficient": "1"}]}))
    r = run("verify", SIMPLEX, "--solution", str(sol))
    assert r.exit_code == 2 and r.stdout == "", r.output
    error = json.loads(r.stderr)["error"]
    assert f"term 1: the exponent must be a list of two rationals, got {got}" in error


# Each integer option, as a value that makes a valid run and the arguments
# of that run with the value in place of "{}".
INTEGER_OPTIONS = {
    "window": (3, ["solve", SIMPLEX, "--window", "{}"]),
    "branch": (0, ["series", EX21, "--submatrix", "0,1", "--branch", "{}"]),
    "bound": (1, ["suggest-params", SIMPLEX, "--bound", "{}", "--window", "4"]),
    "submatrix-first": (0, ["series", EX21, "--submatrix", "{},1", "--window", "2"]),
    "submatrix-second": (1, ["series", EX21, "--submatrix", "0,{}", "--window", "2"]),
}
# Spellings that int() reads as n but `parse_rational` refuses, such as
# --window 1_0, --bound with an Arabic-Indic one, or --submatrix ' 0 , 1 '.
COERCED_SPELLINGS = {
    "arabic-indic-digits": lambda n: str(n).translate({48 + d: 0x660 + d for d in range(10)}),
    "fullwidth-digits": lambda n: str(n).translate({48 + d: 0xFF10 + d for d in range(10)}),
    "underscore": lambda n: f"0_{n}",
    "spaces": lambda n: f" {n} ",
}


@pytest.mark.parametrize("spelling", sorted(COERCED_SPELLINGS))
@pytest.mark.parametrize("option", sorted(INTEGER_OPTIONS))
def test_integer_options_read_ascii_digits_only(option, spelling):
    """--window, --branch, --bound and both halves of --submatrix read an
    integer as `parse_rational` does, ASCII digits with an optional sign:
    a spelling that int() would coerce exits 2 with a JSON error, where the
    ASCII spelling of the same value runs."""
    n, args = INTEGER_OPTIONS[option]
    text = COERCED_SPELLINGS[spelling](n)
    assert int(text) == n and text != str(n)
    r = run(*(a.format(text) for a in args))
    assert r.exit_code == 2 and r.stdout == "", (option, text, r.output)
    assert text in json.loads(r.stderr)["error"]
    r = run(*(a.format(n) for a in args))
    assert r.exit_code == 0, (option, r.output)


def test_json_numbers_past_the_digit_limit(tmp_path):
    # JSON number literals, not strings, past the 4,300-digit limit of
    # int/str conversion: a coefficient of the solution file and a parameter
    # of the system file
    sol = tmp_path / "sol.json"
    sol.write_text('{"terms": [{"exponent": ["-1", "-1"], "coefficient": 1%s}]}' % ("0" * 5000))
    r = run("verify", SIMPLEX, "--solution", str(sol))
    assert r.exit_code == 0, r.output
    assert json.loads(r.output)["is_solution"] is True
    system = tmp_path / "system.json"
    system.write_text('{"matrix": [[1, 1], [1, -2], [-2, 1]], "parameters": [%s, -1, -1]}'
                      % ("7" * 5000))
    r = run("rank", str(system))
    assert r.exit_code == 0, r.output
    assert json.loads(r.output)["rank"] == 4


def test_verify_persistent_monomial():
    runner = CliRunner()
    with runner.isolated_filesystem():
        Path("sol.json").write_text(json.dumps({"terms": [
            {"exponent": ["0", "1"], "coefficient": "1"}]}))
        r = runner.invoke(main, ["verify", ZONO, "--solution", "sol.json"])
        d = json.loads(r.output)
        assert d["is_solution"] is True and d["is_persistent"] is True


def test_render_deterministic(tmp_path):
    out1 = tmp_path / "a.svg"
    out2 = tmp_path / "b.svg"
    for out in (out1, out2):
        r = run("render", ZONO, "--what", "polygon", "--out", str(out))
        assert r.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().startswith("<?xml")

    r = run("render", ZONO, "--what", "supports", "--window", "20",
            "--out", str(tmp_path / "s.svg"))
    assert r.exit_code == 0
    assert (tmp_path / "s.svg").stat().st_size > 500


def test_render_unknown_what(tmp_path):
    r = run("render", ZONO, "--what", "amoeba", "--out", str(tmp_path / "x.svg"))
    assert r.exit_code == 2


@pytest.mark.parametrize("args, message", [
    (["analyze", ZONO, "--window", "abc"],
     "Invalid value for '--window': 'abc' is not a valid integer."),
    (["rank", ZONO, "--bogus"], "No such option '--bogus'"),
    (["render", ZONO, "--what", "polygon"], "Missing option '--out'."),
    (["bogus", ZONO], "No such command 'bogus'."),
], ids=["window-not-an-integer", "unknown-option", "render-without-out", "unknown-command"])
def test_click_usage_error_exits_2_with_json(args, message):
    """Click's own usage errors exit 2 with a JSON error, like every other
    error, and write nothing to stdout."""
    r = run(*args)
    assert r.exit_code == 2 and r.stdout == "", (args, r.output)
    assert json.loads(r.stderr)["error"].startswith(message)


def test_bare_command_and_help_print_help():
    """Bare `hornkit` shows the help on stderr and exits 2, as click does;
    `--help`, for the group or a command, shows it on stdout and exits 0.
    The help says what is computed: `rank` prints the rank formula, the
    holonomic rank at generic parameters, and the persistent solutions of
    `analyze`, `solve` and `render` grow at the rank-based radius whatever
    `--window` is."""
    r = run()
    assert r.exit_code == 2 and r.stdout == ""
    assert r.stderr.startswith("Usage: ") and "Commands:" in r.stderr
    for args in (["--help"], ["analyze", "--help"]):
        r = run(*args)
        assert r.exit_code == 0 and r.stderr == "", args
        assert r.stdout.startswith("Usage: ") and "Options:" in r.stdout
    text = " ".join(run("rank", "--help").stdout.split())
    assert "Rank formula: the holonomic rank at generic parameters." in text
    for command in ("analyze", "solve", "render"):
        text = " ".join(run(command, "--help").stdout.split())
        assert "persistent solutions always grow at the rank-based radius" in text, command


def test_main_called_in_process():
    """`main(argv, prog_name=...)` with redirected streams, as an in-process
    caller runs a command: a command returns, a usage error exits 2 with its
    JSON error, and the commands stay reachable as `main.commands`."""
    assert {"analyze", "rank", "render", "series", "solve"} <= set(main.commands)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        main(["rank", ZONO], prog_name="hornkit")
    assert json.loads(out.getvalue())["rank"] == 31 and err.getvalue() == ""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(["rank", ZONO, "--bogus"], prog_name="hornkit")
    assert exc.value.code == 2 and out.getvalue() == ""
    assert "--bogus" in json.loads(err.getvalue())["error"]


def test_reports_go_to_the_stdout_of_each_call():
    """A report is written to `sys.stdout` as it is when the command runs,
    as a benchmark's per-operation capture needs: two in-process calls in
    a row, each under its own redirected stream, each get the whole report
    that the command line prints, and nothing reaches the other."""
    for args in (["solve", SIMPLEX, "--window", "6"], ["analyze", EX21],
                 ["series", QUAD, "--submatrix", "0,1", "--window", "3"]):
        outs = []
        for _ in range(2):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                main(args, prog_name="hornkit")
            outs.append(out.getvalue())
            assert err.getvalue() == ""
        assert outs[0] == outs[1] == run(*args).stdout, args


def test_suggest_params_cli():
    r = run("suggest-params", str(FIXTURES / "quadrilateral.json"))
    assert r.exit_code == 3


def test_suggest_params_bound_below_one_exit_2():
    # checked before the search: the quadrilateral alone would exit 3
    for path in (SIMPLEX, QUAD):
        for bound in ("0", "-2"):
            r = run("suggest-params", path, "--bound", bound)
            assert r.exit_code == 2, (path, bound, r.output)
            assert "--bound must be at least 1" in json.loads(r.stderr)["error"]
    r = run("suggest-params", SIMPLEX, "--bound", "1")
    assert r.exit_code == 0, r.output
    assert json.loads(r.output)["found"] is True


def test_every_fixture_analyzes_quickly():
    import time

    for name in ("zonotope", "triangle_sides", "triangle_simplex", "example21",
                 "example31", "simplicial22", "quadrilateral"):
        t0 = time.monotonic()
        r = run("analyze", str(FIXTURES / f"{name}.json"))
        assert r.exit_code == 0, (name, r.output)
        assert time.monotonic() - t0 < 10.0


def test_round_trip_fixture_files():
    for name in ("zonotope", "triangle_sides", "triangle_simplex", "atomic_32_43",
                 "example21", "example31", "simplicial22", "quadrilateral"):
        path = FIXTURES / f"{name}.json"
        data = json.loads(path.read_text())
        from hornkit.system import HornSystem

        assert HornSystem.from_json(data).to_json() == data


_small = st.integers(-3, 3)
_junk = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.booleans(),
                  st.none(), st.text(max_size=3), st.sampled_from(["1/2", "-3", "1/0", "x/y"]))


@st.composite
def _system_files(draw):
    """JSON system objects: well-formed, degenerate (zero sums, rank-1 rows,
    zero rows) or malformed (wrong types, wrong row lengths, missing keys)."""
    kind = draw(st.sampled_from(["closed", "rank1", "junk"]))
    if kind == "closed":
        rows = draw(st.lists(st.lists(_small, min_size=2, max_size=2), min_size=1, max_size=4))
        rows.append([-sum(r[0] for r in rows), -sum(r[1] for r in rows)])
    elif kind == "rank1":
        d = draw(st.lists(_small, min_size=2, max_size=2))
        ks = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3))
        rows = [[k * d[0], k * d[1]] for k in ks + [-sum(ks)]]
    else:
        rows = draw(st.one_of(_junk, st.lists(
            st.one_of(_junk, st.lists(st.one_of(_small, _junk), max_size=3)), max_size=4)))
    n = len(rows) if isinstance(rows, list) else 2
    params = draw(st.one_of(
        st.lists(st.one_of(st.integers(-4, 4), st.sampled_from(["1/2", "-1/3"])),
                 min_size=n, max_size=n),
        st.lists(st.one_of(_small, _junk), max_size=5),
        _junk))
    data = {"matrix": rows, "parameters": params}
    for key in draw(st.lists(st.sampled_from(["matrix", "parameters"]), max_size=1)):
        del data[key]
    return data


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_system_files())
def test_rank_classify_never_exit_1(tmp_path, data):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(data))
    for cmd in ("rank", "classify"):
        r = run(cmd, str(path))
        assert r.exit_code in (0, 2, 3), (cmd, data, r.exception)
        if r.exit_code:
            assert "error" in json.loads(r.stderr), (cmd, data)
