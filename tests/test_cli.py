"""CLI contract tests: exit codes, report schemas, and SVG output."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import polyceva.cli as cli
from polyceva.ceva import Factor, ProductReport
from polyceva import errors
from polyceva.geometry import line_through

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"

TRIANGLE = CONFIG_DIR / "triangle_centroid.json"
SQUARE = CONFIG_DIR / "square_pivot.json"
COUNTEREXAMPLE = CONFIG_DIR / "pentagon_counterexample.json"
INSCRIBED = CONFIG_DIR / "inscribed_pentagon.json"


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_triangle_golden(self, capsys):
        code, out, _ = run_cli(capsys, "verify", str(TRIANGLE))
        assert code == 0
        report = json.loads(out)
        assert report["product"] == "-1"
        assert report["expected"] == "-1"
        assert report["holds"] is True
        assert len(report["factors"]) == 3

    def test_square_golden(self, capsys):
        code, out, _ = run_cli(capsys, "verify", str(SQUARE))
        assert code == 0
        report = json.loads(out)
        assert report["product"] == "1"
        assert len(report["factors"]) == 8

    def test_inscribed(self, capsys):
        code, out, _ = run_cli(capsys, "verify", str(INSCRIBED))
        assert code == 0
        report = json.loads(out)
        assert report["kind"] == "inscribed"
        assert report["product"] == "-27"
        assert report["expected"] is None
        diag = report["diagnostics"]
        assert diag["lhs_squared"] == diag["rhs_squared"] == "729"

    def test_inscribed_concurrent_pins_expected(self, capsys, tmp_path):
        doc = {
            "kind": "inscribed",
            "radius": "1",
            "params": ["-2", "0", "1/2", "3"],
            "lines": [{"through": ["1/10", "1/10"]}] * 4,
            "s": 1,
            "t": 2,
        }
        path = tmp_path / "quad.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["expected"] == "1"
        assert report["product"] == "1"
        assert report["diagnostics"]["rhs_squared"] == "1"

    def test_verify_dispatches_counterexample_kind(self, capsys):
        code, out, _ = run_cli(capsys, "verify", str(COUNTEREXAMPLE))
        assert code == 0
        assert json.loads(out)["kind"] == "counterexample"

    def test_byte_stable(self, capsys):
        _, first, _ = run_cli(capsys, "verify", str(SQUARE))
        _, second, _ = run_cli(capsys, "verify", str(SQUARE))
        assert first == second

    def test_product_reparses_exactly(self, capsys):
        from polyceva.geometry import parse_rational
        _, out, _ = run_cli(capsys, "verify", str(SQUARE))
        report = json.loads(out)
        assert parse_rational(report["product"]) == F(1)

    def test_pretty_table(self, capsys):
        code, out, _ = run_cli(capsys, "--pretty", "verify", str(SQUARE))
        assert code == 0
        assert "product  1" in out
        assert "holds    yes" in out
        lines = [l for l in out.splitlines() if l.startswith("  ")]
        assert len(lines) == 9  # header plus eight factors

    def test_subcommand_pretty_flag(self, capsys):
        code, out, _ = run_cli(capsys, "verify", str(SQUARE), "--pretty")
        assert code == 0
        assert "holds    yes" in out

    def test_json_flag_overrides_global_pretty(self, capsys):
        code, out, _ = run_cli(capsys, "--pretty", "verify", str(SQUARE), "--json")
        assert code == 0
        json.loads(out)

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "verify", "/nonexistent/nope.json")
        assert code == 2
        assert err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 2
        assert "error" in err

    def test_missing_field(self, capsys, tmp_path):
        doc = json.loads(TRIANGLE.read_text())
        del doc["M"]
        path = tmp_path / "no_pivot.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", str(path))
        assert (code, out, err) == (2, "", "error: missing field 'M'\n")

    def test_invalid_rational(self, capsys, tmp_path):
        doc = json.loads(TRIANGLE.read_text())
        doc["M"] = ["1/0", "1"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 2

    def test_structural_violation(self, capsys, tmp_path):
        doc = json.loads(TRIANGLE.read_text())
        doc["s"] = 2
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, _ = run_cli(capsys, "verify", str(path))
        assert code == 2

    @pytest.mark.parametrize("doc", [
        b'{"kind": "\xff"}',
        b"[" * 100_000 + b"]" * 100_000,
        TRIANGLE.read_bytes().replace(b'"4/3"', b'"' + b"7" * 5000 + b'"', 1),
        TRIANGLE.read_bytes().replace(b'"4"', '"\uff14"'.encode(), 1),
        TRIANGLE.read_bytes().replace(b'"4/3"', b'"4/3\\n"', 1),
        TRIANGLE.read_bytes().replace(b'"M"', b'"M": ["0", "0"], "M"', 1),
        TRIANGLE.read_bytes().replace(b'"s"', b'"extra": 1, "s"', 1),
        json.dumps({"kind": "ceva",
                    "vertices": [[str(k), str(k * k)] for k in range(257)],
                    "M": ["1/2", "1/3"], "s": 128, "t": 1}).encode(),
    ], ids=["bad-utf8", "deep-nesting", "5000-digits", "fullwidth-digit",
            "trailing-newline", "duplicate-key", "unknown-key",
            "257-vertices"])
    def test_hostile_input_exits_two(self, capsys, tmp_path, doc):
        path = tmp_path / "hostile.json"
        path.write_bytes(doc)
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_file_over_byte_limit_read_in_part(self, capsys, monkeypatch,
                                               tmp_path):
        from polyceva.configio import MAX_BYTES
        seen = []
        parse = cli.parse_config
        monkeypatch.setattr(cli, "parse_config",
                            lambda data: seen.append(len(data)) or parse(data))
        path = tmp_path / "long.json"
        path.write_bytes(TRIANGLE.read_bytes() + b" " * (3 * MAX_BYTES))
        code, out, err = run_cli(capsys, "verify", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: config is longer than {MAX_BYTES} bytes\n"
        assert seen == [MAX_BYTES + 1]

    @pytest.mark.parametrize("size", [2**16 - 1, 2**16, 2**16 + 1, "max"])
    def test_file_read_in_full(self, capsys, monkeypatch, tmp_path, size):
        """Files around the first read's 64 KiB, and one of exactly
        MAX_BYTES, are read in full and verify as the config they pad."""
        from polyceva.configio import MAX_BYTES
        size = MAX_BYTES if size == "max" else size
        seen = []
        parse = cli.parse_config
        monkeypatch.setattr(cli, "parse_config",
                            lambda data: seen.append(len(data)) or parse(data))
        text = TRIANGLE.read_bytes()
        path = tmp_path / "padded.json"
        path.write_bytes(text + b" " * (size - len(text)))
        _, want, _ = run_cli(capsys, "verify", str(TRIANGLE))
        assert run_cli(capsys, "verify", str(path)) == (0, want, "")
        assert seen == [len(text), size]

    def test_file_one_byte_over_limit(self, capsys, tmp_path):
        from polyceva.configio import MAX_BYTES
        text = TRIANGLE.read_bytes()
        path = tmp_path / "long.json"
        path.write_bytes(text + b" " * (MAX_BYTES + 1 - len(text)))
        code, out, err = run_cli(capsys, "verify", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: config is longer than {MAX_BYTES} bytes\n"

    def test_degenerate_exits_three(self, capsys, tmp_path):
        doc = json.loads(TRIANGLE.read_text())
        doc["M"] = ["0", "2"]
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 3
        assert "degenerate" in err

    def test_identity_failure_exits_one(self, capsys, monkeypatch):
        # Unreachable with real geometry; force a bad report to pin the
        # exit-code contract.
        def broken(cfg):
            return ProductReport((Factor(1, 2, F(1)),), F(-1))
        monkeypatch.setattr(cli, "ceva_product", broken)
        code, out, _ = run_cli(capsys, "verify", str(TRIANGLE))
        assert code == 1
        assert json.loads(out)["holds"] is False


    def test_internal_error_exits_four(self, capsys, monkeypatch):
        """An unexpected exception is a bug, not a verdict: exit 4 and one
        line on stderr, never exit 1 or a traceback."""
        def broken(cfg):
            raise RuntimeError("kernel fault\nsecond line")
        monkeypatch.setattr(cli, "ceva_product", broken)
        code, out, err = run_cli(capsys, "verify", str(TRIANGLE))
        assert code == 4
        assert out == ""
        assert err == "internal error: RuntimeError('kernel fault\\nsecond line')\n"

    def test_helper_value_error_exits_four(self, capsys, monkeypatch):
        """A helper called outside its domain raises ValueError; no
        command does that, so it is a bug: exit 4, one line on stderr."""
        def broken(cfg):
            return line_through(cfg.pivot, cfg.pivot)
        monkeypatch.setattr(cli, "ceva_product", broken)
        code, out, err = run_cli(capsys, "verify", str(TRIANGLE))
        assert (code, out) == (4, "")
        assert err.startswith("internal error: ValueError('no unique line ")
        assert err.count("\n") == 1 and err.endswith("')\n")

    @pytest.mark.parametrize("cls", [
        pytest.param(cls, id=name) for name, cls in vars(errors).items()
        if isinstance(cls, type) and cls.__module__ == errors.__name__])
    def test_each_error_class_exit_code(self, capsys, monkeypatch, cls):
        """Each class in polyceva.errors is in one family, which fixes
        its exit code and stderr prefix."""
        malformed = issubclass(cls, errors.ConfigError)
        assert malformed != issubclass(cls, errors.GeometryError)
        exc = cls("boom")

        def broken(cfg):
            raise exc
        monkeypatch.setattr(cli, "ceva_product", broken)
        code, out, err = run_cli(capsys, "verify", str(TRIANGLE))
        if malformed:
            assert (code, out, err) == (2, "", f"error: {exc}\n")
        else:
            assert (code, out, err) == (3, "", f"degenerate: {exc}\n")


def _thousand_digit_triangle(tmp_path) -> Path:
    """A ceva triangle whose parts all have 1000 digits, the most
    parse_rational takes; its factors have over 4300."""
    rnd = random.Random(2026)

    def part() -> str:
        num, den = (rnd.randrange(10 ** 999, 10 ** 1000) for _ in range(2))
        return f"{num}/{den}"

    path = tmp_path / "triangle.json"
    path.write_text(json.dumps({
        "kind": "ceva", "vertices": [[part(), part()] for _ in range(3)],
        "M": [part(), part()], "s": 1, "t": 1}))
    return path


class TestIntStringLimit:
    """Decimal conversion does not depend on Python's int-string limit
    (4300 digits by default, PYTHONINTMAXSTRDIGITS down to 640)."""

    def test_thousand_digit_triangle_verifies(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "verify",
                                 str(_thousand_digit_triangle(tmp_path)))
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["holds"] is True
        assert max(len(p) for f in report["factors"]
                   for p in f["value"].split("/")) > 4300

    def test_same_bytes_at_the_lowest_limit(self, capsys, tmp_path):
        path = _thousand_digit_triangle(tmp_path)
        cli.main(["verify", str(path)])
        expected = capsys.readouterr().out
        env = dict(os.environ, PYTHONINTMAXSTRDIGITS="640")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
        proc = subprocess.run([sys.executable, "-m", "polyceva", "verify", str(path)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == expected


    def test_long_part_in_a_message_at_the_lowest_limit(self, tmp_path):
        radius = "-" + "9" * 1000
        path = tmp_path / "radius.json"
        path.write_text(json.dumps({
            "kind": "inscribed", "radius": radius, "params": ["0", "1", "2"],
            "lines": [{"second_param": "5"}] * 3, "s": 1, "t": 1}))
        env = dict(os.environ, PYTHONINTMAXSTRDIGITS="640")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
        proc = subprocess.run([sys.executable, "-m", "polyceva", "verify", str(path)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr == f"error: radius must be positive, got {radius}\n"


class TestCounterexampleCommand:
    def test_golden(self, capsys):
        code, out, _ = run_cli(capsys, "counterexample", str(COUNTEREXAMPLE))
        assert code == 0
        report = json.loads(out)
        assert report["product"] == "-1"
        assert report["concurrent"] is False
        assert report["holds"] is True
        assert report["K"] == "-3/2"
        assert report["branch"] in ("1/K", "2/K")
        assert len(report["factors"]) == 5

    def test_requires_counterexample_kind(self, capsys):
        code, _, err = run_cli(capsys, "counterexample", str(TRIANGLE))
        assert code == 2
        assert "kind" in err

    def test_degenerate_pentagon(self, capsys, tmp_path):
        doc = json.loads(COUNTEREXAMPLE.read_text())
        doc["vertices"][2] = ["2", "2"]  # vertex collides with pivot path
        doc["M"] = ["1", "1"]
        doc["vertices"][0] = ["0", "0"]
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps(doc))
        code, _, _ = run_cli(capsys, "counterexample", str(path))
        assert code == 3

    def test_pretty(self, capsys):
        code, out, _ = run_cli(capsys, "counterexample", str(COUNTEREXAMPLE),
                               "--pretty")
        assert code == 0
        assert "K = -3/2" in out
        assert "concurrent: False" in out


class TestFuzzCommand:
    def test_small_batch(self, capsys):
        code, out, _ = run_cli(capsys, "fuzz", "--trials", "20", "--kind",
                               "ceva", "--seed", "7")
        assert code == 0
        report = json.loads(out)
        assert report["failures"] == []
        assert report["trials_completed"] == 20

    def test_inscribed_kind(self, capsys):
        code, out, _ = run_cli(capsys, "fuzz", "--trials", "8", "--kind",
                               "inscribed", "--seed", "7", "--n-max", "6")
        assert code == 0
        assert json.loads(out)["kind"] == "inscribed"

    def test_concurrent_kind(self, capsys):
        code, out, _ = run_cli(capsys, "fuzz", "--trials", "6", "--kind",
                               "concurrent", "--seed", "7", "--n-max", "5")
        assert code == 0
        assert json.loads(out)["failures"] == []

    def test_zero_trials(self, capsys):
        code, out, _ = run_cli(capsys, "fuzz", "--trials", "0")
        assert code == 0
        report = json.loads(out)
        assert report["trials_requested"] == 0
        assert report["failures"] == []

    def test_bad_bounds(self, capsys):
        code, _, err = run_cli(capsys, "fuzz", "--trials", "5",
                               "--n-min", "6", "--n-max", "4")
        assert code == 2
        assert err

    def test_n_max_over_vertex_limit(self, capsys):
        code, out, err = run_cli(capsys, "fuzz", "--trials", "1",
                                 "--n-max", "257")
        assert code == 2
        assert out == ""
        assert "at most 256" in err

    def test_negative_trials(self, capsys):
        code, out, err = run_cli(capsys, "fuzz", "--trials", "-1")
        assert (code, out) == (2, "")
        assert err == "error: --trials must be nonnegative\n"

    @pytest.mark.parametrize("bound, exit_code", [
        (10 ** 1000 - 1, 0), (10 ** 1000, 2)])
    def test_bound_limit(self, capsys, bound, exit_code):
        """A larger bound could draw parts that verify cannot parse."""
        code, _, err = run_cli(capsys, "fuzz", "--trials", "0",
                               "--bound", str(bound))
        assert code == exit_code
        assert ("at most 1000 digits" in err) == (exit_code == 2)

    def test_bad_kind_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["fuzz", "--kind", "bogus"])
        assert exc.value.code == 2


class TestSvgCommand:
    def test_triangle_figure(self, capsys, tmp_path):
        out_path = tmp_path / "triangle.svg"
        code, _, _ = run_cli(capsys, "svg", str(TRIANGLE), "--out", str(out_path))
        assert code == 0
        root = ET.fromstring(out_path.read_text())
        ns = "{http://www.w3.org/2000/svg}"
        texts = [el.text for el in root.iter(f"{ns}text")]
        assert {"A1", "A2", "A3", "M"} <= set(texts)
        assert {"M2", "M3", "M1"} <= set(texts)
        # three polygon edges plus three cevians
        assert len(list(root.iter(f"{ns}line"))) == 6

    def test_inscribed_figure_has_circle(self, capsys, tmp_path):
        out_path = tmp_path / "pentagon.svg"
        code, _, _ = run_cli(capsys, "svg", str(INSCRIBED), "--out", str(out_path))
        assert code == 0
        root = ET.fromstring(out_path.read_text())
        ns = "{http://www.w3.org/2000/svg}"
        circles = [el for el in root.iter(f"{ns}circle")
                   if el.get("fill") == "none"]
        assert len(circles) == 1
        texts = [el.text for el in root.iter(f"{ns}text")]
        assert {f"M′1", f"M′5"} <= set(texts)

    def test_counterexample_figure(self, capsys, tmp_path):
        out_path = tmp_path / "ce.svg"
        code, _, _ = run_cli(capsys, "svg", str(COUNTEREXAMPLE), "--out",
                             str(out_path))
        assert code == 0
        root = ET.fromstring(out_path.read_text())
        ns = "{http://www.w3.org/2000/svg}"
        texts = [el.text for el in root.iter(f"{ns}text")]
        assert {"M1", "M2", "M3", "M4", "M5"} <= set(texts)

    def test_deterministic(self, capsys, tmp_path):
        first = tmp_path / "a.svg"
        second = tmp_path / "b.svg"
        run_cli(capsys, "svg", str(INSCRIBED), "--out", str(first))
        run_cli(capsys, "svg", str(INSCRIBED), "--out", str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_degenerate_config(self, capsys, tmp_path):
        doc = json.loads(TRIANGLE.read_text())
        doc["M"] = ["0", "2"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, _ = run_cli(capsys, "svg", str(path), "--out",
                             str(tmp_path / "x.svg"))
        assert code == 3

    # Ceva triangles that verify exactly but have no float layout: parts
    # past the float range, a finite span whose padded extent overflows,
    # and parts near 10^-308 whose scale overflows.
    @pytest.mark.parametrize("vertices, pivot, cause", [
        ([[str(10**400), "0"], ["0", "0"], ["0", str(10**400)]],
         [f"{10**400}/3", f"{10**400}/3"], "integer division result too large"),
        ([[str(8 * 10**307), "0"], [str(-8 * 10**307), "0"],
          ["0", str(8 * 10**307)]],
         ["0", f"{8 * 10**307}/3"], "figure extent exceeds the float range"),
        ([["0", "0"], [f"4/{10**308}", "0"], ["0", f"4/{10**308}"]],
         [f"4/{3 * 10**308}", f"4/{3 * 10**308}"],
         "figure scale exceeds the float range"),
    ], ids=["huge-parts", "extent", "scale"])
    def test_no_float_layout(self, capsys, tmp_path, vertices, pivot, cause):
        path = tmp_path / "far.json"
        path.write_text(json.dumps({"kind": "ceva", "vertices": vertices,
                                    "M": pivot, "s": 1, "t": 1}))
        assert run_cli(capsys, "verify", str(path))[0] == 0
        out_path = tmp_path / "far.svg"
        code, out, err = run_cli(capsys, "svg", str(path), "--out", str(out_path))
        assert (code, out) == (2, "")
        assert err.startswith("error: coordinates out of float range to draw: ")
        assert cause in err
        assert not out_path.exists()


@pytest.mark.parametrize("module", ["polyceva", "polyceva.cli"])
def test_python_m_entry_point(capsys, module):
    cli.main(["verify", str(TRIANGLE)])
    expected = capsys.readouterr().out
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-m", module, "verify", str(TRIANGLE)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


class _RecordingJson:
    """Stands in for ``polyceva.cli.json``, recording each ``dumps``
    call, as a tracer wrapping ``json.dumps`` does."""

    def __init__(self):
        self.calls = []

    def dumps(self, doc, **kwargs):
        text = json.dumps(doc, **kwargs)
        self.calls.append((kwargs, text))
        return text

    def __getattr__(self, name):
        return getattr(json, name)


@pytest.mark.parametrize("argv", [
    ["verify", str(TRIANGLE)], ["counterexample", str(COUNTEREXAMPLE)],
    ["fuzz", "--trials", "5", "--seed", "3"]], ids=lambda argv: argv[0])
def test_each_report_is_one_json_dumps_call(monkeypatch, capsys, argv):
    """Every JSON report is printed from one ``cli.json.dumps`` call, so a
    tracer that wraps it times all of emission."""
    recorder = _RecordingJson()
    monkeypatch.setattr(cli, "json", recorder)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(recorder.calls) == 1
    kwargs, text = recorder.calls[0]
    assert kwargs == {"indent": 2, "cls": cli.ReportEncoder}
    assert out == text + "\n"


GOLDENS = sorted(CONFIG_DIR.glob("*.json"))
_KEYS = st.sampled_from(["kind", "vertices", "M", "s", "t", "radius", "params",
                         "lines", "seed", "second_param", "through"])
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 10), st.floats(allow_nan=False),
    st.text(max_size=4), _KEYS,
    st.sampled_from(["0", "1", "-1", "2", "-1/2", "4/3", "1/0", "4\n", "ceva",
                     "inscribed", "counterexample"]),
    st.integers(1, 400).map(lambda k: "9" * k),
    st.integers(1, 400).map(lambda k: "1/" + "9" * k))
_RATIONALS = st.integers(-4, 4).map(str) | st.sampled_from(["1/2", "-1/3", "4/3", "2/3"])
_VALUES = st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_KEYS | st.text(max_size=4), inner, max_size=3),
    max_leaves=8)


@st.composite
def _mutated_golden(draw) -> bytes:
    """A golden config with one or two values replaced, deleted or
    inserted at any depth, or with a byte slice overwritten."""
    text = draw(st.sampled_from(GOLDENS)).read_bytes()
    if draw(st.booleans()):
        start = draw(st.integers(0, len(text)))
        stop = draw(st.integers(start, min(len(text), start + 8)))
        return text[:start] + draw(st.text(max_size=8)).encode() + text[stop:]
    doc = json.loads(text)
    for _ in range(draw(st.integers(1, 2))):
        node = doc
        while True:
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            key = draw(st.sampled_from(keys)) if keys else None
            child = node[key] if keys else None
            if not (isinstance(child, (dict, list)) and child and draw(st.integers(0, 3))):
                break
            node = child
        action = draw(st.sampled_from(["replace", "replace", "delete", "insert"]))
        if keys and action == "replace":
            # Swapping one rational for another keeps most documents
            # well formed, so valid and degenerate geometry are reached.
            node[key] = draw(_RATIONALS if isinstance(child, str) else _VALUES)
        elif keys and action == "delete":
            del node[key]
        elif isinstance(node, dict):
            node[draw(_KEYS | st.text(max_size=4))] = draw(_VALUES)
        else:
            node.insert(draw(st.integers(0, len(node))), draw(_VALUES))
    return json.dumps(doc).encode()


@settings(max_examples=200, deadline=None)
@given(doc=st.binary(max_size=64) | _mutated_golden(),
       command=st.sampled_from(["verify", "counterexample", "svg"]),
       pretty=st.booleans())
# A 401-digit coordinate overflows the figure's float layout.
@example(doc=TRIANGLE.read_bytes().replace(b'"4"', b'"1' + b"0" * 400 + b'"', 1),
         command="svg", pretty=False)
def test_exit_code_contract(doc, command, pretty):
    """Any document ends in exit 0, 2 or 3, never a traceback or exit 1."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_bytes(doc)
        argv = ["--pretty"] * pretty + [command, str(path)]
        if command == "svg":
            argv += ["--out", str(Path(tmp) / "figure.svg")]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) in (0, 2, 3)
