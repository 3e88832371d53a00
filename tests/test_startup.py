"""What importing polyceva loads: structure, not time."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import polyceva

ROOT = Path(__file__).resolve().parent.parent

# polyceva.__all__: the names from before they loaded lazily, less
# second_points and inscribed_side_product, folded since,
# second_intersection, which nothing called, and the fifteen names only
# the tests used: Point-based reference geometry and the line-form swap
# identity, now in tests/_exact_oracle.py, and three aliases;
# idx_shift and vertex_lines, which restated what a config holds; and
# the six error classes of a helper called outside its domain, which
# now raises ValueError.
ALL = [
    "CevaConfig", "ConfigError", "Counterexample", "DegenerateConfig",
    "Factor", "FuzzFailure", "FuzzReport", "GenParams", "GenerationExhausted",
    "GeometryError", "InscribedConfig", "InscribedReport", "InvalidRational",
    "InvariantViolation", "Line", "MalformedJson", "Point", "ProductReport",
    "Tangent", "all_sides_product", "are_concurrent", "as_rational",
    "build_converse_counterexample", "ceva", "ceva_product",
    "chord_telescoping_squared", "circle", "classic_ceva_product",
    "concurrent_secants_check", "configio", "errors", "format_rational",
    "fuzz", "fuzz_ceva", "fuzz_inscribed", "gen_ceva_config",
    "gen_inscribed_config", "geometry", "homogeneous",
    "inscribed_chord_product_squared", "inscribed_identity_report",
    "intersect_lines", "line_through", "opposite_vertex_product",
    "parse_rational", "point_from_ratio", "side_factors", "sides_hit",
    "similar_triangles_relation",
]


def _run(code: str) -> str:
    """Stdout of a fresh interpreter running code from the repository root."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60, check=True, cwd=ROOT)
    return proc.stdout


def modules_after(statement: str) -> set[str]:
    """Modules a fresh interpreter holds after running statement."""
    return set(_run(f"{statement}\nimport sys\nprint('\\n'.join(sys.modules))").split())


def test_cli_import_loads_only_what_verify_needs():
    loaded = modules_after("import polyceva.cli")
    assert "polyceva.configio" in loaded
    for name in ("polyceva.fuzz", "polyceva.svgout", "dataclasses", "inspect",
                 "argparse"):
        assert name not in loaded


def test_package_import_loads_no_submodule():
    assert not {m for m in modules_after("import polyceva")
                if m.startswith("polyceva.")}


def test_all_is_unchanged():
    assert polyceva.__all__ == ALL
    assert len(ALL) == 49


def test_every_exported_name_resolves():
    for name in ALL:
        getattr(polyceva, name)
    namespace = {}
    exec("from polyceva import *", namespace)
    assert set(ALL) <= set(namespace)
    assert polyceva.Point is polyceva.geometry.Point
    assert polyceva.fuzz_ceva is polyceva.fuzz.fuzz_ceva


def test_cli_import_builds_no_parser():
    out = _run("import argparse\n"
               "built = []\n"
               "init = argparse.ArgumentParser.__init__\n"
               "def counted(self, *args, **kwargs):\n"
               "    built.append(1)\n"
               "    init(self, *args, **kwargs)\n"
               "argparse.ArgumentParser.__init__ = counted\n"
               "import polyceva.cli\n"
               "print(len(built))\n")
    assert out == "0\n"


def test_parser_built_once_per_process():
    """Calls the matcher decodes build no parser; the first call it
    leaves to argparse builds the one the process keeps."""
    out = _run("import contextlib, io\n"
               "import polyceva.cli as cli\n"
               "calls = []\n"
               "build = cli.build_parser\n"
               "cli.build_parser = lambda: calls.append(1) or build()\n"
               "with contextlib.redirect_stdout(io.StringIO()):\n"
               "    codes = [cli.main(['verify', 'configs/triangle_centroid.json']),\n"
               "             cli.main(['--pretty', 'verify', 'configs/square_pivot.json']),\n"
               "             cli.main(['fuzz', '--trials', '0'])]\n"
               "    built = len(calls)\n"
               "    codes += [cli.main(['fuzz', '--trials=0']),\n"
               "              cli.main(['fuzz', '--tri', '0'])]\n"
               "print(codes, built, len(calls))\n")
    assert out == "[0, 0, 0, 0, 0] 0 1\n"


def _cli_loads_argparse(argv: list[str]) -> str:
    """Exit code of ``cli.main()`` on argv given as sys.argv, and
    whether argparse was loaded by the end, in a fresh interpreter."""
    return _run("import contextlib, io, sys\n"
                "import polyceva.cli as cli\n"
                f"sys.argv = ['polyceva', *{argv!r}]\n"
                "with contextlib.redirect_stdout(io.StringIO()), \\\n"
                "        contextlib.redirect_stderr(io.StringIO()):\n"
                "    try:\n"
                "        code = cli.main()\n"
                "    except SystemExit as exc:\n"
                "        code = exc.code\n"
                "print(code, 'argparse' in sys.modules)\n")


@pytest.mark.parametrize("argv", [
    ["verify", "configs/triangle_centroid.json"],
    ["--pretty", "verify", "configs/square_pivot.json"],
    ["counterexample", "configs/pentagon_counterexample.json"],
    ["fuzz", "--trials", "3", "--kind", "inscribed"],
    ["svg", "configs/triangle_centroid.json", "--out", "{out}"],
], ids=["verify", "pretty", "counterexample", "fuzz", "svg"])
def test_successful_call_never_imports_argparse(argv, tmp_path):
    argv = [a.format(out=tmp_path / "fig.svg") for a in argv]
    assert _cli_loads_argparse(argv) == "0 False\n"


@pytest.mark.parametrize("argv, code", [
    (["-h"], 0),
    (["verify", "-h"], 0),
    (["fuzz", "--kind", "nope"], 2),
    (["verify", "--json", "--pretty", "configs/triangle_centroid.json"], 2),
    (["fuzz", "--trials=0"], 0),
])
def test_other_calls_fall_back_on_argparse(argv, code):
    assert _cli_loads_argparse(argv) == f"{code} True\n"
