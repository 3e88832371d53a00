"""Acceptance suite: the ten exit criteria, one test per criterion.

Every identity check here is exact rational equality; the only tolerance
anywhere is the 1e-9 window of the floating-point cross-check, which
guards sign conventions rather than precision.  Each criterion prints a
PASS/FAIL line (visible with pytest -s or in captured output).
"""

import itertools
import json
import random
from fractions import Fraction as F

import polyceva.cli as cli
from polyceva.ceva import (
    CevaConfig,
    all_sides_product,
    build_converse_counterexample,
    ceva_product,
    opposite_vertex_product,
)
from polyceva.errors import DegenerateConfig, GenerationExhausted
from polyceva.fuzz import GenParams, fuzz_ceva, fuzz_inscribed, gen_ceva_config

from _exact_oracle import (
    AffineMap,
    DivisionByZero,
    affine_apply,
    line_value_antisymmetry,
    signed_area2,
)
from _float_oracle import float_ceva_product
from test_cli import COUNTEREXAMPLE, SQUARE, TRIANGLE


def report(number: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}  {description}")
    assert ok, f"criterion {number}: {description}"


def gen_stream(params: GenParams):
    """Valid configs from consecutive trials, skipping exhausted ones."""
    for trial in itertools.count():
        try:
            cfg = gen_ceva_config(params, trial)
        except GenerationExhausted:
            continue
        yield cfg


def test_c01_product_identity_fuzz():
    result = fuzz_ceva(GenParams(seed=2026, n_min=3, n_max=9), 1000)
    ok = (result.failures == [] and result.trials_completed == 1000
          and result.elapsed_seconds < 30)
    report(1, "1000 random configs, n in [3,9]: product = (-1)^n exactly", ok)


def test_c02_classic_triangle():
    params = GenParams(seed=2126, n_min=3, n_max=3)
    interior = exterior = 0
    stream = gen_stream(params)
    for _ in range(200):
        cfg = next(stream)
        assert ceva_product(cfg).product == -1
        a, b, c = cfg.vertices
        orientations = {
            signed_area2(a, b, cfg.pivot) > 0,
            signed_area2(b, c, cfg.pivot) > 0,
            signed_area2(c, a, cfg.pivot) > 0,
        }
        if len(orientations) == 1:
            interior += 1
        else:
            exterior += 1
    ok = interior > 0 and exterior > 0
    report(2, "200 random triangles (interior and exterior pivots): "
              "product = -1 exactly", ok)


def test_c03_single_and_all_side_specializations():
    checked = 0
    for n in (5, 7, 9):
        params = GenParams(seed=2226 + n, n_min=n, n_max=n)
        stream = gen_stream(params)
        done = 0
        while done < 100:
            cfg = next(stream)
            try:
                result = opposite_vertex_product(cfg.vertices, cfg.pivot)
            except DegenerateConfig:
                continue
            base = ceva_product(CevaConfig(cfg.vertices, cfg.pivot,
                                           (n - 1) // 2, 1))
            assert result.product == base.product == F(-1) ** n == -1
            done += 1
            checked += 1
    for n in (4, 5, 6):
        params = GenParams(seed=2326 + n, n_min=n, n_max=n)
        stream = gen_stream(params)
        done = 0
        while done < 100:
            cfg = next(stream)
            try:
                result = all_sides_product(cfg.vertices, cfg.pivot)
            except DegenerateConfig:
                continue
            base = ceva_product(CevaConfig(cfg.vertices, cfg.pivot, 1, n - 2))
            assert result.product == base.product == F(-1) ** n
            done += 1
            checked += 1
    report(3, "opposite-vertex (n=5,7,9) and all-sides (n=4,5,6) "
              "specializations, 100 configs each", checked == 600)


def test_c04_line_form_swap_identity():
    params = GenParams(seed=2426, n_min=3, n_max=8)
    rng = random.Random(2426)
    stream = gen_stream(params)
    checked = 0
    while checked < 500:
        cfg = next(stream)
        if any(v.x == cfg.pivot.x or v.y == cfg.pivot.y for v in cfg.vertices):
            continue
        for _ in range(10):
            r = rng.randint(1, cfg.n)
            q = rng.randint(1, cfg.n)
            if r == q:
                continue
            try:
                assert line_value_antisymmetry(cfg, r, q)
            except DivisionByZero:
                continue
            checked += 1
            if checked == 500:
                break
    report(4, "500 line-form swap identity checks, all exactly true",
           checked == 500)


def test_c05_converse_counterexample():
    params = GenParams(seed=2526, n_min=5, n_max=5)
    stream = gen_stream(params)
    built = 0
    while built < 50:
        cfg = next(stream)
        try:
            result = build_converse_counterexample(cfg.vertices, cfg.pivot)
        except DegenerateConfig:
            continue
        assert result.product == -1
        assert result.concurrent is False
        expected_first = 1 / result.K if result.branch == "1/K" else 2 / result.K
        assert result.ratios[0] == expected_first
        built += 1
    report(5, "50 pentagon counterexamples: product -1, not concurrent, "
              "ratio matches branch", built == 50)


def test_c06_inscribed_identity_fuzz():
    result = fuzz_inscribed(GenParams(seed=2626, n_min=3, n_max=7), 200)
    ok = result.failures == [] and result.trials_completed == 200
    report(6, "200 inscribed configs: lhs^2 = rhs^2, similar-triangle "
              "relation, chord telescoping", ok)


def test_c07_concurrent_application():
    result = fuzz_inscribed(GenParams(seed=2726, n_min=3, n_max=7), 100,
                            concurrent=True)
    ok = result.failures == [] and result.trials_completed == 100
    report(7, "100 concurrent inscribed configs: lhs = (-1)^n and "
              "rhs^2 = 1 exactly", ok)


def test_c08_affine_invariance():
    params = GenParams(seed=2826, n_min=3, n_max=8)
    rng = random.Random(2826)
    stream = gen_stream(params)
    checked = 0
    while checked < 100:
        cfg = next(stream)
        while True:
            entries = [F(rng.randint(-6, 6), rng.randint(1, 6))
                       for _ in range(6)]
            if entries[0] * entries[3] - entries[1] * entries[2] != 0:
                break
        mapping = AffineMap(*entries)
        moved = CevaConfig(tuple(affine_apply(mapping, v) for v in cfg.vertices),
                           affine_apply(mapping, cfg.pivot), cfg.s, cfg.t)
        before = ceva_product(cfg)
        after = ceva_product(moved)
        assert [(f.i, f.j, f.value) for f in before.factors] == \
            [(f.i, f.j, f.value) for f in after.factors]
        assert before.product == after.product
        checked += 1
    report(8, "100 random affine maps: every factor and the product "
              "unchanged exactly", checked == 100)


def test_c09_float_oracle_cross_check():
    params = GenParams(seed=2926, n_min=3, n_max=8)
    stream = gen_stream(params)
    checked = 0
    worst = 0.0
    while checked < 100:
        cfg = next(stream)
        result = ceva_product(cfg)
        if not all(1e-3 < abs(f.value) < 1e3 for f in result.factors):
            continue
        approx = float_ceva_product(
            [(float(v.x), float(v.y)) for v in cfg.vertices],
            (float(cfg.pivot.x), float(cfg.pivot.y)), cfg.s, cfg.t)
        delta = abs(approx - float(result.product))
        worst = max(worst, delta)
        assert delta < 1e-9
        checked += 1
    report(9, f"100 well-conditioned configs: float oracle within 1e-9 "
              f"(worst {worst:.2e})", checked == 100)


def test_c10_cli_golden_files(capsys):
    outputs = {}
    for path, expected_product in ((TRIANGLE, "-1"), (SQUARE, "1")):
        for attempt in range(2):
            code = cli.main(["verify", str(path)])
            out = capsys.readouterr().out
            assert code == 0
            outputs.setdefault(path, []).append(out)
        assert outputs[path][0] == outputs[path][1]
        assert json.loads(outputs[path][0])["product"] == expected_product
    for attempt in range(2):
        code = cli.main(["counterexample", str(COUNTEREXAMPLE)])
        out = capsys.readouterr().out
        assert code == 0
        outputs.setdefault(COUNTEREXAMPLE, []).append(out)
    assert outputs[COUNTEREXAMPLE][0] == outputs[COUNTEREXAMPLE][1]
    assert json.loads(outputs[COUNTEREXAMPLE][0])["product"] == "-1"
    report(10, "golden config files: exit 0, byte-stable reports, "
               "products -1, 1, -1", True)
