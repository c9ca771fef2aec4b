"""End-to-end acceptance gates.

Each test prints one PASS/FAIL line (bypassing capture so the line is visible
in the -v run log) and then asserts.  The flagship pathology pipeline is run
twice by a module fixture; its outputs back criteria 9a-9d and 10.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from besovlab import experiments, sequences
from besovlab.atoms import AtomicField, eval_f, eval_f_dense, psi0, psi_nd
from besovlab.experiments import ExperimentConfig, config_from_dict
from besovlab.params import Params, load_config
from besovlab.sequences import (
    BlockLevel,
    BlockSequence,
    block_average,
    build_lambda_blocks,
    coverage_count,
    mixed_norm,
    rearrange,
    sup_diagnostic,
)
from besovlab.slowly_varying import SATISFIED, VIOLATED, classify_condition, constant, log_power
from oracles import Box, BoxDomain, lemma_le_partials, materialize, modulus, seminorm, total_window_weight

FLAGSHIP = Params(p=1.0, q=2.0, s=1.5, M=2, L=0.25)
PSI_ONE = constant(1.0)


def _report(criterion: str, ok: bool, detail: str) -> None:
    # --capture=tee-sys (pyproject) forwards this line to the live -v log
    print(f"\nCRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


# ---------------------------------------------------------------------------
# 1. series dichotomy


def test_criterion_01_series_dichotomy():
    start = time.perf_counter()
    n = 100_000
    tails = {}
    for m in (1.5, 2.0, 3.0):
        partials = lemma_le_partials(np.ones(2 * n), m, 2 * n)
        tails[m] = (partials[2 * n - 1] - partials[n - 1]) / partials[2 * n - 1]
    p1 = lemma_le_partials(np.ones(20_000), 1.0, 20_000)
    first_over_10_m1 = int(np.argmax(p1 > 10.0)) + 1
    p05 = lemma_le_partials(np.ones(50), 0.5, 50)
    elapsed = time.perf_counter() - start
    ok = (
        all(t < 1e-3 for t in tails.values())
        and p1[-1] > 10.0
        and first_over_10_m1 <= 20_000
        and p05[-1] > 10.0
        and elapsed < 5.0
    )
    _report(
        "1",
        ok,
        f"relative tails {dict((m, float(f'{t:.2e}')) for m, t in tails.items())} < 1e-3; "
        f"m=1 exceeds 10 by n={first_over_10_m1}; m=0.5 partial at n=50 is {p05[-1]:.1f}; "
        f"{elapsed:.2f}s",
    )
    assert all(t < 1e-3 for t in tails.values())
    assert first_over_10_m1 <= 20_000
    assert p05[-1] > 10.0
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 2. rearrangement exactness


def test_criterion_02_rearrangement_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    checked = 0
    for _ in range(200):
        J = int(rng.integers(2, 15))
        levels = [BlockLevel(0, 0.0, 0, 0), BlockLevel(1, 0.0, 0, 0)]
        for j in range(2, J + 1):
            count = int(rng.integers(0, (1 << j) + 1))
            theta = float(rng.uniform(0.1, 10.0)) if count else 0.0
            levels.append(BlockLevel(j, theta, count, 0))
        blocks = BlockSequence(J=J, levels=tuple(levels))
        moved = rearrange(blocks)
        before = materialize(blocks)
        after = materialize(moved)
        for j in range(J + 1):
            size = 1 << j
            assert np.array_equal(
                np.sort(before[size : 2 * size]), np.sort(after[size : 2 * size])
            )
            assert block_average(blocks, j) == block_average(moved, j)  # 0 ulps
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 200 and elapsed < 10.0
    _report("2", ok, f"{checked} randomized configs, multisets and averages exact; {elapsed:.2f}s")
    assert ok


# ---------------------------------------------------------------------------
# 3. no-gap covering


def test_criterion_03_no_gap_covering():
    start = time.perf_counter()
    blocks = rearrange(build_lambda_blocks(PSI_ONE, FLAGSHIP, 24))
    W20 = total_window_weight(blocks, 20)
    floor_needed = math.floor(W20) - 1
    probes = [1 + Fraction(i, 1024) for i in range(1024)]
    min_cov = min(coverage_count(blocks, x, 20) for x in probes)
    nondecreasing = all(
        all(
            coverage_count(blocks, x, a) <= coverage_count(blocks, x, b)
            for a, b in ((12, 16), (16, 20), (20, 24))
        )
        for x in probes[::16]
    )
    elapsed = time.perf_counter() - start
    ok = min_cov >= floor_needed and nondecreasing and elapsed < 5.0
    _report(
        "3",
        ok,
        f"W_20={float(W20):.3f} exact, min coverage {min_cov} >= {floor_needed}, "
        f"nondecreasing in J; {elapsed:.2f}s",
    )
    assert min_cov >= floor_needed
    assert nondecreasing
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 4. mixed-norm finite part


def test_criterion_04_mixed_norm_finite_part():
    blocks = rearrange(build_lambda_blocks(PSI_ONE, FLAGSHIP, 64))
    v32 = mixed_norm(blocks, 1.0, 2.0, 32)
    v64 = mixed_norm(blocks, 1.0, 2.0, 64)
    gap = abs(v64 - v32) / v32
    small = rearrange(build_lambda_blocks(PSI_ONE, FLAGSHIP, 14))
    dense = materialize(small)
    inner = []
    for j in range(15):
        size = 1 << j
        block = dense[size : 2 * size]
        inner.append(float(np.sum(block / size)) ** 2.0)
    brute = math.fsum(inner) ** 0.5
    fast = mixed_norm(small, 1.0, 2.0, 14)
    rel = abs(fast - brute) / brute
    ok = gap < 0.05 and rel < 1e-12
    _report(
        "4",
        ok,
        f"J=32 vs 64 gap {gap:.2%} < 5%; fast vs dense relative error {rel:.1e} < 1e-12",
    )
    assert gap < 0.05
    assert rel < 1e-12


# ---------------------------------------------------------------------------
# 5. divergent diagnostic


def test_criterion_05_divergent_diagnostic():
    start = time.perf_counter()
    blocks = rearrange(build_lambda_blocks(PSI_ONE, FLAGSHIP, 4096))
    probes = experiments.x_probe_points(64)
    mins = {
        J: min(sup_diagnostic(blocks, PSI_ONE, 1.0, x, J) for x in probes)
        for J in (64, 512, 4096)
    }
    elapsed = time.perf_counter() - start
    increasing = mins[64] < mins[512] < mins[4096]
    ok = increasing and mins[4096] > 2.5 and elapsed < 30.0
    _report(
        "5",
        ok,
        f"min diagnostic {mins[64]:.3f} < {mins[512]:.3f} < {mins[4096]:.3f}, "
        f"final > 2.5; {elapsed:.2f}s",
    )
    assert increasing
    assert mins[4096] > 2.5
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 6. condition classifier


def test_criterion_06_condition_classifier():
    kappas = {(1.0, 2.0): 2.0, (1.0, math.inf): 1.0, (0.5, 1.0): 1.0}
    all_ok = True
    for (p, q), kap in kappas.items():
        assert Params(p=p, q=q, s=1.5, M=2, L=0.1).kappa == pytest.approx(kap)
        for bk in (0.5, 0.9, 1.0, 1.1, 2.0):
            got = classify_condition(log_power(bk / kap), p, q)
            expected = SATISFIED if bk > 1.0 else VIOLATED
            all_ok &= got == expected
        all_ok &= classify_condition(constant(1.0), p, q) == VIOLATED
    _report("6", all_ok, "log-power satisfied iff b*kappa > 1; constant always violated")
    assert all_ok


# ---------------------------------------------------------------------------
# 7. bump calculus


def test_criterion_07_bump_calculus():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    t = rng.uniform(-4.0, 4.0, size=1000)
    residual = float(
        np.max(np.abs(sum(np.asarray(psi0(t - m)) for m in range(-5, 6)) - 1.0))
    )
    centers_ok = all(
        psi_nd(np.zeros(N)) == pytest.approx(2.0**-N, rel=1e-14) for N in (1, 2, 3)
    )
    blocks = rearrange(build_lambda_blocks(PSI_ONE, FLAGSHIP, 8))
    field = AtomicField(FLAGSHIP, blocks, 8)
    pts = np.column_stack(
        [rng.uniform(-1.0, 8.0 * 8 + 2.0, size=1000), rng.uniform(0.5, 2.5, size=1000)]
    )
    fast = eval_f(field, pts)
    slow = eval_f_dense(field, pts)
    nonzero = slow != 0.0
    max_rel = float(np.max(np.abs(fast[nonzero] - slow[nonzero]) / np.abs(slow[nonzero])))
    zeros_ok = bool(np.all(fast[~nonzero] == 0.0))
    elapsed = time.perf_counter() - start
    ok = residual < 1e-12 and centers_ok and max_rel < 1e-12 and zeros_ok and elapsed < 10.0
    _report(
        "7",
        ok,
        f"partition residual {residual:.1e}; psi(0)=2^-N exact; pruned vs dense "
        f"rel {max_rel:.1e}; {elapsed:.2f}s",
    )
    assert residual < 1e-12
    assert centers_ok
    assert max_rel < 1e-12 and zeros_ok
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 8. norm estimator oracle


def test_criterion_08_norm_estimator_oracle():
    start = time.perf_counter()

    def indicator(x):
        x = np.asarray(x, dtype=float)
        return ((x >= 0.0) & (x < 1.0)).astype(float)

    domain = BoxDomain((Box((0.0,), (1.0,)),), 2.0**-12)
    moduli_ok = True
    worst = 0.0
    for j in range(2, 7):
        t = 2.0**-j
        est = modulus(indicator, 1, 1.0, t, domain)
        rel = abs(est - 2.0 * t) / (2.0 * t)
        worst = max(worst, rel)
        moduli_ok &= rel < 0.05
    semi = seminorm(indicator, constant(1.0), 0.5, 1.0, math.inf, 1, domain, j_max=8)
    semi_rel = abs(semi.value - 2.0) / 2.0
    affine = modulus(lambda x: 3.0 * np.asarray(x) - 1.0, 2, 1.0, 0.25, domain)
    elapsed = time.perf_counter() - start
    ok = moduli_ok and semi_rel < 0.10 and affine < 1e-10 and elapsed < 30.0
    _report(
        "8",
        ok,
        f"modulus worst rel {worst:.2%} < 5%; seminorm {semi.value:.4f} within 10% of 2; "
        f"affine residual {affine:.1e}; {elapsed:.2f}s",
    )
    assert moduli_ok
    assert semi_rel < 0.10
    assert affine < 1e-10
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 9 & 10. flagship pathology run


@pytest.fixture(scope="module")
def flagship_run(tmp_path_factory):
    from pathlib import Path

    config_path = Path(__file__).resolve().parent.parent / "configs" / "flagship.json"
    config = config_from_dict(load_config(config_path))
    start = time.perf_counter()
    outs = []
    reports = []
    for label in ("one", "two"):
        out = tmp_path_factory.mktemp(f"flagship_{label}")
        report = experiments.run_pathology(config)
        experiments.emit_report(report, out)
        outs.append(out)
        reports.append(report)
    elapsed = time.perf_counter() - start
    return config, reports, outs, elapsed


def test_criterion_09a_norm_saturation(flagship_run):
    _, (report, _), _, elapsed = flagship_run
    rel = report.verdicts["norm2d_relative_increase"]
    ok = report.verdicts["norm2d_saturates"] and elapsed < 600.0
    _report("9a", ok, f"2-D norm increase J=8 to 10 is {rel:.2%} < 10%; both runs {elapsed:.0f}s < 600s")
    assert ok


def test_criterion_09b_partial_map_growth(flagship_run):
    _, (report, _), _, _ = flagship_run
    rises = report.verdicts["pm_seminorm_covered_rises"]
    ok = report.verdicts["pm_seminorm_grows_where_covered"]
    _report("9b", ok, f"partial-map seminorm nondecreasing at all 16 probes and strictly "
                      f"rising wherever exact coverage rises (covered rises {rises})")
    assert ok


def test_criterion_09c_diagnostic_divergent(flagship_run):
    _, (report, _), _, _ = flagship_run
    mins = report.verdicts["min_diagnostic_by_depth"]
    ok = report.verdicts["diagnostic_divergent"]
    _report("9c", ok, f"exact diagnostic divergent, min by depth {mins}")
    assert ok


def test_criterion_09d_control_plateau(flagship_run):
    _, (report, _), _, _ = flagship_run
    ok = (
        report.verdicts["control_classification"] == SATISFIED
        and report.verdicts["control_bound_plateau"]
    )
    values = report.verdicts["control_bound_values"]
    _report("9d", ok, f"control psi satisfied; forced bound plateau {values} (increase < 5%)")
    assert ok


def test_criterion_10_determinism(flagship_run):
    _, _, (out1, out2), _ = flagship_run
    a = (out1 / "pathology.csv").read_bytes()
    b = (out2 / "pathology.csv").read_bytes()
    ok = a == b
    _report("10", ok, f"two identical runs produced byte-identical CSVs ({len(a)} bytes)")
    assert ok
