"""Differential oracle for the stacked bootstrap in ``fit_power_law``.

``reference_bootstrap_slopes`` is the per-resample loop ``fit_power_law``
used to run: one ``np.unique`` and one ``np.polyfit`` per resample.  The
stacked ``_bootstrap_slopes`` must return the same slopes bit for bit
and leave the generator in the same state, so every fit-bearing report
keeps its bytes.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.scaling import _bootstrap_slopes, fit_power_law

RankWarning = np.exceptions.RankWarning


def reference_bootstrap_slopes(lx, ly, n_bootstrap, gen):
    """The per-resample loop, returning the kept slopes in draw order.

    The loop body is kept verbatim; ``x`` only supplies its length.
    """
    x = lx

    def _fit(ix: np.ndarray) -> tuple[float, float]:
        slope, intercept = np.polyfit(lx[ix], ly[ix], 1)
        return float(slope), float(intercept)

    slopes = np.empty(n_bootstrap)
    count = 0
    for k in range(n_bootstrap):
        ix = gen.integers(0, len(x), size=len(x))
        if len(np.unique(lx[ix])) < 2:
            continue  # degenerate resample; skip
        slopes[count] = _fit(ix)[0]
        count += 1
    return slopes[:count]


def reference_ci(lx, ly, slopes, n_bootstrap, ci=0.95):
    """``fit_power_law``'s interval from the reference slopes."""
    ci_low = ci_high = float(np.polyfit(lx, ly, 1)[0])
    if len(slopes) >= max(10, n_bootstrap // 10):
        alpha = (1.0 - ci) / 2.0
        ci_low, ci_high = np.quantile(slopes, [alpha, 1.0 - alpha])
    return float(ci_low), float(ci_high)


_POSITIVE = st.floats(1e-3, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def samples(draw):
    """``(x, y)`` with spread, repeated or near-degenerate ``x``."""
    m = draw(st.integers(2, 14))
    kind = draw(st.sampled_from(["spread", "repeated", "near"]))
    if kind == "spread":
        x = draw(st.lists(_POSITIVE, min_size=m, max_size=m))
    elif kind == "repeated":
        pool = draw(st.lists(_POSITIVE, min_size=2, max_size=3, unique=True))
        x = draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m))
    else:  # a few ulps apart: equal logs, or rank-deficient fits
        base = draw(_POSITIVE)
        steps = draw(st.lists(st.integers(0, 8), min_size=m, max_size=m))
        x = [base + k * np.spacing(base) for k in steps]
    y = draw(st.lists(_POSITIVE, min_size=m, max_size=m))
    return np.array(x), np.array(y)


def _bits(a) -> bytes:
    return np.asarray(a, dtype=np.float64).tobytes()


@settings(max_examples=120, deadline=None)
@given(
    samples(),
    st.sampled_from([1, 15, 1000]),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_stacked_bootstrap_matches_per_resample_loop(
    data, n_bootstrap, seed, caller_owns_generator
):
    x, y = data
    assume(len(np.unique(x)) >= 2)
    lx, ly = np.log(x), np.log(y)
    ref_gen = np.random.default_rng(seed)
    new_gen = np.random.default_rng(seed)
    with warnings.catch_warnings():
        # Near-degenerate x: RankWarning, and overflow in the prefactor.
        warnings.simplefilter("ignore")
        want = reference_bootstrap_slopes(lx, ly, n_bootstrap, ref_gen)
        got = _bootstrap_slopes(lx, ly, n_bootstrap, new_gen)
        rng = np.random.default_rng(seed) if caller_owns_generator else seed
        fit = fit_power_law(x, y, n_bootstrap=n_bootstrap, rng=rng)
        want_low, want_high = reference_ci(lx, ly, want, n_bootstrap)

    assert got.shape == want.shape
    assert _bits(got) == _bits(want)
    assert new_gen.bit_generator.state == ref_gen.bit_generator.state
    assert _bits(fit.ci_low) == _bits(want_low)
    assert _bits(fit.ci_high) == _bits(want_high)
    if caller_owns_generator:
        assert rng.bit_generator.state == ref_gen.bit_generator.state


def test_few_kept_resamples_leave_the_ci_at_the_slope():
    # Two points: half the resamples are degenerate, so 15 draws keep
    # fewer than 10 and the interval collapses onto the exponent.
    x, y = np.array([2.0, 8.0]), np.array([3.0, 5.0])
    lx, ly = np.log(x), np.log(y)
    kept = _bootstrap_slopes(lx, ly, 15, np.random.default_rng(4))
    assert len(kept) < 10
    fit = fit_power_law(x, y, n_bootstrap=15, rng=4)
    assert fit.ci_low == fit.ci_high == fit.exponent


def test_larger_samples_match_the_loop():
    # The column-norm sums run over m; pin an m past numpy's 8-wide
    # pairwise-summation block, the size E3/E4 fits and tests use.
    gen = np.random.default_rng(7)
    for m in (16, 32, 64):
        lx = np.log(np.repeat(np.geomspace(10.0, 1e4, 4), m // 4))
        ly = lx * 0.6 + gen.normal(0.0, 0.05, size=m)
        want = reference_bootstrap_slopes(lx, ly, 200, np.random.default_rng(m))
        got = _bootstrap_slopes(lx, ly, 200, np.random.default_rng(m))
        assert _bits(got) == _bits(want)


def test_rank_deficient_resample_warns_like_polyfit():
    # x values two ulps apart have distinct logs but a numerically
    # rank-1 design matrix once scaled.
    x = 3.0 + 2 * np.spacing(3.0) * np.array([0.0, 1.0, 0.0, 1.0])
    lx, ly = np.log(x), np.log(np.array([1.0, 2.0, 3.0, 4.0]))
    assert len(np.unique(lx)) == 2
    with pytest.warns(RankWarning):
        want = reference_bootstrap_slopes(lx, ly, 20, np.random.default_rng(0))
    with pytest.warns(RankWarning):
        got = _bootstrap_slopes(lx, ly, 20, np.random.default_rng(0))
    assert _bits(got) == _bits(want)


def test_non_finite_design_raises_linalg_error_like_lstsq():
    lx, ly = np.array([0.0, 1.0, np.inf]), np.zeros(3)
    with np.errstate(invalid="ignore"):
        with pytest.raises(np.linalg.LinAlgError):
            reference_bootstrap_slopes(lx, ly, 50, np.random.default_rng(0))
        with pytest.raises(np.linalg.LinAlgError):
            _bootstrap_slopes(lx, ly, 50, np.random.default_rng(0))
