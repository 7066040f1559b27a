"""Power-law fitting for cost-versus-T (and cost-versus-n) curves.

Every theorem in the paper predicts an exponent — ``1/2`` for Theorem 1,
``phi - 1`` for Theorem 5/KSY, ``-1/2`` in ``n`` for Theorem 3 — so the
experiments all reduce to: simulate a sweep, fit ``y = a * x**k`` on
log-log axes, and compare ``k`` against the theorem (with a bootstrap
confidence interval to know how seriously to take the comparison).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from repro.errors import AnalysisError

__all__ = ["PowerLawFit", "fit_power_law"]


@dataclass(frozen=True)
class PowerLawFit:
    """Result of fitting ``y = a * x**exponent``.

    Attributes
    ----------
    exponent / prefactor:
        Least-squares estimates on log-log axes.
    r_squared:
        Coefficient of determination of the log-log fit.
    ci_low / ci_high:
        Bootstrap percentile confidence interval for the exponent
        (equal to the exponent when bootstrapping was disabled).
    n_points:
        Number of (x, y) pairs used.
    """

    exponent: float
    prefactor: float
    r_squared: float
    ci_low: float
    ci_high: float
    n_points: int

    def predict(self, x: np.ndarray | float) -> np.ndarray | float:
        """Evaluate the fitted law."""
        return self.prefactor * np.asarray(x, dtype=float) ** self.exponent

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"y = {self.prefactor:.3g} * x^{self.exponent:.3f} "
            f"(95% CI [{self.ci_low:.3f}, {self.ci_high:.3f}], "
            f"R^2 = {self.r_squared:.3f}, n = {self.n_points})"
        )


def fit_power_law(
    x: np.ndarray,
    y: np.ndarray,
    n_bootstrap: int = 1000,
    rng: np.random.Generator | int | None = 0,
    ci: float = 0.95,
) -> PowerLawFit:
    """Fit ``y = a * x**k`` by least squares on ``(log x, log y)``.

    Parameters
    ----------
    x, y:
        Positive, finite samples; pairs with a non-positive coordinate
        raise (an exponent through zero is meaningless), as do NaN and
        inf.
    n_bootstrap:
        Resamples for the exponent confidence interval; 0 disables.
    rng:
        Seed or generator for the bootstrap (default deterministic).
    ci:
        Confidence level for the percentile interval.

    Raises
    ------
    AnalysisError
        On fewer than 2 distinct x values, or non-positive or
        non-finite data.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise AnalysisError(f"x and y must be equal-length 1-D, got {x.shape}, {y.shape}")
    if len(x) < 2 or len(np.unique(x)) < 2:
        raise AnalysisError("power-law fit needs at least 2 distinct x values")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise AnalysisError("power-law fit requires finite data")
    if (x <= 0).any() or (y <= 0).any():
        raise AnalysisError("power-law fit requires strictly positive data")
    if not 0.0 < ci < 1.0:
        raise AnalysisError(f"ci must be in (0, 1), got {ci!r}")

    lx, ly = np.log(x), np.log(y)
    slope, intercept = (float(c) for c in np.polyfit(lx, ly, 1))
    resid = ly - (slope * lx + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0

    ci_low = ci_high = slope
    if n_bootstrap > 0:
        gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        slopes = _bootstrap_slopes(lx, ly, n_bootstrap, gen)
        if len(slopes) >= max(10, n_bootstrap // 10):
            alpha = (1.0 - ci) / 2.0
            ci_low, ci_high = np.quantile(slopes, [alpha, 1.0 - alpha])

    return PowerLawFit(
        exponent=slope,
        prefactor=float(np.exp(intercept)),
        r_squared=r_squared,
        ci_low=float(ci_low),
        ci_high=float(ci_high),
        n_points=len(x),
    )


def _raise_lstsq_error(err: str, flag: int) -> None:
    raise LinAlgError("SVD did not converge in Linear Least Squares")


def _bootstrap_slopes(
    lx: np.ndarray, ly: np.ndarray, n_bootstrap: int, gen: np.random.Generator
) -> np.ndarray:
    """Slopes of ``np.polyfit(lx[ix], ly[ix], 1)`` over bootstrap resamples.

    Draws ``n_bootstrap`` resamples ``ix`` of ``len(lx)`` indices each
    (the same values, and the same final ``gen`` state, as drawing them
    one resample at a time), drops those with fewer than 2 distinct
    ``lx[ix]`` and returns the kept slopes in draw order.  The fits run
    ``np.polyfit``'s own degree-1 steps on the whole stack at once:
    vander columns ``[x, 1]``, column-norm scaling, LAPACK ``gelsd``
    with ``rcond = m * eps`` (the gufunc ``np.linalg.lstsq`` loops over),
    then unscaling, so every slope is bit-identical to ``np.polyfit``'s.
    ``lx`` must be finite, which makes the distinctness test exact.
    """
    m = len(lx)
    ix = gen.integers(0, m, size=(n_bootstrap, m))
    xs = lx[ix]
    keep = (xs != xs[:, :1]).any(axis=1)
    ix, xs = ix[keep], xs[keep]
    lhs = np.stack([xs, np.ones_like(xs)], axis=-1)
    scale = np.sqrt((lhs * lhs).sum(axis=1))
    lhs /= scale[:, np.newaxis, :]
    with np.errstate(call=_raise_lstsq_error, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        coef, _, rank, _ = _umath_linalg.lstsq(
            lhs, ly[ix][..., np.newaxis], m * np.finfo(float).eps,
            signature="ddd->ddid",
        )
    if (rank < 2).any():
        warnings.warn(
            "Polyfit may be poorly conditioned", np.exceptions.RankWarning,
            stacklevel=3,
        )
    return coef[:, 0, 0] / scale[:, 0]
