"""Monte Carlo strong-error studies, rate fitting and moment scans.

A study couples every approximation to the limit-equation solver through
common random numbers: per path the same Brownian increments drive the
scheme at each delay parameter n and the reference solver, so the per-path
statistic sup_k |X^n_k - X_k| isolates scheme error from sampling noise.
Estimates of E[sup_k |X^n_k - X_k|^p] come with Monte Carlo standard
errors, and the empirical decay exponent is an ordinary least squares fit
of log2(estimate) against log2(n).

Determinism: each path's increments are a pure function of
(master_seed, path_index), chunk boundaries are fixed by the path count
alone, and per-path statistics are assembled into arrays ordered by path
index before any reduction (numpy's pairwise mean/std on a fixed array is
reproducible).  Work may be spread over a thread pool; the worker count
cannot change any output bit.

Streaming fold.  A chunk of B paths writes its increments into one
time-major (L, B) array and keeps the reference solution's X only, as an
(L+1, B) array.  Each scheme run then streams its blocks of at most m rows
(dpsde.scheme) and folds every block into a running per-path sup with four
ufunc calls into preallocated buffers: subtract, abs, maximum.reduce over
the block's rows, and maximum into the running value.  Max is exact, so the
per-path statistics, and every output bit, equal those of the full
(L+1, B) scheme output.  A chunk therefore holds about 2*L*B floats plus
O(m*B) scheme state, rather than four (L+1, B) arrays per solver run; one
256-path chunk of the stock study at L=2048 peaks near 4.3*L*B*8 bytes
under tracemalloc, and the tests hold it below 5*L*B*8.  A per-path
statistic that is not finite raises NonFinitePath, naming the scheme, n
and the first bad path.

The grid must resolve the shortest delay: studies enforce at least 8 grid
steps per delay 1/n, keeping lag resolution error subdominant at desk
scale.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .driver import SimGrid, check_key_word, generate_increments, lag_map, make_grid
from .errors import DegenerateFit, DelayTooFine, InvalidStudy, InvalidWorkerCount, NonFinitePath
from .models import get_model
from .params import PerturbationParams, time_zero_level, validate
from .reference import reference_steps
from .scheme import check_scheme, scheme_blocks

__all__ = [
    "StudySpec",
    "default_study",
    "ErrorEstimate",
    "RateFit",
    "ConvergenceReport",
    "MomentEstimate",
    "SchemeComparison",
    "rate_fit",
    "run_convergence",
    "moment_scan",
    "compare_schemes",
]

_CHUNK = 256
_MIN_STEPS_PER_DELAY = 8


@dataclass(frozen=True)
class StudySpec:
    """A complete, validated description of one Monte Carlo study."""

    model_id: str
    params: PerturbationParams
    n_list: tuple[int, ...]
    p_list: tuple[float, ...]
    paths: int
    grid: SimGrid
    master_seed: int = 42
    scheme: str = "new"

    def __post_init__(self) -> None:
        get_model(self.model_id)
        check_scheme(self.scheme, self.params)
        if not self.n_list or len(set(self.n_list)) != len(self.n_list):
            raise InvalidStudy(f"n_list must be non-empty without repeats, got {self.n_list}")
        if not self.p_list or not all(math.isfinite(p) and p >= 1.0 for p in self.p_list):
            raise InvalidStudy(f"p_list must be non-empty, every p finite and >= 1, got {self.p_list}")
        if self.paths < 1:
            raise InvalidStudy(f"paths must be >= 1, got {self.paths}")
        check_key_word("master_seed", self.master_seed)
        for n in self.n_list:
            m = lag_map(self.grid, n)
            if m < _MIN_STEPS_PER_DELAY:
                raise DelayTooFine(
                    f"resolution rule needs >= {_MIN_STEPS_PER_DELAY} grid steps per delay, "
                    f"got {m} for n={n} (refine the grid or lower n)"
                )


def default_study(
    model_id: str = "affine",
    alpha: float = 0.6,
    beta: float = -1.0,
    x0: float = 0.0,
    horizon: float = 1.0,
    grid_steps: int = 4096,
    n_list: tuple[int, ...] = (8, 16, 32, 64),
    p_list: tuple[float, ...] = (2.0, 4.0),
    paths: int = 2000,
    master_seed: int = 42,
    scheme: str = "new",
) -> StudySpec:
    """The stock desk-scale study (minutes of runtime, resolvable slopes)."""
    return StudySpec(
        model_id=model_id,
        params=validate(alpha, beta, x0, horizon),
        n_list=tuple(int(n) for n in n_list),
        p_list=tuple(float(p) for p in p_list),
        paths=int(paths),
        grid=make_grid(grid_steps, horizon),
        master_seed=int(master_seed),
        scheme=scheme,
    )


@dataclass(frozen=True)
class ErrorEstimate:
    n: int
    p: float
    estimate: float
    std_err: float


@dataclass(frozen=True)
class RateFit:
    p: float
    slope: float
    intercept: float


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-(n, p) strong-error estimates plus fitted log-log slopes.

    ``skipped_fits`` holds (p, reason) for each p whose rate fit raised
    DegenerateFit; the report writers do not write it.
    """

    scheme: str
    model_id: str
    alpha: float
    beta: float
    x0: float
    horizon: float
    grid_steps: int
    paths: int
    master_seed: int
    errors: tuple[ErrorEstimate, ...]
    fits: tuple[RateFit, ...] = field(default=())
    skipped_fits: tuple[tuple[float, str], ...] = field(default=())


@dataclass(frozen=True)
class MomentEstimate:
    n: int
    p: float
    estimate: float


@dataclass(frozen=True)
class SchemeComparison:
    """New and old schemes measured against the same reference paths."""

    new: ConvergenceReport
    old: ConvergenceReport


def _per_path_sup(
    spec: StudySpec,
    kinds: tuple[str, ...],
    against_reference: bool,
    workers: int = 1,
) -> dict[tuple[str, int], np.ndarray]:
    """Per-path sup statistics, keyed by (scheme kind, n).

    With against_reference=True the statistic is sup_k |X^n_k - X_k| with X
    from the limit-equation solver on the same increments; otherwise it is
    sup_k |X^n_k|.  Output arrays are ordered by path index.  Raises
    InvalidWorkerCount for workers < 1 and UndefinedTimeZero when the
    reference or the general scheme runs at alpha + beta = 1, both before
    any work, and NonFinitePath if a statistic is not finite.
    """
    if workers < 1:
        raise InvalidWorkerCount(f"workers must be >= 1, got {workers!r}")
    if against_reference or "general" in kinds:
        time_zero_level(spec.params)
    model = get_model(spec.model_id)
    M, L = spec.paths, spec.grid.steps
    out = {(kind, n): np.empty(M) for kind in kinds for n in spec.n_list}
    bounds = [(s, min(s + _CHUNK, M)) for s in range(0, M, _CHUNK)]
    widest = max(lag_map(spec.grid, n) for n in spec.n_list)

    def work(span: tuple[int, int]) -> None:
        s, e = span
        B = e - s
        dw = np.empty((L, B))
        for j in range(B):
            dw[:, j] = generate_increments(spec.master_seed, s + j, spec.grid)
        ref = None
        if against_reference:
            ref = np.empty((L + 1, B))
            for k0, k1, _, _, _, x in reference_steps(model, spec.params, spec.grid, dw):
                ref[k0:k1] = x
        gap = np.empty((widest, B))
        block_sup = np.empty(B)
        for kind in kinds:
            for n in spec.n_list:
                sup = out[(kind, n)][s:e]
                sup[:] = 0.0  # every |.| is >= +0.0, so 0 is the fold's identity
                for k0, k1, _, _, _, x in scheme_blocks(kind, model, spec.params, spec.grid, n, dw):
                    g = gap[: k1 - k0]
                    if against_reference:
                        np.subtract(x, ref[k0:k1], out=g)
                        np.abs(g, out=g)
                    else:
                        np.abs(x, out=g)
                    np.maximum.reduce(g, axis=0, out=block_sup)
                    np.maximum(sup, block_sup, out=sup)
                bad = np.flatnonzero(~np.isfinite(sup))
                if bad.size:
                    what = "sup gap" if against_reference else "sup"
                    raise NonFinitePath(
                        f"non-finite per-path {what} for scheme {kind!r}, n={n}: first at path index {s + bad[0]}"
                    )

    if workers == 1:
        for span in bounds:
            work(span)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, bounds))
    return out


def _mean_and_se(values: np.ndarray) -> tuple[float, float]:
    est = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
    return est, se


def rate_fit(errors) -> tuple[float, float]:
    """OLS slope and intercept of log2(estimate) against log2(n).

    Raises DegenerateFit for fewer than 3 points, non-positive or
    non-finite estimates, or repeated n values.
    """
    pts = [(float(n), float(e)) for n, e in errors]
    if len(pts) < 3:
        raise DegenerateFit(f"rate fit needs >= 3 points, got {len(pts)}")
    if any(not math.isfinite(e) or e <= 0.0 for _, e in pts):
        raise DegenerateFit("rate fit needs positive finite estimates")
    x = np.log2([n for n, _ in pts])
    y = np.log2([e for _, e in pts])
    xm = x.mean()
    sxx = float(np.sum((x - xm) ** 2))
    if sxx == 0.0:
        raise DegenerateFit("rate fit needs distinct n values")
    slope = float(np.sum((x - xm) * (y - y.mean())) / sxx)
    return slope, float(y.mean() - slope * xm)


def _report_for(spec: StudySpec, kind: str, gaps: dict) -> ConvergenceReport:
    errors = []
    fits = []
    skipped = []
    for p in spec.p_list:
        per_n = []
        for n in spec.n_list:
            est, se = _mean_and_se(gaps[(kind, n)] ** p)
            errors.append(ErrorEstimate(n=n, p=p, estimate=est, std_err=se))
            per_n.append((n, est))
        try:
            slope, intercept = rate_fit(per_n)
        except DegenerateFit as exc:
            skipped.append((p, str(exc)))
            continue
        fits.append(RateFit(p=p, slope=slope, intercept=intercept))
    return ConvergenceReport(
        scheme=kind,
        model_id=spec.model_id,
        alpha=spec.params.alpha,
        beta=spec.params.beta,
        x0=spec.params.x0,
        horizon=spec.params.horizon,
        grid_steps=spec.grid.steps,
        paths=spec.paths,
        master_seed=spec.master_seed,
        errors=tuple(errors),
        fits=tuple(fits),
        skipped_fits=tuple(skipped),
    )


def run_convergence(spec: StudySpec, workers: int = 1) -> ConvergenceReport:
    """Full study for the chosen scheme variant: every (n, p) estimate + fits."""
    gaps = _per_path_sup(spec, (spec.scheme,), True, workers)
    return _report_for(spec, spec.scheme, gaps)


def moment_scan(spec: StudySpec, workers: int = 1) -> tuple[MomentEstimate, ...]:
    """Estimates of E[sup_k |X^n_k|^p] per (n, p), for boundedness checks."""
    sups = _per_path_sup(spec, (spec.scheme,), False, workers)
    rows = []
    for n in spec.n_list:
        for p in spec.p_list:
            est, _ = _mean_and_se(sups[(spec.scheme, n)] ** p)
            rows.append(MomentEstimate(n=n, p=p, estimate=est))
    return tuple(rows)


def compare_schemes(spec: StudySpec, workers: int = 1) -> SchemeComparison:
    """New and old schemes on identical increments against the same reference.

    Reports both error tables side by side; no pass/fail judgement is made
    about the old scheme.
    """
    check_scheme("new", spec.params)
    gaps = _per_path_sup(spec, ("new", "old"), True, workers)
    return SchemeComparison(
        new=_report_for(spec, "new", gaps),
        old=_report_for(spec, "old", gaps),
    )
