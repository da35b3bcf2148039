"""Monte Carlo strong-error studies, rate fitting and moment scans.

A study couples every approximation to the limit-equation solver through
common random numbers: per path the same Brownian increments drive the
scheme at each delay parameter n and the reference solver, so the per-path
statistic sup_k |X^n_k - X_k| isolates scheme error from sampling noise.
Every study reduces to one table: the mean of stat**p with its Monte Carlo
standard error per (n, p), p-major, where stat is that sup gap for the
strong error and sup_k |X^n_k| for the moment scan.  The empirical decay
exponent is an ordinary least squares fit of log2(estimate) against log2(n).

Determinism: each path's increments are a pure function of
(master_seed, path_index), and per-path statistics are assembled into
arrays ordered by path index before any reduction (numpy's pairwise
mean/std on a fixed array is reproducible).  Forked worker processes may
each run a contiguous span of paths, in even pieces of at most _CHUNK
paths.  Every solver is column-independent, so neither the worker count
nor the piece or tile width can change any output bit.

Streaming fold.  A piece of B paths writes its increments into one
time-major (L, B) array and keeps the reference solution's X only, as an
(L+1, B) array; both are prefixes of buffers that its span allocates once,
for its widest piece.  Each scheme stream then runs on t = min(B, ceil(m*B /
_TILE)) even column tiles of the piece, as views of the increments, so a
block of m rows spans about _TILE elements however long the delay.
_fold_sup folds a tile's blocks into a running per-path sup as maximum(sup,
|X^n - X|.max(axis=0)); its temporaries last one block, and its views of
the stream's state die when it returns, before the next tile's is built.
Max is exact (NaN propagates), so every output bit equals that of the full
(L+1, B) scheme output.  A piece therefore holds about 2*L*B floats plus
one tile's O(_TILE) scheme state, and a span of pieces peaks like one.

The grid must resolve the shortest delay: studies enforce at least 8 grid
steps per delay 1/n, keeping lag resolution error subdominant at desk
scale.
"""

from __future__ import annotations

import math
import mmap
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .driver import SimGrid, check_key_word, generate_increments, lag_map, make_grid, whole_number
from .errors import DegenerateFit, DelayTooFine, InvalidStudy, InvalidWorkerCount, MomentOutOfRange, NonFinitePath
from .models import get_model
from .params import STOCK_STUDY, PerturbationParams, real_number, validate
from .reference import reference_steps
from .scheme import check_scheme, scheme_blocks

__all__ = [
    "StudySpec",
    "default_study",
    "ErrorEstimate",
    "RateFit",
    "ConvergenceReport",
    "SchemeComparison",
    "rate_fit",
    "run_convergence",
    "moment_scan",
    "compare_schemes",
]

_CHUNK = 256
_TILE = 2**14  # lag rows m times columns: the block size a scheme run is tiled to
_MIN_SPAN = 64  # the fewest paths worth a worker process
_MAX_WORKERS = 64
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
        # whole numbers of any integer type are kept as Python ints (the dataclass is frozen)
        object.__setattr__(self, "n_list", tuple(whole_number("each n", n, InvalidStudy) for n in self.n_list))
        object.__setattr__(self, "paths", whole_number("paths", self.paths, InvalidStudy))
        object.__setattr__(self, "master_seed", check_key_word("master_seed", self.master_seed))
        get_model(self.model_id)
        check_scheme(self.scheme, self.params)
        for name, values in (("n_list", self.n_list), ("p_list", self.p_list)):  # each p has its own fit
            if not values or len(set(values)) != len(values):
                raise InvalidStudy(f"{name} must be non-empty without repeats, got {values}")
        p_list = tuple(real_number("each p", p, InvalidStudy) for p in self.p_list)
        if not all(math.isfinite(p) and p >= 1.0 for p in p_list):
            raise InvalidStudy(f"every p must be finite and >= 1, got {self.p_list}")
        object.__setattr__(self, "p_list", p_list)
        if self.paths < 2:  # one path has no standard error
            raise InvalidStudy(f"paths must be >= 2, got {self.paths}")
        if self.grid.horizon != self.params.horizon:  # the solvers run on one, the report states the other
            raise InvalidStudy(f"grid horizon {self.grid.horizon!r} is not the parameters' {self.params.horizon!r}")
        piece, stats = (self.grid.steps + 1) * min(self.paths, _CHUNK), 2 * len(self.n_list) * self.paths
        if max(piece, stats) * 8 > sys.maxsize:  # the (L+1, B) reference of a piece, the per-path statistics
            raise InvalidStudy(
                f"study too large to address: {piece} floats per piece, {stats} per-path statistics, "
                f"at most {sys.maxsize // 8} floats per array"
            )
        for n in self.n_list:
            m = lag_map(self.grid, n)
            if m < _MIN_STEPS_PER_DELAY:
                raise DelayTooFine(
                    f"resolution rule needs >= {_MIN_STEPS_PER_DELAY} grid steps per delay, "
                    f"got {m} for n={n} (refine the grid or lower n)"
                )


def default_study(
    model_id: str = STOCK_STUDY["model_id"],
    alpha: float = STOCK_STUDY["alpha"],
    beta: float = STOCK_STUDY["beta"],
    x0: float = STOCK_STUDY["x0"],
    horizon: float = STOCK_STUDY["horizon"],
    grid_steps: int = STOCK_STUDY["grid_steps"],
    n_list: tuple[int, ...] = STOCK_STUDY["n_list"],
    p_list: tuple[float, ...] = STOCK_STUDY["p_list"],
    paths: int = STOCK_STUDY["paths"],
    master_seed: int = STOCK_STUDY["master_seed"],
    scheme: str = STOCK_STUDY["scheme"],
) -> StudySpec:
    """The stock desk-scale study (minutes of runtime, resolvable slopes); the defaults are params.STOCK_STUDY."""
    return StudySpec(
        model_id=model_id,
        params=validate(alpha, beta, x0, horizon),
        n_list=n_list,
        p_list=p_list,
        paths=paths,
        grid=make_grid(grid_steps, horizon),
        master_seed=master_seed,
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
    sup_k |X^n_k|.  The arrays, ordered by path index, are the rows (one per
    (kind, n), in study order) of one array in an anonymous shared mapping,
    which forked spans fill in place.  workers must be a whole number
    (whole_number: 1.5, 2.0 and "2" are refused, not truncated or
    compared) in 1.._MAX_WORKERS, and 1 where os.fork is missing; else
    InvalidWorkerCount.  That and whatever building the solvers raises
    (NonZeroStart, UndefinedTimeZero, ...) is raised before any increment
    is drawn or any process forked.

    _split cuts every range: the paths into w = min(workers, max(1,
    paths // _MIN_SPAN)) spans (run by _in_spans), each span in order into
    the fewest pieces no wider than _CHUNK, and each (kind, n) of a piece
    into column tiles (see Streaming fold).  A span stops after its first piece that
    holds a non-finite statistic, checked once all its tiles have run, so
    every path below the lowest bad one has run; NonFinitePath names that
    path and the first (kind, n), in study order, that is bad there,
    whatever the worker count.  A forked span whose study process is gone
    leaves before its next piece.
    """
    workers = whole_number("workers", workers, InvalidWorkerCount)
    if not 1 <= workers <= _MAX_WORKERS:
        raise InvalidWorkerCount(f"workers must be in 1..{_MAX_WORKERS}, got {workers!r}")
    if workers > 1 and not hasattr(os, "fork"):
        raise InvalidWorkerCount(f"workers={workers} needs os.fork, which this platform lacks")
    model = get_model(spec.model_id)
    ref_steps = reference_steps(model, spec.params, spec.grid) if against_reference else None
    keys = [(kind, n) for kind in kinds for n in spec.n_list]
    streams = [scheme_blocks(kind, model, spec.params, spec.grid, n) for kind, n in keys]
    lags = [lag_map(spec.grid, n) for _, n in keys]
    M, L = spec.paths, spec.grid.steps
    stats = np.frombuffer(mmap.mmap(-1, len(keys) * M * 8)).reshape(len(keys), M)
    study_pid = os.getpid()

    def span(s0: int, s1: int) -> None:
        pieces = _split(s0, s1, -(-(s1 - s0) // _CHUNK))
        width = max(e - s for s, e in pieces)  # each piece takes a prefix: a fresh pair per piece ratchets up RSS
        dw_buf = np.empty(L * width)
        ref_buf = np.empty((L + 1) * width) if against_reference else None
        for s, e in pieces:
            if os.getpid() != study_pid and os.getppid() != study_pid:
                os._exit(1)  # the study process is gone: nobody reads this span
            B = e - s
            dw = dw_buf[: L * B].reshape(L, B)
            for j in range(B):
                dw[:, j] = generate_increments(spec.master_seed, s + j, spec.grid)
            if against_reference:
                ref = ref_buf[: (L + 1) * B].reshape(L + 1, B)
                for k0, k1, _, _, _, x in ref_steps(dw):
                    ref[k0:k1] = x
            for row, blocks, m in zip(stats, streams, lags):
                for c0, c1 in _split(0, B, min(B, -(-m * B // _TILE))):  # tiles of about _TILE lag-block elements
                    _fold_sup(row[s + c0 : s + c1], blocks(dw[:, c0:c1]), ref[:, c0:c1] if against_reference else None)
            if not np.isfinite(stats[:, s:e]).all():
                return

    _in_spans(span, _split(0, M, min(workers, max(1, M // _MIN_SPAN))))
    bad = ~np.isfinite(stats)
    if bad.any():
        i = int(bad.any(axis=0).argmax())
        kind, n = keys[int(bad[:, i].argmax())]
        what = "sup gap" if against_reference else "sup"
        raise NonFinitePath(
            f"non-finite per-path {what} for scheme {kind!r}, n={n}: first at path index {i}"
        )
    return dict(zip(keys, stats))


def _fold_sup(sup: np.ndarray, run, ref) -> None:
    """Write into sup the per-path sup over the blocks of run of |X^n - ref|, or of |X^n| if ref is None."""
    sup[:] = 0.0  # every |.| is >= +0.0, so 0 is the fold's identity
    for k0, k1, _, _, _, x in run:
        np.maximum(sup, np.maximum.reduce(np.abs(x if ref is None else x - ref[k0:k1]), axis=0), out=sup)  # NaN stays


def _split(lo: int, hi: int, parts: int) -> list[tuple[int, int]]:
    """The parts contiguous ranges (start, stop) of [lo, hi), in order, whose widths differ by at most one."""
    edges = [lo + (hi - lo) * i // parts for i in range(parts + 1)]
    return list(zip(edges, edges[1:]))


def _in_spans(run, ranges: list[tuple[int, int]]) -> None:
    """run(s0, s1) on each span [s0, s1) of ranges.

    This process runs the first span and a forked child each other; run
    writes into memory shared with this process.  A child leaves through
    os._exit: 0 once run returns, 1 if it raises.  fork, not spawn: a child
    starts with the built solvers in a few milliseconds.  Once every child
    is reaped, this process reruns each span whose child did not exit 0:
    no result depends on the process that computes it, so a rerun raises a
    child's error as itself, with its traceback, or fills in the span of a
    killed child.  The study process runs no thread: forking a threaded
    process copies only the forking thread, and from Python 3.12 warns
    with DeprecationWarning.  The library default workers=1 never forks.
    """
    children = {}  # pid -> its span
    try:
        for s0, s1 in ranges[1:]:
            pid = os.fork()
            if pid == 0:
                try:
                    run(s0, s1)
                except BaseException:  # the parent reruns the span and raises it
                    os._exit(1)
                os._exit(0)
            children[pid] = (s0, s1)
        run(*ranges[0])
    finally:
        failed = [span for pid, span in children.items() if os.waitpid(pid, 0)[1] != 0]
    for s0, s1 in failed:
        run(s0, s1)


def rate_fit(errors) -> tuple[float, float]:
    """OLS slope and intercept of log2(estimate) against log2(n).

    Raises DegenerateFit for fewer than 3 points, an n or estimate that is
    not a real number (params.real_number), finite and > 0, or n values
    whose log2 are not all distinct.
    """
    pts = [(real_number("n", n, DegenerateFit), real_number("estimate", e, DegenerateFit)) for n, e in errors]
    if len(pts) < 3:
        raise DegenerateFit(f"rate fit needs >= 3 points, got {len(pts)}")
    if any(not math.isfinite(e) or e <= 0.0 for _, e in pts):
        raise DegenerateFit("rate fit needs positive finite estimates")
    if any(not math.isfinite(n) or n <= 0.0 for n, _ in pts):
        raise DegenerateFit(f"rate fit needs positive finite n, got {[n for n, _ in pts]}")
    x = np.log2([n for n, _ in pts])
    y = np.log2([e for _, e in pts])
    if len(set(x.tolist())) < len(pts):
        raise DegenerateFit(f"rate fit needs distinct n values, got {[n for n, _ in pts]}")
    xm = x.mean()
    sxx = float(np.sum((x - xm) ** 2))
    slope = float(np.sum((x - xm) * (y - y.mean())) / sxx)
    return slope, float(y.mean() - slope * xm)


def _table(spec: StudySpec, kind: str, stats: dict) -> tuple[ErrorEstimate, ...]:
    """Mean and standard error of stat**p per (n, p), p-major, from the per-path stats keyed by (kind, n).

    Raises MomentOutOfRange when a row's statistics are not all zero but the
    square of its largest stat**p is zero, subnormal or infinite: its
    estimate or standard error would then read 0 or inf, not the moment.
    """
    rows = []
    for p in spec.p_list:
        for n in spec.n_list:
            with np.errstate(over="ignore"):  # an inf is reported below
                values = stats[(kind, n)] ** p
            top = float(values.max())
            if not sys.float_info.min <= top * top < math.inf and stats[(kind, n)].any():
                raise MomentOutOfRange(
                    f"stat**p leaves the float range for scheme {kind!r}, n={n}, p={p}: largest {top!r}"
                )
            est = float(np.mean(values))
            se = float(np.std(values, ddof=1) / math.sqrt(len(values)))
            rows.append(ErrorEstimate(n=n, p=p, estimate=est, std_err=se))
    return tuple(rows)


def _report_for(spec: StudySpec, kind: str, gaps: dict) -> ConvergenceReport:
    errors = _table(spec, kind, gaps)
    fits = []
    skipped = []
    for p in spec.p_list:
        try:
            slope, intercept = rate_fit([(e.n, e.estimate) for e in errors if e.p == p])
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
        errors=errors,
        fits=tuple(fits),
        skipped_fits=tuple(skipped),
    )


def run_convergence(spec: StudySpec, workers: int = 1) -> ConvergenceReport:
    """Full study for the chosen scheme variant: every (n, p) estimate + fits."""
    gaps = _per_path_sup(spec, (spec.scheme,), True, workers)
    return _report_for(spec, spec.scheme, gaps)


def moment_scan(spec: StudySpec, workers: int = 1) -> tuple[ErrorEstimate, ...]:
    """Estimates of E[sup_k |X^n_k|^p] with standard errors, p-major, for boundedness checks."""
    return _table(spec, spec.scheme, _per_path_sup(spec, (spec.scheme,), False, workers))


def compare_schemes(spec: StudySpec, workers: int = 1) -> SchemeComparison:
    """New and old schemes on identical increments against the same reference.

    Reports both error tables side by side; no pass/fail judgement is made
    about the old scheme.
    """
    gaps = _per_path_sup(spec, ("new", "old"), True, workers)
    return SchemeComparison(
        new=_report_for(spec, "new", gaps),
        old=_report_for(spec, "old", gaps),
    )
