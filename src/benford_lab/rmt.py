"""Haar-random unitary matrices and the distribution of the log-magnitude of
their characteristic polynomial, log|det(I - U e^(-i theta))|.

Sampling uses the standard recipe: a complex Ginibre matrix A = QR is
QR-factored and U = QD, with D = diag(r_jj / |r_jj|), which makes the
distribution exactly Haar.  ``haar_unitary`` draws one A and forms U so;
``log_abs_charpoly`` calls LAPACK slogdet (row-pivoted elimination) on
I - U e^(-i theta) itself, summing the log-magnitudes of the triangular
diagonal, so no eigen-decomposition is needed and values remain finite for
every nonsingular sample up to N = 512.

The Monte Carlo experiment needs only that number, so it never forms Q.
Since Q = A R^-1 and D* D = I,

    I - U e^(-i theta) = (e^(i theta) D* R - A) R^-1 D e^(-i theta),

so log|det(I - U e^(-i theta))| = log|det(e^(i theta) D* R - A)|
- sum_j log|r_jj|.  Each sample pays one Householder QR for R alone and one
LU, from the same normals and angles as U would take; the common scale of A
and R cancels, so A is the unscaled draw re + i im.  Rounding in R is
relative to A, so the error grows with the condition number of A over the
distance from theta to the nearest eigenangle, where the Q path's grows
with that distance alone.  Over the 10^5 samples of ``benford-lab cue
--dim 64 --samples 100000`` the two rules differ by more than 1e-9 at two
samples only, both with |Z| < 1e-5 (by 3.7e-9 and 4.1e-8); at the worse
one the Q path itself is 4e-9 off a 40-digit value.

Monte Carlo runs are sharded into chunks of 1,024 samples with generator
streams spawned up front, so results are reproducible and independent of
the worker count.  A chunk draws all its normals and angles first; the
linear algebra then runs on slices of at most 1 MB of complex entries, which
bounds the memory without changing the draws or any sample's value.  Larger
slices run no faster.  Each worker owns one workspace for the whole
experiment: the float64 normals of the largest chunk, which every chunk it
runs draws into in place (the same stream and values as fresh arrays), and
one complex slice in which A is assembled.  At most min(workers, chunks)
workspaces exist, and they are freed when the pool closes, so the normals
take workers x 2 x min(samples, 1,024) x N^2 x 8 bytes: 67 MB per worker at
N = 64 and 4.3 GB at N = 512.  Fresh normals for every chunk let peak RSS
creep up over repeated runs in one process; reused ones stop the creep from
the second run on.

A sample's leading digit is that of ``digits_from_log`` at band 0, which
takes log|Z| as exact; a sample that band leaves undecided (within about
1e-14 of a digit boundary) takes the float digit floor(B^f) at its own
fractional log f.  Certifying these digits is ROADMAP item 3.
"""

from __future__ import annotations

import math
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .benford_stats import DigitHistogram
from .core_numeric import DomainError, _check_digit_base, digits_from_log

__all__ = [
    "EULER_GAMMA",
    "SingularMatrixError",
    "UnitarySample",
    "MomentsReport",
    "CueResult",
    "haar_unitary",
    "unitarity_residual",
    "log_abs_charpoly",
    "q2_variance",
    "cue_experiment",
]

EULER_GAMMA = 0.5772156649015329

_MAX_DIM = 512
_LOG_FLOOR = -690.0  # |Z| below e^-690 (~1e-300) is treated as singular
_SLICE_ENTRIES = 2 ** 16  # complex entries per slice of matrices: 1 MB
_CHUNK = 1024  # samples per Monte Carlo chunk, each with its own stream


class SingularMatrixError(RuntimeError):
    """theta coincided with an eigenangle to machine precision."""


@dataclass(frozen=True)
class UnitarySample:
    matrix: np.ndarray


def _check_dim(n: int) -> None:
    if not 1 <= n <= _MAX_DIM:
        raise DomainError(f"dimension must lie in [1, {_MAX_DIM}]")


def _slice_len(n: int) -> int:
    """Matrices per slice: max(1, 2^16 // n^2)."""
    return max(1, _SLICE_ENTRIES // (n * n))


def _slices(count: int, n: int) -> list:
    """Slices of at most max(1, 2^16 // n^2) matrices covering range(count)."""
    step = _slice_len(n)
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def _haar_from_normals(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Haar unitaries from standard normal real and imaginary parts, one
    matrix or a stack: QR of the Ginibre matrices, rephased to a positive
    diagonal R."""
    q, r = np.linalg.qr((re + 1j * im) / math.sqrt(2.0))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def haar_unitary(n: int, rng: np.random.Generator) -> UnitarySample:
    """One n x n unitary matrix distributed with Haar measure."""
    _check_dim(n)
    re = rng.standard_normal((n, n))
    return UnitarySample(_haar_from_normals(re, rng.standard_normal((n, n))))


def unitarity_residual(u: np.ndarray) -> float:
    """max-norm of U*U - I."""
    n = u.shape[0]
    return float(np.abs(u.conj().T @ u - np.eye(n)).max())


def log_abs_charpoly(u, theta: float) -> float:
    """log|det(I - U e^(-i theta))| by row-pivoted elimination.  A theta on
    an eigenangle (log|Z| not finite or below _LOG_FLOOR) is refused."""
    mat = u.matrix if isinstance(u, UnitarySample) else np.asarray(u)
    _, log_abs = np.linalg.slogdet(np.eye(mat.shape[-1])
                                   - mat * np.exp(-1j * theta))
    if not math.isfinite(log_abs) or log_abs < _LOG_FLOOR:
        raise SingularMatrixError(
            "theta lies on an eigenangle; resample theta")
    return float(log_abs)


def q2_variance(n: int) -> float:
    """Variance of log|Z|: log(N)/2 + (gamma+1)/2 + 1/(24 N^2)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    return math.log(n) / 2.0 + (EULER_GAMMA + 1.0) / 2.0 + 1.0 / (24.0 * n * n)


@dataclass
class MomentsReport:
    n: int
    mean: float
    variance: float
    q2_reference: float
    skewness: float
    kurtosis: float


@dataclass
class CueResult:
    dim: int
    base: int
    thetas: np.ndarray
    log_abs: np.ndarray
    histogram: DigitHistogram
    moments: MomentsReport
    resampled: int = 0


class _Workspace:
    """One CUE worker's buffers, reused by every chunk it runs: float64
    normals for a chunk of up to ``count`` samples and one complex slice in
    which A is assembled."""

    def __init__(self, n: int, count: int):
        self.re = np.empty((count, n, n))
        self.im = np.empty((count, n, n))
        self.a = np.empty((min(count, _slice_len(n)), n, n), dtype=complex)


def _log_abs_from_normals(re, im, thetas, buf):
    """log|det(I - U e^(-i theta))| for the Haar unitaries U of stacks of
    normals, from R and A = re + i im by the identity in the module
    docstring, plus a mask of the samples whose theta lies on an
    eigenangle (log|Z| not finite or below _LOG_FLOOR).  A is assembled in
    ``buf`` (complex, at least len(thetas) matrices)."""
    a = buf[:len(thetas)]
    a.real = re
    a.imag = im
    r = np.linalg.qr(a, mode="r")
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    abs_diag = np.abs(diag)
    r *= (np.exp(1j * thetas)[:, None] * diag.conj() / abs_diag)[..., None]
    r -= a
    _, log_abs = np.linalg.slogdet(r)
    log_abs -= np.log(abs_diag).sum(axis=-1)
    return log_abs, ~np.isfinite(log_abs) | (log_abs < _LOG_FLOOR)


def _charpolys_from_normals(re, im, thetas, buf):
    """_log_abs_from_normals one slice at a time, each assembled in ``buf``
    (complex, at least one slice of matrices); each value depends on its
    own sample alone."""
    log_abs = np.empty(len(thetas))
    bad = np.empty(len(thetas), dtype=bool)
    for s in _slices(len(thetas), re.shape[-1]):
        log_abs[s], bad[s] = _log_abs_from_normals(re[s], im[s], thetas[s],
                                                   buf)
    return log_abs, bad


def _cue_chunk(n, count, base, gen, ws):
    """One chunk of ``count`` samples drawn from ``gen`` into the workspace
    ``ws`` (sized for at least ``count``): thetas, log|Z|, digit counts and
    the number of resampled thetas."""
    re = gen.standard_normal(out=ws.re[:count])
    im = gen.standard_normal(out=ws.im[:count])
    thetas = gen.uniform(0.0, 2.0 * math.pi, size=count)
    log_abs, bad = _charpolys_from_normals(re, im, thetas, ws.a)
    resampled = 0
    while bad.any():
        idx = np.flatnonzero(bad)
        resampled += idx.size
        thetas[idx] = gen.uniform(0.0, 2.0 * math.pi, size=idx.size)
        log_abs[idx], bad[idx] = _charpolys_from_normals(
            re[idx], im[idx], thetas[idx], ws.a)
    f = np.mod(log_abs / math.log(base), 1.0)
    digits = digits_from_log(f, 0.0, base)
    # a sample band 0 leaves undecided takes its float digit floor(B**f),
    # clipped (ROADMAP item 3 is to certify it instead)
    rest = digits == 0
    guess = np.floor(np.exp(f[rest] * math.log(base)))
    digits[rest] = np.fmax(np.fmin(guess, min(base - 1, 2.0 ** 62)), 1.0)
    counts = np.bincount(digits, minlength=base)[1:base]
    return thetas, log_abs, counts, resampled


def cue_experiment(n: int, n_samples: int, base: int,
                   rng: np.random.Generator, *,
                   workers: int = 1) -> CueResult:
    """Sample (U, theta) pairs, emit log|Z| with its digit histogram and a
    moments report against the reference variance q2_variance(n).

    The samples run in chunks of _CHUNK (1,024), whose streams are spawned
    before any work is dispatched, so the result is a pure function of
    (rng state, n, n_samples, base) and in particular does not depend on
    the worker count.
    """
    _check_dim(n)
    base = _check_digit_base(base)
    if n < 2:
        raise DomainError("the digit experiment needs n >= 2")
    if n_samples < 2:
        raise DomainError("n_samples must be >= 2")
    sizes = [_CHUNK] * (n_samples // _CHUNK)
    if n_samples % _CHUNK:
        sizes.append(n_samples % _CHUNK)
    streams = rng.spawn(len(sizes))
    threads = min(workers, len(sizes))
    # one workspace per thread, taken by a chunk and handed back after it
    spaces = queue.SimpleQueue()
    for _ in range(threads):
        spaces.put(_Workspace(n, sizes[0]))

    def run(gen, count):
        ws = spaces.get()
        try:
            return _cue_chunk(n, count, base, gen, ws)
        finally:
            spaces.put(ws)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(run, streams, sizes))
    del spaces   # the workspaces go with the pool

    thetas = np.concatenate([r[0] for r in results])
    log_abs = np.concatenate([r[1] for r in results])
    counts = np.sum([r[2] for r in results], axis=0)
    resampled = sum(r[3] for r in results)

    mean = float(log_abs.mean())
    var = float(log_abs.var(ddof=1))
    centered = log_abs - mean
    m2 = float((centered ** 2).mean())
    skew = float((centered ** 3).mean() / m2 ** 1.5)
    kurt = float((centered ** 4).mean() / m2 ** 2)
    moments = MomentsReport(len(log_abs), mean, var, q2_variance(n),
                            skew, kurt)
    return CueResult(n, base, thetas, log_abs,
                     DigitHistogram(base, counts.astype(np.int64)), moments,
                     resampled)
