"""Leading-digit histograms, the logarithmic reference law, chi-square and
z-statistic reports, and exact discrepancy computations for point sets mod 1.

Discrepancies use the half-open convention: points live in [0, 1) and
interval masses are counted over [a, b).  Both discrepancy evaluators are
exact maxima over the finite critical set of the sorted sample, O(N log N).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core_numeric import DomainError, leading_digit

__all__ = [
    "benford_probability",
    "benford_probabilities",
    "DigitHistogram",
    "TestReport",
    "DiscrepancyReport",
    "chi_square",
    "z_statistics",
    "star_discrepancy",
    "extreme_discrepancy",
    "erdos_turan_bound",
    "discrepancy_report",
    "ERDOS_TURAN_C",
]

# classical explicit constant making the bound valid for every point set
ERDOS_TURAN_C = 3.0


def benford_probability(d: int, base: int = 10) -> float:
    """P(leading digit = d) = log_base(1 + 1/d)."""
    if not 1 <= d <= base - 1:
        raise DomainError(f"digit must lie in [1, {base - 1}], got {d}")
    return math.log1p(1.0 / d) / math.log(base)


def benford_probabilities(base: int = 10) -> np.ndarray:
    d = np.arange(1, base)
    return np.log1p(1.0 / d) / math.log(base)


@dataclass
class DigitHistogram:
    """Counts of leading digits 1..base-1; merge is associative/commutative."""

    base: int
    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.base < 2 or self.counts.shape != (self.base - 1,):
            raise DomainError("counts must have length base - 1")

    @classmethod
    def empty(cls, base: int) -> "DigitHistogram":
        return cls(base, np.zeros(base - 1, dtype=np.int64))

    @classmethod
    def from_digits(cls, digits, base: int) -> "DigitHistogram":
        digits = np.asarray(digits, dtype=np.int64)
        if digits.size and (digits.min() < 1 or digits.max() >= base):
            raise DomainError(f"digits must lie in [1, {base - 1}], got "
                              f"{digits.min()}..{digits.max()}")
        counts = np.bincount(digits, minlength=base)[1:base]
        return cls(base, counts)

    @classmethod
    def from_values(cls, values, base: int = 10) -> "DigitHistogram":
        return cls.from_digits([leading_digit(v, base) for v in values], base)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def frequencies(self) -> np.ndarray:
        if self.total == 0:
            raise DomainError("empty histogram")
        return self.counts / self.total

    def __add__(self, other: "DigitHistogram") -> "DigitHistogram":
        if other.base != self.base:
            raise DomainError("cannot merge histograms with different bases")
        return DigitHistogram(self.base, self.counts + other.counts)


@dataclass
class TestReport:
    """Per-digit comparison against the logarithmic law plus a chi-square."""

    base: int
    total: int
    per_digit: list  # rows (digit, observed_freq, benford_prob, z_stat)
    chi_square: float
    dof: int
    verdict_alpha05: bool

    def to_json(self) -> str:
        return json.dumps({
            "base": self.base,
            "total": self.total,
            "per_digit": [
                {"digit": d, "observed": o, "benford": p, "z": z}
                for d, o, p, z in self.per_digit
            ],
            "chi_square": self.chi_square,
            "dof": self.dof,
            "verdict_alpha05": self.verdict_alpha05,
        })

    def to_text_table(self) -> str:
        lines = [f"{'First Digit':>11} {'Observed':>10} {'Benford':>10} "
                 f"{'z-statistic':>12}"]
        for d, o, p, z in self.per_digit:
            lines.append(f"{d:>11d} {o:>10.4f} {p:>10.4f} {z:>12.2f}")
        lines.append(f"chi-square = {self.chi_square:.2f} on {self.dof} dof "
                     f"(alpha=.05 {'accept' if self.verdict_alpha05 else 'reject'})")
        return "\n".join(lines)


def chi_square(hist: DigitHistogram) -> tuple[float, int]:
    """Pearson statistic against Benford expectations; dof = base - 2."""
    n = hist.total
    if n == 0:
        raise DomainError("chi_square needs a nonempty histogram")
    expected = n * benford_probabilities(hist.base)
    stat = float(((hist.counts - expected) ** 2 / expected).sum())
    return stat, hist.base - 2


def z_statistics(hist: DigitHistogram) -> TestReport:
    """Per-digit z-statistics and the chi-square verdict at alpha = .05.

    The verdict accepts exactly when P(dof/2, stat/2) < 0.95, with P the
    regularized lower incomplete gamma (the chi-square CDF) taken in mpmath
    at 30 digits and compared with the exact value of the float 0.95.  With
    no degree of freedom (base 2) it always accepts.
    """
    import mpmath   # at first use, so that importing this module loads none

    n = hist.total
    if n == 0:
        raise DomainError("z_statistics needs a nonempty histogram")
    obs = hist.frequencies()
    probs = benford_probabilities(hist.base)
    # a digit of Benford probability 1 (base 2) has no spread: z = 0 there
    var = probs * (1.0 - probs)
    z = np.divide(obs - probs, np.sqrt(var / n), out=np.zeros_like(obs),
                  where=var > 0)
    stat, dof = chi_square(hist)
    # with no degree of freedom the observed law is the Benford law
    with mpmath.workdps(30):
        accept = dof == 0 or mpmath.gammainc(
            dof / 2, 0, stat / 2, regularized=True) < 0.95
    rows = [(int(d + 1), float(obs[d]), float(probs[d]), float(z[d]))
            for d in range(hist.base - 1)]
    return TestReport(hist.base, n, rows, stat, dof, accept)


def _sorted_unit_points(points) -> np.ndarray:
    """The points reduced mod 1 and sorted.  Points already sorted within
    [0, 1) come back as they are, so a caller that sorted them once (see
    ``discrepancy_report``) pays one comparison pass, not a second sort."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 1 or pts.size == 0:
        raise DomainError("points must be a nonempty 1-D sequence")
    if 0.0 <= pts[0] and pts[-1] < 1.0 and (pts[1:] >= pts[:-1]).all():
        return pts
    pts = pts - np.floor(pts)  # reduce mod 1 defensively
    return np.sort(pts)


def star_discrepancy(points) -> float:
    """Exact D*_N over anchored intervals [0, a)."""
    y = _sorted_unit_points(points)
    n = y.size
    i = np.arange(1, n + 1)
    return float(np.maximum(i / n - y, y - (i - 1) / n).max())


def extreme_discrepancy(points) -> float:
    """Exact two-sided discrepancy sup |mass[a,b) - (b-a)| over subintervals.

    With A_k = k/N - y_(k), the overfull side is 1/N + max_{i<=j}(A_j - A_i)
    (intervals clamped to a run of points) and the underfull side is
    1/N + max_{i<j}(A_i - A_j) over the sentinel-extended sequence
    (open gaps, including the two boundary gaps).  Two prefix scans.
    """
    y = _sorted_unit_points(points)
    n = y.size
    a = np.arange(1, n + 1) / n - y
    d_plus = 1.0 / n + float((a - np.minimum.accumulate(a)).max())
    ext = np.concatenate(([0.0], a, [1.0 / n]))
    d_minus = 1.0 / n + float(
        (np.maximum.accumulate(ext)[:-1] - ext[1:]).max())
    return max(d_plus, d_minus, 0.0)


_ET_LEAF = 2 ** 16  # float64 scalars per leaf of the blocked sum (512 KB)
_ET_FREQS = 256  # frequencies whose leaf sums are held at once


def _pairwise_leaves(start: int, n: int, leaves: list):
    """numpy's pairwise-sum tree over ``n`` float64 scalars (two per complex
    element) from scalar ``start``, cut at nodes of at most ``_ET_LEAF``
    scalars: a node splits at n/2 rounded down to a multiple of 8.  Appends
    each leaf's (first element, element count) and returns the tree as
    nested pairs of leaf indices."""
    if n <= _ET_LEAF:
        leaves.append((start // 2, n // 2))
        return len(leaves) - 1
    half = n // 2
    half -= half % 8
    return (_pairwise_leaves(start, half, leaves),
            _pairwise_leaves(start + half, n - half, leaves))


def _tree_sum(tree, sums):
    """The columns of ``sums`` added as numpy's pairwise sum adds its
    halves."""
    if isinstance(tree, int):
        return sums[:, tree]
    return _tree_sum(tree[0], sums) + _tree_sum(tree[1], sums)


def erdos_turan_bound(points, m: int) -> float:
    """C * (1/m + sum_{h<=m} |S_h| / (h N)) with C = 3 and S_h the
    exponential sum of the points at frequency h.

    S_h is the sum of ``p = z**h`` for ``z = exp(2 pi i x)``, each power
    taken by repeated ``p *= z``, and summed as ``p.sum()`` does, so the
    bound is bit-identical to that plain loop (the tests pin it).  The work
    is cache-blocked: the points are cut into the leaves of numpy's own
    pairwise-sum tree, each leaf (at most 2**15 points) advances its powers
    and takes its sums while it stays in cache, and the leaf sums are then
    added along the same tree.  Every multiply and every partial sum is the
    one the full-array loop computes.  Leaf sums are held for ``_ET_FREQS``
    frequencies at a time, so memory does not grow with m.
    """
    if m < 1:
        raise DomainError("m must be >= 1")
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 1 or pts.size == 0:
        raise DomainError("points must be a nonempty 1-D sequence")
    n = pts.size
    z = np.exp(2j * np.pi * pts)
    p = z.copy()
    leaves: list = []
    tree = _pairwise_leaves(0, 2 * n, leaves)
    acc = 0.0
    for h0 in range(1, m + 1, _ET_FREQS):
        hs = range(h0, min(h0 + _ET_FREQS, m + 1))
        sums = np.empty((len(hs), len(leaves)), dtype=np.complex128)
        for j, (lo, size) in enumerate(leaves):
            z_leaf, p_leaf = z[lo:lo + size], p[lo:lo + size]
            for i, h in enumerate(hs):
                sums[i, j] = p_leaf.sum()
                if h < m:
                    p_leaf *= z_leaf
        for h, s in zip(hs, _tree_sum(tree, sums).tolist()):
            acc += abs(s) / (h * n)
    return ERDOS_TURAN_C * (1.0 / m + acc)


@dataclass
class DiscrepancyReport:
    n_points: int
    star: float
    extreme: float
    erdos_turan: float
    m_used: int

    def to_json(self) -> str:
        return json.dumps({
            "n_points": self.n_points, "star": self.star,
            "extreme": self.extreme, "erdos_turan": self.erdos_turan,
            "m_used": self.m_used,
        })

    def to_text_table(self) -> str:
        return (f"{'N':>10} {'D*_N':>14} {'D_N':>14} {'ET bound':>14} {'m':>6}\n"
                f"{self.n_points:>10d} {self.star:>14.6e} "
                f"{self.extreme:>14.6e} {self.erdos_turan:>14.6e} "
                f"{self.m_used:>6d}")


def discrepancy_report(points, m: int = 100) -> DiscrepancyReport:
    pts = np.asarray(points, dtype=np.float64)
    # one sort serves both discrepancies; the Erdos-Turan sum keeps the
    # points' own order, which its bits depend on
    y = _sorted_unit_points(pts)
    star, extreme = star_discrepancy(y), extreme_discrepancy(y)
    del y   # freed before the Erdos-Turan sum allocates its own arrays
    return DiscrepancyReport(
        n_points=pts.size,
        star=star,
        extreme=extreme,
        erdos_turan=erdos_turan_bound(pts, m),
        m_used=m,
    )
