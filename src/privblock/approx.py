"""Inflection-point piecewise polynomial approximation.

Segment endpoints sit where the target's second (or third) derivative
vanishes, located by bisection; outer cutoffs sit where the curvature terms
drop below a flatness threshold.  Shipped tables for gelu / sigmoid / tanh /
mish carry fixed published coefficients and are covered by spot-value tests;
the generic fitter re-derives tables by per-segment least squares.  Every
table is total: the odd tanh and the complement-symmetric sigmoid are
unfolded from their published x >= 0 halves by ``mirrored``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval
from scipy.special import erf

SQRT2 = math.sqrt(2.0)
GELU_EPS = 1e-5


class NoRootFound(ValueError):
    pass


class IllConditioned(ValueError):
    pass


def _piece(bounds, x):
    """Piece index of x, half-open to the right: i on [bounds[i-1], bounds[i])."""
    return np.searchsorted(bounds, x, side="right")


@dataclass
class PiecewisePoly:
    """Total piecewise polynomial: a constant left tail, interior segments on
    [b_i, b_{i+1}) and a constant or linear right tail.  Piece 0 is the left
    tail, piece i the segment i-1, piece len(boundaries) the right tail."""

    name: str
    boundaries: list          # strictly increasing; segment i covers [b_i, b_{i+1})
    segments: list            # coefficient vectors, ascending degree
    left: tuple               # ("const", v) for x < boundaries[0]
    right: tuple              # ("const", v) or ("linear", eps): x + eps

    def __post_init__(self):
        b = self.boundaries
        if any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise ValueError("boundaries must be strictly increasing")
        if len(self.segments) != len(b) - 1:
            raise ValueError("need one segment per interior interval")
        for side, kinds in (("left", ("const",)), ("right", ("const", "linear"))):
            tail = getattr(self, side)
            if not (isinstance(tail, (tuple, list)) and len(tail) == 2
                    and tail[0] in kinds):
                raise ValueError(f"{side} tail must be (kind, value) with kind in "
                                 f"{kinds}, got {tail!r}")
            setattr(self, side, tuple(tail))

    @property
    def max_degree(self) -> int:
        return max(len(c) - 1 for c in self.segments)

    def _eval(self, x: np.ndarray, key: np.ndarray, bounds) -> np.ndarray:
        """Each x evaluated on the piece its ``key`` falls in among ``bounds``."""
        x, piece = np.atleast_1d(x), _piece(bounds, np.atleast_1d(key))
        out = np.full(x.shape, self.left[1], dtype=np.float64)
        for i, coeffs in enumerate(self.segments, 1):
            m = piece == i
            out[m] = polyval(x[m], coeffs)
        m = piece == len(self.boundaries)
        kind, value = self.right
        out[m] = value if kind == "const" else x[m] + value
        return out

    def __call__(self, x):
        arr = np.asarray(x, dtype=np.float64)
        out = self._eval(arr, arr, self.boundaries)
        return out if arr.ndim else float(out[0])

    def continuity_jumps(self) -> dict:
        """|left limit - right value| at every boundary."""
        eps = 1e-9
        return {b: abs(self(b - eps) - self(b + eps)) for b in self.boundaries}

    def to_dict(self) -> dict:
        return {"name": self.name, "boundaries": list(map(float, self.boundaries)),
                "segments": [list(map(float, c)) for c in self.segments],
                "left": list(self.left), "right": list(self.right)}

    @classmethod
    def from_dict(cls, d: dict) -> "PiecewisePoly":
        keys = ("name", "boundaries", "segments", "left", "right")
        if missing := [k for k in keys if k not in d]:
            raise ValueError(f"table lacks key(s) {', '.join(missing)}")
        return cls(*(d[k] for k in keys))


def dump_table(pp: PiecewisePoly) -> str:
    return json.dumps(pp.to_dict(), indent=2)


def load_table(text: str) -> PiecewisePoly:
    return PiecewisePoly.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# shipped coefficient tables
# ---------------------------------------------------------------------------

def gelu_exact(x):
    x = np.asarray(x, dtype=np.float64)
    return x * 0.5 * (1.0 + erf(x / SQRT2))


def sigmoid_exact(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


def tanh_exact(x):
    return np.tanh(np.asarray(x, dtype=np.float64))


def mish_exact(x):
    x = np.asarray(x, dtype=np.float64)
    return x * np.tanh(np.log1p(np.exp(x)))


GELU_TABLE = PiecewisePoly(
    "gelu",
    [-5.075, -SQRT2, SQRT2, 5.075],
    [
        [-0.568686678, -0.529288810, -0.183509590, -0.028070202, -0.001597741],
        [0.001193207, 0.5, 0.385858026, 0.0, -0.045101361],
        [-0.438406187, 1.340789252, -0.087184212, 0.007334718],
    ],
    ("const", GELU_EPS),
    ("linear", GELU_EPS),
)


def mirrored(name: str, boundaries, segments, right, odd: bool) -> PiecewisePoly:
    """Total table of an odd (f(-x) = -f(x)) or complement (f(-x) = 1 - f(x))
    function from its x >= 0 half, which starts at 0 and ends in a constant
    tail.  Each segment's x < 0 piece is its mirrored polynomial."""
    kind, value = right
    if boundaries[0] != 0.0 or kind != "const":
        raise ValueError("a mirrored half table starts at 0 and ends in a constant")
    flip = [[1.0 - c if j == 0 and not odd else (-1) ** (j + 1) * c
             for j, c in enumerate(coeffs)] for coeffs in segments]
    return PiecewisePoly(name, [-b for b in boundaries[:0:-1]] + list(boundaries),
                         flip[::-1] + list(segments),
                         ("const", -value if odd else 1.0 - value), right)


SIGMOID_X1 = math.log(2.0 + math.sqrt(3.0))

SIGMOID_TABLE = mirrored(
    "sigmoid",
    [0.0, SIGMOID_X1, 6.48],
    [
        [0.4998102695, 0.2527736008, -0.0086980795, -0.0127621849],
        [0.4489827105, 0.3642809155, -0.0948498277, 0.0113621587, -0.0005220290],
    ],
    ("const", 1.0),
    odd=False,
)

TANH_X1 = math.log((math.sqrt(3.0) + 2.0) / math.sqrt(2.0))

TANH_TABLE = mirrored(
    "tanh",
    [0.0, TANH_X1, 4.60],
    [
        [-0.0018890324, 1.0384417257, -0.1695016932, -0.1084776546],
        [0.0800126966, 1.0756763251, -0.4766182792, 0.0938427835, -0.0068823466],
    ],
    ("const", 1.0),
    odd=True,
)

MISH_TABLE = PiecewisePoly(
    "mish",
    [-8.0, -2.2563763963607935, 1.4905711794854284, 8.0],
    [
        [-0.1150272397, 0.5194677655, 0.4293028981, 0.1459472737,
         0.0271015218, 0.0028988426, 0.0001685503, 0.0000041415],
        [0.0000929623, 0.5993108159, 0.3185423599, -0.0135480666,
         -0.0420248186, -0.0022342097, 0.0043057993, 0.0008690923],
        [-0.2470775212, 1.0311064672, 0.1227243900, -0.0757410810,
         0.0200857395, -0.0027959123, 0.0002003775, -0.000005848],
    ],
    ("const", 0.0),
    ("linear", 0.0),
)

TABLES = {"gelu": GELU_TABLE, "sigmoid": SIGMOID_TABLE, "tanh": TANH_TABLE,
          "mish": MISH_TABLE}

TARGETS = {"gelu": gelu_exact, "sigmoid": sigmoid_exact, "tanh": tanh_exact,
           "mish": mish_exact}


def _phi(x):
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _gelu_d2(x):
    return _phi(x) * (2.0 - x * x)


def _gelu_d3(x):
    return -x * _phi(x) * (4.0 - x * x)


def _sigmoid_d2(x):
    y = sigmoid_exact(x)
    return y * (1 - y) * (1 - 2 * y)


def _sigmoid_d3(x):
    y = sigmoid_exact(x)
    return y * (1 - y) * (6 * y * y - 6 * y + 1)


def _tanh_d2(x):
    y = np.tanh(x)
    return -2.0 * y * (1 - y * y)


def _tanh_d3(x):
    y = np.tanh(x)
    return 2.0 * (1 - y * y) * (3 * y * y - 1)


# closed-form curvature where available; mish falls back to differences
DERIVATIVES = {
    gelu_exact: {2: _gelu_d2, 3: _gelu_d3},
    sigmoid_exact: {2: _sigmoid_d2, 3: _sigmoid_d3},
    tanh_exact: {2: _tanh_d2, 3: _tanh_d3},
}


# ---------------------------------------------------------------------------
# boundary search
# ---------------------------------------------------------------------------

@dataclass
class FitSpec:
    """What to fit: target handle, derivative order for the boundary search,
    flatness threshold for the outer cutoff, per-segment degree, samples."""

    target: object
    derivative_order: int = 2           # 2 or 3
    threshold: float = 1e-5
    degree: int = 4
    n_samples: int = 10000
    window: tuple = (-8.0, 8.0)
    diff_step: float = 1e-4

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if self.threshold <= 0:
            raise ValueError("threshold must be > 0")
        if self.derivative_order not in (2, 3):
            raise ValueError("boundary search uses the 2nd or 3rd derivative")


def _numeric_derivative(f, order: int, h: float):
    if order == 2:
        return lambda x: (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)
    return lambda x: (f(x + 2 * h) - 2.0 * f(x + h) + 2.0 * f(x - h)
                      - f(x - 2 * h)) / (2.0 * h ** 3)


def _derivative_of(spec: "FitSpec", order: int):
    table = DERIVATIVES.get(spec.target)
    if table and order in table:
        return table[order], 0.0
    d = _numeric_derivative(spec.target, order, spec.diff_step)
    # finite differences bottom out at ~eps*|f|/h^order; ignore wiggles there
    xs = np.linspace(spec.window[0], spec.window[1], 257)
    fmax = float(np.max(np.abs(np.asarray(spec.target(xs)))))
    floor = 32.0 * np.finfo(np.float64).eps * max(fmax, 1.0) / spec.diff_step ** order
    return d, floor


def _bisect(f, lo: float, hi: float, tol: float = 1e-12) -> float:
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise NoRootFound(f"no sign change on [{lo}, {hi}]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def find_boundaries(spec: FitSpec, grid_points: int = 4001) -> list:
    """Zeros of the chosen derivative inside the window, by bisection."""
    d, floor = _derivative_of(spec, spec.derivative_order)
    xs = np.linspace(spec.window[0], spec.window[1], grid_points)
    vals = np.array([float(d(x)) for x in xs])
    roots = []
    for i in range(len(xs) - 1):
        if vals[i] * vals[i + 1] < 0 and max(abs(vals[i]), abs(vals[i + 1])) > floor:
            roots.append(_bisect(d, float(xs[i]), float(xs[i + 1])))
    if not roots:
        raise NoRootFound("no derivative zero inside the search window")
    # dedupe near-coincident hits
    out = []
    for r in sorted(roots):
        if not out or abs(r - out[-1]) > 1e-8:
            out.append(r)
    return out


def outer_cutoff(spec: FitSpec, start: float, direction: int = 1,
                 step: float = 0.005, limit: float = 32.0) -> float:
    """First point beyond ``start`` where |f''| and |f'''| both drop below
    the flatness threshold."""
    d2, _ = _derivative_of(spec, 2)
    d3, _ = _derivative_of(spec, 3)
    x = start
    while abs(x) <= limit:
        if abs(d2(x)) < spec.threshold and abs(d3(x)) < spec.threshold:
            return x
        x += direction * step
    raise NoRootFound("curvature never fell below the flatness threshold")


def fit_segments(spec: FitSpec, boundaries, left, right=("const", 0.0),
                 name: str = "fit") -> PiecewisePoly:
    """Per-segment unweighted least squares over dense uniform samples."""
    segs = []
    for lo, hi in zip(boundaries[:-1], boundaries[1:]):
        xs = np.linspace(lo, hi, spec.n_samples)
        ys = np.asarray(spec.target(xs), dtype=np.float64)
        vand = np.vander(xs, spec.degree + 1, increasing=True)
        coeffs, _, rank, _ = np.linalg.lstsq(vand, ys, rcond=None)
        if rank < spec.degree + 1:
            raise IllConditioned("normal equations are rank deficient")
        segs.append(list(coeffs))
    return PiecewisePoly(name, list(boundaries), segs, left, right)


def mae(pp, target, lo: float, hi: float, n_points: int = 10000) -> float:
    """Mean absolute error over a uniform grid of n_points in [lo, hi]."""
    if n_points < 2:
        raise ValueError("need at least 2 grid points")
    xs = np.linspace(lo, hi, n_points)
    return float(np.mean(np.abs(np.asarray(pp(xs)) - np.asarray(target(xs)))))


# ---------------------------------------------------------------------------
# fixed-point evaluation (mirrors the protocol arithmetic)
# ---------------------------------------------------------------------------

def shifted_segment_coeffs(coeffs, mid: float):
    """Coefficients of F(t + mid) for the centered variable t = x - mid, as
    many as F has."""
    poly = np.polynomial.polynomial.Polynomial(list(coeffs))
    shifted = poly(np.polynomial.polynomial.Polynomial([mid, 1.0]))
    out = list(shifted.coef)
    out += [0.0] * (len(coeffs) - len(out))
    return out[:len(coeffs)]


def quantized_boundaries(pp: PiecewisePoly, s: int) -> list:
    return [int(math.floor(b * (1 << s))) for b in pp.boundaries]


def eval_on_grid(pp: PiecewisePoly, x_enc, s: int):
    """Float evaluation with segment selection on the scale-s boundary grid.

    This is the reference an interactive evaluation is compared against: the
    protocol only ever sees the quantized input, so boundary membership is
    decided by the encoded comparisons, half-open to the right.
    """
    xs = np.asarray(x_enc, dtype=np.int64)
    out = pp._eval(xs / (1 << s), xs, quantized_boundaries(pp, s))
    return out if xs.ndim else float(out[0])
