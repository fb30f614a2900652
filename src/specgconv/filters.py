"""Declarative spectral responses F(lambda) for designing graph convolutions.

A FilterDesign is a small frozen value describing how a response is computed
from the eigenvalues of a graph Laplacian: closed low/high/band/all-pass
families, the Chebyshev basis by recursion, the CayleyNet real-coefficient
basis, or explicitly tabulated values. Designs have a canonical textual form
(``lowpass(eta=5)``, ``cheb(k=3)``, ...) used in config files. A family is
one FilterDesign subclass; parsing, formatting and evaluation are generic.
"""
from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from .data import load_matrix_csv
from .spectral import SpectralBasis


class FilterDesign:
    """Base of the filter families: frozen dataclasses whose class line gives
    the text key, the text arguments as (text name, field, converter) and
    whether response(lam, lambda_max) needs lambda_max > 0; check() validates
    the fields, and every float text argument must also be finite."""

    key: ClassVar[str]
    args: ClassVar[tuple]
    needs_lambda_max: ClassVar[bool]

    def __init_subclass__(cls, key: str, args: tuple = (), needs_lambda_max: bool = False):
        cls.key, cls.args, cls.needs_lambda_max = key, args, needs_lambda_max

    def __post_init__(self):
        self.check()
        if not all(math.isfinite(getattr(self, f)) for _, f, conv in self.args if conv is float):
            raise ValueError(f"design {self.text()}: parameters must be finite")

    def check(self) -> None:
        """Raise ValueError on parameters outside the family's domain."""

    def check_graph(self, n: int) -> None:
        """Raise ValueError if the design is of no use on graphs of at most n
        nodes. A design meeting many graphs is checked against the largest,
        so that no small graph refuses it."""

    def text(self) -> str:
        parts = [f"{name}={format(getattr(self, field), 'g' if conv is float else '')}"
                 for name, field, conv in self.args]
        return f"{self.key}({','.join(parts)})" if parts else self.key

    @classmethod
    def from_text(cls, take, base_dir) -> "FilterDesign":
        """Build from parsed text arguments; take(name, conv) pops one."""
        return cls(**{field: take(name, conv) for name, field, conv in cls.args})


@dataclass(frozen=True)
class LowPass(FilterDesign, key="lowpass", args=(("eta", "eta", float),), needs_lambda_max=True):
    """(1 - lambda/lambda_max)^eta; eta moves the cut-off frequency."""

    eta: float

    def check(self):
        if self.eta <= 0:
            raise ValueError(f"lowpass exponent must be positive, got {self.eta}")

    def response(self, lam, lambda_max):
        return (1.0 - lam / lambda_max) ** self.eta


@dataclass(frozen=True)
class HighPass(FilterDesign, key="highpass", needs_lambda_max=True):
    """lambda/lambda_max."""

    def response(self, lam, lambda_max):
        return lam / lambda_max


@dataclass(frozen=True)
class BandPass(FilterDesign, key="bandpass", needs_lambda_max=True,
               args=(("c", "center", float), ("gamma", "gamma", float))):
    """exp(-gamma (c*lambda_max - lambda)^2), center c as a fraction of lambda_max."""

    center: float
    gamma: float

    def check(self):
        if not 0 < self.center < 1:
            raise ValueError(f"band-pass center must be in (0,1), got {self.center}")
        if self.gamma <= 0:
            raise ValueError(f"band-pass width must be positive, got {self.gamma}")

    def response(self, lam, lambda_max):
        return np.exp(-self.gamma * (self.center * lambda_max - lam) ** 2)


@dataclass(frozen=True)
class AllPass(FilterDesign, key="allpass"):
    """Constant 1."""

    def response(self, lam, lambda_max):
        return np.ones_like(lam)


@dataclass(frozen=True)
class ExpLowPass(FilterDesign, key="explowpass", args=(("tau", "tau", float),)):
    """exp(-lambda/tau)."""

    tau: float

    def check(self):
        if self.tau <= 0:
            raise ValueError(f"exp low-pass scale must be positive, got {self.tau}")

    def response(self, lam, lambda_max):
        return np.exp(-lam / self.tau)


@dataclass(frozen=True)
class OneMinusRatio(FilterDesign, key="oneminus", needs_lambda_max=True):
    """1 - lambda/lambda_max."""

    def response(self, lam, lambda_max):
        return 1.0 - lam / lambda_max


@dataclass(frozen=True)
class ChebBasis(FilterDesign, key="cheb", args=(("k", "k", int),), needs_lambda_max=True):
    """k-th Chebyshev kernel profile, k >= 1 (F1 = 1, F2 = 2*lambda/lambda_max - 1)."""

    k: int

    def check(self):
        if self.k < 1:
            raise ValueError(f"Chebyshev index must be >= 1, got {self.k}")

    def check_graph(self, n):
        # by Cayley-Hamilton, an order above n is a linear combination of lower ones
        if self.k > n:
            raise ValueError(f"design {self.text()}: Chebyshev index above the node count {n}")

    def response(self, lam, lambda_max):
        f2 = 2.0 * lam / lambda_max - 1.0
        if self.k == 1:
            return np.ones_like(lam)
        prev, cur = np.ones_like(lam), f2
        for _ in range(self.k - 2):
            prev, cur = cur, 2.0 * f2 * cur - prev
        return cur


@dataclass(frozen=True)
class CayleyBasis(FilterDesign, key="cayley",
                  args=(("s", "s", int), ("h", "h", float), ("r", "r", int))):
    """Column s of the Cayley basis matrix with scale h and order r."""

    s: int
    h: float
    r: int

    def check(self):
        if self.r < 1:
            raise ValueError(f"Cayley order must be >= 1, got {self.r}")
        if not 1 <= self.s <= 2 * self.r + 1:
            raise ValueError(f"Cayley column s must be in 1..{2 * self.r + 1}, got {self.s}")
        if self.h <= 0:
            raise ValueError(f"Cayley scale must be positive, got {self.h}")

    def response(self, lam, lambda_max):
        if self.s == 1:
            return np.ones_like(lam)
        t = cayley_theta(self.h * lam)
        if self.s % 2 == 0:
            return np.cos((self.s // 2) * t)
        return -np.sin(((self.s - 1) // 2) * t)


@dataclass(frozen=True)
class Tabulated(FilterDesign, key="tabulated"):
    """Explicit response values aligned to the ascending eigenvalues."""

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=np.float64).ravel()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        bad = np.flatnonzero(~np.isfinite(v))
        if bad.size:
            raise ValueError(f"design {self.text()}: entry {bad[0]} is {v[bad[0]]}, not finite")

    def response(self, lam, lambda_max):
        if self.values.shape[0] != lam.shape[0]:
            raise ValueError(f"tabulated design has {self.values.shape[0]} values "
                             f"for {lam.shape[0]} eigenvalues")
        return self.values.copy()

    def check_graph(self, n):
        # one value per eigenvalue: the values fit graphs of exactly n nodes
        if self.values.shape[0] != n:
            raise ValueError(f"design {self.text()}: {self.values.shape[0]} values "
                             f"for a graph of {n} nodes")

    def text(self):
        return f"tabulated(n={self.values.shape[0]})"

    @classmethod
    def from_text(cls, take, base_dir):
        path = take("file", str)
        if base_dir is not None:
            path = os.path.join(base_dir, path)
        m = load_matrix_csv(path)
        if m.shape[1] != 1:
            raise ValueError(f"tabulated response file {path} has {m.shape[1]} columns, "
                             "expected one value per row")
        try:
            return cls(values=m[:, 0])
        except ValueError as exc:
            raise ValueError(f"tabulated response file {path}: {exc}") from None


# text key -> family
FAMILIES = {cls.key: cls for cls in FilterDesign.__subclasses__()}


def cayley_theta(x):
    """theta(x) = atan2(-1, x) - atan2(1, x); in (-2*pi, 0) with theta(0) = -pi."""
    return np.arctan2(-1.0, x) - np.arctan2(1.0, x)


def evaluate_on(design: FilterDesign, lam: np.ndarray, lambda_max: float) -> np.ndarray:
    """Evaluate a design elementwise on given eigenvalues."""
    lam = np.asarray(lam, dtype=np.float64)
    if not isinstance(design, FilterDesign):
        raise TypeError(f"not a FilterDesign: {design!r}")
    if design.needs_lambda_max and lambda_max <= 0:
        raise ValueError(f"{type(design).__name__} is undefined for lambda_max <= 0 "
                         "(edgeless graph?)")
    return design.response(lam, lambda_max)


def evaluate(design: FilterDesign, basis: SpectralBasis) -> np.ndarray:
    """Evaluate a design at the basis eigenvalues (ascending order)."""
    return evaluate_on(design, basis.eigenvalues, basis.lambda_max)


def design_bmatrix(basis: SpectralBasis, designs: Sequence[FilterDesign]) -> np.ndarray:
    """The read-only n x S matrix B whose column s is the s-th designed
    response at the basis eigenvalues: B[i, s] = F_s(lambda_i)."""
    B = np.column_stack([evaluate(d, basis) for d in designs])
    B.setflags(write=False)
    return B


def cayley_bmatrix(basis: SpectralBasis, h: float, r: int) -> np.ndarray:
    """Cayley basis matrix with S = 2r+1 columns.

    Column 1 is all ones; even columns are cos((s/2) theta(h*lambda)); odd
    columns s >= 3 are -sin(((s-1)/2) theta(h*lambda)). Real coefficients
    (c0, a1, b1, ..., ar, br) against these columns reproduce the complex
    rational spectral filter with c_k = (a_k + i b_k)/2.
    """
    designs = [CayleyBasis(s=s, h=h, r=r) for s in range(1, 2 * r + 2)]
    return design_bmatrix(basis, designs)


def gcn_theoretical_profile(d_bar: float, lam: np.ndarray) -> np.ndarray:
    """Average-degree approximation of the GCN response: 1 - lambda*d/(d+1)."""
    if d_bar <= 0:
        raise ValueError(f"average degree must be positive, got {d_bar}")
    return 1.0 - np.asarray(lam, dtype=np.float64) * d_bar / (d_bar + 1.0)


def gcn_cutoff(d_bar: float) -> float:
    """Frequency where the approximate GCN response reaches zero: (d+1)/d."""
    if d_bar <= 0:
        raise ValueError(f"average degree must be positive, got {d_bar}")
    return (d_bar + 1.0) / d_bar


# points of the evenly spaced lambda grid over [0, lambda_max] that coverage reads
COVERAGE_GRID = 256


def coverage(designs: Sequence[FilterDesign], basis: SpectralBasis) -> float:
    """Spectrum-coverage diagnostic: min over a COVERAGE_GRID-point lambda
    grid of sum_s F_s.

    A set of designs meant to be problem agnostic should keep this away from
    zero; the CLI warns below 0.01. Tabulated designs are interpolated onto
    the grid.
    """
    lam = np.linspace(0.0, basis.lambda_max, COVERAGE_GRID)
    total = np.zeros(COVERAGE_GRID)
    for d in designs:
        if isinstance(d, Tabulated):
            total += np.interp(lam, basis.eigenvalues, evaluate(d, basis))
        else:
            total += evaluate_on(d, lam, basis.lambda_max)
    return float(total.min())


# ---------------------------------------------------------------------------
# canonical textual form
# ---------------------------------------------------------------------------

_DESIGN_RE = re.compile(r"^\s*([a-z]+)\s*(?:\(\s*(.*?)\s*\))?\s*$")


def _parse_args(name: str, body: str) -> dict:
    args = {}
    if not body:
        return args
    for part in body.split(","):
        if "=" not in part:
            raise ValueError(f"malformed design argument {part!r} (expected key=value)")
        key, value = (t.strip() for t in part.split("=", 1))
        if key in args:
            raise ValueError(f"design {name!r} repeats argument {key!r}")
        args[key] = value
    return args


def parse_design(text: str, base_dir=None) -> FilterDesign:
    """Parse the canonical textual form of a design.

    Examples: ``lowpass(eta=5)``, ``highpass``, ``bandpass(c=0.5,gamma=0.25)``,
    ``allpass``, ``explowpass(tau=10)``, ``oneminus``, ``cheb(k=3)``,
    ``cayley(s=4,h=1,r=3)``, ``tabulated(file=values.csv)``. Relative
    tabulated paths resolve against base_dir when given. Each argument is
    given once.
    """
    m = _DESIGN_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse filter design {text!r}")
    name, body = m.group(1), m.group(2) or ""
    args = _parse_args(name, body)
    if name not in FAMILIES:
        raise ValueError(f"unknown filter design {name!r}")

    def take(key, conv):
        if key not in args:
            raise ValueError(f"design {name!r} is missing argument {key!r}")
        try:
            return conv(args.pop(key))
        except ValueError as exc:
            raise ValueError(f"design {name!r} argument {key!r}: {exc}") from None

    design = FAMILIES[name].from_text(take, base_dir)
    if args:
        raise ValueError(f"design {name!r} got unknown arguments {sorted(args)}")
    return design


def format_design(design: FilterDesign) -> str:
    """Canonical textual form (inverse of parse_design, except Tabulated)."""
    if not isinstance(design, FilterDesign):
        raise TypeError(f"not a FilterDesign: {design!r}")
    return design.text()
