"""Truncated Fourier model of rotation-invariant function spaces on the n-torus.

A function of n <= 3 variables is one complex array over the degree box
|k|_inf <= d, holding the coefficient of z**k at k + d. Rotations, Fejer
smoothing and projections act cell-wise on it and inner products are Parseval
sums (normalized measure), so every verified identity is about coefficients.
Separation from a span of monomials evaluates the annihilating functional.
"""

from __future__ import annotations

import itertools
from functools import reduce
from types import MappingProxyType

import numpy as np

from .errors import DimensionMismatch

MAX_TORUS_DIM = 3


class TorusPoint:
    """Point of the n-torus: unit-modulus complex coordinates."""

    __slots__ = ("w",)

    def __init__(self, w) -> None:
        arr = np.asarray(w, dtype=complex).reshape(-1)
        if not 1 <= arr.size <= MAX_TORUS_DIM:
            raise DimensionMismatch(f"torus dimension must be 1..{MAX_TORUS_DIM}")
        if np.max(np.abs(np.abs(arr) - 1.0)) > 1e-12:
            raise ValueError("coordinates must have unit modulus")
        arr.setflags(write=False)
        self.w = arr

    @classmethod
    def from_angles(cls, theta) -> "TorusPoint":
        return cls(np.exp(1j * np.asarray(theta, dtype=float).reshape(-1)))

    n = property(lambda self: int(self.w.size))


class FourierFunction:
    """Trigonometric polynomial stored as ``array``: read-only, shape (2d+1,)*n,
    C order = lexicographic order of k. The constructor validates a mapping
    k -> c_k (repeated keys add up)."""

    __slots__ = ("array",)

    def __init__(self, n: int, degree: int, coeffs) -> None:
        if not 1 <= n <= MAX_TORUS_DIM:
            raise DimensionMismatch(f"torus dimension must be 1..{MAX_TORUS_DIM}")
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        cells = _cells([_as_key(k, n) for k in coeffs], n, degree)
        values = np.array([complex(c) for c in coeffs.values()], dtype=complex)
        self.array = _frozen(_summed(cells, values, (2 * degree + 1,) * n))

    @classmethod
    def _of(cls, array: np.ndarray) -> "FourierFunction":  # wraps without the key checks
        f = object.__new__(cls)
        f.array = _frozen(array)
        return f

    n = property(lambda self: self.array.ndim)
    degree = property(lambda self: self.array.shape[0] // 2)

    @property
    def coeffs(self) -> MappingProxyType:
        """Read-only view {k: c_k} of the nonzero coefficients, keys sorted."""
        return MappingProxyType(dict(zip(self.support(), self.array[self.array != 0].tolist())))

    def support(self) -> tuple:
        return tuple(map(tuple, (np.argwhere(self.array) - self.degree).tolist()))

    def coefficient(self, k) -> complex:
        cell = _cells([_as_key(k, self.n)], self.n, self.degree, drop_outside=True)
        return complex(self.array.flat[cell[0]]) if cell.size else 0j

    def norm2(self) -> float:
        return float(np.linalg.norm(self.array))

    def _aligned(self, other: "FourierFunction") -> tuple:
        """Both arrays zero-padded to the larger of the two degree boxes."""
        if self.n != other.n:
            raise DimensionMismatch("dimension mismatch")
        degree = max(self.degree, other.degree)
        return tuple(np.pad(f.array, degree - f.degree) for f in (self, other))

    def __add__(self, other: "FourierFunction") -> "FourierFunction":
        return FourierFunction._of(np.add(*self._aligned(other)))

    def __sub__(self, other: "FourierFunction") -> "FourierFunction":
        return FourierFunction._of(np.subtract(*self._aligned(other)))

    def __mul__(self, scalar) -> "FourierFunction":
        return FourierFunction._of(self.array * complex(scalar))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        terms = np.count_nonzero(self.array)
        return f"FourierFunction(n={self.n}, degree={self.degree}, terms={terms})"


def _as_key(k, n: int) -> tuple:
    key = (k,) if isinstance(k, int) else tuple(int(kj) for kj in k)
    if len(key) != n:
        raise DimensionMismatch(f"multi-index {key} has length {len(key)}, expected {n}")
    return key


def _frozen(array: np.ndarray) -> np.ndarray:
    """The box array made read-only, once its coefficients are checked finite."""
    if not np.isfinite(array).all():
        raise ValueError("coefficients must be finite")
    array.setflags(write=False)
    return array


def _cells(keys: list, n: int, degree: int, drop_outside: bool = False) -> np.ndarray:
    """Flat box-array cells of keys, tuples of n ints checked against the box before
    they become int64; a key outside raises ValueError, or drop_outside leaves it out."""
    inside = [key for key in keys if max(map(abs, key)) <= degree]
    if len(inside) < len(keys) and not drop_outside:
        key = next(key for key in keys if max(map(abs, key)) > degree)
        raise ValueError(f"multi-index {key} outside the degree-{degree} box")
    offsets = np.array(inside, dtype=np.int64).reshape(-1, n) + degree
    return np.ravel_multi_index(tuple(offsets.T), (2 * degree + 1,) * n)


def _summed(cells: np.ndarray, values: np.ndarray, shape: tuple) -> np.ndarray:
    """Box array holding at each cell the sum of the values sent to it."""
    flat = np.zeros(int(np.prod(shape)), dtype=complex)
    np.add.at(flat, cells, values)
    return flat.reshape(shape)


def monomial(n: int, degree: int, k, coeff=1.0) -> FourierFunction:
    return FourierFunction(n, degree, {_as_key(k, n): coeff})


def act(w: TorusPoint, f: FourierFunction) -> FourierFunction:
    """Rotation by w: each coefficient picks up the unimodular factor w**k."""
    if w.n != f.n:
        raise DimensionMismatch("rotation and function dimensions differ")
    powers = np.arange(-f.degree, f.degree + 1)
    return FourierFunction._of(f.array * reduce(np.multiply.outer, [wj**powers for wj in w.w]))


def _parseval(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Parseval sums <a_r, b_s> between the rows of two stacks of flattened box arrays."""
    return a @ b.conj().T


def inner_product(f: FourierFunction, g: FourierFunction) -> complex:
    """Parseval sum over the degree box (normalized measure, total mass 1)."""
    a, b = (x.reshape(1, -1) for x in f._aligned(g))
    return complex(_parseval(a, b)[0, 0])


def _projected(f: FourierFunction, cells: np.ndarray) -> np.ndarray:
    """Sum of the projections of f onto the monomials at cells; the projection
    onto the monomial at cell c keeps f's coefficient at c and zeros the rest."""
    return _summed(cells, f.array.reshape(-1)[cells], f.array.shape)


def project_k(f: FourierFunction, k) -> FourierFunction:
    """Projection onto the single-monomial space of power k."""
    return FourierFunction._of(_projected(f, _cells([_as_key(k, f.n)], f.n, f.degree)))


def fejer_smooth(f: FourierFunction, d: int) -> FourierFunction:
    """Convolution with the product Fejer kernel: a nonnegative unit-mass mollifier."""
    if d < 0:
        raise ValueError("Fejer degree must be nonnegative")
    damping = np.maximum(0.0, 1.0 - np.abs(np.arange(-f.degree, f.degree + 1)) / (d + 1))
    return FourierFunction._of(f.array * reduce(np.multiply.outer, [damping] * f.n))


def polydisc_signature(f: FourierFunction) -> bool:
    """True iff every supported multi-index has nonnegative coordinates."""
    orthant = f.array[(slice(f.degree, None),) * f.n]
    return bool(np.count_nonzero(orthant) == np.count_nonzero(f.array))


def annihilating_functional(omega: np.ndarray, g: np.ndarray) -> tuple:
    """Evaluate the functional separating g from the span of the monomials at the
    cells omega masks (omega and g broadcast, flat box cells on axis 0): pairing
    against g's component outside the span, scaled to pair to 1 with g (zero when
    g lies in the span). Returns (vanishes on every omega monomial, value on g)."""
    outside = np.where(omega, 0, g)
    norm_sq = (outside * outside.conj()).real.sum(axis=0)
    functional = outside / np.where(norm_sq > 0, norm_sq, 1.0)
    # its value on the monomial at cell k is the conjugated entry at k
    vanishes = ~np.any(omega & (functional != 0), axis=0)
    return vanishes, (g * functional.conj()).sum(axis=0)


def separation_check(omega, g: FourierFunction) -> bool:
    """Separate g from the span of the monomials indexed by omega: True when the
    annihilating functional vanishes on the span and takes value 1 on g."""
    cells = _cells([_as_key(k, g.n) for k in omega], g.n, g.degree, drop_outside=True)
    mask = np.isin(np.arange(g.array.size), cells)
    vanishes, value = annihilating_functional(mask, g.array.reshape(-1))
    return bool(vanishes and value.real >= 0.5)


# -- verification suites (shared by the CLI and the acceptance tests) --------


def box_indices(n: int, degree: int) -> list:
    """All multi-indices of the degree box, lexicographically sorted."""
    return list(itertools.product(range(-degree, degree + 1), repeat=n))


def random_function(n: int, degree: int, rng, max_terms: int = 12) -> FourierFunction:
    """Seeded random function with at least one nonconstant supported index;
    a cell drawn twice keeps the last of its complex normal draws."""
    size = (2 * degree + 1) ** n
    origin = size // 2
    m = int(rng.integers(1, min(max_terms, size) + 1))
    first = int(rng.integers(max(size - 1, 1)))  # a draw over the cells but the origin's
    if 0 < origin <= first:
        first += 1
    cells = np.concatenate([[first], rng.integers(0, size, size=m)])
    parts = rng.standard_normal((m + 1, 2))  # (real, imag) of each coefficient
    values = parts[:, 0] + 1j * parts[:, 1]
    last_draws = m - np.unique(cells[::-1], return_index=True)[1]
    shape = (2 * degree + 1,) * n
    return FourierFunction._of(_summed(cells[last_draws], values[last_draws], shape))


def random_point(n: int, rng) -> TorusPoint:
    return TorusPoint.from_angles(rng.uniform(0.0, 2.0 * np.pi, size=n))


def monomial_orthonormality_residual(n: int, degree: int, seed: int = 0) -> float:
    """Deviation from the identity of the Parseval Gram matrix of the monomials,
    built as the constructor builds one: all of it on a small box, else its diagonal
    blocks of 4 in a seeded order (each monomial against itself and 3 others)."""
    box = box_indices(n, degree)
    size = len(box)
    block = size if size**2 <= 100_000 else 4  # no box x box array on a large box
    cells = _cells(box, n, degree)[np.random.default_rng(seed).permutation(size)]
    worst = 0.0
    for start in range(0, size, block):
        chunk = cells[start : start + block]
        m = chunk.size
        rows = _summed(chunk + size * np.arange(m), np.ones(m), (m, size))
        worst = max(worst, float(np.max(np.abs(_parseval(rows, rows) - np.eye(m)))))
    return worst


def unitarity_residual(n: int, degree: int, trials: int = 50, seed: int = 0) -> float:
    """max |<act(w,f), act(w,g)> - <f,g>| over seeded random triples."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        f = random_function(n, degree, rng)
        g = random_function(n, degree, rng)
        w = random_point(n, rng)
        worst = max(worst, abs(inner_product(act(w, f), act(w, g)) - inner_product(f, g)))
    return worst


def fejer_monotonicity(
    n: int, degree: int, functions: int = 20, degrees=(1, 2, 4, 8, 16), seed: int = 0
):
    """Smoothing error profiles on seeded random functions. Returns (profiles,
    monotone): monotone means no step increases and the last error is strictly
    below the first. Steps tie exactly while both kernel degrees annihilate every
    supported frequency, then decrease strictly."""
    rng = np.random.default_rng(seed)
    drawn = [random_function(n, degree, rng) for _ in range(functions)]
    profiles = [[(f - fejer_smooth(f, d)).norm2() for d in degrees] for f in drawn]
    steady = [all(b <= a for a, b in zip(e, e[1:])) and e[-1] < e[0] for e in profiles]
    return profiles, all(steady)


def polydisc_rotation_trials(n: int, degree: int, trials: int = 100, seed: int = 0):
    """Rotations must preserve the support, hence the nonnegative-support class."""
    rng = np.random.default_rng(seed)
    # folding k -> |k| sends each coefficient into the nonnegative orthant
    fold = _cells([tuple(map(abs, k)) for k in box_indices(n, degree)], n, degree)
    preserved = True
    for _ in range(trials):
        f = random_function(n, degree, rng)
        folded = FourierFunction._of(_summed(fold, f.array.reshape(-1), f.array.shape))
        rotated = act(random_point(n, rng), folded)
        same_support = rotated.support() == folded.support()
        preserved &= polydisc_signature(folded) and polydisc_signature(rotated) and same_support
    return trials, preserved


def smoothing_commutes_residual(n: int, degree: int, trials: int = 25, seed: int = 0) -> float:
    """max coefficient gap between smooth-then-rotate and rotate-then-smooth."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        f = random_function(n, degree, rng)
        w = random_point(n, rng)
        d = int(rng.integers(0, degree + 2))
        gap = fejer_smooth(act(w, f), d).array - act(w, fejer_smooth(f, d)).array
        worst = max(worst, float(np.max(np.abs(gap))))
    return worst


def completeness_residual_model(n: int, degree: int, trials: int = 25, seed: int = 0) -> float:
    """Summing the single-index projections over the box reconstructs f."""
    rng = np.random.default_rng(seed)
    cells = _cells(box_indices(n, degree), n, degree)
    worst = 0.0
    for _ in range(trials):
        f = random_function(n, degree, rng)
        worst = max(worst, (f - FourierFunction._of(_projected(f, cells))).norm2())
    return worst


def separation_scan_1d(degree: int = 4):
    """Exhaustive scan of the one-dimensional degree box: for every subset omega
    and every g with coefficient 1 on a nonempty support S, the functional must
    separate exactly when S reaches outside omega. Returns (pairs, mismatches)."""
    nb = 2 * degree + 1
    subsets = np.arange(2**nb)
    masks = ((subsets >> np.arange(nb)[:, None]) & 1) == 1  # bit b: multi-index b - degree
    pairs = mismatches = 0
    for start in range(1, 2**nb, 4):  # 4 supports g per block keep its arrays small
        g_sets = subsets[start : start + 4]
        g = masks[:, g_sets, None].astype(float)
        vanishes, value = annihilating_functional(masks[:, None, :], g)
        separated = vanishes & (value.real >= 0.5)
        expected = (g_sets[:, None] & ~subsets[None, :]) != 0
        mismatches += int(np.count_nonzero(separated != expected))
        pairs += separated.size
    return pairs, mismatches
