"""Truncated Fourier model of rotation-invariant function spaces on the n-torus.

A function of n <= 3 variables is one complex array over the degree box
|k|_inf <= d, holding the coefficient of z**k at k + d. Rotations, Fejer
smoothing and projections act cell-wise on it and inner products are Parseval
sums (normalized measure), so every verified identity is about coefficients.
Separation from a span of monomials evaluates the annihilating functional; its
pairings contract the cell axis, so a stack of spans meets a stack of functions
in a few matmuls.
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
        """Both arrays on the larger of the two degree boxes: an array already on it
        is returned as it is, only one on the smaller box is zero-padded."""
        if self.n != other.n:
            raise DimensionMismatch("dimension mismatch")
        degree = max(self.degree, other.degree)
        return tuple(
            f.array if f.degree == degree else np.pad(f.array, degree - f.degree)
            for f in (self, other)
        )

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
    """The box array made read-only, once its coefficients are checked finite.
    Every caller passes a fresh C-contiguous complex128 array, so the check
    reads its float64 view: the real and imaginary parts side by side."""
    if not np.isfinite(array.view(np.float64)).all():
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
    cells omega masks. omega holds one mask per span and g one function per column,
    flat box cells on axis 0 of both: (cells, spans) and (cells, functions), or 1-D
    for a single one. The functional of span i and function j pairs h against g's
    component outside the span, phi(h) = sum_c h_c conj(keep_ci g_cj) / N_ij with
    keep = ~omega and N_ij its squared norm, so it pairs to 1 with g (to zero when g
    lies in the span). Each pairing contracts the cell axis with one matmul, so no
    (cells, spans, functions) array is formed. Returns (phi vanishes on every
    monomial of the span, phi(g)), shaped (spans, functions) minus the 1-D axes."""
    shape = np.shape(omega)[1:] + np.shape(g)[1:]
    inside = np.reshape(omega, (len(omega), -1)).astype(bool).astype(float)  # 0/1
    g = np.reshape(g, (len(g), -1))
    keep = 1.0 - inside
    squares = g * g.conj()
    norm_sq = keep.T @ squares.real
    value = (keep.T @ squares) / np.where(norm_sq > 0, norm_sq, 1.0)
    # phi at the monomial of cell c is conj(keep_ci g_cj) / N_ij: count the span's
    # monomials where it is nonzero
    leaks = (inside * keep).T @ (g != 0).astype(float)
    return (leaks == 0).reshape(shape)[()], value.reshape(shape)[()]


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
    """Seeded random function; a cell drawn twice keeps the last of its complex
    normal draws. At degree >= 1 at least one supported index is nonconstant; the
    degree-0 box holds only the constant."""
    size = (2 * degree + 1) ** n
    origin = size // 2
    m = int(rng.integers(1, min(max_terms, size) + 1))
    first = int(rng.integers(max(size - 1, 1)))  # a draw over the cells but the origin's
    if 0 < origin <= first:
        first += 1
    cells = [first, *rng.integers(0, size, size=m).tolist()]
    parts = rng.standard_normal((m + 1, 2)).tolist()  # (real, imag) of each coefficient
    flat = np.zeros(size, dtype=complex)
    for cell, (re, im) in zip(cells, parts):  # in draw order, so the last draw wins
        flat[cell] = complex(re, im)
    return FourierFunction._of(flat.reshape((2 * degree + 1,) * n))


def random_point(n: int, rng) -> TorusPoint:
    return TorusPoint.from_angles(rng.uniform(0.0, 2.0 * np.pi, size=n))


def monomial_orthonormality_residual(n: int, degree: int, seed: int = 0) -> float:
    """Deviation of the Parseval Gram matrix of the monomials, built as the
    constructor builds one, from the identity. A small box pairs every monomial
    with every other. A large box (no box x box array) pairs 4 combinations
    sum_k R[j, k] z**k instead: row 0 of R is all ones, the others seeded Gaussian
    integers with |Re|, |Im| <= 8, and the residual is max|G - R.R^H| relative to
    max diag(R.R^H). Every sum is an integer below 2**53, so it is exact: a sound
    model reads 0, and a cell map sending two monomials to one cell raises G[0, 0]."""
    cells = _cells(box_indices(n, degree), n, degree)
    size = cells.size
    if size**2 <= 100_000:
        rows = _summed(cells + size * np.arange(size), np.ones(size), (size, size))
        return float(np.max(np.abs(_parseval(rows, rows) - np.eye(size))))
    parts = np.random.default_rng(seed).integers(-8, 9, size=(2, 4, size), dtype=np.int8)
    weights = parts[0].astype(complex)
    weights.imag = parts[1]
    weights[0] = 1.0
    expected = weights @ weights.conj().T
    targets = (cells + size * np.arange(4)[:, None]).reshape(-1)
    rows = _summed(targets, weights.reshape(-1), (4, size))
    del parts, weights, targets  # free R before the Gram: 35,937 cells at n = 3, d = 16
    return float(np.max(np.abs(_parseval(rows, rows) - expected)) / np.max(expected.real))


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
    supported frequency, then decrease strictly. At degree 0 every function is
    constant and every kernel keeps it as it is, so its errors must all be 0."""
    rng = np.random.default_rng(seed)
    drawn = [random_function(n, degree, rng) for _ in range(functions)]
    profiles = [[(f - fejer_smooth(f, d)).norm2() for d in degrees] for f in drawn]
    steady = [
        all(b <= a for a, b in zip(e, e[1:])) and (e[0] == 0 if degree == 0 else e[-1] < e[0])
        for e in profiles
    ]
    return profiles, all(steady)


def _folded_cells(n: int, degree: int) -> np.ndarray:
    """Flat cell of |k| for each cell k of the box in C order: folding k -> |k|
    sends each coefficient into the nonnegative orthant."""
    box = (2 * degree + 1,) * n
    return np.ravel_multi_index(tuple(np.abs(np.indices(box) - degree) + degree), box).ravel()


def polydisc_rotation_trials(n: int, degree: int, trials: int = 100, seed: int = 0):
    """Rotations must preserve the support, hence the nonnegative-support class."""
    rng = np.random.default_rng(seed)
    fold = _folded_cells(n, degree)
    preserved = True
    for _ in range(trials):
        f = random_function(n, degree, rng)
        folded = FourierFunction._of(_summed(fold, f.array.reshape(-1), f.array.shape))
        rotated = act(random_point(n, rng), folded)
        same_support = np.array_equal(rotated.array != 0, folded.array != 0)
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
    cells = np.arange((2 * degree + 1) ** n)  # the whole box, in C order
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
    for start in range(1, 2**nb, 32):  # 32 supports g per block keep its arrays small
        g_sets = subsets[start : start + 32]
        vanishes, value = annihilating_functional(masks, masks[:, g_sets].astype(float))
        separated = vanishes & (value.real >= 0.5)  # (spans, supports)
        expected = (g_sets[None, :] & ~subsets[:, None]) != 0
        mismatches += int(np.count_nonzero(separated != expected))
        pairs += separated.size
    return pairs, mismatches
