"""Finite group actions presented by permutation generators.

Everything downstream works with a fully enumerated group acting on the
point set {0..n-1}, held as one (order, n) image matrix in a deterministic
order: elements, stabilizers and conjugates are index gathers on it, and
`Permutation` objects appear only as generators and the lazy `elements`
view. The orbitals are held as one label matrix per action, the single
input of the commutant algebra built on it.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapExceeded,
    InternalInconsistency,
    InvalidPermutation,
    NotTransitive,
    SpecParseError,
)

DEFAULT_CAP = 20_000


class Permutation:
    """Bijection of {0..n-1} stored as its image array (images[i] = alpha.i)."""

    __slots__ = ("images",)

    def __init__(self, images) -> None:
        arr = np.asarray(images)
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidPermutation("image array must be a nonempty 1-d sequence")
        if arr.dtype.kind not in "iu":
            raise InvalidPermutation(f"image entries must be integers, not {arr.dtype}")
        arr = arr.astype(np.int64)
        n = arr.size
        if not np.array_equal(np.sort(arr), np.arange(n)):
            raise InvalidPermutation(f"not a bijection of 0..{n - 1}: {arr.tolist()}")
        arr.setflags(write=False)
        self.images = arr

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(np.arange(n))

    @property
    def n(self) -> int:
        return int(self.images.size)

    def is_identity(self) -> bool:
        return bool(np.array_equal(self.images, np.arange(self.n)))

    def compose(self, other: "Permutation") -> "Permutation":
        """Function composition: (self.compose(other))(i) = self(other(i))."""
        if self.n != other.n:
            raise InvalidPermutation("cannot compose permutations of different sizes")
        return Permutation(self.images[other.images])

    def inverse(self) -> "Permutation":
        return Permutation(np.argsort(self.images))

    def apply(self, point: int) -> int:
        return int(self.images[point])

    def key(self) -> tuple:
        return tuple(int(i) for i in self.images)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and np.array_equal(self.images, other.images)

    def __hash__(self) -> int:
        return hash(self.images.tobytes())

    def __repr__(self) -> str:
        return f"Permutation({self.images.tolist()})"


@dataclass(frozen=True)
class Stabilizer:
    """Element indices of the subgroup fixing a point."""

    point: int
    members: tuple


class GroupAction:
    """Enumerated finite group acting on {0..n_points-1}.

    The group is its (order, n_points) image matrix: row i is the image array
    of element i, and row 0 is the identity. `inverse_images` holds the rows
    of the inverses. `elements` (`Permutation` objects, for callers outside the
    pipeline), `orbital_labels` and `_index` are built on first use and cached.
    """

    def __init__(self, n_points: int, generators, images) -> None:
        self.n_points = int(n_points)
        self.generators = tuple(generators)
        self.images = np.array(images, dtype=np.int64)
        if not len(self.images) or not np.array_equal(self.images[0], np.arange(self.n_points)):
            raise InternalInconsistency("image matrix must start with the identity")
        self.inverse_images = np.argsort(self.images, axis=1)
        self.images.setflags(write=False)
        self.inverse_images.setflags(write=False)

    @property
    def order(self) -> int:
        return len(self.images)

    @functools.cached_property
    def elements(self) -> tuple:
        return tuple(Permutation(row) for row in self.images)

    @functools.cached_property
    def _index(self) -> dict:
        return {row.tobytes(): i for i, row in enumerate(self.images)}

    def element_index(self, perm: Permutation) -> int:
        try:
            return self._index[perm.images.tobytes()]
        except KeyError:
            raise InternalInconsistency("permutation is not an element of the enumerated group")

    @functools.cached_property
    def orbital_labels(self) -> np.ndarray:
        """(n_points, n_points) matrix whose entry (x, y) indexes the orbital of (x, y).

        Orbitals are numbered in order of their row-major smallest pair, so the
        diagonal is orbital 0. Every orbital meets row 0 in the pairs (0, z)
        with z in one orbit of the stabilizer K of point 0, and (x, y) lies in
        the orbital of (0, t^-1 y) for any t with t.0 = x: one gather through
        the inverse images labels every pair.
        """
        if not is_transitive(self):
            raise NotTransitive("orbitals are defined for transitive actions")
        k_orbit = np.empty(self.n_points, dtype=np.int64)
        for j, orb in enumerate(subgroup_point_orbits(self, stabilizer(self, 0).members)):
            k_orbit[orb] = j
        # the first element carrying 0 to x, for every x (unique sorts by x)
        movers = np.unique(self.images[:, 0], return_index=True)[1]
        raw = k_orbit[self.inverse_images[movers]]
        first_seen = np.unique(raw.ravel(), return_index=True)[1]
        renumber = np.empty(first_seen.size, dtype=np.int64)
        renumber[np.argsort(first_seen)] = np.arange(first_seen.size)
        labels = renumber[raw]
        labels.setflags(write=False)
        return labels

    def inverse_index(self, i: int) -> int:
        return self._index[self.inverse_images[i].tobytes()]

    def compose_indices(self, i: int, j: int) -> int:
        """Index of elements[i] composed with elements[j]."""
        return self._index[self.images[i][self.images[j]].tobytes()]

    def __repr__(self) -> str:
        return f"GroupAction(order={self.order}, n_points={self.n_points})"


def enumerate_group(generators, cap: int = DEFAULT_CAP) -> GroupAction:
    """Breadth-first closure of the generators.

    Element order is deterministic: identity first, then level by level,
    with each level sorted lexicographically by image array.
    """
    gens = [g if isinstance(g, Permutation) else Permutation(g) for g in generators]
    if not gens:
        raise InvalidPermutation("at least one generator is required")
    n = gens[0].n
    if any(g.n != n for g in gens):
        raise InvalidPermutation("generators act on different numbers of points")

    gen_images = np.stack([g.images for g in gens])
    frontier = np.arange(n)[None, :]
    levels = [frontier]
    seen = {frontier[0].tobytes()}
    while len(frontier):
        # row (e, g) is e composed with g; np.unique(axis=0) would import numpy.ma
        cand = frontier[:, gen_images].reshape(-1, n)
        cand = cand[np.lexsort(cand.T[::-1])]
        cand = cand[np.r_[True, (cand[1:] != cand[:-1]).any(axis=1)]]
        keys = [row.tobytes() for row in cand]
        frontier = cand[[k not in seen for k in keys]]
        seen.update(keys)
        levels.append(frontier)
        if len(seen) > cap:
            raise CapExceeded(f"group closure exceeded the cap of {cap} elements")
    return GroupAction(n, gens, np.concatenate(levels))


def orbit_of_point(action: GroupAction, x: int) -> list:
    """Orbit of x under the group, as a sorted point list."""
    # a histogram, not np.unique, which pulls numpy.ma into the process
    return np.flatnonzero(np.bincount(action.images[:, x], minlength=action.n_points)).tolist()


def is_transitive(action: GroupAction) -> bool:
    return len(orbit_of_point(action, 0)) == action.n_points


def stabilizer(action: GroupAction, x: int) -> Stabilizer:
    """Every element index fixing x, with the orbit-stabilizer self-check."""
    if not 0 <= x < action.n_points:
        raise ValueError(f"point {x} out of range")
    members = tuple(int(i) for i in np.nonzero(action.images[:, x] == x)[0])
    orbit_size = len(orbit_of_point(action, x))
    if len(members) * orbit_size != action.order:
        raise InternalInconsistency("orbit-stabilizer count mismatch")
    return Stabilizer(point=x, members=members)


def subgroup_point_orbits(action: GroupAction, members) -> list:
    """Orbits on points of a subgroup given by a closed list of element indices."""
    sub = action.images[list(members)]
    seen = np.zeros(action.n_points, dtype=bool)
    orbits = []
    for p in range(action.n_points):
        if seen[p]:
            continue
        orb = np.flatnonzero(np.bincount(sub[:, p], minlength=action.n_points))
        seen[orb] = True
        orbits.append(orb.tolist())
    return orbits


def orbitals(action: GroupAction) -> list:
    """Partition of X x X into group orbits on pairs, alpha.(x,y) = (alpha.x, alpha.y).

    Orbits are listed sorted by their row-major smallest member, each orbit's
    pairs in row-major order; the diagonal is always a single orbital when the
    action is transitive, and comes first. Read off `GroupAction.orbital_labels`.
    """
    labels = action.orbital_labels.ravel()
    n = action.n_points
    flat = np.argsort(labels, kind="stable")
    bounds = np.cumsum(np.bincount(labels))[:-1]
    return [
        [(int(i // n), int(i % n)) for i in members] for members in np.split(flat, bounds)
    ]


# -- named families and spec parsing -----------------------------------------


def cyclic_generators(n: int) -> list:
    if n < 1:
        raise SpecParseError("cyclic:n requires n >= 1")
    return [Permutation((np.arange(n) + 1) % n)]


def dihedral_generators(n: int) -> list:
    """Rotation and reflection on the n vertices of a regular n-gon."""
    if n < 3:
        raise SpecParseError("dihedral:n requires n >= 3")
    rotation = Permutation((np.arange(n) + 1) % n)
    reflection = Permutation((n - np.arange(n)) % n)
    return [rotation, reflection]


def symmetric_generators(n: int) -> list:
    if n < 1:
        raise SpecParseError("symmetric:n requires n >= 1")
    if n == 1:
        return [Permutation.identity(1)]
    swap = np.arange(n)
    swap[[0, 1]] = [1, 0]
    return [Permutation(swap), Permutation((np.arange(n) + 1) % n)]


def regular_action(action: GroupAction, cap: int = DEFAULT_CAP) -> GroupAction:
    """The group of `action` acting on itself by left translation."""
    # row j of g.images[action.images] is g composed with element j
    new_gens = [
        Permutation([action._index[row.tobytes()] for row in g.images[action.images]])
        for g in action.generators
    ]
    return enumerate_group(new_gens, cap=cap)


_FAMILIES = {
    "cyclic": cyclic_generators,
    "dihedral": dihedral_generators,
    "symmetric": symmetric_generators,
}


def group_from_spec(spec, cap: int = DEFAULT_CAP) -> GroupAction:
    """Build an action from a named family, a JSON mapping, or a JSON string.

    Accepted forms: ``cyclic:n``, ``dihedral:n``, ``symmetric:n``,
    ``regular:<family:n>`` (left translation on the group itself), and
    ``{"points": n, "generators": [[...images...], ...]}``.
    """
    if isinstance(spec, dict):
        return _group_from_mapping(spec, cap)
    if not isinstance(spec, str):
        raise SpecParseError(f"unsupported group spec type: {type(spec).__name__}")
    text = spec.strip()
    if text.startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecParseError(f"invalid JSON group spec: {exc}") from exc
        return _group_from_mapping(payload, cap)
    if text.startswith("regular:"):
        return regular_action(group_from_spec(text[len("regular:"):], cap), cap)
    name, sep, arg = text.partition(":")
    if not sep or name not in _FAMILIES:
        raise SpecParseError(f"unknown group spec {spec!r}")
    try:
        n = int(arg)
    except ValueError as exc:
        raise SpecParseError(f"bad family size in {spec!r}") from exc
    # the family acts transitively on its n points, so it has at least n elements
    if n > cap:
        raise CapExceeded(f"{name}:{n} has at least {n} elements, past the cap of {cap}")
    return enumerate_group(_FAMILIES[name](n), cap=cap)


def _group_from_mapping(payload, cap: int) -> GroupAction:
    if not isinstance(payload, dict) or "points" not in payload or "generators" not in payload:
        raise SpecParseError('group JSON needs "points" and "generators"')
    n = payload["points"]
    gens = payload["generators"]
    # JSON true/false parse to bool, a subclass of int
    if isinstance(n, bool) or not isinstance(n, int) or not isinstance(gens, list) or not gens:
        raise SpecParseError("group JSON fields have the wrong shape")
    perms = []
    for images in gens:
        if isinstance(images, list) and any(isinstance(v, bool) for v in images):
            raise SpecParseError("generator entries must be integers, not booleans")
        try:
            perm = Permutation(images)
        except InvalidPermutation as exc:
            raise SpecParseError(f"bad generator in group JSON: {exc}") from exc
        if perm.n != n:
            raise SpecParseError("generator length does not match the point count")
        perms.append(perm)
    return enumerate_group(perms, cap=cap)
