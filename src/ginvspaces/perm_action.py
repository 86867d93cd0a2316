"""Finite group actions presented by permutation generators.

Everything downstream works with a fully enumerated group acting on the
point set {0..n-1}: element lists in a deterministic order, stabilizers,
and the orbit structure on points and on pairs (orbitals).
"""

from __future__ import annotations

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
        arr = np.array(images, dtype=np.int64)
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidPermutation("image array must be a nonempty 1-d sequence")
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

    Immutable after construction. `elements[0]` is the identity; `images`
    stacks all element image arrays as a (order, n_points) matrix, and
    `inverse_images` the image arrays of the inverses.
    """

    def __init__(self, n_points: int, generators, elements) -> None:
        self.n_points = int(n_points)
        self.generators = tuple(generators)
        self.elements = tuple(elements)
        self.identity_index = 0
        if not self.elements or not self.elements[0].is_identity():
            raise InternalInconsistency("element list must start with the identity")
        self.images = np.stack([e.images for e in self.elements])
        self.inverse_images = np.stack([e.inverse().images for e in self.elements])
        self.images.setflags(write=False)
        self.inverse_images.setflags(write=False)
        self._index = {e.key(): i for i, e in enumerate(self.elements)}

    @property
    def order(self) -> int:
        return len(self.elements)

    def element_index(self, perm: Permutation) -> int:
        try:
            return self._index[perm.key()]
        except KeyError:
            raise InternalInconsistency("permutation is not an element of the enumerated group")

    def inverse_index(self, i: int) -> int:
        return self._index[tuple(int(v) for v in self.inverse_images[i])]

    def compose_indices(self, i: int, j: int) -> int:
        """Index of elements[i] composed with elements[j]."""
        return self.element_index(self.elements[i].compose(self.elements[j]))

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

    ident = Permutation.identity(n)
    elements = [ident]
    seen = {ident.key()}
    frontier = [ident]
    while frontier:
        discovered = {}
        for e in frontier:
            for g in gens:
                h = e.compose(g)
                k = h.key()
                if k not in seen and k not in discovered:
                    discovered[k] = h
        frontier = [discovered[k] for k in sorted(discovered)]
        elements.extend(frontier)
        seen.update(discovered)
        if len(elements) > cap:
            raise CapExceeded(f"group closure exceeded the cap of {cap} elements")
    return GroupAction(n, gens, elements)


def orbit_of_point(action: GroupAction, x: int) -> list:
    """Orbit of x under the group, as a sorted point list."""
    return sorted(int(p) for p in np.unique(action.images[:, x]))


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
        orb = np.unique(sub[:, p])
        seen[orb] = True
        orbits.append([int(q) for q in orb])
    return orbits


def orbitals(action: GroupAction) -> list:
    """Partition of X x X into group orbits on pairs, alpha.(x,y) = (alpha.x, alpha.y).

    Orbits are listed sorted by their row-major smallest member; the diagonal
    is always a single orbital when the action is transitive, and comes first.
    """
    if not is_transitive(action):
        raise NotTransitive("orbitals are defined for transitive actions")
    n = action.n_points
    seen = np.zeros((n, n), dtype=bool)
    result = []
    for x in range(n):
        for y in range(n):
            if seen[x, y]:
                continue
            pairs = np.unique(
                np.stack([action.images[:, x], action.images[:, y]], axis=1), axis=0
            )
            seen[pairs[:, 0], pairs[:, 1]] = True
            result.append([(int(a), int(b)) for a, b in pairs])
    return result


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
    new_gens = []
    for g in action.generators:
        gi = action.element_index(g)
        images = [action.compose_indices(gi, j) for j in range(action.order)]
        new_gens.append(Permutation(images))
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
        perm = Permutation(images)
        if perm.n != n:
            raise SpecParseError("generator length does not match the point count")
        perms.append(perm)
    return enumerate_group(perms, cap=cap)
