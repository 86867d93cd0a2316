"""The benchmark's workloads: the exact CLI argument lists each pass runs.

Every report of a workload is one call of ``ginvspaces.cli.main(argv)``. Pass
``i`` of a run with workload seed ``s`` uses the report seed
``pass_seed(s, i) = 1000 * s + i``: it becomes ``--seed`` of every report of
the pass and also relabels the points of the one JSON-spec instance (S6
acting on 2-subsets of six points) by a seeded permutation. Relabelling conjugates the action, so every invariant the
checker compares (see ``check.py``) is the same for every seed.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Report:
    """One report of a pass: a key into ``expected.json`` and its CLI argv."""

    key: str
    argv: tuple


WORKLOADS = ("battery", "large_n", "large_group", "torus")
PASSES_PER_SEED = 1000


def _decompose(group: str, action: str, *extra: str) -> list:
    return ["decompose", "--group", group, "--action", action, *extra]


def _battery() -> list:
    # the acceptance battery plus its negative control, default trials
    instances = (
        [("cyclic", n, "regular") for n in range(2, 13)]
        + [("symmetric", n, "natural") for n in (3, 4)]
        + [("dihedral", n, "natural") for n in range(3, 9)]
        + [("symmetric", 3, "regular")]
    )
    return [
        (f"{family}:{n}:{action}", _decompose(f"{family}:{n}", action))
        for family, n, action in instances
    ]


# Trial counts below are cut from the defaults so that a pass takes a few
# seconds on a 2-core host and several passes fit in one run: run-to-run
# spread on a shared host falls with the number of passes a median covers.
def _large_n() -> list:
    return [
        ("dihedral:12:regular", _decompose("dihedral:12", "regular", "--schur-trials", "20")),
        (
            "cyclic:48:regular",
            _decompose("cyclic:48", "regular", "--schur-trials", "1", "--structure-trials", "10"),
        ),
    ]


def s6_on_pairs(seed: int) -> str:
    """JSON spec of S6 acting on the 15 two-element subsets of {0..5}, with the
    subsets labelled in a seeded random order."""
    pairs = list(itertools.combinations(range(6), 2))
    label = list(range(len(pairs)))
    random.Random(seed).shuffle(label)
    index = {p: label[i] for i, p in enumerate(pairs)}
    generators = []
    for g in ((1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)):  # a transposition and a 6-cycle
        images = [0] * len(pairs)
        for p in pairs:
            images[index[p]] = index[tuple(sorted((g[p[0]], g[p[1]])))]
        generators.append(images)
    return json.dumps({"points": len(pairs), "generators": generators}, separators=(",", ":"))


def _large_group(seed: int) -> list:
    trials = ("--structure-trials", "10")
    return [
        ("symmetric:5:natural", _decompose("symmetric:5", "natural", *trials)),
        ("symmetric:6:natural", _decompose("symmetric:6", "natural", *trials)),
        ("s6-pairs:natural", _decompose(s6_on_pairs(seed), "natural", *trials)),
    ]


def _torus() -> list:
    # the first report carries acceptance criterion 6's exact flags
    return [
        ("torus:n1:d8", ["torus", "--n", "1", "--degree", "8"]),
        ("torus:n3:d8", ["torus", "--n", "3", "--degree", "8"]),
    ]


def pass_seed(seed: int, index: int) -> int:
    """The report seed of pass `index` of a run with workload seed `seed`.

    Each pass draws its own random trials, so a run's median covers several
    draws, and the work of one unlucky draw does not set the whole run."""
    if not 0 <= index < PASSES_PER_SEED:
        raise ValueError(f"pass index {index} outside 0..{PASSES_PER_SEED - 1}")
    return seed * PASSES_PER_SEED + index


def reports(workload: str, seed: int) -> list:
    """The reports of one pass of `workload`, in the order they run."""
    if workload == "battery":
        items = _battery()
    elif workload == "large_n":
        items = _large_n()
    elif workload == "large_group":
        items = _large_group(seed)
    elif workload == "torus":
        items = _torus()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [Report(key, tuple(argv) + ("--seed", str(seed))) for key, argv in items]
