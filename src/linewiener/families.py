"""Parametric graph families: paths, stars, complete graphs, spiders, quipus.

Each family has a frozen spec type, a deterministic builder, and a canonical
text form used by the CLI (`path:22`, `spider:7,7,7`, `quipu:3;4,5,6`,
`qa:5`, `ua:5`, ...). Vertex labelings are fixed and documented so that
serialized outputs are reproducible:

* Path(n): vertices 0..n-1 along the path.
* Star(n): center 0, leaves 1..n-1 (the star of ORDER n, i.e. K_{1,n-1}).
* Complete(n): all pairs adjacent.
* Spider(a, b, c): center 0; each arm labeled root to tip in order, so arm
  one is 1..a, arm two is a+1..a+b, arm three is a+b+1..a+b+c.
* Quipu(h_1..h_k): spine 0..k+1 along the path; then for each internal spine
  vertex i (1-based spine position), its pendant path of h_i vertices is
  appended root to tip.
* BalancedQuipu(a): Quipu with k = a spine hubs and every pendant path of
  length a; order a^2 + a + 2.
* SubdividedQuipu(a): BalancedQuipu(a) with both end spine edges subdivided
  into paths of length a. The full spine (3a vertices) is labeled 0..3a-1 in
  path order, hubs sit at spine positions a..2a-1, and the a pendant paths
  are appended in spine order; order a^2 + 3a.
"""

from __future__ import annotations

from typing import Union

from ._record import Record
from .errors import ParameterError
from .graphs import Graph


class Path(Record):
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"path needs n >= 1, got {self.n}")


class Star(Record):
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ParameterError(f"star needs order n >= 2, got {self.n}")


class Complete(Record):
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"complete graph needs n >= 1, got {self.n}")


class Spider(Record):
    """Three paths of a, b, c edges glued at a common center vertex."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if min(self.a, self.b, self.c) < 1:
            raise ParameterError(
                f"spider arms must all be >= 1, got {(self.a, self.b, self.c)}"
            )


class Quipu(Record):
    """Spine path with a pendant path of heights[i] vertices at each internal
    spine vertex."""

    heights: tuple[int, ...]

    def __init__(self, heights):
        object.__setattr__(self, "heights", tuple(heights))
        if len(self.heights) < 1:
            raise ParameterError("quipu needs at least one pendant path")
        if any(h < 1 for h in self.heights):
            raise ParameterError(f"quipu heights must be >= 1, got {self.heights}")

    @property
    def k(self) -> int:
        return len(self.heights)


class BalancedQuipu(Record):
    a: int

    def __post_init__(self):
        if self.a < 2:
            raise ParameterError(f"balanced quipu needs a >= 2, got {self.a}")


class SubdividedQuipu(Record):
    a: int

    def __post_init__(self):
        if self.a < 2:
            raise ParameterError(f"subdivided quipu needs a >= 2, got {self.a}")


FamilySpec = Union[Path, Star, Complete, Spider, Quipu, BalancedQuipu, SubdividedQuipu]


def spec_order(spec: FamilySpec) -> int:
    """Order of build(spec) without building it."""
    if isinstance(spec, Complete):
        return spec.n
    spine, hanging = _tree_shape(spec)
    return spine + sum(len(hubs) * length * count for hubs, length, count in hanging)


def _tree_shape(spec: FamilySpec) -> tuple[int, list[tuple[range, int, int]]]:
    """A tree family as (spine order, runs of hanging paths), each run
    (hubs, length, count): `count` paths of `length` vertices at each hub
    in the range `hubs`; the list is O(1) long for every family but Quipu,
    so spec_order reads the order of star:n or ua:a in O(1).

    The spine is labeled 0..spine-1 in path order; each hanging path is then
    appended root to tip, run by run, hub by hub, at its spine hub.
    """
    if isinstance(spec, Path):
        return spec.n, []
    if isinstance(spec, Star):
        return 1, [(range(1), 1, spec.n - 1)]
    if isinstance(spec, Spider):
        return 1, [(range(1), arm, 1) for arm in (spec.a, spec.b, spec.c)]
    if isinstance(spec, Quipu):
        return spec.k + 2, [
            (range(hub, hub + 1), h, 1) for hub, h in enumerate(spec.heights, 1)
        ]
    if isinstance(spec, BalancedQuipu):
        return spec.a + 2, [(range(1, spec.a + 1), spec.a, 1)]
    if isinstance(spec, SubdividedQuipu):
        a = spec.a
        return 3 * a, [(range(a, 2 * a), a, 1)]
    raise ParameterError(f"not a family spec: {spec!r}")


def build(spec: FamilySpec) -> Graph:
    """Construct the family member with the documented labeling."""
    if isinstance(spec, Complete):
        n = spec.n
        adjacency = tuple(tuple(u for u in range(n) if u != v) for v in range(n))
        return Graph._trusted(n, adjacency, n * (n - 1) // 2)
    # each vertex meets its smaller neighbors first: a spine vertex its
    # spine neighbors, below every hanging vertex, and a hanging vertex the
    # one it hangs from, so every neighbor list is built sorted
    spine, hanging = _tree_shape(spec)
    adj = [[] for _ in range(spine)]
    for i in range(1, spine):
        adj[i - 1].append(i)
        adj[i].append(i - 1)
    for hubs, length, count in hanging:
        for hub in hubs:
            for _ in range(count):
                prev = hub
                for _ in range(length):
                    nxt = len(adj)
                    adj[prev].append(nxt)
                    adj.append([prev])
                    prev = nxt
    return Graph._trusted(len(adj), tuple(map(tuple, adj)), len(adj) - 1)


# ------------------------------------------------------------- text forms

_TAGS = {
    Path: "path",
    Star: "star",
    Complete: "complete",
    Spider: "spider",
    Quipu: "quipu",
    BalancedQuipu: "qa",
    SubdividedQuipu: "ua",
}
_FAMILIES = {tag: family for family, tag in _TAGS.items()}


def format_family(spec: FamilySpec) -> str:
    """Canonical text form; parse_family round-trips it."""
    tag = _TAGS.get(type(spec))
    if tag is None:
        raise ParameterError(f"not a family spec: {spec!r}")
    if isinstance(spec, (Path, Star, Complete)):
        return f"{tag}:{spec.n}"
    if isinstance(spec, Spider):
        return f"{tag}:{spec.a},{spec.b},{spec.c}"
    if isinstance(spec, Quipu):
        return f"{tag}:{spec.k};{','.join(str(h) for h in spec.heights)}"
    return f"{tag}:{spec.a}"


def parse_family(text: str) -> FamilySpec:
    """Parse the canonical text form, e.g. 'spider:7,7,7' or 'quipu:3;4,5,6'."""
    tag, sep, rest = text.strip().partition(":")
    tag = tag.strip().lower()
    if not sep or not rest.strip():
        raise ParameterError(
            f"family spec {text!r} must look like 'tag:params', e.g. 'path:22'"
        )
    rest = rest.strip()
    try:
        if tag == "spider":
            parts = [_int(p) for p in rest.split(",")]
            if len(parts) != 3:
                raise ParameterError(
                    f"spider takes exactly three arm lengths, got {rest!r}"
                )
            return Spider(*parts)
        if tag == "quipu":
            head, sep2, tail = rest.partition(";")
            if not sep2:
                raise ParameterError(
                    f"quipu spec {text!r} must be 'quipu:k;h1,h2,...'"
                )
            k = _int(head)
            heights = [_int(p) for p in tail.split(",")]
            if k != len(heights):
                raise ParameterError(
                    f"quipu declares k={k} but lists {len(heights)} heights"
                )
            return Quipu(heights)
        if tag in _FAMILIES:
            # every other family takes one integer
            return _FAMILIES[tag](_int(rest))
    except ParameterError:
        raise
    except ValueError as exc:
        raise ParameterError(f"bad family spec {text!r}: {exc}") from None
    raise ParameterError(f"unknown family tag {tag!r} in {text!r}")


def _int(token: str) -> int:
    return int(token.strip())
