"""The limiting metric graph: channels, vertices, junction models, indexing.

A network of thin fibers degenerates, as the fiber thickness goes to zero,
to a metric graph whose edges are the channel axes and whose vertices are
the junctions.  This module owns that combinatorial data and every indexing
convention used downstream: channel parametrization (t = 0 at the start
vertex), the order of incident ends at a vertex (rows/columns of the
junction matrix), and the global ordering of propagating modes on infinite
channels (rows/columns of the network scattering matrix).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional, Union

import numpy as np

from . import cross_section as cs

START = "start"
END = "end"


@dataclass(frozen=True)
class Channel:
    """One edge of the graph.

    `length` is math.inf for a semi-infinite channel, in which case `end`
    must be None.  The canonical length parameter runs from 0 at the start
    vertex to `length` at the end vertex.
    """

    id: int
    length: float
    cross_section: cs.CrossSectionShape
    start: int
    end: Optional[int]

    @property
    def is_infinite(self) -> bool:
        return self.length == math.inf


@dataclass(frozen=True)
class Dirichlet:
    """Total-reflection junction: every incident mode reflects with -1."""


@dataclass(frozen=True)
class Transparent:
    """Pass-through junction pairing two ends of identical cross-section.

    Equivalent to value continuity plus flux balance mode by mode, i.e. the
    two channels behave as one uninterrupted channel.
    """


def _frozen(a, dtype) -> np.ndarray:
    """A read-only copy of the array-like `a` as `dtype`."""
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class MatrixJunction:
    """Explicit junction matrix, valid at a single lambda.

    `matrix` is stored as a read-only complex copy of any array-like;
    rows and columns follow the vertex's incident-end order with modes
    ascending.  Junctions compare and hash by identity, as an array has
    no truth value.
    """

    lam: float
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen(self.matrix, complex))


@dataclass(frozen=True, eq=False)
class TabulatedJunction:
    """Junction matrices `mats[i]` sampled at increasing lambdas `lams[i]`,
    stored as read-only float and complex copies.

    Between samples the matrix is interpolated entrywise, linearly in
    z = sqrt(lambda - lambda_floor) where lambda_floor is the smallest
    first threshold among the vertex's channels (the matrix is analytic in
    that variable near the spectral bottom, so z is the right chart).
    """

    lams: np.ndarray
    mats: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lams", _frozen(self.lams, float))
        object.__setattr__(self, "mats", _frozen(self.mats, complex))


@dataclass(frozen=True)
class OracleJunction:
    """Junction resolved on demand by the 2-D Helmholtz oracle.

    `geometry` is a helmholtz_oracle.PlanarGeometry whose stubs correspond,
    in order, to the vertex's incident ends.
    """

    geometry: object


JunctionModel = Union[Dirichlet, Transparent, MatrixJunction, TabulatedJunction, OracleJunction]


@dataclass(frozen=True)
class Vertex:
    """One junction.  `ends` lists incident (channel id, "start"|"end")
    pairs; their order is canonical for the junction matrix."""

    id: int
    ends: tuple[tuple[int, str], ...]
    junction: JunctionModel


@dataclass(frozen=True)
class MetricGraph:
    channels: tuple[Channel, ...]
    vertices: tuple[Vertex, ...]

    def channel(self, cid: int) -> Channel:
        return self._channel_map[cid]

    @cached_property
    def _channel_map(self) -> dict[int, Channel]:
        return {c.id: c for c in self.channels}

    @cached_property
    def infinite_channel_ids(self) -> tuple[int, ...]:
        return tuple(sorted(c.id for c in self.channels if c.is_infinite))

    @cached_property
    def _violations(self) -> tuple[Violation, ...]:
        return tuple(_find_violations(self))

    @cached_property
    def threshold_tables(self) -> dict[int, cs.ThresholdTable]:
        """The threshold table of each channel id: one per distinct
        cross-section, kept as long as the graph lives."""
        by_shape = {shape: cs.ThresholdTable(shape) for shape in {c.cross_section for c in self.channels}}
        return {c.id: by_shape[c.cross_section] for c in self.channels}


@dataclass(frozen=True)
class Violation:
    code: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.subject}: {self.message}"


def _junction_violations(v: Vertex, g: MetricGraph) -> list[Violation]:
    out: list[Violation] = []
    j = v.junction
    subject = f"vertex {v.id}"
    if isinstance(j, Transparent):
        if len(v.ends) != 2:
            out.append(
                Violation("transparent_arity", subject, "transparent junction needs exactly two ends")
            )
        else:
            shapes = []
            for cid, _ in v.ends:
                try:
                    shapes.append(g.channel(cid).cross_section)
                except KeyError:
                    return out  # unknown channel reported elsewhere
            if shapes[0] != shapes[1]:
                out.append(
                    Violation(
                        "cross_section_mismatch",
                        subject,
                        f"transparent junction pairs unequal cross-sections {shapes[0]!r} and {shapes[1]!r}",
                    )
                )
    elif isinstance(j, MatrixJunction):
        m = j.matrix
        if not math.isfinite(j.lam):
            out.append(Violation("non_finite_lambda", subject, f"junction lambda is {j.lam!r}"))
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            out.append(Violation("matrix_not_square", subject, f"junction matrix has shape {m.shape}"))
        if not np.all(np.isfinite(m)):
            out.append(Violation("non_finite_entry", subject, "junction matrix has a NaN or infinite entry"))
    elif isinstance(j, TabulatedJunction):
        lams, mats = j.lams, j.mats
        if not np.all(np.isfinite(lams)):
            out.append(Violation("non_finite_lambda", subject, "tabulated lambdas have a NaN or infinite entry"))
        if lams.ndim != 1 or not lams.size or np.any(lams[1:] <= lams[:-1]):
            out.append(
                Violation("table_not_increasing", subject, "tabulated lambdas must be non-empty and strictly increasing")
            )
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2] or mats.shape[:1] != lams.shape:
            out.append(
                Violation(
                    "matrix_not_square",
                    subject,
                    f"tabulated matrices have shape {mats.shape}, expected one square matrix per lambda",
                )
            )
        if not np.all(np.isfinite(mats)):
            out.append(Violation("non_finite_entry", subject, "tabulated matrices have a NaN or infinite entry"))
    return out


def validate_graph(g: MetricGraph) -> list[Violation]:
    """Every invariant violation of the graph description, empty if valid.

    Violations are data, not failures: callers that require a valid graph
    raise GraphInvalid with this list.  The graph is immutable, so it is
    checked once per instance and later calls return the same findings.
    """
    return list(g._violations)


def _find_violations(g: MetricGraph) -> list[Violation]:
    out: list[Violation] = []

    seen_cids: set[int] = set()
    for c in g.channels:
        subject = f"channel {c.id}"
        if c.id in seen_cids:
            out.append(Violation("duplicate_id", subject, "duplicate channel id"))
        seen_cids.add(c.id)
        try:
            cs.shape_dims(c.cross_section)
        except (TypeError, ValueError):
            out.append(Violation("bad_cross_section", subject, "cross-section dimensions must be positive and finite"))
        if c.is_infinite:
            if c.end is not None:
                out.append(Violation("infinite_with_end", subject, "infinite channel must have end = None"))
        else:
            if c.length <= 0 or not math.isfinite(c.length):
                out.append(Violation("bad_length", subject, "finite channel length must be strictly positive"))
            if c.end is None:
                out.append(Violation("finite_without_end", subject, "finite channel must name an end vertex"))

    seen_vids: set[int] = set()
    end_owner: dict[tuple[int, str], int] = {}
    for v in g.vertices:
        subject = f"vertex {v.id}"
        if v.id in seen_vids:
            out.append(Violation("duplicate_id", subject, "duplicate vertex id"))
        seen_vids.add(v.id)
        if not v.ends:
            out.append(Violation("empty_vertex", subject, "vertex has no incident ends"))
        for cid, which in v.ends:
            if which not in (START, END):
                out.append(Violation("bad_end_tag", subject, f"end tag must be 'start' or 'end', got {which!r}"))
                continue
            if cid not in seen_cids:
                out.append(Violation("unknown_channel", subject, f"references unknown channel {cid}"))
                continue
            key = (cid, which)
            if key in end_owner:
                out.append(
                    Violation("end_multiply_owned", subject, f"end {key} already belongs to vertex {end_owner[key]}")
                )
            else:
                end_owner[key] = v.id
            chan = g.channel(cid)
            if which == END and chan.is_infinite:
                out.append(Violation("infinite_end_used", subject, f"infinite channel {cid} has no 'end'"))
        out.extend(_junction_violations(v, g))

    for c in g.channels:
        ends = [(START, c.start, "start end"), (END, c.end, "end")][: 1 if c.is_infinite else 2]
        for which, named, what in ends:
            owner = end_owner.get((c.id, which))
            if owner is None:
                out.append(Violation("dangling_end", f"channel {c.id}", f"{what} is not referenced by any vertex"))
            elif owner != named:
                msg = f"{which} names vertex {named} but end is owned by vertex {owner}"
                out.append(Violation("end_owner_mismatch", f"channel {c.id}", msg))

    if not any(c.is_infinite for c in g.channels):
        out.append(Violation("no_infinite_channels", "graph", "scattering needs at least one infinite channel"))
    return out


@dataclass(frozen=True)
class GlobalModeOrdering:
    """Row/column order of the network scattering matrix.

    Entries are (channel id, mode index) over propagating modes of infinite
    channels, grouped by ascending channel id, modes ascending within a
    channel.
    """

    entries: tuple[tuple[int, int], ...]

    @property
    def M(self) -> int:
        return len(self.entries)

    def index(self, cid: int, n: int) -> int:
        return self.entries.index((cid, n))


def mode_ordering(g: MetricGraph, counts: Mapping[int, int]) -> GlobalModeOrdering:
    """Global ordering of the propagating modes of infinite channels, given
    the mode count of each infinite channel id."""
    return GlobalModeOrdering(
        entries=tuple((cid, n) for cid in g.infinite_channel_ids for n in range(counts[cid]))
    )

