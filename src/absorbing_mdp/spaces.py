"""State and action spaces with explicitly declared topology.

A state space is a countable set of named atoms plus finitely many labeled
real segments, together with a distinguished cemetery atom and a list of
declared convergent sequences.  The declared sequences are the only topology
the library knows about: an atom is a limit point exactly when it is the
limit of a declared sequence, and continuity of test functions is checked
along declared sequences only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

ISOLATED = "isolated"
LIMIT_POINT = "limit-point"

Coord = Fraction | float


@dataclass(frozen=True)
class AtomDecl:
    name: str
    topology: str = ISOLATED
    coord: Coord | None = None

    def __post_init__(self):
        if self.topology not in (ISOLATED, LIMIT_POINT):
            raise ValueError(f"atom {self.name!r}: unknown topology tag {self.topology!r}")


@dataclass(frozen=True)
class SegmentDecl:
    label: str
    lo: Coord
    hi: Coord

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"segment {self.label!r}: need lo < hi")


@dataclass(frozen=True)
class ConvergentSeq:
    """Ordered atom names converging to a limit atom."""

    terms: tuple[str, ...]
    limit: str


@dataclass(frozen=True)
class StatePoint:
    """A single state: either a named atom or a coordinate on a segment."""

    atom: str | None = None
    segment: str | None = None
    coord: Coord | None = None

    def __post_init__(self):
        if self.atom is not None:
            if self.segment is not None:
                raise ValueError("a point is an atom or a segment coordinate, not both")
        elif self.segment is None or self.coord is None:
            raise ValueError("segment points need both a segment and a coordinate")

    def __repr__(self):
        if self.atom is not None:
            return f"StatePoint({self.atom!r})"
        return f"StatePoint({self.segment!r}, {self.coord})"


_new = object.__new__


def _segment_point(segment: str, coord: Coord) -> StatePoint:
    """Trusted constructor for a segment point whose label and coordinate
    are already known to be valid: it skips `__post_init__`.  The point
    compares and hashes equal to `StatePoint(segment=segment, coord=coord)`."""
    p = _new(StatePoint)
    fields = p.__dict__
    fields["atom"] = None
    fields["segment"] = segment
    fields["coord"] = coord
    return p


@dataclass(frozen=True)
class StateSpace:
    atoms: tuple[AtomDecl, ...] = ()
    segments: tuple[SegmentDecl, ...] = ()
    sequences: tuple[ConvergentSeq, ...] = ()
    cemetery: str = "Delta"

    def __post_init__(self):
        names = [a.name for a in self.atoms]
        labels = [s.label for s in self.segments]
        if len(set(names)) != len(names):
            raise ValueError("duplicate atom names")
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate segment labels")
        if self.cemetery not in names:
            raise ValueError(f"cemetery atom {self.cemetery!r} not declared")
        by_name = self.atom_map
        if by_name[self.cemetery].topology != ISOLATED:
            raise ValueError("cemetery must be isolated")
        limits = set()
        for seq in self.sequences:
            for t in seq.terms:
                if t not in by_name:
                    raise ValueError(f"sequence term {t!r} is not a declared atom")
            if seq.limit not in by_name:
                raise ValueError(f"sequence limit {seq.limit!r} is not a declared atom")
            limits.add(seq.limit)
        for a in self.atoms:
            if a.topology == LIMIT_POINT and a.name not in limits:
                raise ValueError(f"atom {a.name!r} tagged limit-point but is no declared limit")
            if a.topology == ISOLATED and a.name in limits:
                raise ValueError(f"atom {a.name!r} is a declared limit but tagged isolated")

    @cached_property
    def atom_map(self) -> dict:
        return {a.name: a for a in self.atoms}

    def atom_decl(self, name: str) -> AtomDecl:
        decl = self.atom_map.get(name)
        if decl is None:
            raise KeyError(f"unknown atom {name!r}")
        return decl

    def segment_decl(self, label: str) -> SegmentDecl:
        for s in self.segments:
            if s.label == label:
                return s
        raise KeyError(f"unknown segment {label!r}")

    @cached_property
    def _points(self) -> dict:
        return {a.name: StatePoint(atom=a.name, coord=a.coord) for a in self.atoms}

    def point(self, name: str) -> StatePoint:
        """Atom point with its declared coordinate resolved in, built once
        per atom and kept with the space."""
        p = self._points.get(name)
        if p is None:
            raise KeyError(f"unknown atom {name!r}")
        return p

    def segment_point(self, label: str, coord: Coord) -> StatePoint:
        seg = self.segment_decl(label)
        if not (seg.lo <= coord <= seg.hi):
            raise ValueError(f"coordinate {coord} outside segment {label!r}")
        return StatePoint(segment=label, coord=coord)


def is_isolated(space: StateSpace, name: str) -> bool:
    return space.atom_decl(name).topology == ISOLATED


@dataclass(frozen=True)
class FiniteActions:
    names: tuple[str, ...]

    def __post_init__(self):
        if not self.names:
            raise ValueError("need at least one action")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate action names")


@dataclass(frozen=True)
class IntervalActions:
    lo: Coord = Fraction(0)
    hi: Coord = Fraction(1)

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("need lo < hi")


ActionSpace = FiniteActions | IntervalActions
