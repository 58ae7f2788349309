"""Exception hierarchy shared across the package."""

from __future__ import annotations


class PlaneInsertError(Exception):
    """Base class for all errors raised by this package."""


# --- plane_graph ---------------------------------------------------------


class InvalidRotation(PlaneInsertError):
    """Rotation input is malformed (bad index, loop, or duplicate neighbor)."""


class AsymmetricAdjacency(PlaneInsertError):
    """u lists v as a neighbor but v does not list u."""


class NotPlanarEmbedding(PlaneInsertError):
    """Rotation system fails the Euler check (not a genus-0 embedding)."""


class Disconnected(PlaneInsertError):
    """The input graph is not connected."""


class NotTriangulation(PlaneInsertError):
    """Operation requires a maximal planar graph (all faces triangles)."""


class InvalidArgument(PlaneInsertError, ValueError):
    """A generator or builder argument is out of its domain (too few
    vertices, an unknown structure, a negative count, a vertex position off
    the integer grid)."""


class InsufficientComplementPairs(PlaneInsertError):
    """Complement of the graph cannot supply the requested edge sample."""


class SamplerGaveUp(InsufficientComplementPairs):
    """The complement sampler's search spent its node budget without
    finding the requested structure, which may still exist."""


# --- instance_io ---------------------------------------------------------


class SchemaError(PlaneInsertError):
    """Instance, solution, or formula text violates its JSON schema."""


class NonPlaneCoordinates(SchemaError):
    """Supplied straight-line coordinates make two graph edges cross, or
    order some vertex's neighbors differently from its rotation."""


class FNotInComplement(PlaneInsertError):
    """An insertion pair duplicates a graph edge or has equal endpoints."""


class StructureMismatch(PlaneInsertError):
    """Declared shape of the insertion set (path/matching) is violated."""


class MissingCoordinates(PlaneInsertError):
    """Rendering requires vertex coordinates."""


class InvalidRoute(PlaneInsertError):
    """A solution route cannot be realized in the drawing."""


# --- solvers -------------------------------------------------------------


class KNotOne(PlaneInsertError):
    """Operation is only defined for crossing budget k = 1."""


class SearchSpaceTooLarge(PlaneInsertError):
    """Brute-force guard tripped: option product exceeds the cap."""


class ReductionStuck(PlaneInsertError):
    """The k = 1 reducer met a compact core that it could neither settle
    nor shrink."""


class SearchBudgetExceeded(PlaneInsertError):
    """Internal completeness guard of the verifier ran out of nodes."""


# --- reduction -----------------------------------------------------------


class InvalidFormula(PlaneInsertError):
    """Monotone formula violates its invariants."""


class LayoutInfeasible(PlaneInsertError):
    """Clause legs cannot be nested without crossings on the layered grid."""
