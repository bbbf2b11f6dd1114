"""Shared exception types and the vertex-count guard.

Everything here enumerates subsets of the vertex set somewhere, so entry
points that are exponential in n refuse to start above a guard value instead
of hanging.  The guard is a keyword argument on those entry points; this
module only fixes the default and the exception types.
"""

__all__ = ["SizeGuardError", "ConsistencyError"]

DEFAULT_MAX_VERTICES = 24


class SizeGuardError(ValueError):
    """An operation would enumerate over more vertices than the guard allows."""


class ConsistencyError(RuntimeError):
    """An internal invariant failed (negative homology rank, nonzero square
    of a boundary).  These indicate a bug or inconsistent input, never a
    routine error."""


def check_vertex_guard(n: int, max_vertices: int) -> None:
    """Raise SizeGuardError when n exceeds max_vertices, and ValueError when
    max_vertices is not an int (a bool or a float included)."""
    if type(max_vertices) is not int:
        raise ValueError(f"max_vertices must be an int, got {max_vertices!r}")
    if n > max_vertices:
        raise SizeGuardError(
            f"{n} vertices exceeds the guard of {max_vertices}; "
            f"raise max_vertices explicitly if you mean it"
        )
