"""Logical object references.

Application data are encapsulated by objects and their relationships
(§1.4).  Relationships are stored as :class:`ObjectRef` values — the
analogue of an EJB handle: a (class name, object id) pair that the local
container resolves to its *local view* of the logical object, which in a
replicated setting may be a possibly-stale backup replica.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..persistence.values import immutable_value


@immutable_value
@dataclass(frozen=True)
class ObjectRef:
    """Identity of a logical distributed object."""

    class_name: str
    oid: str

    def __str__(self) -> str:
        return f"{self.class_name}#{self.oid}"


class ObjectNotFound(KeyError):
    """Raised when a reference cannot be resolved to any local replica."""

    def __init__(self, ref: ObjectRef) -> None:
        super().__init__(str(ref))
        self.ref = ref
