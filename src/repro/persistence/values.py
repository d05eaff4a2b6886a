"""Value semantics for persisted rows and replica state.

Table rows, replica state history and the attribute snapshots entities hand
to replication all behave like serialized values: mutating a live object
never changes a stored copy, and mutating a copy read back never changes
the store.  :func:`snapshot` is the one place that makes such a copy.

Most rows the middleware stores are flat — an entity's attributes are
strings, numbers and :class:`~repro.objects.refs.ObjectRef` handles — and a
flat dict of immutable values is fully isolated by a shallow copy.  Only a
value holding something mutable (a list, a nested dict, an arbitrary
object) needs ``copy.deepcopy``.
"""

from __future__ import annotations

import copy
from typing import Any, TypeVar

# Exact types whose instances can never change in place.  Subclasses are
# deliberately excluded: a subclass may add mutable state.
_IMMUTABLE: set[type] = {type(None), bool, int, float, str, bytes}

C = TypeVar("C", bound=type)


def immutable_value(cls: C) -> C:
    """Class decorator declaring instances of ``cls`` immutable values.

    Only for types whose instances cannot change after construction and
    hold nothing mutable (e.g. a frozen dataclass of strings), so
    :func:`snapshot` may share them instead of copying.  Persistence sits
    below the object model, so such types declare themselves here rather
    than being imported.
    """
    _IMMUTABLE.add(cls)
    return cls


def snapshot(value: Any) -> Any:
    """An independent copy of ``value`` with the semantics of ``deepcopy``.

    An immutable value is returned as is.  A plain ``dict`` whose keys and
    values are all immutable is copied shallowly.  Anything else is
    deep-copied.
    """
    kind = type(value)
    if kind in _IMMUTABLE:
        return value
    if kind is dict:
        immutable = _IMMUTABLE
        for key, item in value.items():
            if type(key) not in immutable or type(item) not in immutable:
                return copy.deepcopy(value)
        return dict(value)
    return copy.deepcopy(value)
