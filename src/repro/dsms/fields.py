"""Checkpoint live state by its fields, never through ``__dict__``.

On CPython 3.11 an instance keeps its attribute values inline, beside the
object, until something asks for its ``__dict__``: reading the attribute,
or pickling the instance (``object.__getstate__`` reads it).  From then on
the values live in a real dict for the rest of the instance's life, and
every attribute read or write on it costs more.  A checkpoint taken over
the live per-group and per-supergroup state every commit would leave all
of it in that slower form.  So that state declares ``__slots__`` (it has
no ``__dict__`` to materialise) and a checkpoint reads and writes it
field by field, by name (DESIGN.md §8).
"""

from __future__ import annotations

import copyreg
from functools import lru_cache
from typing import Any, Optional, Tuple


@lru_cache(maxsize=None)
def slot_fields(cls: type) -> Optional[Tuple[str, ...]]:
    """Every field of a ``cls`` instance when all are slots (it has no
    ``__dict__``), in the order pickle reads them; ``None`` otherwise."""
    if cls.__dictoffset__:
        return None
    return tuple(copyreg._slotnames(cls))  # type: ignore[attr-defined]


def set_fields(obj: Any, state: Any) -> None:
    """``__setstate__`` that sets each field by name.  ``state`` is what
    pickle hands a slotted class, ``(field dict or None, slot dict)``, or
    what it pickled of the class before it had slots: a field dict, which
    a journal of checkpoint version 3 holds (so that such a journal is
    refused by its version, not by an ``AttributeError``)."""
    if isinstance(state, tuple):
        fields, slots = state
        state = {**(fields or {}), **(slots or {})}
    for name, value in state.items():
        setattr(obj, name, value)
