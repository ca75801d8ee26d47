"""Immutable value records on ``__slots__``.

The package's small result types (``PlanarField``, ``Alphabet``, the
series, resonance and condition reports, ``GeomComplexity``,
``LemmaResult``) subclass ``Record``.  Each lists its fields in
``__slots__``, in the order of its ``__init__`` parameters, and sets them
once through ``_fill``; a flag that a report derives from them is a
property.  A record compares ``==`` by type and field values, hashes as
the tuple of them, so only when every field is hashable, prints as
``Name(field=value, ...)`` and refuses assignment and deletion, as a
frozen dataclass does.  A slot whose name starts with ``_`` is not a field
but private state of the class (``Alphabet``'s bracket trees): it is not
compared, hashed or printed, and copy and pickle rebuild the record
through ``__init__`` from its fields alone.  Importing this module loads
nothing, while ``dataclasses`` imports ``inspect``, ``ast`` and ``dis``:
several milliseconds of every command's start.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))

    def _fill(self, *values) -> None:
        """Set the fields, in ``__slots__`` order, once from ``__init__``."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, since assignment is refused
        return self.__class__, self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__name__}({fields})"
