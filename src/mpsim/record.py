"""The base of mpsim's record types: the scenario and link configs, a trace
row, a run's stats and result, a sweep row and a recovery snapshot.

It writes `repr` and `==` as `dataclasses` does, so a record's repr, which
the output fingerprints hash, reads the same. It saves `import mpsim` from
importing `dataclasses` and, with it, `inspect`, `ast` and `dis`: the
larger part of the import's cost.
"""

from __future__ import annotations

import sys

# dataclasses' == on 3.10-3.12 compares the field tuples, whose items are
# equal if identical; on 3.13 it compares field by field, so one NaN object
# in two records makes them unequal
_SAME_OBJECT_EQUAL = sys.version_info < (3, 13)


class Record:
    """A record's fields are its class annotations, in order. Each record
    writes its own `__init__`. `repr` is `Qualname(field=value!r, ...)`;
    `==` holds between records of one class whose fields are equal, bar
    those named by the class keyword `no_compare`. Records are unhashable.
    A subclass that annotates nothing keeps its parent's fields. `Record`
    declares no slots, so a subclass that declares its own has no
    `__dict__`."""

    __slots__ = ()
    # not annotated: get_type_hints() reads a record's fields from its
    # annotations and those of its bases
    _fields = ()
    _compare = ()
    __hash__ = None

    def __init_subclass__(cls, no_compare=(), **kwargs):
        super().__init_subclass__(**kwargs)
        if "__annotations__" in cls.__dict__:
            cls._fields = tuple(cls.__dict__["__annotations__"])
            cls._compare = tuple(name for name in cls._fields
                                 if name not in no_compare)

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        for name in self._compare:
            a, b = getattr(self, name), getattr(other, name)
            if not (a is b and _SAME_OBJECT_EQUAL or a == b):
                return False
        return True
