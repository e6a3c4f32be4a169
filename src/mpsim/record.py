"""The base of mpsim's record types: the scenario and link configs, a trace
row, a run's stats and result, a sweep row and a recovery snapshot.

A record declares each field once, as a class annotation with an optional
default. `Record` writes its `__init__`, `repr` and `==` as `dataclasses`
does, so its repr, which the output fingerprints hash, reads the same, but
without importing `dataclasses` and, with it, `inspect`, `ast` and `dis`:
the larger part of the cost of `import mpsim`.
"""

from __future__ import annotations

import sys
from types import MemberDescriptorType as _SLOT

# dataclasses' == on 3.10-3.12 compares the field tuples, whose items are
# equal if identical; on 3.13 it compares field by field, so one NaN object
# in two records makes them unequal
_SAME_OBJECT_EQUAL = sys.version_info < (3, 13)


class Record:
    """A record's fields are its class annotations, in order; a field's
    default is its class attribute, and `[]` is a new list per record, with
    `None` in the signature. `__init__` only stores its arguments. `repr` is
    `Qualname(field=value!r, ...)`; `==` holds between records of one class
    whose fields are equal, bar those named by the class keyword
    `no_compare`. Records are unhashable. A subclass that annotates nothing
    keeps its parent's fields. `Record` declares no slots, so a subclass
    that declares its own has no `__dict__`; a slot takes no default."""

    __slots__ = ()
    # not annotated: get_type_hints() reads a record's fields from its
    # annotations and those of its bases
    _fields = ()
    _compare = ()
    __hash__ = None

    def __init_subclass__(cls, no_compare=(), **kwargs):
        super().__init_subclass__(**kwargs)
        if "__annotations__" not in cls.__dict__:
            return
        cls._fields = fields = tuple(cls.__dict__["__annotations__"])
        if not set(no_compare) <= set(fields):
            raise TypeError("%s: no_compare %r names a non-field"
                            % (cls.__qualname__, no_compare))
        cls._compare = tuple(f for f in fields if f not in no_compare)
        defaults, body = [], []
        for f in fields:
            default, store = cls.__dict__.get(f), "self.{0} = {0}"
            if default == []:  # a new list per record
                default, store = None, "self.{0} = [] if {0} is None else {0}"
            if f not in cls.__dict__ or isinstance(default, _SLOT):
                if defaults:
                    raise TypeError("%s: field %s has no default, but one "
                                    "before it has" % (cls.__qualname__, f))
            else:
                defaults.append(default)
            body.append(store.format(f))
        namespace = {}
        exec("def __init__(self, %s):\n    " % ", ".join(fields)
             + "\n    ".join(body), namespace)
        cls.__init__ = init = namespace["__init__"]
        init.__defaults__ = tuple(defaults)
        init.__qualname__ = cls.__qualname__ + ".__init__"

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
