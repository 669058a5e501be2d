"""Immutable records: the base of the package's small value types.

A subclass names its fields in ``__slots__`` and may give defaults in
``_defaults``.  A record is built positionally or by keyword, equals only a
record of the same type with equal fields (never a tuple, nor a record of
another type), hashes like the tuple of its fields, so it is hashable when
they are, and refuses assignment and deletion, so a shared constant such as
``heatinv.WEYL_A0`` stays what it is.
"""


class Record:
    __slots__ = ()
    _defaults = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} "
                            f"fields, got {len(args)}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in self._defaults:
                value = self._defaults[name]
            else:
                raise TypeError(f"{type(self).__name__} is missing field "
                                f"{name!r}")
            object.__setattr__(self, name, value)
        if kwargs:
            raise TypeError(f"{type(self).__name__} got unexpected or "
                            f"repeated fields {sorted(kwargs)}")

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")
