"""The shared base of the package's immutable value types.

A subclass names its fields, in constructor order, in ``__slots__`` and
its trailing defaults in ``_defaults``; a slot whose name starts with an
underscore is private state, not a field.  The generic ``__init__`` binds
arguments as a signature would and then calls ``_validate``.  Hot types
write their own ``__init__`` and set each field through its slot setter
from ``_setters``, about a fifth cheaper than ``object.__setattr__``.
"""

__all__ = ["Record"]


class Record:
    """Compared, hashed and printed by class and fields; fields are final.

    An instance equals only an instance of the same class with equal
    fields, and prints as ``Name(field=value, ...)``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()  # every public __slots__ entry down the class chain
    _setters: tuple = ()  # each field's slot descriptor __set__, in field order
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields += tuple(s for s in cls.__dict__.get("__slots__", ()) if s[0] != "_")
        cls._setters = tuple(getattr(cls, field).__set__ for field in cls._fields)

    def __init__(self, *args, **kwargs):
        fields, setters, given = self._fields, self._setters, len(args)
        if given > len(fields):
            raise TypeError(f"{type(self).__name__}() takes {len(fields)} arguments, got {given}")
        for setter, value in zip(setters, args):
            setter(self, value)
        missing, used = None, 0
        for i in range(given, len(fields)):
            field = fields[i]
            if field in kwargs:
                setters[i](self, kwargs[field])
                used += 1
            elif field in self._defaults:
                setters[i](self, self._defaults[field])
            elif missing is None:
                missing = field
        if used < len(kwargs):  # a keyword that names no field, or one given by position
            unknown = sorted(kwargs.keys() - fields[given:])
            raise TypeError(f"{type(self).__name__}() got unexpected or repeated arguments {unknown}")
        if missing is not None:
            raise TypeError(f"{type(self).__name__}() missing argument {missing!r}")
        self._validate()

    def _validate(self) -> None:
        """Check the bound fields; normalise them through ``_setters``."""

    def _values(self) -> tuple:
        return tuple([getattr(self, field) for field in self._fields])

    def asdict(self) -> dict:
        """The fields by name, in order; nested values are not converted."""
        return {field: getattr(self, field) for field in self._fields}

    def __repr__(self) -> str:
        args = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
