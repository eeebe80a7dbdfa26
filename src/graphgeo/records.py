"""Immutable records that are not tuples.

Most records in graphgeo are ``typing.NamedTuple`` classes: immutable,
cheap to define at import, and copied with changes by ``_replace``.  A
record that defines its own ``len``, must not serialize as a list, or
keeps computed columns derives from :class:`Frozen` instead.

The modules that define NamedTuple records do without ``from __future__
import annotations``: typing compiles every string annotation of a field
when the class is defined.  Their annotations are evaluated instead, so none
names a lazily imported numpy module: ``np.random.Generator`` would import
numpy.random at start-up.  Random draws take :class:`graphgeo.draws.Stream`.
"""


class Frozen:
    """Base of the slotted immutable records: the fields are the class's
    ``__slots__``, set by ``__init__`` from positional or keyword values;
    assigning or deleting an attribute afterwards raises AttributeError."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        values = dict(zip(self.__slots__, args), **kwargs)
        if len(args) > len(self.__slots__) or values.keys() != set(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes the fields "
                            f"{', '.join(self.__slots__)}")
        for name in self.__slots__:
            object.__setattr__(self, name, values[name])

    def _replace(self, **changes):
        """A copy with the fields ``changes`` replaced, as for a NamedTuple."""
        return type(self)(**{**{name: getattr(self, name) for name in self.__slots__},
                             **changes})

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")
