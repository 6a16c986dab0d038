"""The two bases of the package's record and value classes.

A subclass names its fields in ``_fields``, in constructor order, and
stores each of them in ``__init__``.  :class:`Record` compares two
instances of one class by those fields and shows them in ``repr``, as a
dataclass does; it is mutable and unhashable, and ``pickle`` and
``copy`` rebuild it through the constructor.  :class:`Value` is a frozen
record: it refuses assignment, so its ``__init__`` stores with
:data:`store`, and it hashes its fields.  A class whose ``__slots__``
list its fields has no ``__dict__``; a slot left out of ``_fields``, such
as a memo dict, stays outside ``==``, ``hash``, ``repr`` and pickling.

Every frozen class of the package is a :class:`Value`, and refuses
assignment and deletion by this one mechanism: ``GaussianRational``,
``Matrix``, ``GammaRep``, ``RepView``, ``FourMomentum``,
``PlaneWaveField``, ``ResidualEntry``, ``ResidualReport``,
``SplitResult``, ``LorentzParams`` and ``RunConfig``.  ``GaussianRational`` keeps its own ``==``, ``hash`` and
``repr`` (exact arithmetic's hot path, and a real value hashes as the
number it equals); ``Matrix`` and
``PlaneWaveField`` keep their own ``repr``.  Three compare and hash by
identity, with ``__eq__, __hash__ = object.__eq__, object.__hash__``:
``GammaRep``, ``RepView`` and ``PlaneWaveField``.  ``CheckRecord`` and
``Report`` are mutable records.  ``PlaneWaveTerm`` is a tuple, so it
takes only ``_fields`` and :class:`Record`'s ``repr``.

The classes are written by hand rather than with ``dataclasses``: a
fresh interpreter then neither imports that module (with ``inspect``)
nor generates and compiles the methods of each class.
"""

#: how a frozen value's ``__init__`` stores a field past its own ``__setattr__``
store = object.__setattr__


class Record:
    __slots__ = ()
    _fields = ()
    __hash__ = None  # mutable

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self):
        return self.__class__, self._values()


class Value(Record):
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{self.__class__.__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{self.__class__.__name__} is immutable")

    def __hash__(self):
        return hash(self._values())
