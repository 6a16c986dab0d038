"""Helpers shared by the tests: a symbol applied term by term, a float copy,
charge conjugation, and the largest difference of two matrices.

The library applies symbols, converts and conjugates amplitudes only
inside its term relations, so the tests build these fields from the
public constructors.
"""

from diracsplit import PlaneWaveField, PlaneWaveTerm, kernels
from diracsplit.scalars import FLOAT


def max_abs_diff(a, b) -> float:
    """The largest entrywise difference of two matrices on one backend, NaN if any is NaN."""
    a._check_peer(b)
    return kernels.max_abs_diff(a.entries, b.entries)


def apply_symbol(f, symbol):
    """Each term's amplitude times the matrix ``symbol(momentum, freq_sign)``, by ``Matrix.apply``."""
    return PlaneWaveField([PlaneWaveTerm(symbol(p, s).apply(amp), p, s) for amp, p, s in f.terms],
                          f.rep, f.ncomp, f.backend)


def to_float(f):
    """An exact field's float copy: each amplitude and momentum converted."""
    return PlaneWaveField([PlaneWaveTerm(tuple(a.to_complex() for a in amp), p.to_float(), s)
                           for amp, p, s in f.terms], f.rep, f.ncomp, FLOAT)


def charge_conjugate(view, amplitude):
    """M conj(a), M the conjugation matrix of ``view``: C of a term, whose sign flips."""
    return view.conjugation.apply(tuple(a.conjugate() for a in amplitude))


def conjugates(f):
    """The terms of C f: each amplitude conjugated, at the flipped frequency sign."""
    view = f.rep.on(f.backend)
    return [PlaneWaveTerm(charge_conjugate(view, amp), p, -s) for amp, p, s in f.terms]


def with_conjugate(f):
    """f + C f, built by one constructor call: a Majorana field when f solves the equation."""
    return PlaneWaveField(f.terms + tuple(conjugates(f)), f.rep, f.ncomp, f.backend)
