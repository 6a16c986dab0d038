"""The package's public names."""

import diracsplit


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from diracsplit import *", namespace)
    assert set(diracsplit.__all__) <= namespace.keys()


def test_every_public_name_resolves_once():
    names = diracsplit.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(diracsplit, n)]
    assert missing == []


def test_names_the_benchmark_reaches():
    """perfbench's set-up, workloads and independent oracle call these names."""
    import importlib

    from diracsplit import cli, kernels

    importlib.import_module("diracsplit.projectors")
    spinor = diracsplit.build_rep("spinor")
    assert diracsplit.build_projectors(spinor).p
    assert isinstance(kernels.IMPLEMENTATION, str)
    assert callable(cli.main)
    for name in ("u_spinor", "weyl_spinor", "split", "field_of"):
        assert callable(getattr(diracsplit, name)), name
    assert callable(diracsplit.FourMomentum.on_shell)
    assert callable(diracsplit.FourMomentum.exact)
    # the independent oracle reads these attributes of a split
    p = diracsplit.FourMomentum.exact((3, 2, 2, 0), 1)
    sr = diracsplit.split(diracsplit.field_of(diracsplit.u_spinor(p, spinor, 1), spinor), p.mass)
    for f, ncomp in ((sr.psi, 4), (sr.psi1, 4), (sr.psi2, 4), (sr.xi1_pair, 2), (sr.xi2_pair, 2)):
        assert len(f.terms[0].amplitude) == ncomp


def test_names_the_benchmark_traces():
    """perfbench times these kernels and counts calls of these methods by name.

    A rename would make its per-layer metrics read 0 without failing.
    """
    from diracsplit import kernels, matrices, scalars

    for name in ("mul", "mul_vec", "max_abs", "max_abs_diff"):
        assert callable(getattr(kernels, name)), name
    for cls, name in ((matrices.Matrix, "__matmul__"), (matrices.Matrix, "to_float"),
                      (scalars.GaussianRational, "to_complex")):
        assert callable(vars(cls).get(name)), f"{cls.__name__}.{name}"
