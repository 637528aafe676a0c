import tracemalloc

import numpy as np
import pytest

import oracles
from weakf.catalog import (
    BUILDERS,
    MAX_AMBIENT_DIM,
    flat_pack,
    hypersphere,
    linear_subspace,
    make_example,
    product_pack,
    rotated_pack,
    sasakian_s3,
)
from weakf.classifiers import class_residual
from weakf.errors import InvalidExample
from weakf.report import SuiteConfig, render_json, run_suite
from weakf.submanifold import induce_structure


def _quaternion_conjugation():
    """Orthogonal R with R J R^T anticommuting with the standard block J."""

    def qmul(a, b):
        a0, a1, a2, a3 = a
        b0, b1, b2, b3 = b
        return np.array(
            [
                a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
                a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
                a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
                a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
            ]
        )

    q = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    qc = q * np.array([1.0, -1.0, -1.0, -1.0])
    return np.column_stack([qmul(qmul(q, e), qc) for e in np.eye(4)])


def test_example_one_blend_identity():
    # f^2 = -(id - sin t cos t psi) + sum eta^i (x) xi_i, frozen per t
    for t in (0.05, 0.1, 0.2):
        cat = rotated_pack(n=2, s=1, t=t)
        pack = cat.obj
        p = pack.chart.sample(1, seed=3)[0]
        f0 = pack.f.value(p)
        q0 = pack.Q.value(p)
        corr = np.zeros((5, 5))
        corr[4, 4] = 1.0
        assert np.abs(f0 @ f0 + q0 - corr).max() <= 1e-12
        # Q reconstructed independently from the two constituent structures
        f1x = np.zeros((5, 5))
        f1x[:4, :4] = np.array(
            [[0.0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
        )
        r = np.eye(5)
        r[1, 1] = -1.0
        f2x = r @ f1x @ r.T
        psi = f1x @ f2x + f2x @ f1x
        q_expected = np.eye(5) - np.sin(t) * np.cos(t) * psi
        q_expected[4, 4] = 1.0
        assert np.abs(q0 - q_expected).max() <= 1e-12


def test_example_one_givens_variant():
    cat = rotated_pack(n=2, s=1, t=0.1, rotation="givens:0:2:0.3")
    pack = cat.obj
    p = pack.chart.sample(1, seed=5)[0]
    f0 = pack.f.value(p)
    q0 = pack.Q.value(p)
    corr = np.zeros((5, 5))
    corr[4, 4] = 1.0
    assert np.abs(f0 @ f0 + q0 - corr).max() <= 1e-12
    # the Givens anticommutator is a negative multiple of the identity on
    # the contact block, so Q is scalar there but still != id
    assert np.abs(q0[:4, :4] - q0[0, 0] * np.eye(4)).max() <= 1e-12
    assert abs(q0[0, 0] - 1.0) > 1e-3


def test_rotated_pack_rejects_degenerate_q():
    with pytest.raises(InvalidExample) as err:
        rotated_pack(n=2, s=1, t=np.pi / 4)
    assert "positive-definite" in str(err.value)


def test_rotated_pack_rejects_vanishing_anticommutator():
    r = _quaternion_conjugation()
    with pytest.raises(InvalidExample) as err:
        rotated_pack(n=2, s=1, t=0.1, rotation=r)
    assert "degenerate rotation" in str(err.value)


def test_rotated_pack_t_zero_is_classical():
    pack = rotated_pack(n=2, s=1, t=0.0).obj
    p = pack.chart.sample(1, seed=7)[0]
    assert np.abs(pack.Q.value(p) - np.eye(5)).max() == 0.0


def test_builders_validate_parameters():
    with pytest.raises(InvalidExample):
        flat_pack(n=0)
    with pytest.raises(InvalidExample):
        product_pack(n=1, s=1, scales=(1.0, 2.0))
    with pytest.raises(InvalidExample):
        hypersphere(n=1, ambient_skew="odd")
    with pytest.raises(InvalidExample):
        linear_subspace(n=1, s=0)
    with pytest.raises(InvalidExample):
        rotated_pack(rotation="spin:1")
    with pytest.raises(InvalidExample):
        make_example("unknown_example")
    with pytest.raises(InvalidExample):
        make_example("flat_pack", bogus=3)
    # the name is positional only: a parameter called "name" goes to the
    # builder, which refuses it
    with pytest.raises(InvalidExample, match="argument 'name'"):
        make_example("flat_pack", name="sasakian_s3")


@pytest.mark.parametrize("builder", [flat_pack, rotated_pack, product_pack,
                                     hypersphere, linear_subspace])
def test_oversize_dimension_is_refused_before_allocation(builder):
    # an m x m matrix at n = 100000 would take 320 GB: the dimension is
    # refused before the builder allocates anything
    tracemalloc.start()
    try:
        with pytest.raises(InvalidExample, match=(
                rf"needs an ambient dimension 2n \+ 2s <= {MAX_AMBIENT_DIM}, "
                r"got 20000[24]")):
            builder(n=100000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


def test_largest_dimension_is_accepted():
    assert flat_pack(n=15, s=1).obj.dim == MAX_AMBIENT_DIM - 1
    assert hypersphere(n=15).obj.ambient.dim == MAX_AMBIENT_DIM
    assert linear_subspace(n=1, s=15).obj.ambient.dim == MAX_AMBIENT_DIM
    for build in (lambda: flat_pack(n=15, s=2), lambda: hypersphere(n=16),
                  lambda: product_pack(n=1, s=16)):
        with pytest.raises(InvalidExample, match="got 34"):
            build()


def test_registry_covers_all_builders():
    assert set(BUILDERS) == {
        "flat_pack",
        "rotated_pack",
        "product_pack",
        "sasakian_s3",
        "hypersphere",
        "linear_subspace",
    }


def test_declared_class_table_full_catalog():
    cats = [
        flat_pack(),
        rotated_pack(),
        product_pack(),
        sasakian_s3(),
        hypersphere(n=1),
        linear_subspace(n=1, s=2),
    ]
    for cat in cats:
        pack = cat.obj if cat.is_pack else induce_structure(cat.obj)
        sub = None if cat.is_pack else cat.obj
        for tag in cat.declared_classes:
            worst = 0.0
            for i, p in enumerate(pack.chart.sample(3, seed=11)):
                fr = oracles.frame(pack, p, sub, seed=11, index=i)
                val, _ = class_residual(pack, p, tag, frame=fr)
                worst = max(worst, val)
            assert worst <= 1e-9, (cat.name, tag, worst)


def test_same_spec_same_report():
    cfg = SuiteConfig(
        example="rotated_pack",
        params={"n": 2, "s": 1, "t": 0.1},
        suites=("axioms", "classes"),
        samples=5,
        seed=123,
    )
    a = render_json(run_suite(cfg))
    b = render_json(run_suite(cfg))
    assert a == b


def test_component_functions_bitwise_reproducible():
    p = np.array([0.4, -0.2, 0.7, 0.1, -0.5])
    a = rotated_pack(n=2, s=1, t=0.1).obj
    b = rotated_pack(n=2, s=1, t=0.1).obj
    assert np.array_equal(a.f.value(p), b.f.value(p))
    assert np.array_equal(a.Q.value(p), b.Q.value(p))
