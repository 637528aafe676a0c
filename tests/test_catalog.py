import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from weakf import catalog, cli
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
from weakf.fstructure import PackFrame
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


@pytest.mark.parametrize("params, message", [
    ({"n": True}, "n must be an integer, got True"),
    ({"n": "3"}, "n must be an integer, got '3'"),
    ({"n": 2, "s": np.True_}, "s must be an integer, got np.True_"),
    ({"n": 2, "scales": (True, 2)},
     "flat_pack scales must be numbers, got (True, 2)"),
    ({"n": 1, "scales": "2"}, "flat_pack scales must be numbers, got '2'"),
])
def test_bool_and_string_parameters_are_refused(params, message):
    # a bool or a string converts to a float but is no number: it is
    # refused by the parameter's name, never coerced (True to 1, "3" to 3)
    with pytest.raises(InvalidExample) as err:
        make_example("flat_pack", **params)
    assert str(err.value) == message


# Every numeric builder parameter: (example, its params with the value v in
# place, the start of the refusal, which names the parameter). In the
# Givens string a value is spelled as its repr.
_NUMERIC_PARAMETERS = {
    "n": ("flat_pack", lambda v: {"n": v}, "n must be an integer"),
    "hypersphere n": ("hypersphere", lambda v: {"n": v}, "n must be an integer"),
    "s": ("linear_subspace", lambda v: {"n": 1, "s": v}, "s must be an integer"),
    "t": ("rotated_pack", lambda v: {"t": v}, "rotated_pack blend angle t must be"),
    "scales": ("flat_pack", lambda v: {"n": 1, "scales": v},
               r"flat_pack (scales must be numbers|block weight \S+ in scales)"),
    "scales entry": ("product_pack", lambda v: {"n": 2, "scales": (1.0, v)},
                     r"product_pack (scales must be numbers|block weight \S+ in scales)"),
    "givens i": ("rotated_pack", lambda v: {"rotation": f"givens:{v!r}:2:0.3"},
                 "rotation givens"),
    "givens j": ("rotated_pack", lambda v: {"rotation": f"givens:0:{v!r}:0.3"},
                 "rotation givens"),
    "givens angle": ("rotated_pack", lambda v: {"rotation": f"givens:0:2:{v!r}"},
                     "rotation givens"),
}


@pytest.mark.parametrize("value", [True, np.True_, "1", math.nan, math.inf],
                         ids=repr)
@pytest.mark.parametrize("parameter", list(_NUMERIC_PARAMETERS))
def test_numeric_parameters_refuse_what_is_no_finite_number(parameter, value):
    # a bool, a string or a non-finite value is refused by the parameter's
    # name, never coerced (t=True would blend at t = 1)
    example, params, name = _NUMERIC_PARAMETERS[parameter]
    with pytest.raises(InvalidExample, match=f"^{name}"):
        make_example(example, **params(value))


@pytest.mark.parametrize("rotation, message", [
    ("givens:0:2:abc", "rotation givens:i:j:theta needs numbers, got 'givens:0:2:abc'"),
    ("givens:0:2", "unknown rotation descriptor 'givens:0:2'"),
    (("givens", 0, 2, 0.3), "unknown rotation descriptor ('givens', 0, 2, 0.3)"),
    ("givens:0:4:0.3", "rotation givens indices out of range, got 0, 4"),
    (np.eye(4, dtype=bool),
     "rotation matrix entries must be numbers, got an array of dtype bool"),
    (np.eye(4).astype(object),
     "rotation matrix entries must be numbers, got an array of dtype object"),
    ({"n": 1, "rotation": [[True, False], [False, True]]},
     "rotation matrix entries must be numbers, got [[True, False], [False, True]]"),
    ({"n": 1, "rotation": [[np.True_, 0.0], [0.0, 1.0]]},
     "rotation matrix entries must be numbers, got [[np.True_, 0.0], [0.0, 1.0]]"),
    ({"n": 1, "rotation": [["1", "0"], ["0", "1"]]},
     "unknown rotation descriptor [['1', '0'], ['0', '1']]"),
    (np.eye(4).astype(str), "unknown rotation descriptor an array of dtype <U32"),
])
def test_bad_rotation_spellings_are_refused_by_name(rotation, message):
    # the string "givens:i:j:theta" and a matrix; a Givens string that is
    # no numbers, the tuple ("givens", i, j, theta), and a matrix of bools
    # or strings or of object dtype, which float() would coerce (True to
    # 1.0, "1" to 1.0), are refused by name. A dict holds n with a matrix.
    params = rotation if isinstance(rotation, dict) else {"rotation": rotation}
    with pytest.raises(InvalidExample) as err:
        make_example("rotated_pack", **params)
    assert str(err.value) == message


def test_cli_refuses_a_bool_blend_angle(capsys):
    assert cli.main(["verify", "--example", "rotated_pack", "--param", "t=True",
                     "--samples", "2"]) == 2
    assert capsys.readouterr().err == (
        "error: rotated_pack blend angle t must be a number, got 'True'\n")


def _field_hexes(cat, p):
    pack = cat.obj
    fields = (pack.f, pack.Q, *pack.xi, *pack.eta, pack.g)
    return [[x.hex() for x in np.ravel(fld.value(p)).tolist()] for fld in fields]


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_flat_and_product_packs_share_one_builder(n, s, data):
    # the same block weights give the same f, Q, xi, eta and g, bit for bit
    weight = st.floats(0.01, 100.0) | st.floats(-100.0, -0.01)
    scales = data.draw(st.lists(weight, min_size=n, max_size=n))
    flat, product = flat_pack(n, s, scales), product_pack(n, s, scales)
    assert flat.params == product.params
    assert flat.chart.box == product.chart.box
    p = flat.chart.sample(1, seed=data.draw(st.integers(0, 2**32 - 1)))[0]
    assert _field_hexes(flat, p) == _field_hexes(product, p)


def _verdicts(example, **params):
    report = run_suite(SuiteConfig(example, params=params, samples=10))
    return {(suite, e["identity"]): e["verdict"]
            for suite, entries in report["suites"].items() for e in entries}


@settings(max_examples=25, deadline=None)
@given(st.floats(math.log(1e-4), math.log(catalog._WEIGHT_CEIL)).map(math.exp)
       .filter(lambda w: 1e-4 < w <= catalog._WEIGHT_CEIL),
       st.sampled_from((1.0, -1.0)))
def test_verdicts_do_not_depend_on_the_block_weight(weight, sign):
    # every weight the catalog accepts, drawn log-uniformly over its whole
    # range, gives every entry, counted or not, its unit-weight verdict
    for example, params in (("flat_pack", {"n": 1}),
                            ("product_pack", {"n": 1, "s": 2}),
                            ("linear_subspace", {"n": 1, "s": 2})):
        weighted = _verdicts(example, **params, scales=sign * weight)
        assert weighted == _verdicts(example, **params, scales=1.0), (
            example, sign * weight)


# Where a parameter may reach float(), int() or np.asarray(): the converters,
# which refuse what is no number first, and the matrix branch of
# _rotation_matrix.
_CONVERTERS = {"_integer", "_number", "_choice", "_block_weights"}
_MATRIX_BRANCH = ("_rotation_matrix", "asarray", "rotation")


def _bare_conversions(node, params=frozenset(), where="<module>"):
    """(function, converter, parameter, line) of every float(), int() or
    np.asarray() applied to a parameter of an enclosing function, or to a
    subscript or attribute of one, and every map() of float or int over one."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.Lambda)):
            a = child.args
            own = {x.arg for x in [*a.posonlyargs, *a.args, *a.kwonlyargs]}
            yield from _bare_conversions(child, params | own,
                                         getattr(child, "name", where))
            continue
        if isinstance(child, ast.Call) and child.args:
            f, arg = child.func, child.args[0]
            fn = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if fn == "map" and getattr(arg, "id", None) in ("float", "int"):
                fn, arg = arg.id, child.args[-1]
            while isinstance(arg, (ast.Subscript, ast.Attribute)):
                arg = arg.value
            if fn in ("float", "int", "asarray") and getattr(arg, "id", None) in params:
                yield where, fn, arg.id, child.lineno
        yield from _bare_conversions(child, params, where)


def test_parameters_reach_numbers_only_through_the_converters():
    tree = ast.parse(Path(catalog.__file__).read_text(encoding="utf-8"))
    found = list(_bare_conversions(tree))
    assert _MATRIX_BRANCH in [hit[:3] for hit in found]
    assert [hit for hit in found if hit[0] not in _CONVERTERS
            and hit[:3] != _MATRIX_BRANCH] == []


def test_integer_valued_floats_are_integers():
    pack = make_example("flat_pack", n=2.0, s=1.0, scales=(1, 2.0)).obj
    assert (pack.n, pack.s) == (2, 1)
    assert type(pack.n) is int and type(pack.s) is int


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
        for tag in cat.declared_classes:
            worst = 0.0
            for i, p in enumerate(pack.chart.sample(3, seed=11)):
                fr = PackFrame(pack, p, seed=11, index=i)
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
