"""Set-up, the class parts, the theorem bodies and component functions are
computed once per chunk of points, and no point's frame is built: counted
with wrappers on small runs."""

import hashlib
import sys
import types
import weakref
from collections import Counter
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest

import oracles
from weakf import (calculus, catalog, charts, classifiers, fstructure, report,
                   submanifold)
from weakf.catalog import hypersphere
from weakf.fstructure import PackFrame, axioms_residual
from weakf.jets import Jet
from weakf.report import SUITES, SuiteConfig, run_suite

SAMPLES = 3

# Stack quantities that the contraction counts recognise as operands, by
# the name the chunk's stack reads them under. u is the Cholesky factor of
# g0 that vector residuals are lowered by; a lowered coefficient,
# lead_dot(u, C), is named by its source array C.
STACK_ARRAYS = ("V", "u", "xi0", "xi1", "d_basis", "nabla_q")


def _tracked(init, refs, counts, name):
    """``init`` that records the most objects of its class alive at a build."""
    def tracking_init(self, *args, **kwargs):
        alive = sum(r() is not None for r in refs)
        counts[f"{name}_alive_at_build"] = max(
            counts[f"{name}_alive_at_build"], alive)
        counts[name] += 1
        refs.append(weakref.ref(self))
        init(self, *args, **kwargs)
    return tracking_init


def _counting(fn, counts, name):
    """``fn`` that adds one to ``counts[name]`` per call."""
    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return counted


def _rebuilt(cls, attr, wrap):
    """Attribute ``cls.attr`` built by ``wrap(its build)``: a cached
    property stays cached, a plain one is built at every read."""
    prop = vars(cls)[attr]
    if isinstance(prop, property):
        return property(wrap(prop.fget))
    rec = cached_property(wrap(prop.func))
    rec.__set_name__(cls, attr)
    return rec


def _counted_property(cls, attr, counts):
    """Property ``cls.attr`` that counts its builds under ``attr``."""
    return _rebuilt(cls, attr, lambda build: _counting(build, counts, attr))


# The content key of an all-zero array (see _by_value).
ZERO = "all-zero array"


def _content(a):
    """A key for the value of a contraction operand."""
    if not isinstance(a, np.ndarray):
        return a
    if not a.any():
        return ZERO
    return a.shape, hashlib.sha1(np.ascontiguousarray(a).tobytes()).digest()


def _memory(a):
    """Where an array's elements start, and how many there are: a transposed
    view has the same."""
    return a.__array_interface__["data"][0], a.size


@pytest.fixture(scope="module")
def counted_run():
    counts = Counter()
    # (helper, calling function, line, operand names, operand values) -> calls
    sites = Counter()
    names = {}                  # id -> name of each recorded stack array
    owners = {}                 # _memory -> id of each recorded stack array
    alive = []                  # keeps arrays alive so that ids stay unique

    def record(val, name):
        """``val``, recorded by name and by where its elements are."""
        alive.append(val)
        names[id(val)] = name
        owners[_memory(val)] = id(val)
        return val

    def operand_id(a):
        # a view of a stack array, transposed or with a new axis, stands for
        # the array itself
        return id(a) if id(a) in names else owners.get(_memory(a), id(a))

    def counting(contract, skip=0):
        def counted(*args, **kwargs):
            ops = [a for a in args[skip:] if isinstance(a, np.ndarray)]
            alive.append(ops)
            ids = tuple(map(operand_id, ops))
            caller = sys._getframe(1)
            sites[(contract.__name__, caller.f_code.co_name, caller.f_lineno,
                   tuple(map(names.get, ids)), *map(_content, args))] += 1
            out = contract(*args, **kwargs)
            if (contract.__name__ == "lead_dot" and names.get(ids[0]) == "u"
                    and ids[1] in names):
                record(out, names[ids[1]])
            return out
        return counted

    counted_np = types.ModuleType("numpy")
    counted_np.__dict__.update(vars(np))
    counted_np.einsum = counting(np.einsum, skip=1)

    stack = fstructure.FrameStack
    with pytest.MonkeyPatch.context() as mp:
        for cls, name in ((stack, "frame_stack"),
                          (submanifold._AmbientStack, "ambient_stack"),
                          (submanifold._AmbientPoint, "ambient"),
                          (PackFrame, "frame")):
            mp.setattr(cls, "__init__", _tracked(cls.__init__, [], counts, name))
        for name in STACK_ARRAYS:
            mp.setattr(stack, name, _rebuilt(
                stack, name, lambda build, name=name: (
                    lambda st: record(build(st), name))))
        for name in ("metric_inverse", "christoffel_from_jets"):
            mp.setattr(calculus, name, _counting(
                getattr(calculus, name), counts, name))
        mp.setattr(np.linalg, "cholesky", _counting(
            np.linalg.cholesky, counts, "cholesky"))
        ambient = submanifold._AmbientStack
        for attr in ("shape_operators", "coordinate_derivative", "hn",
                     "nearly_kahler"):
            mp.setattr(ambient, attr, _counted_property(ambient, attr, counts))
        mp.setattr(stack, "nabla_xi_xi", _counted_property(
            stack, "nabla_xi_xi", counts))
        for mod in (classifiers, fstructure, submanifold):
            mp.setattr(mod, "np", counted_np)
            for helper in ("pair_form", "lead_dot"):
                mp.setattr(mod, helper, counting(getattr(mod, helper)))
        rep = run_suite(SuiteConfig(example="hypersphere", params={"n": 1},
                                    suites=SUITES, samples=SAMPLES))
    return rep, counts, sites


def test_one_ambient_stack_per_chunk(counted_run):
    # the SAMPLES points are one chunk: one ambient stack holds the ambient
    # data of all of them, and no ambient point is built
    rep, counts, _ = counted_run
    assert rep["overall"]["verdict"] == "pass"
    assert "submanifold" in rep["suites"]
    assert counts["ambient_stack"] == 1
    assert counts["ambient"] == 0


# -- component functions: one stacked call per chunk of points ------------------

# Two chunks: a full one and a part of one.
CHUNKED = charts.CHUNK + 3


def _counting_component(calls, name, fn, theorem):
    """``fn`` that records (name, order, points, enclosing theorem check) per
    call; order 0 is a call on float coordinates."""
    def counted(coords):
        c = coords[0]
        order = 0 if not isinstance(c, Jet) else 1 if c.hess is None else 2
        count = len(c.val) if order else 1
        calls.append((name, order, count, theorem[0]))
        return fn(coords)
    return counted


def _counted_example(cat, calls, theorem):
    """``cat`` with every component function counted, fields by name."""
    def field(f, name):
        return replace(f, fn=_counting_component(calls, name, f.fn, theorem))

    obj = cat.obj
    if cat.is_pack:
        obj = replace(obj, g=field(obj.g, "g"), f=field(obj.f, "f"),
                      Q=field(obj.Q, "Q"),
                      xi=tuple(field(x, f"xi{i}") for i, x in enumerate(obj.xi)),
                      eta=tuple(field(e, f"eta{i}") for i, e in enumerate(obj.eta)))
    else:
        obj = replace(
            obj,
            embedding=_counting_component(calls, "embedding", obj.embedding,
                                          theorem),
            normals=_counting_component(calls, "normals", obj.normals, theorem),
            ambient_metric=field(obj.ambient_metric, "gbar"),
            ambient_skew=field(obj.ambient_skew, "fbar"))
    return replace(cat, obj=obj)


@pytest.fixture(scope="module", params=[("sasakian_s3", {}),
                                        ("hypersphere", {"n": 1})],
                ids=["sasakian_s3", "hypersphere"])
def chunked_run(request):
    """A run over two chunks of points, all suites: (name, order, points,
    theorem) of every component-function call, the counts of the set-up
    builds, and the number of metrics (the pack's, and on an embedded
    example the ambient one)."""
    example, params = request.param
    calls, theorem, counts = [], [None], Counter()
    check = report.theorem_check

    def flagged(pack, p, which, *args, **kwargs):
        theorem[0] = which
        try:
            return check(pack, p, which, *args, **kwargs)
        finally:
            theorem[0] = None

    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(catalog.BUILDERS, "counted", lambda: _counted_example(
            catalog.make_example(example, **params), calls, theorem))
        mp.setattr(report, "theorem_check", flagged)
        for name in ("metric_inverse", "christoffel_from_jets"):
            mp.setattr(calculus, name, _counting(
                getattr(calculus, name), counts, name))
        mp.setattr(np.linalg, "cholesky", _counting(
            np.linalg.cholesky, counts, "cholesky"))
        for cls, name in ((fstructure.FrameStack, "frame_stack"),
                          (submanifold._AmbientStack, "ambient_stack"),
                          (PackFrame, "frame"),
                          (submanifold._AmbientPoint, "ambient")):
            mp.setattr(cls, "__init__", _tracked(cls.__init__, [], counts, name))
        rep = run_suite(SuiteConfig(example="counted", suites=SUITES,
                                    samples=CHUNKED))
    assert rep["overall"]["verdict"] == "pass"
    return calls, counts, 1 if example == "sasakian_s3" else 2


def test_each_component_function_once_per_chunk(chunked_run):
    # every (function, order) is evaluated by one call over each chunk of
    # points: CHUNK points, then the rest; never point by point, never on
    # float coordinates
    points = {}
    for name, order, count, _ in chunked_run[0]:
        points.setdefault((name, order), []).append(count)
    assert points
    assert all(order > 0 for _, order in points)
    assert set(map(tuple, points.values())) == {(charts.CHUNK, 3)}


def test_order2_field_stacks_only_inside_thm32_chain(chunked_run):
    # only the Reeb-sectional curvature chain reads a second-order metric
    # jet; the embedding's second derivatives are the induced structure's
    # first, so its stack is order 2 wherever the point is first built
    order2 = {(name, theorem) for name, order, _, theorem in chunked_run[0]
              if order == 2 and name != "embedding"}
    assert order2 and {theorem for _, theorem in order2} == {"thm32_chain"}
    assert {name for name, _ in order2} <= {"g", "gbar"}


def _sub_chunks(points):
    """Sub-chunks of PAIR_CHUNK points over a run's chunks of CHUNK."""
    chunks = [charts.CHUNK] * (points // charts.CHUNK) + [points % charts.CHUNK]
    return sum(-(-p // fstructure.PAIR_CHUNK) for p in chunks if p)


def _receiving(pair_rows, received, kept=lambda c: True):
    """``_pair_rows`` that records what each call receives whose coefficient
    stack is ``kept``: whether the stack is nonzero, and the sub-chunks of
    PAIR_CHUNK points it spans."""
    def recorded(reduce, c, X, Y=None):
        if kept(c):
            received.append((bool(c.any()),
                             -(-len(c) // fstructure.PAIR_CHUNK)))
        return pair_rows(reduce, c, X, Y)
    return recorded


# Each module that forms residuals on the test pairs, by _pair_rows.
PAIR_ROWS_MODULES = (classifiers, fstructure, submanifold)


@pytest.mark.parametrize("example, params, vanishes", [
    ("sasakian_s3", {}, True), ("hypersphere", {"n": 1}, False)])
def test_killing_residual_once_per_chunk(example, params, vanishes):
    # the f_K_contact class, prop1 and the gates of fk_contact_nabla and
    # thm32_chain all read (L_xi g)(V, V) (s = 1): _pair_rows receives it
    # once per chunk, on the chunk's stack, and contracts it with the test
    # pairs once per sub-chunk of its points, unless it vanishes
    # identically, as it does on sasakian_s3
    lie, counts, received = [], Counter(), []
    stack = fstructure.FrameStack
    prop = vars(stack)["lie_g_xi"]

    def recording(st):
        lie.append(prop.func(st))
        return lie[-1]

    def counting(pair_form):
        def counted(t, X, Y):
            counts["killing"] += any(np.may_share_memory(t, a) for a in lie)
            return pair_form(t, X, Y)
        return counted

    rec = cached_property(recording)
    rec.__set_name__(stack, "lie_g_xi")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stack, "lie_g_xi", rec)
        for mod in (classifiers, fstructure):
            mp.setattr(mod, "pair_form", counting(mod.pair_form))
        for mod in PAIR_ROWS_MODULES:
            mp.setattr(mod, "_pair_rows", _receiving(
                mod._pair_rows, received, lambda c: any(c is a for a in lie)))
        rep = run_suite(SuiteConfig(example=example, params=params,
                                    suites=SUITES, samples=CHUNKED))
    assert rep["overall"]["verdict"] == "pass"
    assert len(lie) == 2
    assert [a.any() for a in lie] == [not vanishes] * 2
    assert len(received) == len(lie)
    assert sum(sub for _, sub in received) == _sub_chunks(CHUNKED)
    assert counts["killing"] == sum(sub for nonzero, sub in received
                                    if nonzero)
    assert counts["killing"] == (0 if vanishes else _sub_chunks(CHUNKED))


# The class parts and Reeb-frame conditions of a chunk's stack, one row (the
# Killing residuals one row per Reeb field) over the chunk's points each,
# and the residuals formed on pairs of a chunk's stacks: 9 of the parts and
# conditions, the eta o N1 gate of thm01_i, 7 of the submanifold checks
# (the nearly-Kahler gate on the ambient basis, the Weingarten duality, the
# symmetry of h, and the h-display and the shape display of each case), and
# 4 of the theorem bodies (the three of thm01_i, each one coefficient
# tensor, and N1 + 2 xibar Phi((Q - id).,.) of thm01_ii).
STACKED_PARTS = ("nearly_s_defining", "nearly_c_defining",
                 "s_structure_defining", "phi_equals_deta", "deta_zero",
                 "dphi_zero", "n1_zero", "killing", "reeb_brackets",
                 "reeb_flat", "reeb_totally_geodesic", "q_parallel_d",
                 "q_parallel_expansion")
ON_PAIRS = 9 + 1 + 7 + 4


@pytest.fixture(scope="module")
def stacked_run():
    """An all-suite run of hypersphere n=1 over two chunks of points: the
    builds of each stacked part, (calling function, operand values) ->
    calls of every pair_form of the fstructure and classifiers modules, and
    what each _pair_rows call receives (see _receiving)."""
    counts, pairs, received = Counter(), Counter(), []
    stack = fstructure.FrameStack
    pair_form = fstructure.pair_form

    def counting_pair_form(t, X, Y):
        caller = sys._getframe(1)
        while caller.f_code.co_name.startswith("<"):   # a comprehension
            caller = caller.f_back
        pairs[caller.f_code.co_name, _content(t), _content(X),
              _content(Y)] += 1
        return pair_form(t, X, Y)

    with pytest.MonkeyPatch.context() as mp:
        for name in STACKED_PARTS:
            mp.setattr(stack, name, _counted_property(stack, name, counts))
        for mod in (classifiers, fstructure):
            mp.setattr(mod, "pair_form", counting_pair_form)
        for mod in PAIR_ROWS_MODULES:
            mp.setattr(mod, "_pair_rows", _receiving(mod._pair_rows, received))
        rep = run_suite(SuiteConfig(example="hypersphere", params={"n": 1},
                                    suites=SUITES, samples=CHUNKED))
    assert rep["overall"]["verdict"] == "pass"
    return counts, pairs, received


def test_class_parts_and_frame_conditions_once_per_chunk(stacked_run):
    # the classes and frames bundles, the class gates of the theorem checks
    # and the submanifold conclusions read the rows of one stacked residual
    # per part: each is built once per chunk of points
    counts, _, _ = stacked_run
    assert {name: counts[name] for name in STACKED_PARTS} == dict.fromkeys(
        STACKED_PARTS, 2)


def test_test_pairs_once_per_sub_chunk(stacked_run):
    # the coefficients of each part measured on the test pairs, (D_X f)Y
    # and (D_X Q)Y among them, reach _pair_rows once per chunk, spanning
    # each sub-chunk of PAIR_CHUNK points once; it meets them with the pairs
    # once per sub-chunk unless they vanish identically (some do here), and
    # never twice with the same operands (all-zero coefficients are left
    # out: two identities may both vanish exactly)
    _, pairs, received = stacked_run
    chunks = -(-CHUNKED // charts.CHUNK)
    assert len(received) == ON_PAIRS * chunks
    assert sum(sub for _, sub in received) == ON_PAIRS * _sub_chunks(CHUNKED)
    assert not all(nonzero for nonzero, _ in received)
    made = {key: n for key, n in pairs.items() if key[0] == "_pair_rows"}
    assert sum(made.values()) == sum(sub for nonzero, sub in received
                                     if nonzero)
    assert max(n for key, n in made.items() if ZERO not in key) == 1


# The contractions with pairs of basis vectors that the stacked theorem
# bodies make on the whole chunk at once, per chunk: dPhi and D f on the
# orthonormal basis in thm01_ii; L_xi f, d eta(xi, .), the f-swap of d eta
# and eta's derivatives on D x Reeb in prop_normal (thm41, which makes three
# on the test and contact bases, skips on hypersphere n=1; prop1 makes none,
# and thm01_i meets the test pairs in _pair_rows alone).
BODY_PAIRS = {"_prop_normal": 4, "_thm01_ii": 1}


def test_stacked_bodies_meet_the_pairs_once_per_chunk(stacked_run):
    # each coefficient tensor of a stacked theorem body meets its pairs once
    # per chunk, and never twice with the same operands; those on the test
    # pairs of thm01_i and thm01_ii meet them in _pair_rows (above)
    _, pairs, _ = stacked_run
    made = {key: n for key, n in pairs.items() if key[0] in (
        "_prop1", "_prop_normal", "_thm41", "_thm01_i", "_thm01_ii")}
    calls = Counter()
    for key, n in made.items():
        calls[key[0]] += n
    assert calls == {name: 2 * n for name, n in BODY_PAIRS.items()}
    assert max(n for key, n in made.items() if ZERO not in key) == 1


def test_one_chunk_of_state_alive_at_a_time(chunked_run):
    _, counts, metrics = chunked_run
    # every check reads the chunk's stack, and the submanifold checks its
    # ambient stack: no point's frame and no ambient point is built
    assert counts["frame"] == 0
    assert counts["ambient"] == 0
    # one set-up stack per chunk, and the previous chunk's stacks are gone
    # when the walk reaches the next one: the memory they hold is bounded
    # by tests/test_memory.py
    assert counts["frame_stack"] == 2
    assert counts["frame_stack_alive_at_build"] == 0
    assert counts["ambient_stack"] == 2 * (metrics - 1)
    assert counts["ambient_stack_alive_at_build"] == 0


def _by_value(sites):
    """{(helper, operand names, operand values): calls}, wherever each
    contraction is called from. Contractions with an all-zero operand are
    left out: two identities may both vanish exactly, and such equal
    operands show no repeated work."""
    out = Counter()
    for (helper, _, _, operands, *contents), n in sites.items():
        if ZERO not in contents:
            out[helper, operands, tuple(contents)] += n
    return out


def test_shared_contractions_once_per_chunk(counted_run):
    _, counts, sites = counted_run
    # the SAMPLES points are one chunk: no contraction (pair_form, lead_dot
    # or np.einsum in the classifiers, fstructure and submanifold modules)
    # is made twice with the same operands on its stack, and no point's
    # frame is built: what several checks share is computed once
    assert counts["frame_stack"] == 1
    assert counts["frame"] == 0
    shared = _by_value(sites)
    assert len(shared) > 50
    assert max(shared.values()) == 1
    # D_xi xi is read by the Reeb-frame conditions, prop1 and prop_normal;
    # it is formed with @, which the count above does not see: once for the
    # chunk's stack
    assert counts["nabla_xi_xi"] == 1


def test_each_coefficient_tensor_contracted_once_per_chunk(counted_run):
    _, _, sites = counted_run
    # pair_form(C, V, V) on the chunk's whole stack of test pairs: every
    # coefficient tensor C of a bilinear identity meets them once per chunk,
    # wherever it is formed (all-zero coefficients are left out),
    # prop_normal's d eta^i(fX, Y) - d eta^i(fY, X) among them.
    # The class parts, the gates, the submanifold checks and thm01 meet
    # theirs on sub-chunks of the stack (test_test_pairs_once_per_sub_chunk)
    pairs, callers = Counter(), Counter()
    for (helper, caller, _, operands, *contents), n in sites.items():
        if (helper == "pair_form" and operands[1:] == ("V", "V")
                and ZERO not in contents):
            pairs[tuple(contents)] += n
            callers[caller] += n
    assert max(pairs.values()) == 1
    assert callers["_prop_normal"] == 1


def test_second_fundamental_form_once_per_chunk(counted_run):
    _, counts, _ = counted_run
    # both thsubm cases, the Gauss split and the curvature read the
    # coordinate second fundamental form, built once per chunk of points
    assert counts["hn"] == 1


def test_inverse_and_christoffel_once_per_chunk(chunked_run):
    _, counts, metrics = chunked_run
    # one stacked g^-1 and Gamma per metric and chunk of points: the pack's
    # (on an embedded example the induced one), and the ambient metric's;
    # the curvature reads the chunk's
    assert counts["metric_inverse"] == 2 * metrics
    assert counts["christoffel_from_jets"] == 2 * metrics


def test_one_cholesky_factor_per_metric_and_chunk(chunked_run):
    _, counts, metrics = chunked_run
    # the test basis and every g-norm of a point share one factor of the
    # pack's metric, and the ambient basis and gbar-norms one of gbar: one
    # stacked factorization per metric and chunk
    assert counts["cholesky"] == 2 * metrics


def test_axioms_map_once_per_chunk():
    # the axioms bundle and the weak_metric_f class read the rows of one
    # stacked map, and the axiom gate of every theorem the rows of its
    # worst: the map's build, with the eigvalsh of Q and the svd of f in the
    # test basis, runs once per chunk of points, and no point's map is read
    # on its own
    samples, counts = 50, Counter()
    linalg = types.SimpleNamespace(**vars(np.linalg))
    for name in ("eigvalsh", "svd"):
        setattr(linalg, name, _counting(getattr(np.linalg, name), counts, name))
    counted_np = types.ModuleType("numpy")
    counted_np.__dict__.update(vars(np))
    counted_np.linalg = linalg
    stack = fstructure.FrameStack
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fstructure, "np", counted_np)
        for name in ("axioms", "worst_axiom"):
            mp.setattr(stack, name, _counted_property(stack, name, counts))
        mp.setattr(fstructure, "axioms_residual", _counting(
            fstructure.axioms_residual, counts, "rows"))
        rep = run_suite(SuiteConfig(
            example="sasakian_s3", suites=("axioms", "classes", "theorems"),
            samples=samples))
    assert rep["overall"]["verdict"] == "pass"
    chunks = -(-samples // charts.CHUNK)
    assert counts["axioms"] == counts["eigvalsh"] == counts["svd"] == chunks == 4
    assert counts["worst_axiom"] == chunks
    assert counts["rows"] == 0


def test_ambient_quantities_once_per_chunk(counted_run):
    _, counts, _ = counted_run
    # both thsubm cases read the shape operators and the gate; the Gauss
    # split and the tangential expansion read D on coordinate pairs: each
    # is built once for the chunk of points
    assert counts["shape_operators"] == 1
    assert counts["nearly_kahler"] == 1
    assert counts["coordinate_derivative"] == 1


def test_kept_axioms_map_is_a_copy():
    pack = submanifold.induce_structure(hypersphere(n=1).obj, validate=False)
    fr = oracles.frame(pack, pack.chart.sample(1, seed=5)[0], seed=5)
    first = axioms_residual(fr)
    first["f_skew"] = 1.0
    assert axioms_residual(fr)["f_skew"] < 1e-9
