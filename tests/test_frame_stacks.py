"""A point is a stack of one: row k of a chunk's set-up stacks equals, bit
for bit, row 0 of the stack of that point alone, quantity by quantity and
check by check."""

from dataclasses import fields
from functools import cached_property

import numpy as np
import pytest
from report_digests import CONFIGS

import oracles
from weakf import charts, classifiers, fstructure, sampling
from weakf.fstructure import PackFrame, FrameStack

SAMPLES = 10
SEED = 42
# Chunks of 4 points: rows 0..3, 4..7, 8..9. Row 0, the last row of a
# chunk, the first of the next, and the final row.
CHUNK = 4
ROWS = (0, 3, 4, 9)

FRAME_QUANTITIES = (
    "g0", "g1", "f0", "f1", "q0", "q1", "xi0", "xi1", "eta0", "eta1",
    "ginv", "gamma", "phi0", "dphi", "deta", "nabla_f",
    "nabla_q", "nabla_xi", "nabla_xi_xi", "nabla_eta", "lie_g_xi", "V", "u",
    "d_basis", "ff_coeff", "n1_coeff", "n2_coeff",
)
AMBIENT_QUANTITIES = (
    "iota", "jac", "hess", "normals", "dnormals", "gbar0", "gbar1", "fbar0",
    "fbar1", "ginvbar", "gammabar", "coordinate_derivative", "hn",
    "shape_operators", "ubar", "basis", "nabla_fbar",
)
# Quantities that only the stacks hold: a row of them is read as row _k.
STACK_QUANTITIES = ("reeb_curvature",)


def _frames(argv):
    """(row, its row of its chunk's stacks, row 0 of its own stack) at each
    of ROWS, the chunks' stacks built as the runner builds them."""
    pack = oracles.config_example(argv)
    points = pack.chart.sample(SAMPLES, SEED)
    chunked = oracles.chunk_frames(pack, points, SEED)
    for i in ROWS:
        yield i, chunked[i], oracles.frame(pack, points[i], seed=SEED, index=i)


@pytest.mark.parametrize("argv", CONFIGS)
def test_stacked_rows_equal_the_point_alone(monkeypatch, argv):
    monkeypatch.setattr(charts, "CHUNK", CHUNK)
    for i, chunked, alone in _frames(argv):
        assert chunked._k == i % CHUNK
        for name in FRAME_QUANTITIES:
            assert np.array_equal(getattr(chunked, name),
                                  getattr(alone, name)), (i, name)
        tv, tv_alone = chunked.tv, alone.tv
        assert np.array_equal(tv.triples, tv_alone.triples), i
        # each point's generator draws the curvature chain's coefficients
        # after its test vectors
        assert np.array_equal(tv.chain, tv_alone.chain), i
        for name in STACK_QUANTITIES:
            assert np.array_equal(getattr(chunked._chunk, name)[chunked._k],
                                  getattr(alone._chunk, name)[alone._k]), (
                i, name)
        # on an embedded example the frame's jets and g^-1 above are the
        # induced ones, read from the chunk's ambient stack: its row equals
        # the ambient stack of the point alone
        chunked_ap, alone_ap = map(oracles.ambient_of, (chunked, alone))
        if chunked_ap is None:
            continue
        for name in AMBIENT_QUANTITIES:
            assert np.array_equal(getattr(chunked_ap, name),
                                  getattr(alone_ap, name)), (i, name)


def _bits(value):
    """A key that two values share exactly when they are bitwise equal."""
    if isinstance(value, dict):
        return tuple((key, _bits(v)) for key, v in value.items())
    if isinstance(value, tuple):
        return tuple(map(_bits, value))
    if isinstance(value, sampling.TestVectors):
        return tuple(_bits(getattr(value, f.name)) for f in fields(value))
    if isinstance(value, (np.ndarray, np.generic)):
        return value.dtype.str, value.shape, value.tobytes()
    return value


# Every quantity of a chunk's set-up stack, by name.
STACK_NAMES = tuple(name for name, v in vars(FrameStack).items()
                    if isinstance(v, (property, cached_property)))

# The quantities a point's row once formed from its own rows, as it formed
# them.
PER_POINT = {
    "xibar": lambda fr: fr.xi0.sum(axis=-2),
    "etabar": lambda fr: fr.eta0.sum(axis=-2),
    "qtilde": lambda fr: fr.q0 - np.eye(fr.q0.shape[-1]),
    "V": lambda fr: fr.tv.vectors,
    "u": lambda fr: fr.tv.factor,
}


@pytest.mark.parametrize("argv", ["--example flat_pack",
                                  "--example sasakian_s3",
                                  "--example hypersphere --param n=1"])
def test_a_frame_reads_each_stack_quantity_as_its_row(argv):
    pack = oracles.config_example(argv)
    points = pack.chart.sample(charts.CHUNK + 3, SEED)
    frames = oracles.chunk_frames(pack, points, SEED)
    assert len({id(fr._chunk) for fr in frames}) == 2
    assert set(PER_POINT) <= set(STACK_NAMES)
    names = [name for name in STACK_NAMES
             if pack.submanifold is not None or name != "thsubm_parts"]
    for fr in frames:
        for name in names:
            row = oracles.take(getattr(fr._chunk, name), fr._k)
            assert _bits(getattr(fr, name)) == _bits(row), (fr._k, name)
        for name, formed in PER_POINT.items():
            assert _bits(formed(fr)) == _bits(getattr(fr, name)), name
    with pytest.raises(AttributeError):
        frames[-1].no_such_quantity


# What a stack holds of its points as a whole rather than as rows of a
# quantity, read at row k: its sample points, each point's generator, the
# ambient stack of the same rows, and the submanifold criterion's parts.
WHOLE_STACK = {
    "rows": lambda st, k: (st.rows.start + k, _bits(st.rows.points[k])),
    "rngs": lambda st, k: st.rngs[k].bit_generator.state,
    "ambient": lambda st, k: (st.ambient.rows is st.rows, tuple(
        _bits(getattr(st.ambient, name)[k]) for name in AMBIENT_QUANTITIES)),
    "thsubm_parts": lambda st, k: _bits(oracles.take(st.thsubm_parts, k)),
}


@pytest.mark.parametrize("name", list(WHOLE_STACK))
def test_a_point_holds_what_a_stack_holds_as_a_stack_of_one(name):
    # the point's own stack holds one row of each, equal bit for bit to the
    # chunk stack's row of that point, on an induced pack so that every one
    # of them is there
    pack = oracles.config_example("--example linear_subspace --param n=2 "
                                  "--param s=2")
    points = pack.chart.sample(SAMPLES, SEED)
    stack = oracles.stack(pack, points, SEED)
    read = WHOLE_STACK[name]
    for k in ROWS:
        alone = PackFrame(pack, points[k], seed=SEED, index=k)
        assert len(alone.rows) == len(alone.rngs) == 1
        assert alone.rows.start == k
        assert read(alone, 0) == read(stack, k), (k, name)


# The public check functions, each of a frame stack.
CHECKS = {
    "axioms_residual": fstructure.axioms_residual,
    **{f"class_residual:{tag}": (
        lambda fr, tag=tag: classifiers.class_residual(None, None, tag, fr))
       for tag in classifiers.CLASS_TAGS},
    "frame_residuals": classifiers.frame_residuals,
    "q_parallel_residual": classifiers.q_parallel_residual,
}


@pytest.mark.parametrize("argv", ["--example flat_pack",
                                  "--example sasakian_s3",
                                  "--example hypersphere --param n=1",
                                  "--example linear_subspace --param n=2 "
                                  "--param s=2"])
def test_each_check_of_a_frame_is_its_row_of_the_stack(argv):
    # one stack over more points than a chunk holds, and each point's own
    # stack of one, a plain PackFrame also on an induced pack: its row is
    # bitwise the chunk stack's row
    pack = oracles.config_example(argv)
    points = pack.chart.sample(charts.CHUNK + 3, SEED)
    stack = oracles.stack(pack, points, SEED)
    stacked = {name: check(stack) for name, check in CHECKS.items()}
    for k, p in enumerate(points):
        fr = PackFrame(pack, p, seed=SEED, index=k)
        for name, check in CHECKS.items():
            assert (_bits(oracles.take(check(fr), 0))
                    == _bits(oracles.take(stacked[name], k))), (k, name)
