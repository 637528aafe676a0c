"""Each frame is a row of its chunk's set-up stacks: every stacked quantity
equals, bit for bit, the one built for the point alone, and a frame reads
every quantity of its stack as its row."""

import copy
from dataclasses import fields
from functools import cached_property

import numpy as np
import pytest
from report_digests import CONFIGS

import oracles
from weakf import charts, sampling
from weakf.fstructure import PackFrame, _FrameStack

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
# Quantities that only the chunk's stack holds: a frame's row is row _k.
STACK_QUANTITIES = ("reeb_curvature",)


def _frames(argv):
    """(row, frame read from its chunk's stacks, frame built alone) at each
    of ROWS, the chunks' stacks built as the runner builds them."""
    pack, sub = oracles.config_example(argv)
    points = pack.chart.sample(SAMPLES, SEED)
    chunked = oracles.chunk_frames(pack, points, sub, SEED)
    for i in ROWS:
        yield i, chunked[i], oracles.frame(pack, points[i], sub, seed=SEED,
                                           index=i)


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
        assert tv.n_basis == tv_alone.n_basis
        for name in STACK_QUANTITIES:
            assert np.array_equal(getattr(chunked._chunk, name)[chunked._k],
                                  getattr(alone._chunk, name)[alone._k]), (
                i, name)
        # each point's generator continues after its test vectors, where
        # the curvature chain draws its units
        assert np.array_equal(
            chunked._chunk.rngs[chunked._k].standard_normal(4),
            alone._chunk.rngs[alone._k].standard_normal(4)), i
        # on an embedded example the frame's jets and g^-1 above are the
        # induced ones, read from the chunk's ambient stack: its row equals
        # the ambient stack of the point alone
        chunked_ap, alone_ap = map(oracles.ambient_of, (chunked, alone))
        if chunked_ap is None:
            continue
        for name in AMBIENT_QUANTITIES:
            assert np.array_equal(getattr(chunked_ap, name),
                                  getattr(alone_ap, name)), (i, name)


def _row(value, k):
    """Row ``k`` of a stacked value, taken field by field."""
    if isinstance(value, dict):
        return {key: _row(v, k) for key, v in value.items()}
    if isinstance(value, tuple):
        return tuple(_row(v, k) for v in value)
    if isinstance(value, sampling.TestVectors):
        return sampling.TestVectors(value.vectors[k], value.n_basis,
                                    value.triples[k], value.factor[k])
    return value[k]


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
STACK_NAMES = tuple(name for name, v in vars(_FrameStack).items()
                    if isinstance(v, (property, cached_property)))

# The quantities a frame used to form from its own rows, as it formed them.
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
    pack, sub = oracles.config_example(argv)
    points = pack.chart.sample(charts.CHUNK + 3, SEED)
    frames = oracles.chunk_frames(pack, points, sub, SEED)
    assert len({id(fr._chunk) for fr in frames}) == 2
    assert set(PER_POINT) <= set(STACK_NAMES)
    names = [name for name in STACK_NAMES
             if sub is not None or name != "thsubm_parts"]
    for fr in frames:
        for name in names:
            row = _row(getattr(fr._chunk, name), fr._k)
            assert _bits(getattr(fr, name)) == _bits(row), (fr._k, name)
        for name, formed in PER_POINT.items():
            assert _bits(formed(fr)) == _bits(getattr(fr, name)), name
    fr = frames[-1]
    with pytest.raises(AttributeError):
        fr.no_such_quantity
    # a copy starts without _chunk: reading it must not recurse
    twin = copy.copy(fr)
    assert twin._chunk is fr._chunk and twin._k == fr._k
    assert _bits(twin.V) == _bits(fr.V)
    with pytest.raises(AttributeError):
        PackFrame.__new__(PackFrame)._chunk
