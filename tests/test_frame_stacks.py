"""Each frame is a row of its chunk's set-up stacks: every stacked quantity
equals, bit for bit, the one built for the point alone."""

import numpy as np
import pytest
from report_digests import CONFIGS

import oracles
from weakf import charts

SAMPLES = 10
SEED = 42
# Chunks of 4 points: rows 0..3, 4..7, 8..9. Row 0, the last row of a
# chunk, the first of the next, and the final row.
CHUNK = 4
ROWS = (0, 3, 4, 9)

FRAME_QUANTITIES = (
    "g0", "g1", "f0", "f1", "q0", "q1", "xi0", "xi1", "eta0", "eta1",
    "ginv", "gamma", "riemann", "phi0", "dphi", "deta", "nabla_f",
    "nabla_q", "nabla_xi", "nabla_xi_xi", "nabla_eta", "lie_g_xi", "V", "u",
    "d_basis", "ff_coeff", "n1_coeff", "n2_coeff",
)
AMBIENT_QUANTITIES = (
    "iota", "jac", "hess", "normals", "dnormals", "gbar0", "gbar1", "fbar0",
    "fbar1", "ginvbar", "gammabar", "coordinate_derivative", "hn",
    "shape_operators", "ubar", "basis", "nabla_fbar", "induced_riemann",
)


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
        # each point's generator continues after its test vectors
        assert np.array_equal(chunked.random_d_units(4),
                              alone.random_d_units(4)), i
        # on an embedded example the frame's jets and g^-1 above are the
        # induced ones, read from the chunk's ambient stack: its row equals
        # the ambient stack of the point alone
        chunked_ap, alone_ap = map(oracles.ambient_of, (chunked, alone))
        if chunked_ap is None:
            continue
        for name in AMBIENT_QUANTITIES:
            assert np.array_equal(getattr(chunked_ap, name),
                                  getattr(alone_ap, name)), (i, name)
