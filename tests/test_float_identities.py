"""The float identities that let the iteration skip a copy or a Python wrapper.

``_solve`` hands over p_bar itself for ``1.0 * p_bar`` and ``-g`` for
``-1.0 * g`` after a unit first step, and builds ``x + p`` for
``x + 1.0 * p`` after a unit second step; the suite objectives sum through
``np.add.reduce`` for ``ndarray.sum``; the literal oracle calls
``np.multiply.outer`` for ``np.outer``; and ``linalg.cholesky`` reduces with
``np.minimum`` and ``np.maximum`` for ``a.min()`` and ``a.max()``.  Each pair
is compared by its bytes, so a numpy whose arithmetic parts the two fails here
and not only in a digest diff.  The values cover +-0.0, subnormals, +-inf and
a range of magnitudes, over every length from 1 to 40 and strided views.  NaN
is left out: a solve reaches these with a finite g, and ``-1.0 * nan`` need
not flip the sign bit that ``-nan`` flips.
"""

import numpy as np
import pytest

SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, np.inf, -np.inf,
                    1.0, -1.0, 1e308, -1e308, 1e-300, 3.0])
LENGTHS = range(1, 41)


@pytest.fixture(autouse=True)
def _quiet():
    # infinities and overflowing products are the point here, not warnings
    with np.errstate(all="ignore"):
        yield


def _vectors(n, seed):
    """Vectors of length n: the special values alone, mixed with random ones of
    wide magnitude, and standard normals, each also as a stride-3 view and
    reversed."""
    rng = np.random.default_rng(seed)
    mixed = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    special = rng.random(n) < 0.3
    mixed[special] = rng.choice(SPECIAL, int(special.sum()))
    for base in (np.resize(SPECIAL, n), mixed, rng.standard_normal(n)):
        yield base
        yield np.repeat(base, 3)[::3]
        yield base[::-1]


def _finite(v):
    return np.where(np.isfinite(v), v, 0.5)


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", LENGTHS)
def test_a_unit_step_is_the_direction_itself(n):
    for p in _vectors(n, n):
        assert _same(1.0 * p, p)
        for x in _vectors(n, 1000 + n):
            assert _same(x + 1.0 * p, x + p)


@pytest.mark.parametrize("n", LENGTHS)
def test_minus_one_times_g_is_minus_g(n):
    for g in _vectors(n, n):
        assert _same(-1.0 * g, -g)


@pytest.mark.parametrize("n", LENGTHS)
def test_add_reduce_is_sum(n):
    for v in _vectors(n, n):
        for w in (v, _finite(v), v * v, np.exp(_finite(v) / 1e300)):
            assert _same(np.add.reduce(w), w.sum())
            assert float.hex(float(np.add.reduce(w))) == float.hex(float(w.sum()))


@pytest.mark.parametrize("n", LENGTHS)
def test_multiply_outer_is_outer(n):
    for a in _vectors(n, n):
        for b in _vectors(n, 1000 + n):
            assert _same(np.multiply.outer(a, b), np.outer(a, b))


@pytest.mark.parametrize("n", LENGTHS)
def test_min_and_max_reduce_are_min_and_max(n):
    for v in _vectors(n, n):
        for a in (np.multiply.outer(v, v[::-1]), np.multiply.outer(_finite(v), _finite(v))):
            assert _same(np.minimum.reduce(a, axis=None), a.min())
            assert _same(np.maximum.reduce(a, axis=None), a.max())
