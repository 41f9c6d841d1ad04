import random
from collections import Counter
from fractions import Fraction

import pytest

from laxchain.curves import SpectralCurve
from laxchain.flows import GammaChain


def random_fraction(rng, max_num=50, max_den=8, nonzero=False):
    while True:
        q = Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))
        if not nonzero or q != 0:
            return q


def random_chain(rng, period=4, max_num=50, max_den=8):
    """Random exact chain with pairwise-distinct values off the curve roots."""
    while True:
        curve = SpectralCurve.elliptic(
            random_fraction(rng), random_fraction(rng), random_fraction(rng)
        )
        vals = tuple(random_fraction(rng, max_num, max_den) for _ in range(period))
        if len(set(vals)) != period:
            continue
        if any(curve.eval(v) == 0 for v in vals):
            continue
        return GammaChain(vals, curve)


def random_point_off_chain(rng, chain, max_num=50, max_den=8):
    from laxchain.scalars import is_rational_square

    while True:
        z0 = random_fraction(rng, max_num, max_den)
        if z0 in chain.values:
            continue
        disc = chain.curve.eval(z0)
        if disc == 0 or is_rational_square(disc) or is_rational_square(-disc):
            continue
        return z0


@pytest.fixture
def rng():
    return random.Random(20240811)


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, *names, key=None)`` wraps the named attributes
    of ``owner`` (a class or a module) for the rest of the test and returns
    the ``Counter`` they fill: one count per call under the attribute's
    name, or under ``key(name, *args)`` when that is given and not None."""

    def install(owner, *names, key=None):
        counts = Counter()
        for name in names:
            real = getattr(owner, name)

            def counted(*args, real=real, name=name, **kwargs):
                label = name if key is None else key(name, *args)
                if label is not None:
                    counts[label] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        return counts

    return install
