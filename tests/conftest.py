import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(1729)))


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed)))


class ZeroUniforms:
    """Generator stub whose uniforms are all exactly 0."""

    def random(self, size=None, out=None):
        if out is None:
            return 0.0 if size is None else np.zeros(size)
        out.fill(0.0)
        return out
