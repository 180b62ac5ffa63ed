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


class CyclingUniforms:
    """Generator stub whose uniforms run through ``values`` in turn, over
    and over, across calls."""

    def __init__(self, values):
        self.values, self.drawn = np.asarray(values, dtype=float), 0

    def random(self, size):
        count = int(np.prod(size))
        idx = (self.drawn + np.arange(count)) % self.values.size
        self.drawn += count
        return self.values[idx].reshape(size)


class FailingUniforms:
    """Generator stub that raises on its ``fail_at``-th random call."""

    def __init__(self, fail_at):
        self.rng, self.calls, self.fail_at = make_rng(13), 0, fail_at

    def random(self, size=None, out=None):
        self.calls += 1
        if self.calls == self.fail_at:
            raise MemoryError("planted")
        return self.rng.random(size, out=out)
