"""Reference route for frontlab's particle steps: the O(N^2) max-plus
recursion, one step per call on a fresh (N, N) noise matrix. frontlab runs
the same recursion in blocks (the chunked scan), the exact Gumbel kernel and
the conditional step; tests compare them against this.
"""
from frontlab.engine import MAX_FRONT, FrontFunctional, ParticleState


def step(state: ParticleState, law, rng,
         front: FrontFunctional = MAX_FRONT) -> ParticleState:
    """X_i' = max_j (X_j + xi_ij) with xi = ``law.sample(rng, (N, N))``;
    prev_front is ``front`` of X."""
    n = state.positions.size
    noise = law.sample(rng, (n, n))
    return ParticleState(
        positions=(state.positions[None, :] + noise).max(axis=1),
        t=state.t + 1, prev_front=front(state.positions))
