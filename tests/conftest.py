"""Shared test data and hypothesis strategies."""

from __future__ import annotations

import math
import random
import sys

from hypothesis import strategies as st

from pdneg import Distribution, point_distribution, uniform_distribution

# The five-component distribution used throughout the worked examples.
EXAMPLE_PD = (0.0, 0.1, 0.2, 0.3, 0.4)


def normalize(draws) -> Distribution:
    total = math.fsum(draws)
    return Distribution(tuple(d / total for d in draws))


def simplexes(min_n: int = 2, max_n: int = 10):
    """Strategy drawing random points of the probability simplex."""
    return st.lists(
        st.floats(min_value=1e-3, max_value=1.0),
        min_size=min_n,
        max_size=max_n,
    ).map(normalize)


#: The least and greatest positive floats, the ends of the admitted Tsallis k.
TINIEST, LARGEST = 5e-324, sys.float_info.max


def descriptors(n: int, depth: int = 3):
    """Strategy drawing descriptor texts that parse at length n.

    Every grammar form: the parameterless built-ins; Tsallis with k = 1,
    5e-324, 1.8e308 or log-uniform in between; alpha at 0, 1,
    5e-324, 1 - 2**-53 or anywhere in [0, 1]; the boundary forms at either
    end of their intervals or inside; and mixtures nested up to ``depth``.
    """
    low, high = 1.0 / n, 1.0 / (n - 1)
    ks = st.one_of(st.sampled_from([1.0, TINIEST, LARGEST]), st.floats(-1074.0, 1023.0).map(lambda e: 2.0**e))
    alphas = st.one_of(st.sampled_from([0.0, 1.0, TINIEST, 1.0 - 2.0**-53]), st.floats(0.0, 1.0))
    leaves = st.one_of(
        st.sampled_from(["identity", "rootsum", "uniform", "yager"]),
        ks.map(lambda k: f"tsallis:k={k!r}"),
        alphas.map(lambda a: f"linear:alpha={a!r}"),
        st.one_of(st.sampled_from([0.0, low]), st.floats(0.0, low)).map(lambda x: f"linear:n1={x!r}"),
        st.one_of(st.sampled_from([low, high]), st.floats(low, high)).map(lambda x: f"linear:n0={x!r}"),
    )
    if depth == 0:
        return leaves
    inner = descriptors(n, depth - 1)
    mixes = st.lists(st.tuples(st.floats(0.0, 1.0), inner), min_size=1, max_size=3).map(_mix)
    return st.one_of(leaves, mixes)


def _mix(weighted) -> str:
    total = math.fsum(w for w, _ in weighted)
    weights = [w / total for w, _ in weighted] if total > 0.0 else [1.0 / len(weighted)] * len(weighted)
    return "mix:[" + ",".join(f"{w!r}*{text}" for w, (_, text) in zip(weights, weighted)) + "]"


def extreme_simplexes(n: int):
    """Strategy drawing length-n distributions at the edges of the simplex.

    Point masses; one mass with every other component subnormal, 1e-300 or
    zero; ties among a few levels; the uniform distribution; and spiky
    draws, uniform variates raised to a high power, whose small components
    underflow to subnormals or 0.  Each is built from a drawn seed, so a
    long distribution costs one draw.
    """
    def build(kind: str, tiny: float, power: int, seed: int) -> Distribution:
        rng = random.Random(seed)
        if kind == "point":
            return point_distribution(n, rng.randrange(n) + 1)
        if kind == "uniform":
            return uniform_distribution(n)
        if kind == "tiny":
            values = [tiny] * n
            values[rng.randrange(n)] = 1.0 - (n - 1) * tiny
            return Distribution(values)
        if kind == "ties":
            levels = [1.0 - rng.random() for _ in range(rng.randint(1, 3))]
            return normalize([rng.choice(levels) for _ in range(n)])
        values = [rng.random() ** power for _ in range(n)]
        values[rng.randrange(n)] = 1.0
        return normalize(values)

    return st.builds(
        build,
        st.sampled_from(["point", "uniform", "tiny", "ties", "spiky"]),
        st.sampled_from([TINIEST, 1e-300, 0.0]),
        st.sampled_from([1, 8, 64, 256]),
        st.integers(0, 2**32 - 1),
    )
