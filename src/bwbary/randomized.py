"""Random average-identity maps and the Monte-Carlo population experiment.

A coefficient ``a`` with a symmetric law on [-1/2, 1/2] defines the random
PSD map ``T = I + a (F + F^T)`` with mean identity, so the singular
covariance is the barycentre of the *population* of conjugations ``T C T``.
An empirical family of n draws satisfies the barycentre certificate only up
to the deviation of the empirical coefficient mean from zero, which shrinks
like ``1/sqrt(12 n)``.  No conjugation is formed as a matrix: the problem
takes each as its exact chain-block factors ``C^{1/2} T``
(:func:`construct.chain_factors`), so an input costs ``O(dim)`` memory, not
``O(dim^2)``.

Randomness comes from counter-based Philox4x64-10 streams (Salmon, Moraes,
Dror & Shaw, "Parallel random numbers: as easy as 1, 2, 3", SC'11).  Draw i
takes the first value of numpy's ``Generator(Philox(SeedSequence(seed).spawn(n)[i]))``,
so results are bit-reproducible given the seed (an integer >= 0) and
independent of evaluation order; :func:`random_map_sample` takes the first
value of ``Generator(Philox(SeedSequence(seed)))``.  The coefficient per law:
uniform -> ``g.uniform(-0.5, 0.5)``; two-point -> ``0.5 if g.integers(2) else
-0.5``; triangular -> ``g.triangular(-0.5, 0.0, 0.5)``.

That contract is computed without numpy.random, for all n streams in one
vectorised pass of integer arithmetic: the streams' keys by
``SeedSequence``'s hash mixing (numpy's ``bit_generator.pyx``; only the last
mixing round depends on the spawn index), the first output word of every
stream by the ten Philox rounds (the constants of Random123's ``philox.h``),
and each word's coefficient by the formula numpy's draw applies to it.  Only
``+``, ``*`` and ``sqrt`` of doubles, each correctly rounded, follow the
integers, so the coefficients have the same bits on every platform.
"""

from dataclasses import dataclass, field

import numpy as np

from .barycentre import (
    BarycentreProblem,
    BarycentreResult,
    SolverSettings,
    barycentre_fixed_point,
    verify_barycentre_certificate,
)
from .construct import TruncationConfig, build_covariance, chain_factors, symmetrized_shift
from .errors import InvalidInput, check_integer

LAWS = ("uniform", "two-point", "triangular")


@dataclass(frozen=True)
class RandomMapLaw:
    """Symmetric law on [-1/2, 1/2] for the map coefficient."""

    name: str = "uniform"

    def __post_init__(self):
        if self.name not in LAWS:
            raise InvalidInput(f"law must be one of {LAWS}")


_MASK32 = 0xFFFFFFFF
# SeedSequence's pool size and hash constants
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# Philox4x64-10's round multipliers and key bumps, as columns over the streams
_PHILOX_MULT = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_BUMP = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_PHILOX_ROUNDS = 10
# a spawn index of 2**32 or more would take a second spawn-key word
_MAX_STREAMS = 2**32


def _hash(value, const: int, mult: int):
    """SeedSequence's hash of one 32-bit word, and the advanced hash constant.

    ``value`` is a Python int or a uint64 array of 32-bit words; each product
    is reduced to 32 bits, as numpy's uint32 arithmetic wraps.
    """
    advanced = const * mult & _MASK32
    value = (value ^ const) * advanced & _MASK32
    return value ^ value >> 16, advanced


def _mix(x, y):
    """SeedSequence's mix of pool word ``x`` with hashed word ``y``."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


def _stream_keys(seed: int, spawn: np.ndarray | None) -> np.ndarray:
    """The Philox keys of ``SeedSequence(seed)``'s children: a ``(2, streams)`` uint64 array.

    Key j is ``SeedSequence(seed, spawn_key=(spawn[j],)).generate_state(2,
    np.uint64)``, which for ``spawn = arange(n)`` is that of
    ``SeedSequence(seed).spawn(n)[j]``; each index is below 2**32, a single
    spawn-key word.  With ``spawn=None`` the one key is that of
    ``SeedSequence(seed)`` itself.
    """
    # the seed's 32-bit words, least significant first
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    # the first words fill the pool, a missing word hashing as 0, then every
    # pool word is mixed into every other; a spawn key pads the seed's words
    # to the pool, so it and any further seed word are mixed in after that
    const = _INIT_A
    pool = []
    for i in range(_POOL):
        word, const = _hash(words[i] if i < len(words) else 0, const, _MULT_A)
        pool.append(word)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                word, const = _hash(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], word)
    extra = words[_POOL:] if spawn is None else [*words[_POOL:], spawn]
    for entropy in extra:
        for dst in range(_POOL):
            word, const = _hash(entropy, const, _MULT_A)
            pool[dst] = _mix(pool[dst], word)
    # generate_state(2, uint64): the pool's four words hashed again, paired
    # little-endian
    const = _INIT_B
    state = []
    for word in pool:
        word, const = _hash(np.asarray(word, dtype=np.uint64).reshape(-1), const, _MULT_B)
        state.append(word)
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32])


def _mulhilo(a: np.ndarray, b: np.ndarray) -> tuple:
    """The high and low 64-bit words of the 128-bit products ``a * b``, from 32-bit halves."""
    a_lo, a_hi = a & _MASK32, a >> 32
    b_lo, b_hi = b & _MASK32, b >> 32
    lo_lo, lo_hi, hi_lo = a_lo * b_lo, a_lo * b_hi, a_hi * b_lo
    carry = (lo_lo >> 32) + (lo_hi & _MASK32) + (hi_lo & _MASK32)
    return a_hi * b_hi + (lo_hi >> 32) + (hi_lo >> 32) + (carry >> 32), a * b


def _philox_first_words(key: np.ndarray) -> np.ndarray:
    """Each stream's first output: word 0 of Philox4x64-10 at counter ``(1, 0, 0, 0)``.

    A fresh numpy ``Philox`` increments its zero counter before its first
    block.  The counter's words 0 and 2, which the round multiplies, are
    held as one ``(2, streams)`` array and words 1 and 3 as another.
    """
    even, odd = np.zeros_like(key), np.zeros_like(key)
    even[0] = 1
    for r in range(_PHILOX_ROUNDS):
        if r:
            key = key + _PHILOX_BUMP
        hi, lo = _mulhilo(_PHILOX_MULT, even)
        # (x0, x1, x2, x3) <- (hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0)
        even, odd = hi[::-1] ^ odd ^ key, lo[::-1]
    return even[0]


def _law_values(law: RandomMapLaw, words: np.ndarray) -> np.ndarray:
    """The coefficient numpy's draw for ``law`` makes from each stream's first word."""
    if law.name == "two-point":
        # integers(2) is Lemire's (low 32 bits * 2) >> 32, with nothing rejected
        return np.where((words & _MASK32) * 2 >> 32, 0.5, -0.5)
    u = (words >> 11) * 2.0**-53  # next_double
    if law.name == "uniform":
        return -0.5 + 1.0 * u  # low + (high - low) u
    # left + sqrt(u (mode - left) (right - left)) for u <= (mode - left) / (right - left),
    # else right - sqrt((1 - u) (right - mode) (right - left))
    return np.where(u <= 0.5, -0.5 + np.sqrt(u * 0.5), 0.5 - np.sqrt((1.0 - u) * 0.5))


def _draws(law: RandomMapLaw, seed: int, spawn: np.ndarray | None) -> np.ndarray:
    """The first coefficient of each stream of :func:`_stream_keys`."""
    return _law_values(law, _philox_first_words(_stream_keys(int(seed), spawn)))


def draw_coefficients(law: RandomMapLaw, seed: int, n: int, antithetic: bool = False) -> np.ndarray:
    """The n coefficients of the experiment, one independent stream per draw.

    With ``antithetic=True`` (n even) only n/2 draws are made and each is
    paired with its negation, forcing the empirical mean to vanish exactly.
    ``n`` is an integer >= 1 and ``seed`` an integer >= 0; at most
    2**32 streams are drawn.
    """
    check_integer(n, "n", 1)
    check_integer(seed, "seed", 0)
    if antithetic and n % 2:
        raise InvalidInput("antithetic pairing requires an even n")
    streams = n // 2 if antithetic else n
    if streams > _MAX_STREAMS:
        raise InvalidInput(f"a draw takes at most 2**32 streams; {streams} requested")
    a = _draws(law, seed, np.arange(streams, dtype=np.uint64))
    return np.stack([a, -a], axis=1).reshape(-1) if antithetic else a


def random_map_sample(law: RandomMapLaw, seed: int, dim: int) -> np.ndarray:
    """One draw of the random map ``I + a (F + F^T)``; deterministic given seed (an integer >= 0)."""
    check_integer(seed, "seed", 0)
    shift = symmetrized_shift(dim)  # checks dim
    a = float(_draws(law, seed, None)[0])
    return np.eye(dim) + a * shift


@dataclass(frozen=True)
class McReport:
    """Outcome of :func:`population_mc_experiment`.

    ``mean_deviation`` is ``||mean_i T_i - I||_F``; ``certificate_residual``
    is the barycentre certificate of the base covariance against the
    empirical family; ``solver`` is the fixed-point run on the same family,
    and ``exact_barycentre_error`` its relative Frobenius distance
    ``||solver.barycentre - T̄ C T̄||_F / ||T̄ C T̄||_F`` to the family's exact
    barycentre.
    """

    dim: int
    n: int
    seed: int
    law: RandomMapLaw
    antithetic: bool
    coefficients: np.ndarray = field(repr=False)
    mean_deviation: float
    certificate_residual: float
    solver: BarycentreResult = field(repr=False)
    exact_barycentre_error: float


def population_mc_experiment(
    config: TruncationConfig,
    law: RandomMapLaw,
    n: int,
    seed: int,
    settings: SolverSettings | None = None,
    antithetic: bool = False,
) -> McReport:
    """Monte-Carlo check that the base covariance is the population barycentre.

    Draws n random maps ``T_i``, gives the problem the conjugations
    ``T_i C T_i`` of the configured covariance ``C`` by their exact
    chain-block factors (:func:`construct.chain_factors`), and reports (i) how
    far the empirical map average is from the identity, (ii) the barycentre
    certificate residual of the base covariance against the empirical
    family, and (iii) the fixed-point solver's output on the empirical
    problem with (iv) its distance to the exact barycentre.  The maps
    commute and their mean ``T̄ = I + mean(a) (F + F^T)`` is positive
    definite, so the empirical barycentre is ``T̄ C T̄`` exactly, singular as
    ``C`` is.

    Parameters
    ----------
    config : TruncationConfig
    law : RandomMapLaw
    n : int
        Number of draws, an integer >= 2.
    seed : int
        64-bit seed for the Philox streams, an integer >= 0.
    settings : SolverSettings, optional
        Defaults to ``SolverSettings()``.
    antithetic : bool
        Pair each draw with its negation (n must be even).
    """
    check_integer(n, "n", 2)
    coeffs = draw_coefficients(law, seed, n, antithetic)
    # mean_i T_i - I = (sum_i a_i / n) (F + F^T); the draws are summed in
    # order, as a running sum of the maps sums its entries
    deviation = symmetrized_shift(config.dim) * (float(np.cumsum(coeffs)[-1]) / n)
    mean_map = np.eye(config.dim) + deviation

    # each input T C T is given by its exact chain-block factors C^{1/2} T,
    # so no dense input is formed, checked or factored
    prob = BarycentreProblem.from_block_factors(*chain_factors(config, coeffs), settings=settings)
    cov = build_covariance(config)
    residual = verify_barycentre_certificate(cov, prob)
    solver = barycentre_fixed_point(prob)
    exact = mean_map @ cov @ mean_map
    exact_error = float(np.linalg.norm(solver.barycentre - exact) / np.linalg.norm(exact))

    return McReport(
        dim=config.dim,
        n=n,
        seed=seed,
        law=law,
        antithetic=antithetic,
        coefficients=coeffs,
        mean_deviation=float(np.linalg.norm(deviation)),
        certificate_residual=residual,
        solver=solver,
        exact_barycentre_error=exact_error,
    )
