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

Randomness comes from the counter-based Philox engine.  Draw i uses its own
generator ``Philox(SeedSequence(seed).spawn(n)[i])``, so results are
bit-reproducible given the 64-bit seed (an integer >= 0) and independent of evaluation order.
The coefficient draw per law: uniform -> ``g.uniform(-0.5, 0.5)``; two-point
-> ``0.5 if g.integers(2) else -0.5``; triangular -> ``g.triangular(-0.5, 0.0,
0.5)``.
"""

# The ``np.random.*`` annotations stay strings, so importing this module does
# not import numpy.random; the first draw does.
from __future__ import annotations

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

    def draw(self, generator: np.random.Generator) -> float:
        if self.name == "uniform":
            return float(generator.uniform(-0.5, 0.5))
        if self.name == "two-point":
            return 0.5 if int(generator.integers(2)) else -0.5
        return float(generator.triangular(-0.5, 0.0, 0.5))


def _stream(seed_seq: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed_seq))


def draw_coefficients(law: RandomMapLaw, seed: int, n: int, antithetic: bool = False) -> np.ndarray:
    """The n coefficients of the experiment, one independent stream per draw.

    With ``antithetic=True`` (n even) only n/2 draws are made and each is
    paired with its negation, forcing the empirical mean to vanish exactly.
    ``n`` is an integer >= 1 and ``seed`` an integer >= 0.
    """
    check_integer(n, "n", 1)
    check_integer(seed, "seed", 0)
    if antithetic:
        if n % 2:
            raise InvalidInput("antithetic pairing requires an even n")
        children = np.random.SeedSequence(seed).spawn(n // 2)
        half = [law.draw(_stream(c)) for c in children]
        return np.array([x for a in half for x in (a, -a)])
    children = np.random.SeedSequence(seed).spawn(n)
    return np.array([law.draw(_stream(c)) for c in children])


def random_map_sample(law: RandomMapLaw, seed: int, dim: int) -> np.ndarray:
    """One draw of the random map ``I + a (F + F^T)``; deterministic given seed (an integer >= 0)."""
    check_integer(seed, "seed", 0)
    shift = symmetrized_shift(dim)  # checks dim
    a = law.draw(_stream(np.random.SeedSequence(seed)))
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
