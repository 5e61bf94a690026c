"""Bit-pinned outputs of the spectral routines: ``optimal_map``, ``kernel_basis``, ``kernel_dim``.

Each case is a fixed-seed source: full rank or of rank ``dim / 2``, at dims
8 to 64, and the pair's ``S_1`` at dim 32.  The pinned value is the SHA-256
of the output's shape and raw float64 bytes, so any change to how these
routines decompose a matrix that moves one bit fails here.  The digests were
recorded with numpy 2.4.6 on scipy-openblas 0.3.31; another LAPACK build
rounds differently, so the test runs only on that build.
"""

import hashlib

import numpy as np
import pytest

from bwbary import kernel_basis, kernel_dim, optimal_map
from helpers import constructed_triple, random_psd

RECORDED_ON = ("2.4.6", "0.3.31")


def _on_recorded_build() -> bool:
    if np.__version__ != RECORDED_ON[0]:
        return False
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return str(blas.get("version", "")).split(".")[:3] == RECORDED_ON[1].split(".")


pytestmark = pytest.mark.skipif(
    not _on_recorded_build(),
    reason=f"digests recorded on numpy {RECORDED_ON[0]}, scipy-openblas {RECORDED_ON[1]}")


def _digest(X) -> str:
    X = np.ascontiguousarray(X, dtype=np.float64)
    return hashlib.sha256(repr(X.shape).encode() + X.tobytes()).hexdigest()


def _outputs() -> dict:
    """Every pinned output, by case name: maps and kernel bases as digests, kernel dims as ints."""
    out = {}
    for dim in (8, 16, 32, 64):
        rng = np.random.default_rng(dim)
        full, half = random_psd(rng, dim), random_psd(rng, dim, rank=dim // 2)
        target = random_psd(rng, dim)
        # A X A vanishes on ker(A), so the rank-deficient source has a map to it
        inside = half @ random_psd(rng, dim) @ half
        out[f"map-full-{dim}"] = _digest(optimal_map(full, target))
        out[f"map-half-{dim}"] = _digest(optimal_map(half, inside))
        for name, M in (("full", full), ("half", half)):
            out[f"kernel-{name}-{dim}"] = _digest(kernel_basis(M))
            out[f"kernel-dim-{name}-{dim}"] = kernel_dim(M)
    _, s1, _ = constructed_triple(32)
    source = random_psd(np.random.default_rng(32), 32)
    out["map-s1-s1"] = _digest(optimal_map(s1, s1))
    out["map-full-s1"] = _digest(optimal_map(source, s1))
    out["kernel-s1"] = _digest(kernel_basis(s1))
    out["kernel-dim-s1"] = kernel_dim(s1)
    return out


PINNED = {
    'kernel-dim-full-16': 0,
    'kernel-dim-full-32': 0,
    'kernel-dim-full-64': 0,
    'kernel-dim-full-8': 0,
    'kernel-dim-half-16': 8,
    'kernel-dim-half-32': 16,
    'kernel-dim-half-64': 32,
    'kernel-dim-half-8': 4,
    'kernel-dim-s1': 16,
    'kernel-full-16': '10ccafabdd4bd2e00f0483c77f03815970d4b8f702eb6fd65dab259d1bdac1c4',
    'kernel-full-32': '72f77e34031c530a464a6da477aa105132b83c5a5aea75bf21108735dd7eac9d',
    'kernel-full-64': 'd09dcf604aba1d9a3823c053462e86c10697488431bd353291045c213f44fbc2',
    'kernel-full-8': 'a52f36056c41d734ea35aeb6c43f41c04ab5cdb04999fad8b6326402b36628e8',
    'kernel-half-16': '2e85fbd1ad0a5e5303842fd4d394c705916285ac9d1480d13156e88dc069b3b2',
    'kernel-half-32': 'b5700cc479e8dcc8482fb72a6a92f02fd5f1aea0f91fef7f2b520bf1dcf5fe47',
    'kernel-half-64': '6046425e50812a00d97008ed313aafabec2cf2b6a8bdb810ad9b6ffc253476df',
    'kernel-half-8': '8010252052698d291037aa8e66434504634278c83dc3acd25efde38fc409f24b',
    'kernel-s1': '0edb9a418c68fa3bceee4c880fa7adbbbcb80ecac2946e0175cc417a1dab6eeb',
    'map-full-16': '601545bb8d89d0f21e7ae63e099467f95e46933b3c814f28df12b89885682d69',
    'map-full-32': '601d04c7c0c0e875f853cbf6c650616df7d7f524a1b317468a4896a0666bcfef',
    'map-full-64': '04cc50ae847a68fd62dabc7ed3a5e9902e271389c0b9e839b3f4849c34875890',
    'map-full-8': 'ecbc9cc1f41a6e4878a6fe0a2205bcf22028fbdd42c2b50e554cadc51508ac4f',
    'map-full-s1': 'a9af1b5e769e60f7f0287a6dda92cdbab7676593b447c949c96aec50d8bd1a3a',
    'map-half-16': '89542b83d5892bede44e2156e0e5833e8ff974d70e5f8024e3186c072dbcc391',
    'map-half-32': 'cef5069802975d2c25999002f84acb294a48280b56b0c5c1d46048485bd8c05d',
    'map-half-64': '0bfdf3e5d523f129105436ac8b3cb2733ac4fce2b4893a2901e9a075ab00446c',
    'map-half-8': 'eac847e37be62fff3be52d499e78d7a21ace68b99f32a948544d56b378dc0c63',
    'map-s1-s1': '87f6c342130cc64f023c69ad4cb8315b9162f6c508354d05c639b55a7ef9b0de',
}


@pytest.fixture(scope="module")
def outputs():
    return _outputs()


@pytest.mark.parametrize("case", sorted(PINNED))
def test_output_bits(case, outputs):
    assert outputs[case] == PINNED[case]


def test_every_output_is_pinned(outputs):
    assert sorted(outputs) == sorted(PINNED)
