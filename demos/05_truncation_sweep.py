"""Truncation study: what survives at finite dimension and what is an artifact.

Sweeps the truncation dimension and tabulates, for the constructed pair:
the kernel dimensions, the smallest eigenvalue of the first map (drifting
toward zero as the longest shift orbit grows), the canonical angles between
the conjugated kernel and the base kernel, and the barycentre certificate.

Odd directions whose doubled index exceeds the dimension are fixed by the
truncated maps, so a quarter of the angles are exactly zero; the moved part
starts at arctan(1/2).  The kernels are taken from the maps, as
``ker(T C T) = T^{-1} ker C``, not by counting small eigenvalues: past
dimension ~64 the conjugated spectra fall below any eigenvalue cutoff, yet
the counts stay exact.  The certificate does not classify eigenvalues either.
"""

import numpy as np

from bwbary import (
    TruncationConfig,
    build_covariance,
    build_pair_maps,
    kernel_dim,
    kernel_report,
    problem,
    verify_barycentre_certificate,
)


def main():
    print(f"{'dim':>4s} {'ker C':>6s} {'ker S1':>6s} {'eig count':>9s} {'min eig T1':>11s} "
          f"{'zero angles':>11s} {'min nonzero':>11s} {'certificate':>12s}")
    for dim in (8, 16, 32, 64, 128):
        config = TruncationConfig(dim=dim)
        cov = build_covariance(config)
        t1, t2 = build_pair_maps(dim)
        s1 = t1 @ cov @ t1
        residual = verify_barycentre_certificate(cov, problem([s1, t2 @ cov @ t2]))
        info = kernel_report(config, [t1])
        print(f"{dim:4d} {info['kernel_dim']:6d} {info['kernel_dims'][0]:6d} "
              f"{kernel_dim(s1):9d} "
              f"{np.linalg.eigvalsh(t1)[0]:11.4f} "
              f"{info['shared_dims'][0]:11d} "
              f"{info['min_nonzero_angles'][0]:11.4f} "
              f"{residual:12.3e}")

    print("\nker S1 is exact at every dim: dim/2.  'eig count' counts the")
    print("eigenvalues of S1 below the default cutoff linalg.RANK_TOL, the rule")
    print("for matrices of unknown origin; from dim 64 up the smallest kept")
    print("eigenvalues (2^-(dim/2) in C) sink below it and that count is wrong.")
    print("min eig of T1 decreases toward zero as the longest doubling orbit")
    print("lengthens; the certificate stays at rounding level throughout; the")
    print("zero angles count the truncated-tail directions shared by the")
    print("kernels, dim/4 of them at every truncation.")


if __name__ == "__main__":
    main()
