"""Why minimum-uncertainty packets carry quantized mean angular momentum.

The squeezed-state condition (L - alpha)psi = iS (sin phi) psi is solved as a
matrix pencil over a grid of target expectations alpha.  Physical solutions
(purely imaginary eigenvalue, small truncation tail) exist exactly when alpha
is an integer, where the squeezing can be dialed freely; in between, the best
achievable Delta L at fixed <L> = alpha is the two-level floor
sqrt(frac(alpha)(1 - frac(alpha))), which only touches zero on the spectrum.
"""

import numpy as np

import packetlab as pl

alphas = [round(-2 + 0.1 * k, 10) for k in range(41)]
scan = pl.quantization_scan("circle", alphas, M=64)

print("=== circle family: angular momentum vs sin(phi) ===\n")
print(" alpha    floor   squeezed state?")
for a, f, flag in zip(scan.alphas, scan.floor, scan.flagged):
    print(f"  {a:+4.1f}   {f:6.4f}   {'YES' if flag else '-'}")

print("\nflagged expectations:", [float(a) for a in scan.flagged_alphas()])
print("(a flag means: a certified eigenvalue iS with S in [0.1, 8] and negligible")
print(" truncation tail, i.e. a genuine squeezed packet)\n")

# Nothing on the scan path is d x d, so the truncation can grow to M = 4096
# (8193 modes) and the flags stay the integers.
big = pl.quantization_scan("circle", [0.5, 1.0], M=4096)
for a, flag in zip(big.alphas, big.flagged):
    print(f"circle at M = 4096, alpha = {a:.1f}: {'YES' if flag else '-'}")
print()

# The eigenvector at an integer alpha is the closed-form squeezed state.
state, resid = pl.eigenvector_at(pl.circle_problem(1.0, M=64), 2.0)
ref = pl.css_state(pl.CssParams(2.0, 1), pl.ModeWindow.symmetric(64))
overlap = abs(np.vdot(state.coeffs, ref.coeffs))
print(f"pencil eigenvector at alpha=1, S=2: residual {resid:.1e}, overlap with the")
print(f"closed-form packet |<v|css>| = {overlap:.12f}\n")

print("=== number/phase family: an honest subtlety ===\n")
osc = pl.quantization_scan("oscillator", [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0], M=64)
print(" alpha   squeezed state?   S of the squeezed state")
for a, ev, flag in zip(osc.alphas, osc.physical_eigenvalues, osc.flagged):
    s_values = ", ".join(f"{z.imag:.6f}" for z in ev) if flag else "none"
    print(f"  {a:4.2f}   {'YES' if flag else '-':>3}              {s_values}")
print()
print("The one-sided shift phase operators admit isolated exact solutions at")
print("fractional <N>: Bessel packets c_m ~ I_{m-<N>}(S) at the roots of")
print("I_{-1-<N>}(S), one branch in every interval (2k, 2k+1) that pinches off")
print("exactly at the integers, and none at integer <N>, which is therefore not")
print("flagged.  Each branch shows up as a sign change of det T(iS) between")
print("sweep points and is refined on the imaginary axis itself, so a flagged")
print("eigenvalue is exactly iS.  Integer <N> >= 4 would still be flagged, at working")
print("precision only: the defect of their truncated small-S families falls below")
print("double precision.  Isolated solutions are consistent with the compactness")
print("argument, which forbids dialing the squeezing continuously off the")
print("spectrum, but they mean the flag pattern of this family differs from the")
print("circle one.")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(7, 3.5))
    ax.plot(scan.alphas, scan.floor, "s-", label="Delta L floor at fixed <L>")
    ax.plot(scan.flagged_alphas(), np.zeros(scan.flagged.sum()), "o", label="squeezed state exists")
    ax.set_xlabel(r"$\alpha = \langle L \rangle$")
    ax.set_ylabel("floor")
    ax.legend()
    fig.tight_layout()
    fig.savefig("demos_quantization_scan.png", dpi=150)
    print("\nwrote demos_quantization_scan.png")
except ImportError:
    print("\n(matplotlib not available; skipping the scan plot)")
