"""The modulus-phase split: linear phases win, and windings are quantized.

Fixing the modulus r(phi) of psi = r e^{i theta}, the least Delta L over the
phase is the linear theta = m phi + k (Cauchy-Schwarz), with m integer for a
periodic modulus and half-integer for the sign-flipping (antiperiodic)
class; the mean angular momentum then equals the winding.  Each answer comes
with a grid certificate: the gradient and least Hessian eigenvalue of Delta
L^2 at the linear phase.  Half-integer windings can never push Delta L below
1/2.  The same module tabulates the numeric factor f(Delta phi_p) of the
modified uncertainty relation, which runs from 1 (narrow packets) to
35/8 = 4.375 (the flat-density endpoint).
"""

import warnings

import numpy as np

import packetlab as pl

G = 512

print("=== phase minimization at fixed modulus ===\n")
r = pl.random_smooth_modulus(G, seed=7)
print("random smooth positive modulus, windings -2..2:")
print("  winding   Delta L    <L>            |grad|    least curvature  certified")
for w in (-2, -1, 0, 1, 2):
    prof, dl = pl.minimize_phase(r, w)
    mean_l = pl.mean_l_of(r, prof)
    print(f"   {w:+d}      {dl:8.5f}  {mean_l:+.9f}   {prof.gradient_norm:.1e}   "
          f"{prof.least_curvature:.4f}           {prof.certified}")

print("\nhalf-integer winding needs a sign-flipping modulus to be admissible:")
half = pl.half_winding_modulus(G)  # cos(phi/2), antiperiodic
with warnings.catch_warnings():
    warnings.simplefilter("ignore", pl.ModulusZeroWarning)  # cos(phi/2) is 0 at -pi
    prof, dl_half = pl.minimize_phase(half, 0.5)
print(f"  cos(phi/2) with winding 1/2:  Delta L = {dl_half:.12f}  (the 1/2 floor), "
      f"admissible={prof.admissible}, certified={prof.certified}")
prof, _ = pl.minimize_phase(r, 0.5)
print(f"  positive modulus with winding 1/2:  admissible={prof.admissible} "
      "(psi would jump at phi = +-pi)")

print("\n=== the numeric factor f of the modified relation ===\n")
tmax = np.pi / np.sqrt(3)
fractions = [0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 0.95, 0.99]
table = pl.f_table([f * tmax for f in fractions])
print("  Delta phi_p / max    f")
for t, f in zip(table.delta_phi_p, table.f):
    print(f"     {t / tmax:5.2f}          {f:7.4f}")
print(f"\n  extrapolated to 0:   {pl.extrapolate_to_zero(table):.4f}   (exact limit 1)")
print(f"  extrapolated to max: {pl.extrapolate_to_flat(table):.4f}   (exact limit 35/8 = 4.375)")
