"""Closed-form coreset posterior: the efficient route against dense h x h
algebra, plus the exact KL and the fixed-point check.

Here h = 256 >= nhat = 8, so the posterior factors the nhat x nhat kernel
system and never builds an h x h block; with h < nhat it would factor the
h x h weight-space system instead (the smaller side wins)."""

import numpy as np

from vbpc import Hyperparams, solve_posterior, dense_variance, logdet_v, \
    trace_v, kl_to_prior, fixed_point_residual

rng = np.random.default_rng(0)
nhat, h, k = 8, 256, 5
phi = rng.standard_normal((nhat, h))
labels = rng.standard_normal((nhat, k))
hyper = Hyperparams(rho=1.0, gamma=100.0, beta_s=float(nhat), beta_d=1e-8)

post = solve_posterior(phi, labels, hyper)
print(f"coreset features {phi.shape}, labels {labels.shape}")
print(f"posterior means shape {post.means.data.shape} "
      f"(per-class columns, shared covariance never materialized)")

# dense oracle route: the primal h x h inverse
g = hyper.gamma / hyper.beta_s
v = np.linalg.inv(hyper.rho * np.eye(h) + g * phi.T @ phi)
m = v @ (g * phi.T @ labels)
print(f"\nkernel-form mean vs dense primal mean, max |diff|: "
      f"{np.abs(post.means.data - m).max():.3e}")
print(f"dense_variance vs primal inverse, max |diff|:        "
      f"{np.abs(dense_variance(post).data - v).max():.3e}")

sign, ld = np.linalg.slogdet(v)
print(f"\nlog det V*: efficient {logdet_v(post).item():+.6f}  "
      f"dense {ld:+.6f}   (Weinstein-Aronszajn, O(nhat^3) vs O(h^3))")
print(f"Tr V*:      efficient {trace_v(post).item():+.6f}  "
      f"dense {np.trace(v):+.6f}")
print(f"KL(q || prior) = {kl_to_prior(post).item():.6f} "
      f"(exact, zero for an empty coreset)")
print(f"fixed-point residual of the solved natural parameters: "
      f"{fixed_point_residual(post):.3e}")
