"""Correctness checks computed apart from the program.

The dense reference forms the h x h primal posterior precision
``rho I + (gamma / beta_s) Phi^T Phi`` with numpy and derives the posterior
means, the KL to the prior, the predictive moments and the outer loss from
it. The program never builds that matrix: it works through the nhat x nhat
kernel system, so agreement checks the kernel-trick algebra, not a copy of
it. Each check returns (ok, detail).
"""

import math

import numpy as np

ALPHA = math.pi / 8
DENSE_RTOL = 1e-9
FD_RTOL = 1e-4
RESIDUAL_TOL = 1e-8


def _rel(got, want):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    return float(np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300))


def dense_reference(phi, labels, phi_b, onehot_b, n_total, hyper):
    """Posterior, KL, predictive moments and loss from the primal form."""
    h = phi.shape[1]
    k = labels.shape[1]
    g = hyper.gamma / hyper.beta_s
    precision = hyper.rho * np.eye(h) + g * (phi.T @ phi)
    cov = np.linalg.inv(precision)
    cov = 0.5 * (cov + cov.T)
    means = g * (cov @ (phi.T @ labels))
    sign, logdet_prec = np.linalg.slogdet(precision)
    if sign <= 0:
        raise ValueError("dense precision is not positive definite")
    kl = 0.5 * (k * (-h * math.log(hyper.rho) + logdet_prec) - k * h
                + k * hyper.rho * np.trace(cov) + hyper.rho * float((means ** 2).sum()))
    mean_b = phi_b @ means
    var_b = ((phi_b @ cov) * phi_b).sum(axis=1, keepdims=True)
    z = mean_b / np.sqrt(1.0 + ALPHA * var_b)
    z = z - z.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    likelihood = -(n_total / onehot_b.shape[0]) * float((onehot_b * logp).sum())
    return {"means": means, "kl": kl, "mean": mean_b, "variance": var_b,
            "loss": likelihood + hyper.beta_d * kl}


def compare_dense(program, reference):
    """Largest relative error over the quantities both sides produced."""
    errors = {key: _rel(program[key], reference[key]) for key in reference}
    worst = max(errors.values())
    detail = ", ".join(f"{key} {err:.1e}" for key, err in errors.items())
    return worst <= DENSE_RTOL, f"dense reference rel err: {detail} (tol {DENSE_RTOL:g})"


def _relu_pattern(net, images):
    signs, x = [], images
    for w, b in zip(net.weights, net.biases):
        pre = x @ w + b
        signs.append(pre > 0.0)
        x = np.maximum(pre, 0.0)
    return signs


def kink_free_step(net, images, direction, eps, shrink=4.0, tries=8):
    """Largest eps / shrink**j at which images +- eps * direction keep every
    ReLU on the side it is at eps = 0.

    A central difference is only valid where the loss is smooth. The first
    layer's pre-activations are linear in the step, so equal signs at both
    ends mean none crosses zero in between; the same then holds layer by
    layer. At nhat = 500 a random direction at eps = 1e-4 crossed a kink
    in one of the first six solve-heavy runs, off by 3e-4 relative.
    """
    base = _relu_pattern(net, images)
    for _ in range(tries):
        if all(np.array_equal(a, b) for t in (eps, -eps)
               for a, b in zip(base, _relu_pattern(net, images + t * direction))):
            return eps
        eps /= shrink
    raise ValueError("no kink-free step found for the directional derivative")


def directional_fd(loss_at, analytic, eps):
    """Central difference of loss_at(t) at t = 0 against <grad, D>.

    `analytic` is (<grad, D>, |grad|) for a unit direction D. The error is
    measured against |grad| as well as <grad, D>, since a random direction
    can make <grad, D> small.
    """
    fd = (loss_at(eps) - loss_at(-eps)) / (2.0 * eps)
    value, scale = analytic
    err = abs(fd - value)
    ok = err <= FD_RTOL * max(abs(value), 1e-3 * scale)
    return ok, (f"directional derivative fd {fd:.9g} vs grad {value:.9g} "
                f"(|grad| {scale:.3g}, err {err:.2e}, eps {eps:.1e})")


def fixed_point(residual):
    return residual <= RESIDUAL_TOL, f"fixed-point residual {residual:.2e} (tol {RESIDUAL_TOL:g})"


def distributions(probs):
    """Every row finite, in [0, 1], summing to 1."""
    probs = np.asarray(probs)
    worst = float(np.abs(probs.sum(axis=1) - 1.0).max())
    ok = bool(np.isfinite(probs).all() and probs.min() >= 0.0
              and probs.max() <= 1.0 and worst <= 1e-12)
    return ok, worst


def roundtrip(saved, loaded):
    same = (saved.images.tobytes() == loaded.images.tobytes()
            and saved.labels.tobytes() == loaded.labels.tobytes()
            and saved.ipc == loaded.ipc
            and all(getattr(saved.hyper, f) == getattr(loaded.hyper, f)
                    for f in ("rho", "gamma", "beta_s", "beta_d")))
    return same, "coreset file round trip " + ("bit-exact" if same else "DIFFERS")
