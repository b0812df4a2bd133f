"""The posterior block against a 50-digit reference, on both Gram sides.

Criterion 1's float64 dense oracle carries errors near 1e-10 of its own (its
KL cancels -k h + k rho Tr V* when c = gamma/(rho beta_s) is small), so it
cannot see a program regression below that. Here mpmath evaluates the
textbook primal formulas through the h x h precision rho I + (gamma/beta_s)
Phi^T Phi at 50 digits, where neither the cancellation nor the conditioning
of these instances costs a float64 digit.

The instances are the identity suite's worst-conditioned ones (largest
condition number of the primal precision, three with h >= nhat and three
with h < nhat) plus the one closest to the prior (smallest c ||Phi||_2^2,
where the textbook KL cancels most). Each runs through both sides. The
side `solve_posterior` picks is gated at PICKED_RTOL, the other side at
FORCED_RTOL; each bound is ten times the worst error measured on these
instances when the gate was set, rounded up: 9.4e-13 (the KL of the
near-prior instance, nhat side) and 7.2e-12 (the means of the
worst-conditioned instance solved through its rank-deficient h x h side).
"""

import math

import mpmath
import numpy as np

from test_acceptance import identity_suite_instances
from vbpc import posterior
from vbpc.posterior import kl_to_prior, logdet_v, trace_v
from vbpc.predictive import predictive_moments

DIGITS = 50
PICKED_RTOL = 1e-11
FORCED_RTOL = 7.5e-11


def selected_instances():
    def cond(inst):
        phi, _, _, hyper = inst
        g = hyper.gamma / hyper.beta_s
        return np.linalg.cond(hyper.rho * np.eye(phi.shape[1]) + g * phi.T @ phi)

    def prior_distance(inst):
        phi, _, _, hyper = inst
        return hyper.kernel_scale * np.linalg.norm(phi, 2) ** 2

    suite = list(identity_suite_instances())
    wide = [inst for inst in suite if inst[0].shape[1] >= inst[0].shape[0]]
    tall = [inst for inst in suite if inst[0].shape[1] < inst[0].shape[0]]
    return (sorted(wide, key=cond)[-3:] + sorted(tall, key=cond)[-3:]
            + [min(suite, key=prior_distance)])


def exact_reference(phi, labels, phi_test, hyper):
    """Means, log det V*, Tr V*, KL and predictive variances, at DIGITS
    digits, from the Cholesky factor of the primal h x h precision."""
    nhat, h = phi.shape
    k = labels.shape[1]
    with mpmath.workdps(DIGITS):
        rho = mpmath.mpf(hyper.rho)
        g = mpmath.mpf(hyper.gamma) / mpmath.mpf(hyper.beta_s)
        f = mpmath.matrix(phi.tolist())
        chol_inv = mpmath.inverse(mpmath.cholesky(rho * mpmath.eye(h) + g * (f.T * f)))
        v = chol_inv.T * chol_inv
        means = v * (g * (f.T * mpmath.matrix(labels.tolist())))
        logdet = 2 * mpmath.fsum(mpmath.log(chol_inv[i, i]) for i in range(h))
        trace = mpmath.fsum(v[i, i] for i in range(h))
        msq = mpmath.fsum(means[i, j] ** 2 for i in range(h) for j in range(k))
        kl = (k * (-h * mpmath.log(rho) - logdet) - k * h + k * rho * trace
              + rho * msq) / 2
        z = chol_inv * mpmath.matrix(phi_test.tolist()).T
        variances = [mpmath.fsum(z[i, j] ** 2 for i in range(h))
                     for j in range(z.cols)]
    return {"means": [means[i, j] for i in range(h) for j in range(k)],
            "logdet": [logdet], "trace": [trace], "kl": [kl],
            "variance": variances}


def relative_error(program, exact):
    """Largest absolute error over the largest reference entry, at DIGITS."""
    with mpmath.workdps(DIGITS):
        worst = max(abs(mpmath.mpf(float(a)) - b) for a, b in zip(program, exact))
        return float(worst / max(abs(b) for b in exact))


def test_both_sides_match_the_50_digit_reference():
    worst = {True: (0.0, None), False: (0.0, None)}
    for phi, labels, phi_test, hyper in selected_instances():
        exact = exact_reference(phi, labels, phi_test, hyper)
        picked = phi.shape[1] < phi.shape[0]
        for side in (False, True):
            p = posterior._solve(phi, labels, hyper, weight_space=side)
            program = {"means": p.means.data.ravel(),
                       "logdet": [logdet_v(p).item()],
                       "trace": [trace_v(p).item()],
                       "kl": [kl_to_prior(p).item()],
                       "variance": predictive_moments(p, phi_test).variance.data[:, 0]}
            for key, values in program.items():
                err = relative_error(values, exact[key])
                assert math.isfinite(err)
                if err > worst[side == picked][0]:
                    worst[side == picked] = (err, f"{key} at {phi.shape}")
    detail = (f"picked side worst {worst[True][0]:.2e} ({worst[True][1]}), "
              f"forced side worst {worst[False][0]:.2e} ({worst[False][1]})")
    assert worst[True][0] <= PICKED_RTOL, detail
    assert worst[False][0] <= FORCED_RTOL, detail
