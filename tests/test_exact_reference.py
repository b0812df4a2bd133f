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

The KL's gradients with respect to Phi and Y are checked on the same
instances and sides, each along one seeded direction, against central
differences of the 50-digit KL at a step of 1e-20, where the truncation
error is near 1e-40 and rounding costs 30 of the 50 digits. The KL is
evaluated through the smaller Gram system, in the form
1/2 (k (log det S - c Tr(S^{-1} G G^T)) + rho ||M||^2), which keeps the
reference fast. GRAD_PICKED_RTOL and GRAD_FORCED_RTOL are ten times the
worst errors measured when the gate was set, rounded up: 2.2e-14 (the
Phi direction of the near-prior instance) and 9.4e-12 (the Phi direction
of a worst-conditioned h >= nhat instance through its rank-deficient
h x h side).

The means' and the predictive variance's gradients are checked the same
way, through f = <R, M> + sum_i r_i sigma_i^2 with fixed random R and r and
each instance's test features. MOMENT_GRAD_PICKED_RTOL and
MOMENT_GRAD_FORCED_RTOL are ten times the worst errors measured when the
gate was set, with the solves, quadratic forms and log-det as three
primitives on a cached factor, rounded up: 2.26e-14 (the Phi direction of
a 16 x 12 instance) and 2.85e-11 (the Phi direction of a 12 x 49 instance
through its h x h side). With the factor W = L^{-1} as one tape node
(`ndiff.inv_chol`) the same checks read 6.5e-14 and 3.0e-11 for the
moments, and 4.2e-15 and 1.4e-13 for the KL.
"""

import math

import mpmath
import numpy as np

from test_acceptance import identity_suite_instances
from vbpc import ndiff as nd, posterior
from vbpc.posterior import kl_to_prior, logdet_v, trace_v
from vbpc.predictive import predictive_moments

DIGITS = 50
PICKED_RTOL = 1e-11
FORCED_RTOL = 7.5e-11
GRAD_PICKED_RTOL = 2.2e-13
GRAD_FORCED_RTOL = 9.5e-11
MOMENT_GRAD_PICKED_RTOL = 2.3e-13
MOMENT_GRAD_FORCED_RTOL = 2.9e-10
STEP = "1e-20"


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


def exact_solution(phi, labels, hyper):
    """(W, G, c, means) at the working precision, through the min(h, nhat)
    Gram system S = I + c G G^T = L L^T with W = L^{-1}; phi and labels are
    mpmath matrices."""
    rho = mpmath.mpf(hyper.rho)
    c = mpmath.mpf(hyper.gamma) / (rho * mpmath.mpf(hyper.beta_s))
    weight_space = phi.cols < phi.rows
    g = phi.T if weight_space else phi
    w = mpmath.inverse(mpmath.cholesky(mpmath.eye(g.rows) + c * (g * g.T)))
    s_inv = w.T * w
    if weight_space:
        means = c * (s_inv * (phi.T * labels))
    else:
        means = c * (phi.T * (s_inv * labels))
    return w, g, c, means


def exact_kl(phi, labels, hyper):
    """The KL at the working precision."""
    w, g, c, means = exact_solution(phi, labels, hyper)
    logdet = -2 * mpmath.fsum(mpmath.log(w[i, i]) for i in range(g.rows))
    trace = c * mpmath.fsum(x ** 2 for x in w * g)
    rho = mpmath.mpf(hyper.rho)
    return (labels.cols * (logdet - trace) + rho * mpmath.fsum(x ** 2 for x in means)) / 2


def exact_moments_probe(phi, labels, hyper, phi_test, probe_m, probe_v):
    """<R, M> + sum_i r_i sigma_i^2 at the working precision, for the test
    features phi_test and the fixed probes R (h x k) and r (one per test
    row); sigma_i^2 = ||W phi_i||^2 / rho on the h side and ||phi_i||^2 /
    rho - c / rho ||W Phi phi_i||^2 on the nhat side."""
    w, g, c, means = exact_solution(phi, labels, hyper)
    rho = mpmath.mpf(hyper.rho)
    if phi.cols < phi.rows:
        z = w * phi_test.T
        variances = [mpmath.fsum(z[i, j] ** 2 for i in range(z.rows)) / rho
                     for j in range(z.cols)]
    else:
        z = w * (phi * phi_test.T)
        variances = [(mpmath.fsum(phi_test[j, i] ** 2 for i in range(phi_test.cols))
                      - c * mpmath.fsum(z[i, j] ** 2 for i in range(z.rows))) / rho
                     for j in range(z.cols)]
    return (mpmath.fsum(a * b for a, b in zip(means, probe_m))
            + mpmath.fsum(a * b for a, b in zip(variances, probe_v)))


def directional_errors(exact_value, program_value):
    """The worst relative errors, on the picked and the forced side, of a
    scalar's derivatives along one seeded direction of Phi and one of Y,
    against central differences of its 50-digit value at a step of STEP.

    exact_value(phi, labels, hyper, extra) takes mpmath matrices;
    program_value(p, extra) builds the scalar on the tape from a solved
    posterior. `extra` holds each instance's fixed test features and
    probes."""
    worst = {True: (0.0, None), False: (0.0, None)}
    for seed, (phi, labels, phi_test, hyper) in enumerate(selected_instances()):
        rng = np.random.default_rng(seed)
        d_phi = rng.standard_normal(phi.shape)
        d_labels = rng.standard_normal(labels.shape)
        extra = (phi_test, rng.standard_normal((phi.shape[1], labels.shape[1])),
                 rng.standard_normal((phi_test.shape[0], 1)))
        with mpmath.workdps(DIGITS):
            step = mpmath.mpf(STEP)
            f, y = mpmath.matrix(phi.tolist()), mpmath.matrix(labels.tolist())
            df, dy = mpmath.matrix(d_phi.tolist()), mpmath.matrix(d_labels.tolist())
            exact = {"Phi": (exact_value(f + step * df, y, hyper, extra)
                             - exact_value(f - step * df, y, hyper, extra)) / (2 * step),
                     "Y": (exact_value(f, y + step * dy, hyper, extra)
                           - exact_value(f, y - step * dy, hyper, extra)) / (2 * step)}
        picked = phi.shape[1] < phi.shape[0]
        for side in (False, True):
            tape = nd.Tape()
            leaf_phi = tape.leaf(nd.Array(phi))
            leaf_labels = tape.leaf(nd.Array(labels))
            p = posterior._solve(leaf_phi, leaf_labels, hyper, weight_space=side)
            grads = nd.backward(tape, program_value(p, extra))
            program = {"Phi": (grads[tape.node_id(leaf_phi)].data * d_phi).sum(),
                       "Y": (grads[tape.node_id(leaf_labels)].data * d_labels).sum()}
            for key, value in program.items():
                err = relative_error([value], [exact[key]])
                assert math.isfinite(err)
                if err > worst[side == picked][0]:
                    worst[side == picked] = (err, f"d{key} at {phi.shape}")
    detail = (f"picked side worst {worst[True][0]:.2e} ({worst[True][1]}), "
              f"forced side worst {worst[False][0]:.2e} ({worst[False][1]})")
    return worst[True][0], worst[False][0], detail


def test_kl_gradients_match_the_50_digit_reference():
    picked, forced, detail = directional_errors(
        lambda phi, labels, hyper, extra: exact_kl(phi, labels, hyper),
        lambda p, extra: kl_to_prior(p))
    assert picked <= GRAD_PICKED_RTOL, detail
    assert forced <= GRAD_FORCED_RTOL, detail


def test_moment_gradients_match_the_50_digit_reference():
    def exact_value(phi, labels, hyper, extra):
        phi_test, probe_m, probe_v = extra
        return exact_moments_probe(phi, labels, hyper, mpmath.matrix(phi_test.tolist()),
                                   probe_m.ravel().tolist(), probe_v.ravel().tolist())

    def program_value(p, extra):
        phi_test, probe_m, probe_v = extra
        moments = predictive_moments(p, phi_test)
        return nd.add(nd.inner(p.means, nd.Array(probe_m)),
                      nd.inner(moments.variance, nd.Array(probe_v)))

    picked, forced, detail = directional_errors(exact_value, program_value)
    assert picked <= MOMENT_GRAD_PICKED_RTOL, detail
    assert forced <= MOMENT_GRAD_FORCED_RTOL, detail
