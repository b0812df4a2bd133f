"""Closed-form last-layer Gaussian posterior for a pseudo-coreset.

Given coreset features Phi (nhat x h) and real-valued labels Y (nhat x k),
the per-class posterior mean and the shared covariance are available in
closed form. Everything here works through one Cholesky factorization of
the smaller of the two Gram systems,

    S = I + c G G^T,   c = gamma / (rho * beta_s),

with G = Phi (the nhat x nhat function-space system, when h >= nhat) or
G = Phi^T (the h x h weight-space system, when h < nhat). The shape alone
picks the side; a tie goes to the nhat side. The smaller side is also the
better conditioned: the larger system has the same eigenvalues 1 + c s_i^2
(s_i the singular values of Phi) plus |h - nhat| unit ones, so its
condition number can only be larger. Both sides share the same
formulas wherever they can.

Everything reads one tape node, W = L^{-1} for S = L L^T
(`ndiff.inv_chol`), so S^{-1} = W^T W and every solve is two products
with W (Rasmussen & Williams 2006, Algorithm 2.1). Since c G G^T = S - I,
the log-determinant (log det S by the Weinstein-Aronszajn identity) and
the KL are functions of S alone: they read log det S and Tr S^{-1} off W
as -2 sum log diag W and ||W||_F^2 (`ndiff.logdet_trinv`). The trace of
V* reads Tr(S^{-1} G G^T) as ||W G||_F^2. The means take the kernel-trick
form c Phi^T (W^T (W Y)) on the nhat side and the push-through form
c W^T (W (Phi^T Y)) on the h side. Phi^T is never copied: the products
read Phi and W through transposed views (`matmul`'s trans flags). No
h x h matrix is materialized when h >= nhat; ``dense_variance`` builds
one only as a test/benchmark oracle.

Every construction is built from tape primitives, so when the features or
labels are nodes of a gradient tape the ops that depend on them record on
it; that is what makes the coreset trainable by direct differentiation
through the closed form. Nothing here names a tape.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import ndiff as nd


@dataclass(frozen=True)
class Hyperparams:
    """Scalar knobs of the variational problems.

    rho     prior precision (> 0)
    gamma   Gaussian-likelihood precision (> 0)
    beta_s  coreset KL temperature (> 0); conventionally nhat
    beta_d  dataset KL temperature (>= 0)

    All four are finite. The problem dimensions h and k come from the
    features and labels.
    """

    rho: float
    gamma: float
    beta_s: float
    beta_d: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.rho, self.gamma, self.beta_s, self.beta_d))):
            raise ValueError("rho, gamma, beta_s and beta_d must be finite")
        if not (self.rho > 0 and self.gamma > 0 and self.beta_s > 0):
            raise ValueError("rho, gamma and beta_s must be > 0")
        if self.beta_d < 0:
            raise ValueError("beta_d must be >= 0")

    @property
    def kernel_scale(self):
        """gamma / (rho * beta_s), the coefficient of Phi @ Phi.T in A."""
        return self.gamma / (self.rho * self.beta_s)

    @property
    def variance_scale(self):
        """gamma / (rho^2 * beta_s), the coefficient of Phi^T A^{-1} Phi in V*."""
        return self.gamma / (self.rho ** 2 * self.beta_s)


@dataclass(frozen=True)
class CoresetPosterior:
    """Efficient representation of the solved coreset posterior.

    Stores the feature matrix, labels, the factor W = L^{-1} of the system
    S = I + c G G^T = L L^T, which every solve reads, which side it is,
    and the h x k posterior means. `weight_space` is True
    when S is the h x h system (h < nhat), where G = Phi^T is read as a
    view of Phi and never stored. Storage is O(nhat*h + min(h, nhat)^2 +
    h*k); on the nhat side the shared h x h covariance is represented
    implicitly.
    """

    phi: nd.Array
    labels: nd.Array
    factor: nd.Array        # W = L^{-1}, S = I + c * G G^T = L L^T
    weight_space: bool      # G = Phi^T (S is h x h) rather than Phi
    means: nd.Array         # columns m_j
    hyper: Hyperparams


def solve_posterior(phi, labels, hyper):
    """Solve the coreset variational problem in closed form.

    phi: nhat x h features, labels: nhat x k. Returns a CoresetPosterior
    whose means equal Phi^T ((rho*beta_s/gamma) I + Phi Phi^T)^{-1} y_j per
    class, computed through the min(h, nhat) square system. Differentiable
    w.r.t. phi and labels when they are nodes of a tape.
    """
    phi = nd.constant(phi)
    nhat, h = phi.shape
    return _solve(phi, labels, hyper, weight_space=h < nhat)


def _solve(phi, labels, hyper, weight_space):
    """`solve_posterior` with the factored side given, for tests that run
    one instance through both sides."""
    phi = nd.constant(phi)
    labels = nd.constant(labels)
    nhat, h = phi.shape
    c = hyper.kernel_scale

    system = nd.add(nd.eye(h if weight_space else nhat), nd.scale(
        nd.matmul(phi, phi, trans_a=weight_space, trans_b=not weight_space), c))
    w = nd.inv_chol(system)

    def solve(b):
        return nd.matmul(w, nd.matmul(w, b), trans_a=True)

    try:
        if weight_space:
            means = solve(nd.matmul(phi, labels, trans_a=True))
        else:
            means = nd.matmul(phi, solve(labels), trans_a=True)
        means = nd.scale(means, c)
    except nd.NonFiniteError as err:
        err.retries = nd._retries_of(w)
        raise
    return CoresetPosterior(phi, labels, w, weight_space, means, hyper)


def dense_variance(p):
    """Materialized h x h shared covariance V*. Test/benchmark oracle only.

    V* = rho^{-1} W^T W on the h side, and rho^{-1} I -
    (gamma / (rho^2 beta_s)) (W Phi)^T (W Phi) on the nhat side: Grams,
    exactly symmetric. Guarded so it cannot sneak into training paths at
    scale.
    """
    hyper = p.hyper
    h = p.phi.shape[1]
    if h > 4096:
        raise ValueError(f"dense_variance guard: h={h} > 4096")
    if p.weight_space:
        return nd.scale(nd.matmul(p.factor, p.factor, trans_a=True), 1.0 / hyper.rho)
    w_phi = nd.matmul(p.factor, p.phi)
    return nd.add(nd.scale(nd.eye(h), 1.0 / hyper.rho),
                  nd.scale(nd.matmul(w_phi, w_phi, trans_a=True), -hyper.variance_scale))


def logdet_v(p):
    """log det V* = -h log rho - log det S (det S is the same on either
    side by Weinstein-Aronszajn)."""
    minus = nd.matmul(nd.logdet_trinv(p.factor), nd.constant([[-1.0], [0.0]]))
    const = nd.constant([[-p.phi.shape[1] * math.log(p.hyper.rho)]])
    return nd.add(const, minus)


def trace_v(p):
    """Tr V* = h/rho - gamma/(rho^2 beta_s) * Tr(S^{-1} G G^T), the trace
    read as ||W G||_F^2. Not (h - m + Tr S^{-1}) / rho, as the KL reads it:
    where m > h, that cancels m - h unit eigenvalues of S^{-1}, each off by
    rounding of order eps ||S||."""
    hyper = p.hyper
    w_g = nd.matmul(p.factor, p.phi, trans_b=p.weight_space)
    t = nd.inner(w_g, w_g)
    return nd.add(nd.constant([[p.phi.shape[1] / hyper.rho]]),
                  nd.scale(t, -hyper.variance_scale))


def kl_to_prior(p):
    """Exact KL(q || prior), constants included, differentiable on the tape.

    Equals 1/2 (k (-h log rho - log det V*) - k h + k rho Tr V* + rho ||M||^2).
    With c G G^T = S - I this is, on either side,

        1/2 (k (log det S + Tr S^{-1} - m) + rho ||M||^2)

    for the m x m system S, whose two spectral terms one primitive reads
    off its factor W. It is exactly zero for an empty coreset and never
    negative beyond round-off.
    """
    k = p.labels.shape[1]
    both = nd.matmul(nd.logdet_trinv(p.factor), nd.constant([[k], [k]]))
    spectral = nd.add(both, nd.constant([[-k * p.factor.shape[0]]]))
    msq = nd.inner(p.means, p.means)
    return nd.scale(nd.add(spectral, nd.scale(msq, p.hyper.rho)), 0.5)


def condition_lower_bound(p):
    """(max diag W / min diag W)^2 for the factor W = L^{-1} of S = L L^T.

    The diagonal of W holds its eigenvalues, the reciprocals of L's, so
    this is a lower bound on cond(S) = cond(W)^2; it reads the factor the
    solve already made.
    """
    diag = np.diag(p.factor.data)
    return float((diag.max() / diag.min()) ** 2)


def fixed_point_residual(p):
    """Deviation of the solved natural parameters from the stationarity
    condition lambda* = lambda_0 + beta_s^{-1} grad, first block only (the
    second block holds by construction).

    Evaluates lambda_j^(1) = rho m_j + (gamma/beta_s) Phi^T (Phi m_j) against
    (gamma/beta_s) Phi^T y_j with products by Phi and Phi^T only (no Gram
    system, so the same check holds on either side) and returns the largest
    per-class norm, relative with the denominator floored at 1.
    """
    hyper = p.hyper
    phi = p.phi.data
    m = p.means.data
    g = hyper.gamma / hyper.beta_s
    lam1 = hyper.rho * m + g * (phi.T @ (phi @ m))
    rhs = g * (phi.T @ p.labels.data)
    num = np.linalg.norm(lam1 - rhs, axis=0)
    den = np.maximum(np.linalg.norm(rhs, axis=0), 1.0)
    return float((num / den).max())
