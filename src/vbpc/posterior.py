"""Closed-form last-layer Gaussian posterior for a pseudo-coreset.

Given coreset features Phi (nhat x h) and real-valued labels Y (nhat x k),
the per-class posterior mean and the shared covariance are available in
closed form. Everything here works through the nhat x nhat system

    A = I + (gamma / (rho * beta_s)) * Phi @ Phi.T

so that no h x h matrix is ever materialized: the mean uses the kernel-trick
form, the log-determinant the Weinstein-Aronszajn identity, and the trace
Tr(A^{-1} Phi Phi^T) the squared Frobenius norm ||L^{-1} Phi||^2 of one
triangular solve. One Cholesky factorization A = L L^T is shared by the
mean, log-det, trace and the predictive variance. ``dense_variance`` is the
only exception; it exists purely as a test/benchmark oracle.

All constructions optionally record on a gradient tape, which is what makes
the coreset trainable by direct differentiation through the closed form.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import ndiff as nd


@dataclass(frozen=True)
class Hyperparams:
    """Scalar knobs of the variational problems.

    rho     prior precision (> 0)
    gamma   Gaussian-likelihood precision (> 0)
    beta_s  coreset KL temperature (> 0); conventionally nhat
    beta_d  dataset KL temperature (>= 0)
    h, k    problem dimensions, filled in by `resolved`
    """

    rho: float
    gamma: float
    beta_s: float
    beta_d: float = 0.0
    h: int | None = None
    k: int | None = None

    def __post_init__(self):
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

    def resolved(self, h, k):
        return replace(self, h=h, k=k)


class CoresetPosterior:
    """Efficient representation of the solved coreset posterior.

    Stores the feature matrix, labels, the nhat x nhat system A (whose
    Cholesky factor is cached and reused by every solve) and the h x k
    posterior means. Storage is O(nhat*h + nhat^2 + h*k); the shared h x h
    covariance is represented implicitly. Immutable after construction.
    """

    def __init__(self, phi, labels, system, means, hyper, tape):
        self.phi = phi
        self.labels = labels
        self.system = system          # A = I + c * Phi Phi^T
        self.means = means            # columns m_j
        self.hyper = hyper
        self.tape = tape


def solve_posterior(phi, labels, hyper, tape=None):
    """Solve the coreset variational problem in closed form.

    phi: nhat x h features, labels: nhat x k. Returns a CoresetPosterior
    whose means equal Phi^T ((rho*beta_s/gamma) I + Phi Phi^T)^{-1} y_j per
    class, computed in the numerically stable kernel form. Differentiable
    w.r.t. phi and labels when they are leaves of `tape`.
    """
    phi = nd.constant(phi)
    labels = nd.constant(labels)
    nhat, h = phi.shape
    if labels.shape[0] != nhat:
        raise nd.ShapeError(f"labels rows {labels.shape[0]} != features rows {nhat}")
    k = labels.shape[1]
    hyper = hyper.resolved(h, k)
    c = hyper.kernel_scale

    phi_t = nd.transpose(phi, tape)
    kernel = nd.matmul(phi, phi_t, tape)
    system = nd.add(nd.eye(nhat), nd.scale(kernel, c, tape), tape)
    solved = nd.cholesky_solve_spd(system, labels, tape)
    means = nd.scale(nd.matmul(phi_t, solved, tape), c, tape)
    return CoresetPosterior(phi, labels, system, means, hyper, tape)


def dense_variance(p, allow_large=False):
    """Materialized h x h shared covariance V*. Test/benchmark oracle only.

    V* = rho^{-1} I - (gamma / (rho^2 beta_s)) Phi^T A^{-1} Phi. Guarded so
    it cannot sneak into training paths at scale.
    """
    hyper = p.hyper
    if hyper.h > 4096 and not allow_large:
        raise ValueError(f"dense_variance guard: h={hyper.h} > 4096")
    solved = nd.cholesky_solve_spd(p.system, p.phi)
    outer = nd.matmul(nd.transpose(p.phi), solved)
    return nd.sub(nd.scale(nd.eye(hyper.h), 1.0 / hyper.rho),
                  nd.scale(outer, hyper.variance_scale))


def logdet_v(p):
    """log det V* = -h log rho - log det A, via the cached Cholesky factor."""
    hyper = p.hyper
    tape = p.tape
    logdet_a = nd.logdet_spd(p.system, tape)
    const = nd.constant([[-hyper.h * math.log(hyper.rho)]])
    return nd.sub(const, logdet_a, tape)


def _trace_ainv_kernel(p):
    """Tr(A^{-1} Phi Phi^T) = sum over the columns phi_j of Phi of
    phi_j^T A^{-1} phi_j, on the posterior's tape."""
    return nd.sum(nd.inv_quad_spd(p.system, p.phi, p.tape), tape=p.tape)


def trace_v(p):
    """Tr V* = h/rho - gamma/(rho^2 beta_s) * Tr(A^{-1} Phi Phi^T)."""
    hyper = p.hyper
    tape = p.tape
    t = _trace_ainv_kernel(p)
    return nd.sub(nd.constant([[hyper.h / hyper.rho]]),
                  nd.scale(t, hyper.variance_scale, tape), tape)


def kl_to_prior(p):
    """Exact KL(q || prior), constants included, differentiable on the tape.

    Equals 1/2 (k (-h log rho - log det V*) - k h + k rho Tr V* + rho ||M||^2).
    Evaluated in the algebraically cancelled form

        1/2 (k log det A - k (gamma/(rho beta_s)) Tr(A^{-1} Phi Phi^T)
             + rho ||M||^2)

    which is the same quantity but is exactly zero for an empty coreset and
    never goes negative beyond round-off.
    """
    hyper = p.hyper
    tape = p.tape
    k = hyper.k
    logdet_a = nd.logdet_spd(p.system, tape)
    t = _trace_ainv_kernel(p)
    msq = nd.sum(nd.hadamard(p.means, p.means, tape), tape=tape)
    inner = nd.add(
        nd.sub(nd.scale(logdet_a, float(k), tape),
               nd.scale(t, k * hyper.kernel_scale, tape), tape),
        nd.scale(msq, hyper.rho, tape), tape)
    return nd.scale(inner, 0.5, tape)


def fixed_point_residual(p):
    """Deviation of the solved natural parameters from the stationarity
    condition lambda* = lambda_0 + beta_s^{-1} grad, first block only (the
    second block holds by construction).

    Evaluates lambda_j^(1) = rho m_j + (gamma/beta_s) Phi^T (Phi m_j) against
    (gamma/beta_s) Phi^T y_j with nhat x nhat algebra and returns the largest
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
