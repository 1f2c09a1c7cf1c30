"""Independent reference implementations used by the test suite.

Everything here is deliberately naive: dense DFT matrices, O(n^2) convolutions,
scalar finite differences.  The library must agree with these, never the other
way round.
"""

import numpy as np


def dft_matrix(k):
    """Dense K x K DFT matrix F with F @ x == np.fft.fft(x)."""
    n = np.arange(k)
    return np.exp(-2j * np.pi * np.outer(n, n) / k)


def constraint_matrix(k, taps):
    """Dense Z_w = F T^T T F^{-1}: zero the last K-taps time-domain taps."""
    f = dft_matrix(k)
    t = np.zeros((taps, k))
    t[np.arange(taps), np.arange(taps)] = 1.0
    return f @ t.T @ t @ np.linalg.inv(f)


def output_matrix(k, hop):
    """Dense Z_y = T_bar F^{-1}: inverse DFT then keep the last K-hop samples."""
    f = dft_matrix(k)
    tbar = np.zeros((k - hop, k))
    tbar[np.arange(k - hop), hop + np.arange(k - hop)] = 1.0
    return tbar @ np.linalg.inv(f)


def linear_convolve(h, x):
    """O(n*m) direct convolution, full length len(x)+len(h)-1."""
    y = np.zeros(len(x) + len(h) - 1)
    for i, hi in enumerate(h):
        y[i : i + len(x)] += hi * x
    return y


def gru_step_reference(layer, x, h):
    """Complex GRU step gate by gate: six separate products, split activations
    written with .real/.imag.  Returns (h_new, z, r, rh, c)."""

    def sigmoid(a):
        return 1.0 / (1.0 + np.exp(-a.real)) + 1j / (1.0 + np.exp(-a.imag))

    def tanh(a):
        return np.tanh(a.real) + 1j * np.tanh(a.imag)

    w_z, w_r, w_c = np.split(layer.w, 3)
    u_z, u_r, u_c = np.split(layer.u, 3)
    b_z, b_r, b_c = np.split(layer.b, 3)
    z = sigmoid(x @ w_z.T + h @ u_z.T + b_z)
    r = sigmoid(x @ w_r.T + h @ u_r.T + b_r)
    rh = r * h
    c = tanh(x @ w_c.T + rh @ u_c.T + b_c)
    h_new = (1.0 - z) * c + z * h
    return h_new, z, r, rh, c


def fd_gradient(f, z, eps=1e-6):
    """Central finite differences of a real scalar f() over a complex array z.

    Mutates entries of z in place around each probe.  Returns the paired-real
    gradient dL/dRe(z) + 1j * dL/dIm(z), shaped like z.
    """
    z = np.asarray(z)
    grad = np.zeros(z.shape, dtype=complex)
    flat = z.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        for direction in (1.0, 1.0j):
            flat[i] = orig + direction * eps
            f_plus = f()
            flat[i] = orig - direction * eps
            f_minus = f()
            flat[i] = orig
            gflat[i] += direction * (f_plus - f_minus) / (2.0 * eps)
    return grad


def fd_gradient_real(f, x, eps=1e-6):
    """Central finite differences of a real scalar f() over a real array x."""
    x = np.asarray(x)
    grad = np.zeros(x.shape)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = f()
        flat[i] = orig - eps
        f_minus = f()
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def rel_error(actual, expected):
    """Relative l2 error with a floor to keep zero targets meaningful."""
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    scale = np.linalg.norm(expected.ravel())
    return np.linalg.norm((actual - expected).ravel()) / max(scale, 1e-30)
