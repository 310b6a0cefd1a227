"""Fourier helpers for periodic samples on the uniform unit-interval grid.

Every loop quantity in this package lives on the grid theta_i = i/N with the
value at theta = 1 identified with theta = 0.  These helpers centralize the
FFT conventions (signed wavenumbers, Nyquist handling for real data) so the
rest of the package never touches raw mode indexing.  Band-limited
resampling lives here too: it is ``scipy.signal.resample``'s real-input
route written on ``numpy.fft``, so the package imports neither
``scipy.signal`` (and with it ``scipy.stats``) nor ``scipy.fft`` at
start-up.
"""

from __future__ import annotations

import numpy as np


def modes(n: int) -> np.ndarray:
    """Signed integer wavenumbers in FFT order, Nyquist stored as -n/2."""
    return np.fft.fftfreq(n, d=1.0 / n)


def derivative(values: np.ndarray, order: int = 1) -> np.ndarray:
    """Spectral derivative along axis 0 for period-1 samples.

    Odd-order derivatives of real even-length data zero the Nyquist mode;
    keeping it would inject a spurious imaginary sawtooth.
    """
    values = np.asarray(values)
    n = values.shape[0]
    k = modes(n)
    factor = (2j * np.pi * k) ** order
    if order % 2 == 1 and n % 2 == 0:
        factor[n // 2] = 0.0
    shape = (n,) + (1,) * (values.ndim - 1)
    out = np.fft.ifft(np.fft.fft(values, axis=0) * factor.reshape(shape), axis=0)
    return out.real if np.isrealobj(values) else out


def fractional_shift(values: np.ndarray, s: float) -> np.ndarray:
    """Samples of f(theta + s) on the same grid, via the shift theorem."""
    values = np.asarray(values)
    n = values.shape[0]
    k = modes(n)
    phase = np.exp(2j * np.pi * k * s)
    if n % 2 == 0:
        phase[n // 2] = np.cos(np.pi * n * s)
    shape = (n,) + (1,) * (values.ndim - 1)
    out = np.fft.ifft(np.fft.fft(values, axis=0) * phase.reshape(shape), axis=0)
    return out.real if np.isrealobj(values) else out


def shifted_grids(values: np.ndarray, m: int, offsets) -> np.ndarray:
    """The trigonometric interpolant of axis-0 samples on the grids
    (j + c) / m, j < m, with the even-N Nyquist mode taken as the cosine
    cos(pi N t), so real samples give real values.

    Real samples only, and m > n, so no bin of the finer grid aliases the
    samples' modes.  Returns shape (len(offsets), m) + values.shape[1:]: one
    zero-padded inverse real FFT per offset c.  The even-N Nyquist cosine
    cos(pi N t) is the mean of e^{+i pi N t} and e^{-i pi N t}, so its bin
    is halved before the inverse transform doubles every bin below m/2.
    """
    values = np.asarray(values)
    n = values.shape[0]
    if m <= n:
        raise ValueError(f"a grid of {m} points cannot resolve {n} samples")
    coef = np.fft.rfft(values, axis=0) / n
    if n % 2 == 0:
        coef[n // 2] *= 0.5
    phase = np.exp((2j * np.pi / m) * np.outer(offsets, np.arange(coef.shape[0])))
    shape = phase.shape + (1,) * (values.ndim - 1)
    return np.fft.irfft(coef * phase.reshape(shape), n=m, axis=1) * m


def resample(values: np.ndarray, m: int) -> np.ndarray:
    """Band-limited resampling of axis-0 periodic samples to m points.

    Real samples only.  The operations, and the axis order of the result,
    are those of ``scipy.signal.resample(values, m, axis=0)``, so the bits
    agree: keep the k//2 + 1 lowest bins of the real FFT, k = min(n, m); for
    even k the unpaired bin k/2 is doubled when downsampling and halved when
    upsampling; then invert at length m, scaled by m / n.

    The inverse transform writes into a C-ordered buffer with the resampled
    axis last, as ``scipy.fft`` returns it, so the result has the memory
    layout of ``scipy.signal.resample``'s too; ``numpy.fft`` left to itself
    lays out a multi-axis result differently, and later reductions over it
    would add in another order.  (``out=`` needs numpy 2.0.)
    """
    values = np.asarray(values)
    n = values.shape[0]
    if n == m:
        return values.copy()
    x = np.moveaxis(values, 0, -1) if values.ndim > 1 else values
    k = min(n, m)
    coef = np.fft.rfft(x)[..., :k // 2 + 1]
    if k % 2 == 0:
        coef[..., k // 2] *= 2 if m < n else 0.5
    out = np.fft.irfft(coef / (n / m), n=m, out=np.empty(x.shape[:-1] + (m,)))
    return np.moveaxis(out, -1, 0) if out.ndim > 1 else out
