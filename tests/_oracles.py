"""Independent reference implementations used only by the tests.

Everything here is deliberately written the slow, obvious way: explicit
loops, explicit index arithmetic, extended-precision series. None of it
shares code with the package under test, except the two diffusion
replays at the end: they draw through the public one-call-per-draw
`Rng.normal` and `Rng.randint` (and turn the state with the package's
`rotate`), so that the package's block-drawn noise can be held to them
bit for bit.
"""

import math

import mpmath as mp
import numpy as np

from aliasfree.rotation import rotate

mp.mp.dps = 50

_FACT = [mp.factorial(k) for k in range(130)]


def j1_series_60(x):
    """J1 by 60 explicit extended-precision series terms."""
    x = mp.mpf(float(x))
    total = mp.mpf(0)
    for k in range(60):
        total += (-1) ** k * (x / 2) ** (2 * k + 1) / (_FACT[k] * _FACT[k + 1])
    return float(total)


def i0_series_60(x):
    """I0 by 60 explicit extended-precision series terms."""
    x = mp.mpf(float(x))
    total = mp.mpf(0)
    for k in range(60):
        total += (x / 2) ** (2 * k) / (_FACT[k] ** 2)
    return float(total)


def jinc_series_60(x):
    if float(x) == 0.0:
        return 0.5
    return float(mp.mpf(j1_series_60(x)) / mp.mpf(float(x)))


def erf_error_ulps(x, got):
    """|got - erf(x)| in units in the last place of erf(x), by mpmath at 40 digits."""
    with mp.workdps(40):
        exact = mp.erf(mp.mpf(float(x)))
        return float(abs(mp.mpf(float(got)) - exact) / math.ulp(float(exact)))


def pad_index(n, size, mode):
    """Resolve an out-of-range index under a border rule."""
    if 0 <= n < size:
        return n
    if mode == "zero":
        return None
    # reflect without repeating the edge sample: ..., 2, 1, 0, 1, 2, ...
    period = 2 * size - 2 if size > 1 else 1
    n = n % period
    if n >= size:
        n = period - n
    return n


def conv2d_loops(img, taps, padding):
    """Triple-loop direct convolution, one channel at a time."""
    img = np.asarray(img, dtype=float)
    taps = np.asarray(taps, dtype=float)
    C, H, W = img.shape
    size = taps.shape[0]
    r = (size - 1) // 2
    out = np.zeros_like(img)
    for c in range(C):
        for n1 in range(H):
            for n2 in range(W):
                acc = 0.0
                for i in range(-r, r + 1):
                    for j in range(-r, r + 1):
                        src_r = pad_index(n1 - i, H, padding)
                        src_c = pad_index(n2 - j, W, padding)
                        if src_r is None or src_c is None:
                            continue
                        acc += taps[i + r, j + r] * img[c, src_r, src_c]
                out[c, n1, n2] = acc
    return out


def downsample_af_loops(img, taps, padding):
    return conv2d_loops(img, taps, padding)[:, ::2, ::2]


def max_pool_reshape(img):
    """2x2 max pooling as one numpy reduction over each block's two axes."""
    C, H, W = img.shape
    return img.reshape(C, H // 2, 2, W // 2, 2).max(axis=(2, 4))


def upsample_af_loops(img, taps, padding):
    img = np.asarray(img, dtype=float)
    C, H, W = img.shape
    stuffed = np.zeros((C, 2 * H, 2 * W))
    for c in range(C):
        for n1 in range(H):
            for n2 in range(W):
                stuffed[c, 2 * n1, 2 * n2] = img[c, n1, n2]
    return 4.0 * conv2d_loops(stuffed, taps, padding)


def bilinear_rotate_loops(img, phi, fill):
    """Inverse-map bilinear rotation, scalar math only."""
    img = np.asarray(img, dtype=float)
    C, H, W = img.shape
    cy = (H - 1) / 2.0
    cx = (W - 1) / 2.0
    cos_p = math.cos(phi)
    sin_p = math.sin(phi)
    out = np.zeros_like(img)
    for ch in range(C):
        for r in range(H):
            for c in range(W):
                dr = r - cy
                dc = c - cx
                sr = cy + cos_p * dr + sin_p * dc
                sc = cx - sin_p * dr + cos_p * dc
                if fill == "zero" and not (0.0 <= sr <= H - 1 and 0.0 <= sc <= W - 1):
                    continue
                sr = min(max(sr, 0.0), H - 1)
                sc = min(max(sc, 0.0), W - 1)
                r0 = int(math.floor(sr))
                c0 = int(math.floor(sc))
                r1 = min(r0 + 1, H - 1)
                c1 = min(c0 + 1, W - 1)
                fr = sr - r0
                fc = sc - c0
                top = (1 - fc) * img[ch, r0, c0] + fc * img[ch, r0, c1]
                bot = (1 - fc) * img[ch, r1, c0] + fc * img[ch, r1, c1]
                out[ch, r, c] = (1 - fr) * top + fr * bot
    return out


def bilinear_upsample_loops(img):
    """Align-corners bilinear doubling, scalar math only."""
    img = np.asarray(img, dtype=float)
    C, H, W = img.shape
    out = np.zeros((C, 2 * H, 2 * W))
    for ch in range(C):
        for r in range(2 * H):
            for c in range(2 * W):
                sr = r * (H - 1) / (2 * H - 1)
                sc = c * (W - 1) / (2 * W - 1)
                r0 = int(math.floor(sr))
                c0 = int(math.floor(sc))
                r1 = min(r0 + 1, H - 1)
                c1 = min(c0 + 1, W - 1)
                fr = sr - r0
                fc = sc - c0
                top = (1 - fc) * img[ch, r0, c0] + fc * img[ch, r0, c1]
                bot = (1 - fc) * img[ch, r1, c0] + fc * img[ch, r1, c1]
                out[ch, r, c] = (1 - fr) * top + fr * bot
    return out


def bilinear_gather_2d(img, src_r, src_c):
    """Bilinear samples of every channel at broadcast (src_r, src_c), clamped
    to the grid: a two-dimensional gather of the four neighbours, blended
    along columns, then rows, in the package's operation order."""
    img = np.asarray(img, dtype=float)
    _, H, W = img.shape

    def neighbours(src, n):
        src = np.clip(src, 0.0, n - 1)
        i0 = np.floor(src).astype(int)
        f = src - i0
        return i0, np.minimum(i0 + 1, n - 1), 1.0 - f, f

    r0, r1, wr0, wr1 = neighbours(src_r, H)
    c0, c1, wc0, wc1 = neighbours(src_c, W)
    top = wc0 * img[:, r0, c0] + wc1 * img[:, r0, c1]
    bottom = wc0 * img[:, r1, c0] + wc1 * img[:, r1, c1]
    return wr0 * top + wr1 * bottom


def dft2_loops(img):
    """Direct O(N^4) centered 2D DFT."""
    img = np.asarray(img, dtype=float)
    N = img.shape[0]
    out = np.zeros((N, N), dtype=complex)
    for ki in range(N):
        for kj in range(N):
            k1 = ki - N // 2
            k2 = kj - N // 2
            acc = 0.0 + 0.0j
            for n1 in range(N):
                for n2 in range(N):
                    acc += img[n1, n2] * np.exp(-2j * np.pi * (k1 * n1 + k2 * n2) / N)
            out[ki, kj] = acc
    return out


def relu_alias_fraction_arccos(size, cutoff=math.pi / 2):
    """Expected fraction of relu's spectral energy with max(|w1|, |w2|) above
    `cutoff` over the band-limited corpus, by the degree-1 arc-cosine kernel.

    A corpus image is white noise kept on the DFT bins with |k| < size / 5 on
    both axes, DC dropped: a stationary Gaussian on the torus with circular
    correlation rho = ifft2(mask) / ifft2(mask)[0, 0]. Per unit variance,
    E[relu(a) relu(b)] = (sqrt(1 - rho^2) + (pi - arccos rho) rho) / (2 pi)
    (Cho and Saul 2009), and its fft2 is relu's expected power spectrum. The
    per-image rescale is a positive scalar, which relu and a ratio ignore.
    """
    k = np.fft.fftfreq(size, d=1.0 / size).astype(int)  # signed bin index
    keep = 5 * np.abs(k) < size
    mask = (keep[:, None] & keep[None, :]).astype(float)
    mask[0, 0] = 0.0
    corr = np.fft.ifft2(mask).real
    rho = np.clip(corr / corr[0, 0], -1.0, 1.0)
    kernel = (np.sqrt(1.0 - rho ** 2) + (np.pi - np.arccos(rho)) * rho) / (2.0 * np.pi)
    power = np.fft.fft2(kernel).real
    w = 2.0 * np.pi * np.abs(k) / size
    above = np.maximum(w[:, None], w[None, :]) > cutoff
    return float(power[above].sum() / power.sum())


def sample_rotated_per_step(denoiser, sched, shape, phi, rng, fill="replicate"):
    """The rotated reverse chain with one rng.normal call per noisy step."""
    step_angle = float(phi) / sched.T
    x = rng.normal(shape)
    for t in range(sched.T, 0, -1):
        i = t - 1
        eps_hat = denoiser.predict(x, t)
        x = (x - (1.0 - sched.alpha[i]) / math.sqrt(1.0 - sched.alpha_bar[i]) * eps_hat) \
            / math.sqrt(sched.alpha[i])
        if t > 1 and sched.sigma[i] != 0.0:
            x = x + sched.sigma[i] * rng.normal(shape)
        if step_angle != 0.0:
            x = rotate(x.reshape((-1,) + tuple(shape[1:])), step_angle, fill).reshape(x.shape)
    return x


def training_loss_per_draw(denoiser, data, sched, n_draws, rng):
    """The noise-prediction objective with normal, randint, normal calls per draw."""
    total = 0.0
    for _ in range(n_draws):
        x0 = data.mean + data.stddev * rng.normal(data.shape)
        t = rng.randint(sched.T)
        eps = rng.normal(data.shape)
        ab = sched.alpha_bar[t - 1]
        x_t = math.sqrt(ab) * x0 + math.sqrt(1.0 - ab) * eps
        err = eps - denoiser.predict(x_t, t)
        total += float(np.sum(err * err))
    return total / n_draws
