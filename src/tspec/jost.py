"""Jost solutions of -psi'' + q(x) psi = k^2 psi on [0,1].

The production path builds the backward transfer matrix M(k^2), which maps
(psi, psi') at x=1 to x=0, from uniform cells, batched over k. Each cell takes
one 6th-order Magnus step with three Gauss-Legendre nodes; the cell's exponential
is the closed form for a traceless 2x2 matrix (from real cosh, sinh, cos and sin),
so the -k^2 part of the leading Magnus term is exact. The commutator terms still
carry k^2 against q', so at a fixed cell count the error of M grows with |k|, and
so does the count the tolerance needs: at rtol 1e-13 on q = -0.5 + x, Im k = 0.5,
it is 128 cells at |k| = 3, 512 at 100, 2,048 at 1,000 and 4,096 at 3,000. M is
entire in k^2, M(conj k^2) = conj M(k^2), and built once per distinct k^2 on
Im k^2 >= 0; the Jost values at +k and -k follow from it, f(+-k,0) = e^{+-ik} M (1, +-ik).
A constant q is exact in one cell; otherwise :func:`transfer_many` doubles the
cells per k^2 until both signs meet the tolerance and Richardson-extrapolates M,
skipping the doublings its first comparison predicts at 6th order; both counts
of a comparison come from one pass. The independent representations that
cross-check this path are test oracles (``tests/jost_oracles.py``).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, IntegrationFailureError
from .potential import Potential, aligned_cells

IM_CAP = 60.0           # |Im k| cap; e^{2|Im k|} factors overflow well beyond this
DEFAULT_RTOL = 1e-12

# Gauss-Legendre nodes of order 3 on [0, 1].
_GAUSS = np.array([0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0])
_MIN_CELLS = 8          # first comparison is 16 cells against 8
_MAX_CELLS = 8192       # doubling past this raises IntegrationFailureError
_BLOCK = 2048           # cells x k per block (x3 for a pair); 1024 is 6 % slower, 16384 no faster
_RICHARDSON = 63.0      # 2^6 - 1
_JUMP_SLACK = 1.25      # a rho up to this factor above a power of 64 skips one doubling less
_ROUNDING = 4.0 * np.finfo(float).eps   # per-cell rounding of the backward solve


def _magnus_generators(h: float, q1, q2, q3):
    """Per-cell coefficients of the 6th-order Magnus generator, split by powers of k^2.

    Omega for (psi, psi')' = [[0, 1], [q - k^2, 0]] (psi, psi') over one cell of
    width h is built from alpha1 = h A(c2), alpha2 = sqrt(15)/3 h (A3 - A1) and
    alpha3 = 10/3 h (A3 - 2 A2 + A1), with A_i the coefficient matrix at the
    Gauss nodes (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 2009):
    Omega = alpha1 + alpha3/12 + [-20 alpha1 - alpha3 + C1, alpha2 + C2]/240,
    C1 = [alpha1, alpha2], C2 = -[alpha1, 2 alpha3 + C1]/60. Only alpha1 holds
    k, so the commutators reduce to Omega = [[wh, we], [wf, -wh]] with
    wh = wh0 - wh1 k^2, wf = wf0 - wf1 k^2 and we free of k. Returns the rows
    (-we, wh0, -wf0, wh1, -wf1) over the cells, as _cell_matrices takes them.
    """
    b = (math.sqrt(15.0) / 3.0 * h) * (q3 - q1)
    c = (10.0 / 3.0 * h) * (q3 - 2.0 * q2 + q1)
    bb = b * b
    hc = (h * h / 180.0) * c
    hbb = (h ** 3 / 3600.0) * bb
    wh1 = (h ** 3 / 180.0) * b
    wf1 = h + hc + hbb
    wh0 = b * ((h * h / 7200.0) * c - h / 12.0) + wh1 * q2
    wf0 = c * (1.0 / 12.0 + (h / 3600.0) * c) - (h / 120.0) * bb + wf1 * q2
    we = h - hc + hbb
    return np.array([-we, wh0, -wf0, wh1, -wf1])


def _cell_matrices(g, kk):
    """exp(-Omega) as m[i, j, ...] for Omega = [[wh, we], [wf, -wh]] from the generators g =
    (-we, wh0, -wf0, wh1, -wf1), (wh, -wf) = (wh0, -wf0) - (wh1, -wf1) k^2. Omega^2 = delta^2 I,
    so exp(-Omega) = cosh(delta) I - sinh(delta)/delta Omega (even in delta), with cosh and sinh
    of delta = x + iy from real cosh, sinh of x and cos, sin of y: cheaper than complex ones."""
    w = g[1:3] - g[3:] * kk             # wh, -wf
    d = np.sqrt(w[0] * w[0] + g[0] * w[1])
    chx, shx, cy, sy = np.cosh(d.real), np.sinh(d.real), np.cos(d.imag), np.sin(d.imag)
    m = np.empty((2, 2) + d.shape, dtype=complex)
    ch, sh = m[0, 1], m[1, 0]           # scratch until the off-diagonal is written
    np.multiply(chx, cy, out=ch.real)
    np.multiply(shx, sy, out=ch.imag)
    np.multiply(shx, cy, out=sh.real)
    np.multiply(chx, sy, out=sh.imag)
    s = sh / d if d.all() else np.divide(sh, d, out=np.ones_like(d), where=d != 0.0)
    w *= s
    np.subtract(ch, w[0], out=m[0, 0])
    np.add(ch, w[0], out=m[1, 1])
    np.multiply(s, g[0], out=m[0, 1])
    m[1, 0] = w[1]
    return m


def _product(a, b):
    """a b for stacks of 2x2 matrices a[i, j, ...], b[i, j, ...]; no axis sum (it is slower)."""
    t = a[:, :, None] * b
    return t[:, 0] + t[:, 1]


def _chain(m):
    """Ordered product m[..., 0] m[..., 1] ... over the last axis, by pairwise sweeps."""
    while m.shape[-1] > 1:
        n = m.shape[-1]
        p = _product(m[..., 0:n - 1:2], m[..., 1::2])
        m = np.concatenate([p, m[..., -1:]], axis=-1) if n % 2 else p
    return m[..., 0]


def _cell_generators(p: Potential, cells: int):
    """The generators (-we, wh0, -wf0, wh1, -wf1) of `cells` cells, [generator, slot, k^2, cell]."""
    gens = p._magnus_cells.get(cells)
    if gens is None:
        h = 1.0 / cells
        q = p._eval(((np.arange(cells) + _GAUSS[:, None]) * h).ravel()).reshape(3, cells)
        gens = _magnus_generators(h, *q).reshape(5, 1, 1, cells)
        gens.flags.writeable = False
        p._magnus_cells[cells] = gens
    return gens


def _transfer(p: Potential, kk: np.ndarray, counts: tuple):
    """M = m_0 ... m_{N-1} for each N of `counts`, (N,) or (N, 2N), as [count, row (m00, m01,
    m10, m11), k^2] for distinct kk = k^2. A pair's 2N half-cells are multiplied in pairs (the
    2N chain's first sweep) beside the N cells, in one exponential call and one chain."""
    n = counts[0]
    g = _cell_generators(p, n)
    if len(counts) > 1:
        half = _cell_generators(p, counts[1]).reshape(5, n, 2).transpose(0, 2, 1)
        g = np.concatenate([g, half[:, :, None]], axis=1)
    block = max(1, _BLOCK // kk.size)
    m = None
    for lo in range(0, n, block):
        t = _cell_matrices(g[..., lo:lo + block], kk[:, None])
        if len(counts) > 1:
            t = np.concatenate([t[:, :, :1], _product(t[:, :, 1:2], t[:, :, 2:])], axis=2)
        m = _chain(t) if m is None else _product(m, _chain(t))
    return m.reshape(4, len(counts), -1).swapaxes(0, 1)


def domain_error(ks):
    """The DomainError that :func:`transfer_many` raises for ks, or None if it takes them."""
    ks = np.asarray(ks, dtype=complex)
    if not np.isfinite(ks).all():
        return DomainError("k must be finite")
    if (np.abs(ks.imag) > IM_CAP).any():
        return DomainError(f"|Im k| exceeds the integrator cap {IM_CAP}")
    return None


def transfer_many(p: Potential, ks, rtol: float = DEFAULT_RTOL) -> np.ndarray:
    """M(k^2) over an array of k, as rows (m00, m01, m10, m11); M maps (psi, psi') at x=1 to x=0.

    M is built once per distinct k^2 folded onto Im k^2 >= 0 (from conj k, giving conj M).
    A constant q is exact in one cell. Otherwise, from the smallest knot-aligned count of at
    least 8 cells, the count doubles for every k^2 whose Jost values
    (f, f')(+-k, 0) = e^{+-ik} M (1, +-ik) still change, in |df| + |df'|/max(1,|k|) divided
    by 63, by more than rtol times |f| + |f'|/max(1,|k|) plus the rounding floor of the
    backward solve, 4 eps * cells * int_0^1 e^{2 max(0, -Im(+-k)) x} dx: where the start at
    x=1 is recessive, rounding grows like e^{2|Im k|} and a small rtol can be out of reach.
    The test runs on u = M (1, +-ik), with the floor divided by |e^{+-ik}|; the test at -k
    is the test at k with its two rows swapped, so one k per k^2 decides.
    After the first comparison the ladder jumps: with rho the smallest, over the k^2 still
    short, of the larger ratio of change to allowed change at +-k, a change that falls
    64-fold per doubling passes after a = ceil(log_64(rho / 1.25)) more (the change often
    falls faster at first), so the next pair compared is (N 2^(a-1), N 2^a), N the count
    just reached, or the largest pair under the cap. A jump that lands at or below the
    pair where plain doubling stops returns the same M as plain doubling.
    Returns the Richardson extrapolation (64 M_N - M_{N/2}) / 63 of the last two counts.
    Doubling past 8192 cells (or past twice the starting count, for grids with more knots
    than that) raises IntegrationFailureError, and so does an M of the first comparison
    that overflows (in k^2 or in the cells) to a non-finite value.
    """
    ks = np.atleast_1d(np.asarray(ks, dtype=complex))
    error = domain_error(ks)
    if error is not None:
        raise error
    if ks.size == 0:
        return np.empty((4, 0), dtype=complex)
    cells = 1 if p.kind == "constant" else aligned_cells(p, _MIN_CELLS)
    # Overflow, in k^2 or in M, shows as a non-finite M, which no cell count mends.
    with np.errstate(over="ignore", invalid="ignore"):
        # M(conj k^2) = conj M(k^2) for real q: fold k^2 onto Im >= 0 through its k.
        flip = ks.real * ks.imag < 0.0
        ks = np.where(flip, ks.conj(), ks)
        kk, first, col = np.unique(ks * ks, return_index=True, return_inverse=True)
        rung = _transfer(p, kk, (cells,) if p.kind == "constant" else (cells, 2 * cells))
    if not np.isfinite(rung).all():
        raise IntegrationFailureError("M(k^2) is not finite")
    if p.kind == "constant":
        m = rung[0][:, col]
        return np.where(flip, m.conj(), m)
    ks, (m, m2), cells = ks[first], rung, 2 * cells
    limit = max(_MAX_CELLS, cells)
    sign_ik = np.array([[1j], [-1j]]) * ks          # +ik and -ik, one row each
    weight = 1.0 / np.maximum(1.0, np.abs(ks))
    decay = sign_ik.real                             # -Im(+-k); |f| = e^{decay} |u|
    two_tau = np.maximum(2.0 * decay, 1e-300)        # expm1(t)/t is exactly 1 at 1e-300
    floor = _ROUNDING * np.expm1(two_tau) / two_tau * np.exp(-decay)
    scale = _RICHARDSON * rtol
    out = np.empty_like(m)
    active = np.arange(kk.size)
    skip = None             # the doublings to skip, from the first comparison
    while True:
        dm = m2 - m
        # The change and the size of the Jost values, in one stacked pass.
        both = np.array([dm, m2])[:, :, None]
        diff, size = (np.abs(both[:, 0] + sign_ik * both[:, 1])
                      + weight * np.abs(both[:, 2] + sign_ik * both[:, 3]))
        allowed = scale * size + cells * floor
        done = (diff <= allowed).all(axis=0)
        if done.all():
            out[:, active] = m2 + dm / _RICHARDSON
            out = out[:, col]
            return np.where(flip, out.conj(), out)
        if skip is None:
            # At 6th order each doubling cuts the change 64-fold: skip all but
            # the last of the doublings the least short k^2 needs, within the
            # cap. (rho is NaN only where every short k^2 changed by NaN.)
            rho = float(np.fmin.reduce(np.maximum(*(diff / allowed))[~done]))
            need = math.ceil(math.log(min(rho, 1e300) / _JUMP_SLACK, 64.0)) if rho > 1.0 else 1
            skip = min(need - 1, (limit // cells).bit_length() - 2)
        if done.any():
            out[:, active[done]] = m2[:, done] + dm[:, done] / _RICHARDSON
            keep = ~done
            active, m2, sign_ik, weight, floor = (active[keep], m2[:, keep], sign_ik[:, keep],
                                                  weight[keep], floor[:, keep])
        if skip > 0:
            cells <<= skip
            m, m2 = _transfer(p, kk[active], (cells, 2 * cells))
        elif 2 * cells > limit:
            raise IntegrationFailureError(
                f"{active.size} of {kk.size} k^2 values still short of rtol={rtol:.1e} "
                f"at {cells} cells")
        else:
            m, m2 = m2, _transfer(p, kk[active], (2 * cells,))[0]
        cells *= 2
        skip = 0
