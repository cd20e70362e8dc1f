"""Exact statevector simulation of the alternating cost/mixer ansatz.

The ansatz starts from the uniform superposition (ground state of the
transverse-field mixer sum_i X_i) and alternates, per layer, a diagonal
cost phase exp(-i * gamma * E_x / scale) with a single-qubit mixer
rotation RX(2 * beta) on every qubit.  The cost Hamiltonian's diagonal is
the QUBO's own energy table, ``Qubo.energy_table()``: the energy of every
basis state, indexed little-endian, so the cost phase is a plain
elementwise multiply and sampled energies equal ``Qubo.energy`` of their
bits exactly.  Every function takes that table; the qubit count is its
length's log2.

gamma is in units of 1 / scale, scale = max|table| (1 for an all-zero
table), so the cost phase turns by at most gamma whatever the QUBO's
penalty weights; layer 1's gamma is drawn from [0, 2pi), where one turn of
the largest energy lies.  Only the phase is scaled: expectations,
``LayerResult.expectation`` and sampled energies are raw QUBO energies.

An ``_Evaluator`` holds what the evaluations of one table share.  The
table has far fewer distinct energies than entries (180 of 1024 on the
10-qubit benchmark instance), so each cost phase is exp(-i * gamma * u)
over the distinct scaled energies u, keyed by bit pattern so that 0.0 and
-0.0 stay apart, gathered through the ``np.unique`` inverse index into a
phase buffer.  Equal inputs give equal outputs, so the state is
bit-identical to one exponential of gamma * (table / scale) per entry.
The ops run in the order phase 1, mixer 1, phase 2, ...; the evaluator
keeps one copy of the state taken just before the first op whose angle
(compared by bit pattern) differed from the previous call's, and the next
call resumes from it when its own first difference is no earlier, else it
restarts from the uniform state and moves the copy back.  Powell's line
searches move one direction at a time, so consecutive evaluations share
long prefixes.

The mixer applies RX(2 * beta) to up to five qubits at a time, as in the
fused multi-qubit passes of QOKit (Lykov et al., arXiv 2309.04841): the k
qubits from bit ``lo`` up are one matmul of the state, reshaped so that
they form one axis, with the 2^k x 2^k matrix RX(2 * beta)^(x k).  That
is 2 matmuls at 10 qubits where a per-qubit loop makes 30 ufunc calls.
Each matmul writes to the other of two buffers, so the result does not
depend on which buffers hold the state.  Entry (i, j) of the matrix is
c^(k-d) s^d (-i)^d, c = cos(beta), s = sin(beta), d = popcount(i ^ j), so
it has k + 1 distinct values.  Each mixer computes them per group size
and writes its matrices from them with one ``take`` through an intp
flip-count index into matrix buffers the evaluator owns.  The matmuls'
reshaped views of the retained, work and phase buffers are made once, when
the evaluator is built.

Every op runs in place on buffers the evaluator owns: the retained state,
a work state that each call refills from it and returns (valid until the
evaluator's next call), the phase buffer (which is also the mixer's
second buffer between phase ops, and holds an expectation's |psi|^2
between calls) and the inverse index, one to four bytes per entry: about
3.1 state vectors in all, and no state-sized allocation per evaluation and
expectation.  ``run_schedule`` builds one evaluator and uses it for every
optimization and every sampled state.

Parameter optimisation is local and derivative-free (Powell's
direction-set method) with the best evaluation tracked explicitly, so the
reported value never exceeds the value at the initial point.  Powell's
search, with Brent's line search, runs here (``_powell``): a port of the
one path of scipy 1.17.1's ``minimize(method="Powell", tol=1e-6)`` that
``optimize_layer`` takes, which evaluates the same points in the same
order, repeated evaluations included.  The tolerance is fixed at 1e-6;
only the evaluation budget (``OptimizerConfig.max_evals``) is a setting.
Its line search runs on Python floats, whose IEEE arithmetic gives the
values scipy's numpy scalars do.
Importing ``scipy.optimize`` for it cost about 0.5 s and 47 MB per process.
``run_schedule`` implements layer-wise parameter fixing: the optimised 2*L
parameters of the L-layer ansatz seed the (L+1)-layer search together with
gamma = beta = 0 for the new layer.  That start is a stationary point of
the expectation (the new cost phase commutes with the cost, and the new
mixer angle has the gradient of the previous one, zero at its optimum), so
a gradient method stalls there; Powell's line searches bracket outward and
leave it.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .anneal import SampleSet
from .qubo import MAX_TABLE_VARIABLES

MAX_QUBITS = MAX_TABLE_VARIABLES  # one energy-table entry per basis state
_GATHER_CHUNK = 1 << 13  # entries per cost-phase gather: 64 KiB of intp index

# qubits per mixer matmul: 5 ran faster than 3, 4, 6 and 7 at 10 and 18 qubits
_MIXER_GROUP = 5
_QUARTER_TURNS = np.array([1.0, -1j, -1.0, 1j])  # (-i)^d by d mod 4
_DOUBLE = struct.Struct("d")

StateVector = np.ndarray


@dataclass(frozen=True)
class QaoaParams:
    gammas: tuple[float, ...]
    betas: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        if len(self.gammas) != len(self.betas) or not self.gammas:
            raise ValueError("need equally many gammas and betas, at least one layer")

    @property
    def layers(self) -> int:
        return len(self.gammas)

    def extended(self) -> "QaoaParams":
        """These angles with a zero-angle layer appended."""
        return QaoaParams(self.gammas + (0.0,), self.betas + (0.0,))

    @classmethod
    def from_flat(cls, x: Sequence[float]) -> "QaoaParams":
        values = x.tolist() if isinstance(x, np.ndarray) else list(x)
        half = len(values) // 2
        return cls(tuple(values[:half]), tuple(values[half:]))

    def to_flat(self) -> np.ndarray:
        return np.array(self.gammas + self.betas, dtype=np.float64)


@dataclass(frozen=True)
class OptimizerConfig:
    max_evals: int = 1000

    def __post_init__(self) -> None:
        evals = self.max_evals
        if not isinstance(evals, int) or isinstance(evals, bool) or evals < 1:
            raise ValueError(f"max_evals must be an integer >= 1, got {evals!r}")


@dataclass(frozen=True)
class LayerResult:
    layer: int
    params: QaoaParams
    expectation: float
    samples: SampleSet

    def to_json_dict(self) -> dict:
        doc = self.samples.to_json_dict()
        doc.update(
            layer=self.layer,
            gammas=list(self.params.gammas),
            betas=list(self.params.betas),
            expectation=self.expectation,
        )
        return doc


def _check_size(num_qubits: int) -> None:
    if num_qubits > MAX_QUBITS:
        raise ValueError(f"{num_qubits} qubits exceed the statevector limit of {MAX_QUBITS}")
    if num_qubits < 1:
        raise ValueError("need at least one qubit")


def _num_qubits(energy_table: np.ndarray) -> int:
    """Qubit count of a 2^n-entry energy table, checked against the limits."""
    size = len(energy_table)
    nq = size.bit_length() - 1
    if size < 1 or size != 1 << nq:
        raise ValueError(f"energy table has {size} entries, not a power of two")
    _check_size(nq)
    return nq


def _uniform_amplitude(num_qubits: int) -> float:
    return 1.0 / np.sqrt(1 << num_qubits)


def uniform_state(num_qubits: int) -> StateVector:
    _check_size(num_qubits)
    return np.full(1 << num_qubits, _uniform_amplitude(num_qubits), dtype=np.complex128)


@functools.cache
def _group_pattern(group: int) -> tuple[np.ndarray, ...]:
    """What a group of ``group`` qubits' mixer matrix is built from: per flip
    count d = 0..group, the exponents group - d of cos and d of sin and
    (-i)^d; and the intp index d = popcount(i ^ j) for i, j < 2^group."""
    d = np.arange(group + 1)
    index = np.arange(1 << group, dtype=np.uint8)
    differ = index[:, None] ^ index[None, :]
    flips = sum((differ >> bit) & 1 for bit in range(group)).astype(np.intp)
    pattern = group - d, d, _QUARTER_TURNS[d % 4], flips
    for array in pattern:  # shared by every call
        array.flags.writeable = False
    return pattern


def _mixer_coefficients(beta: float, group: int) -> np.ndarray:
    """c^(group - d) * (-i*s)^d for d = 0..group, c = cos(beta), s = sin(beta):
    entry (i, j) of RX(2*beta)^(x group) is the one at d = popcount(i ^ j)."""
    cos_exp, sin_exp, turns, _ = _group_pattern(group)
    return math.cos(beta) ** cos_exp * math.sin(beta) ** sin_exp * turns


def _mixer_groups(num_qubits: int) -> list[tuple[int, int]]:
    """(bit offset lo, qubit count k) of each mixer matmul."""
    return [(lo, min(_MIXER_GROUP, num_qubits - lo)) for lo in range(0, num_qubits, _MIXER_GROUP)]


def _group_views(psi: StateVector) -> list[np.ndarray]:
    """The view of ``psi`` each group's matmul reads or writes: shape
    (-1, 2^k) at ``lo`` 0 and (-1, 2^k, 2^lo) above."""
    if not psi.flags.c_contiguous:
        raise ValueError("the mixer needs C-contiguous buffers")
    return [
        psi.reshape((-1, 1 << k) if lo == 0 else (-1, 1 << k, 1 << lo))
        for lo, k in _mixer_groups(len(psi).bit_length() - 1)
    ]


def _mix(matrices: list[np.ndarray], psi: list[np.ndarray], scratch: list[np.ndarray]) -> bool:
    """One matmul per group, ``psi`` @ U at ``lo`` 0 and U @ ``psi`` above,
    each writing to the other of the two states' group views; true when the
    result ends in ``scratch`` (an odd number of groups)."""
    src, dst = psi, scratch
    for g, matrix in enumerate(matrices):
        if g == 0:
            np.matmul(src[0], matrix, out=dst[0])
        else:
            np.matmul(matrix, src[g], out=dst[g])
        src, dst = dst, src
    return src is scratch


def _same_bits(x: float, y: float) -> bool:
    """Whether floats ``x`` and ``y`` have the same bit pattern: 0.0 and -0.0
    differ, and a NaN matches only the same NaN."""
    if x == y:
        return x != 0.0 or math.copysign(1.0, x) == math.copysign(1.0, y)
    return x != x and y != y and _DOUBLE.pack(x) == _DOUBLE.pack(y)


class _Evaluator:
    """Ansatz states of one energy table, each resumed from the retained
    state of the longest prefix of ops it shares with the previous call."""

    def __init__(self, energy_table: np.ndarray) -> None:
        self.num_qubits = _num_qubits(energy_table)
        table = np.ascontiguousarray(energy_table, dtype=np.float64)
        levels, inverse = np.unique(table.view(np.int64), return_inverse=True)
        levels = levels.view(np.float64)
        # gamma is in units of 1 / max|table|; an all-zero table phases with
        # its raw levels
        self.scale = float(np.abs(levels).max()) or 1.0
        self._levels = levels / self.scale
        self._index = inverse.astype(np.min_scalar_type(len(levels) - 1))
        self._phase = np.empty(len(table), dtype=np.complex128)
        self._angles: list[float] = []  # interleaved angles of the previous call
        self._saved = uniform_state(self.num_qubits)
        self._saved_at = 0  # ops already applied to _saved
        self._work = np.empty_like(self._saved)
        # ndarray.take casts the index it is given to intp, so the gather goes
        # through slices that bound that copy
        self._gather = [
            (self._index[lo : lo + _GATHER_CHUNK], self._phase[lo : lo + _GATHER_CHUNK])
            for lo in range(0, len(table), _GATHER_CHUNK)
        ]
        # the phase buffer is free between phase ops: it is the mixer's
        # scratch state, and between calls the first half of its bytes holds
        # the expectation's |psi|^2
        self.probs = self._phase.view(np.float64)[: len(table)]
        # the matmul views of the retained, work and scratch states
        self._saved_views = _group_views(self._saved)
        self._work_views = _group_views(self._work)
        self._scratch_views = _group_views(self._phase)
        # (group size, flip-count index, matrix buffer) per group size; each
        # mixer op rewrites the buffers from its own angle's coefficients
        groups = _mixer_groups(self.num_qubits)
        matrices = {k: np.empty((1 << k, 1 << k), dtype=np.complex128) for _, k in groups}
        self._matrices = [(k, _group_pattern(k)[3], matrix) for k, matrix in matrices.items()]
        self._group_matrices = [matrices[k] for _, k in groups]

    def state(self, params: QaoaParams) -> StateVector:
        """The ansatz state of ``params``: the evaluator's work state, valid
        until its next call."""
        angles = [a for layer in zip(params.gammas, params.betas) for a in layer]
        first = min(len(angles), len(self._angles))
        for op, (new, old) in enumerate(zip(angles, self._angles)):
            if not _same_bits(new, old):
                first = op
                break
        if first < self._saved_at:
            self._saved.fill(_uniform_amplitude(self.num_qubits))
            self._saved_at = 0
        self._run(self._saved, self._saved_views, angles, self._saved_at, first)
        self._saved_at = first
        self._angles = angles
        np.copyto(self._work, self._saved)
        return self._run(self._work, self._work_views, angles, first, len(angles))

    def _run(
        self,
        psi: StateVector,
        views: list[np.ndarray],
        angles: list[float],
        start: int,
        stop: int,
    ) -> StateVector:
        """Apply ops ``start`` to ``stop`` - 1 to ``psi``, whose group views
        are ``views``, in place."""
        for op in range(start, stop):
            if op % 2 == 0:
                phase = np.exp(-1j * angles[op] * self._levels)
                # the inverse index is always in range; "clip" skips the
                # checked path, which buffers the whole output
                for index, out in self._gather:
                    phase.take(index, out=out, mode="clip")
                psi *= self._phase
            else:
                self._mixer(psi, views, angles[op])
        return psi

    def _mixer(self, psi: StateVector, views: list[np.ndarray], beta: float) -> None:
        """RX(2 * beta) on every qubit of ``psi`` in place, ``_MIXER_GROUP``
        qubits per matmul; ``views`` are ``psi``'s group views."""
        for k, flips, matrix in self._matrices:
            _mixer_coefficients(beta, k).take(flips, out=matrix, mode="clip")
        if _mix(self._group_matrices, views, self._scratch_views):
            np.copyto(psi, self._phase)


def apply_ansatz(
    energy_table: np.ndarray, params: QaoaParams, _evaluator: _Evaluator | None = None
) -> StateVector:
    """Prepare the layered ansatz state for the given cost diagonal and angles.

    Each gamma is in units of 1 / max|table| (1 for an all-zero table), and
    each mixer is RX(2 * beta) on every qubit, applied five qubits per
    matmul (see the module docstring).

    ``_evaluator``, an ``_Evaluator`` of the same table, lets repeated calls
    share their set-up and resume from the previous call's state; the state
    returned is then its work state, overwritten by its next call, and is
    bit-identical to a fresh evaluator's.  Without one, the returned array
    belongs to the caller alone.
    """
    if _evaluator is None:
        _evaluator = _Evaluator(energy_table)
    return _evaluator.state(params)


def expectation(
    energy_table: np.ndarray, psi: StateVector, _out: np.ndarray | None = None
) -> float:
    """<psi| H |psi> including the constant offset, comparable to QUBO energies.

    ``_out``, a float64 array of the state's size that does not overlap
    ``psi``, such as an ``_Evaluator``'s ``probs``, receives |psi|^2 in
    place of a new array.
    """
    if psi.shape != energy_table.shape:
        raise ValueError("state vector and energy table sizes differ")
    probs = np.abs(psi, out=_out)
    np.square(probs, out=probs)
    return float(probs @ energy_table)


def sample_state(
    psi: StateVector, reads: int, seed: int, energy_table: np.ndarray
) -> SampleSet:
    """Draw bitstrings from |psi|^2 by inverse-CDF sampling."""
    if reads < 1:
        raise ValueError("reads must be >= 1")
    if psi.shape != energy_table.shape:
        raise ValueError("state vector and energy table sizes differ")
    nq = _num_qubits(energy_table)
    probs = np.abs(psi) ** 2
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(psi), size=reads, p=probs)
    states = np.empty((reads, nq), dtype=np.uint8)
    for i in range(nq):
        states[:, i] = (picks >> i) & 1
    return SampleSet.from_states(states, energy_table[picks], "qaoa", seed)


# Powell's search below is ported from scipy's optimize/_optimize.py, scipy
# 1.17.1 (_minimize_powell, _linesearch_powell, Brent, bracket and
# _recover_from_bracket_error), cut down to the one path optimize_layer
# takes.  It evaluates the same points in the same order.  SciPy's licence:
#
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions
# are met:
#
# 1. Redistributions of source code must retain the above copyright
#    notice, this list of conditions and the following disclaimer.
#
# 2. Redistributions in binary form must reproduce the above
#    copyright notice, this list of conditions and the following
#    disclaimer in the documentation and/or other materials provided
#    with the distribution.
#
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived
#    from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

_GOLD = 1.618034  # the bracket's growth ratio
_CGOLD = 0.3819660  # Brent's golden-section fraction
_MINTOL = 1.0e-11  # Brent's absolute tolerance
_TINY = 1e-21  # the bracket's smallest parabola denominator
_GROW_LIMIT = 110.0
_BRACKET_ITERS = 1000
_BRENT_ITERS = 500
_POWELL_TOL = 1e-6  # scipy's ``tol``: Brent's relative tolerance is 100 times it


class _OutOfEvals(Exception):
    """Raised by the evaluation that would pass the budget; ends the search."""


def _bracket(f: Callable) -> tuple:
    """scipy's ``bracket(f, 0.0, 1.0)``: (xa, xb, xc, fa, fb, fc, valid),
    ``valid`` true when fb lies below fa and fc, one strictly, at strictly
    ordered finite points."""
    xa, xb = 0.0, 1.0
    fa = f(xa)
    fb = f(xb)
    if fa < fb:
        xa, xb, fa, fb = xb, xa, fb, fa
    xc = xb + _GOLD * (xb - xa)
    fc = f(xc)
    iterations = 0
    while fc < fb:
        tmp1 = (xb - xa) * (fb - fc)
        tmp2 = (xb - xc) * (fb - fa)
        val = tmp2 - tmp1
        denom = 2.0 * _TINY if abs(val) < _TINY else 2.0 * val
        w = xb - ((xb - xc) * tmp2 - (xb - xa) * tmp1) / denom
        wlim = xb + _GROW_LIMIT * (xc - xb)
        if iterations > _BRACKET_ITERS:
            raise RuntimeError("no valid bracket was found before the iteration limit")
        iterations += 1
        if (w - xc) * (xb - w) > 0.0:
            fw = f(w)
            if fw < fc:
                xa, xb, fa, fb = xb, w, fb, fw
                break
            if fw > fb:
                xc, fc = w, fw
                break
            w = xc + _GOLD * (xc - xb)
            fw = f(w)
        elif (w - wlim) * (wlim - xc) >= 0.0:
            w = wlim
            fw = f(w)
        elif (w - wlim) * (xc - w) > 0.0:
            fw = f(w)
            if fw < fc:
                xb, xc, fb, fc = xc, w, fc, fw
                w = xc + _GOLD * (xc - xb)
                fw = f(w)
        else:
            w = xc + _GOLD * (xc - xb)
            fw = f(w)
        xa, xb, xc, fa, fb, fc = xb, xc, w, fb, fc, fw
    valid = (
        ((fb < fc and fb <= fa) or (fb < fa and fb <= fc))
        and (xa < xb < xc or xc < xb < xa)
        and math.isfinite(xa) and math.isfinite(xb) and math.isfinite(xc)
    )
    return xa, xb, xc, fa, fb, fc, valid


def _brent(f: Callable, tol: float) -> tuple:
    """(x, f(x)) at the minimum Brent's method finds from ``_bracket(f)``.
    Without a valid bracket it is the lowest of the bracket's three points,
    or NaN if any of them or their values is NaN."""
    xa, xb, xc, fa, fb, fc, valid = _bracket(f)
    if not valid:
        xs, fs = [xa, xb, xc], [fa, fb, fc]
        if any(math.isnan(v) for v in xs + fs):
            return math.nan, math.nan
        best = fs.index(min(fs))
        return xs[best], fs[best]
    x = w = v = xb
    fw = fv = fx = fb
    a, b = (xa, xc) if xa < xc else (xc, xa)
    deltax = 0.0
    # the first iteration takes the golden-section step, which sets rat
    for _ in range(_BRENT_ITERS):
        tol1 = tol * abs(x) + _MINTOL
        tol2 = 2.0 * tol1
        xmid = 0.5 * (a + b)
        if abs(x - xmid) < (tol2 - 0.5 * (b - a)):
            break
        if abs(deltax) <= tol1:
            deltax = a - x if x >= xmid else b - x
            rat = _CGOLD * deltax
        else:  # a parabolic step, if it is useful
            tmp1 = (x - w) * (fx - fv)
            tmp2 = (x - v) * (fx - fw)
            p = (x - v) * tmp2 - (x - w) * tmp1
            tmp2 = 2.0 * (tmp2 - tmp1)
            if tmp2 > 0.0:
                p = -p
            tmp2 = abs(tmp2)
            dx_temp = deltax
            deltax = rat
            if (
                p > tmp2 * (a - x)
                and p < tmp2 * (b - x)
                and abs(p) < abs(0.5 * tmp2 * dx_temp)
            ):
                rat = p * 1.0 / tmp2
                u = x + rat
                if (u - a) < tol2 or (b - u) < tol2:
                    rat = tol1 if xmid - x >= 0 else -tol1
            else:
                deltax = a - x if x >= xmid else b - x
                rat = _CGOLD * deltax
        if abs(rat) < tol1:  # move by at least tol1
            u = x + tol1 if rat >= 0 else x - tol1
        else:
            u = x + rat
        fu = f(u)
        if fu > fx:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, w, fv, fw = w, u, fw, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
        else:
            if u >= x:
                a = x
            else:
                b = x
            v, w, x, fv, fw, fx = w, x, u, fw, fx, fu
    return x, fx


def _powell(
    func: Callable[[np.ndarray], float], x0: np.ndarray, tol: float, max_evals: int
) -> None:
    """Call ``func`` at the points, and in the order, of scipy's
    ``minimize(func, x0, method="Powell", tol=tol, options={"maxfev":
    max_evals})``, no bounds; the call that would pass ``max_evals`` ends
    the search.  Each point is a new array."""
    evals = 0

    def f(x: np.ndarray) -> float:
        nonlocal evals
        if evals >= max_evals:
            raise _OutOfEvals
        evals += 1
        return func(x)

    def line_search(p: np.ndarray, xi: np.ndarray, fval: float) -> tuple:
        """(value, point, step) of Brent's minimum along ``xi`` from ``p``."""
        if not np.any(xi):
            return fval, p, xi
        alpha, fret = _brent(lambda step: f(p + step * xi), tol * 100)
        xi = alpha * xi
        return fret, p + xi, xi

    x = np.asarray(x0).flatten()
    direc = np.eye(len(x), dtype=float)
    try:
        fval = f(x)
        x1 = x.copy()
        while True:
            fx = fval
            bigind = 0
            delta = 0.0
            for i in range(len(x)):
                fx2 = fval
                fval, x, _ = line_search(x, direc[i], fval)
                if (fx2 - fval) > delta:
                    delta = fx2 - fval
                    bigind = i
            bnd = tol * (abs(fx) + abs(fval)) + 1e-20
            if 2.0 * (fx - fval) <= bnd or evals >= max_evals:
                return
            if math.isnan(fx) and math.isnan(fval):  # in a NaN region
                return
            # the extrapolated point, and the direction of the whole sweep
            direc1 = x - x1
            x1 = x.copy()
            fx2 = f(x + direc1)
            if fx > fx2:
                t = 2.0 * (fx + fx2 - 2.0 * fval)
                temp = fx - fval - delta
                t *= temp * temp
                temp = fx - fx2
                t -= delta * temp * temp
                if t < 0.0:
                    fval, x, direc1 = line_search(x, direc1, fval)
                    if np.any(direc1):
                        direc[bigind] = direc[-1]
                        direc[-1] = direc1
    except _OutOfEvals:
        return


def optimize_layer(
    energy_table: np.ndarray,
    init: QaoaParams,
    cfg: OptimizerConfig | None = None,
    _evaluator: _Evaluator | None = None,
) -> tuple[QaoaParams, float]:
    """Local derivative-free minimisation of the ansatz expectation with
    Powell's method, at most ``cfg.max_evals`` evaluations after the one at
    ``init``.

    Returns the best parameters seen over all evaluations, so the result is
    never worse than the initial point.  ``_evaluator`` is as in
    :func:`apply_ansatz`.
    """
    cfg = cfg or OptimizerConfig()
    evaluator = _evaluator if _evaluator is not None else _Evaluator(energy_table)
    best_x = init.to_flat()
    best_val = expectation(
        energy_table, apply_ansatz(energy_table, init, evaluator), evaluator.probs
    )

    def objective(x: np.ndarray) -> float:
        nonlocal best_x, best_val
        params = QaoaParams.from_flat(x)
        val = expectation(
            energy_table, apply_ansatz(energy_table, params, evaluator), evaluator.probs
        )
        if val < best_val:
            best_val = val
            best_x = np.array(x)
        return val

    _powell(objective, init.to_flat(), _POWELL_TOL, cfg.max_evals)
    return QaoaParams.from_flat(best_x), float(best_val)


def run_schedule(
    energy_table: np.ndarray,
    max_layers: int,
    n_inits: int = 5,
    cfg: OptimizerConfig | None = None,
    seed: int = 0,
    reads: int = 2000,
    ranker: Callable[[SampleSet], float] | None = None,
) -> list[LayerResult]:
    """Layer-fixing schedule from 1 to ``max_layers`` layers.

    The single-layer stage draws ``n_inits`` random (gamma, beta) pairs from
    [0, 2pi) x [0, pi), optimises each, samples each optimised state, and
    keeps the candidate whose samples score highest under ``ranker``
    (higher is better; the benchmark passes an approximation-ratio ranker).
    Without a ranker, candidates are ranked by lower optimised expectation.
    Each subsequent stage re-optimises all parameters starting from the
    previous optimum extended with a zero-angle layer, then samples the
    optimised state.

    gammas are in units of 1 / max|table| (see :func:`apply_ansatz`);
    expectations and sampled energies are raw QUBO energies.  For a given
    table, arguments and library versions the results are deterministic,
    and every state is bit-identical to one built by a fresh evaluator.
    """
    if max_layers < 1:
        raise ValueError("max_layers must be >= 1")
    if n_inits < 1:
        raise ValueError("n_inits must be >= 1")
    cfg = cfg or OptimizerConfig()
    rng = np.random.default_rng(seed)
    # one evaluator for every optimization and sampled state: the table is
    # sorted into energy levels once, and the resume rule keeps each state
    # bit-identical to a fresh evaluator's
    evaluator = _Evaluator(energy_table)

    candidates = [
        QaoaParams((rng.uniform(0.0, 2.0 * np.pi),), (rng.uniform(0.0, np.pi),))
        for _ in range(n_inits)
    ]
    sample_seeds = [int(rng.integers(0, 2**63)) for _ in range(n_inits + max_layers - 1)]

    best_candidate: tuple[float, QaoaParams, float, SampleSet] | None = None
    for k, cand in enumerate(candidates):
        params, value = optimize_layer(energy_table, cand, cfg, evaluator)
        psi = apply_ansatz(energy_table, params, evaluator)
        samples = sample_state(psi, reads, sample_seeds[k], energy_table)
        score = ranker(samples) if ranker is not None else -value
        if best_candidate is None or score > best_candidate[0]:
            best_candidate = (score, params, value, samples)

    _, params, value, samples = best_candidate
    results = [LayerResult(layer=1, params=params, expectation=value, samples=samples)]
    for layer in range(2, max_layers + 1):
        init = results[-1].params.extended()
        params, value = optimize_layer(energy_table, init, cfg, evaluator)
        psi = apply_ansatz(energy_table, params, evaluator)
        samples = sample_state(psi, reads, sample_seeds[n_inits + layer - 2], energy_table)
        results.append(LayerResult(layer=layer, params=params, expectation=value, samples=samples))
    return results
