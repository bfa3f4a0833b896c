"""Independent reference for the benchmark's correctness checks.

Pure Python, standard library only, and written apart from the package: it
shares no code with ``dyadicsearch``. Everything is kept in log space so
that budgets whose distortion underflows a double are still checked.

For a bit sent t times, E[Var(X_k | Y^t)] is the direct sum over output
histograms h of P0(h) P1(h) / (2 (P0(h) + P1(h))), where Pb(h) is the
multinomial probability of h under input b. The end-to-end distortion of a
pattern t_1..t_q is

    D(t) = sum_k 4^-k V(t_k) + 4^-q / 12,

the last term being the variance of the untransmitted tail of a uniform
target. The bounds U and L use the Chernoff information C and the mean
absolute log-likelihood ratio B, both recomputed here.
"""

from __future__ import annotations

import math

LN4 = math.log(4.0)
NEG_INF = -math.inf


def logaddexp(a: float, b: float) -> float:
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def logsumexp(xs: list[float]) -> float:
    hi = max(xs, default=NEG_INF)
    if hi == NEG_INF:
        return NEG_INF
    return hi + math.log(math.fsum(math.exp(x - hi) for x in xs))


def _log(p: float) -> float:
    return math.log(p) if p > 0.0 else NEG_INF


def _histograms(t: int, m: int):
    """Every way to spread t outputs over m symbols, as tuples of counts."""
    if m == 1:
        yield (t,)
        return
    for first in range(t, -1, -1):
        for rest in _histograms(t - first, m - 1):
            yield (first,) + rest


class Reference:
    """Distortion, bounds and constants of one binary-input channel."""

    def __init__(self, f0: list[float], f1: list[float]):
        if len(f0) != len(f1) or len(f0) < 2:
            raise ValueError("f0 and f1 must be masses over the same alphabet")
        self.f0 = [float(p) for p in f0]
        self.f1 = [float(p) for p in f1]
        self.m = len(f0)
        self._lf0 = [_log(p) for p in self.f0]
        self._lf1 = [_log(p) for p in self.f1]
        self._lg: list[float] = [0.0]
        self._log_v: dict[int, float] = {}
        self.C = self._chernoff()
        self.B = math.fsum(
            0.5 * (a + b) * abs(math.log(b / a)) for a, b in zip(self.f0, self.f1)
        )
        self.r_real = LN4 / self.C
        self.r = math.floor(self.r_real)
        self.A1 = min(math.sqrt(2.0) * (self.r_real + 1.0) * self.B, LN4)
        self.A2 = math.sqrt(2.0 * self.r) * self.C

    def _chernoff(self) -> float:
        # Ternary search of the convex s -> ln sum f0^(1-s) f1^s on [0, 1].
        def g(s: float) -> float:
            return math.log(math.fsum(
                math.exp((1.0 - s) * a + s * b)
                for a, b in zip(self._lf0, self._lf1)
                if a > NEG_INF and b > NEG_INF
            ))

        lo, hi = 0.0, 1.0
        for _ in range(200):
            a = lo + (hi - lo) / 3.0
            b = hi - (hi - lo) / 3.0
            if g(a) < g(b):
                hi = b
            else:
                lo = a
        return -g(0.5 * (lo + hi))

    def _lgamma_upto(self, t: int) -> list[float]:
        while len(self._lg) <= t:
            self._lg.append(self._lg[-1] + math.log(len(self._lg)))
        return self._lg

    def log_bit_variance(self, t: int) -> float:
        """ln E[Var(X_k | Y^t)] by direct summation over output histograms."""
        if t < 0:
            raise ValueError("t must be >= 0")
        cached = self._log_v.get(t)
        if cached is not None:
            return cached
        lg = self._lgamma_upto(t)
        terms = self._binary_terms(t, lg) if self.m == 2 else self._terms(t, lg)
        value = math.log(0.5) + logsumexp(terms)
        self._log_v[t] = value
        return value

    def _terms(self, t: int, lg: list[float]) -> list[float]:
        # ln(P0 P1 / (P0 + P1)) for every histogram that leaves the bit uncertain.
        terms = []
        for h in _histograms(t, self.m):
            log_mult = lg[t] - math.fsum(lg[c] for c in h)
            lp0 = log_mult
            lp1 = log_mult
            for c, a, b in zip(h, self._lf0, self._lf1):
                if c:
                    lp0 += c * a
                    lp1 += c * b
            if lp0 > NEG_INF and lp1 > NEG_INF:
                terms.append(lp0 + lp1 - logaddexp(lp0, lp1))
        return terms

    def _binary_terms(self, t: int, lg: list[float]) -> list[float]:
        # The same sum for two symbols, unrolled: histogram (t - j, j).
        (a0, a1), (b0, b1) = self._lf0, self._lf1
        if NEG_INF in (a0, a1, b0, b1):
            return self._terms(t, lg)
        da, db, ta, tb = a1 - a0, b1 - b0, t * a0, t * b0
        log1p, exp = math.log1p, math.exp
        terms = []
        for j in range(t + 1):
            lm = lg[t] - lg[j] - lg[t - j]
            lp0 = lm + ta + j * da
            lp1 = lm + tb + j * db
            lo, hi = (lp0, lp1) if lp0 < lp1 else (lp1, lp0)
            terms.append(lo - log1p(exp(lo - hi)))
        return terms

    def log_distortion(self, pattern: list[int]) -> float:
        q = len(pattern)
        terms = [-(k + 1) * LN4 + self.log_bit_variance(tk) for k, tk in enumerate(pattern)]
        terms.append(-q * LN4 - math.log(12.0))
        return logsumexp(terms)

    def _log_bound(self, pattern: list[int], rate: float) -> float:
        q = len(pattern)
        terms = [-(k + 1) * LN4 - tk * rate for k, tk in enumerate(pattern)]
        terms.append(-q * LN4 - math.log(3.0))
        return logsumexp(terms)

    def log_upper(self, pattern: list[int]) -> float:
        return self._log_bound(pattern, self.C)

    def log_lower(self, pattern: list[int]) -> float:
        return math.log(0.25) + self._log_bound(pattern, self.B)


def histogram_count(t: int, m: int) -> int:
    """Number of output histograms of t uses over an m-symbol alphabet."""
    return math.comb(t + m - 1, m - 1)


def close(value: float, log_ref: float, rel: float = 1e-9) -> bool:
    """True when value matches exp(log_ref), allowing for underflow.

    Below the normal range a double keeps few significant digits, so values
    smaller than 1e-300 only have to agree in magnitude class.
    """
    ref = math.exp(log_ref) if log_ref > -745.0 else 0.0
    return math.isclose(value, ref, rel_tol=rel, abs_tol=1e-300)


def staircase_depth(n: int, r: int) -> int:
    """Largest q whose staircase r q (q+1) / 2 fits in n."""
    q = 0
    while r * (q + 1) * (q + 2) // 2 <= n:
        q += 1
    return q


def staircase_floor(pattern: list[int], n: int, r: int) -> bool:
    """t_k >= (q-k+1) r for every bit of the deepest staircase that fits n.

    The remainder may deepen the pattern past q, so only the first q bits
    carry a floor.
    """
    q = staircase_depth(n, r)
    return len(pattern) >= q and all(pattern[k] >= (q - k) * r for k in range(q))


def single_move_optimal(pattern: list[int], C: float, tol: float = 1e-9) -> bool:
    """No move of one use between two bits lowers U, opening bit q+1 included.

    Adding a use to bit j lowers U by w_j e^{-t_j C}(1 - e^{-C}) and taking
    one from bit i raises it by w_i e^{-(t_i-1) C}(1 - e^{-C}), with
    w_k = 4^-k. In log form, a move i -> j helps when
    j ln4 + t_j C < i ln4 + (t_i - 1) C.
    """
    q = len(pattern)
    add = [(j + 1) * LN4 + tj * C for j, tj in enumerate(pattern)]
    add.append((q + 1) * LN4)
    take = [((i + 1) * LN4 + (ti - 1) * C, i) for i, ti in enumerate(pattern) if ti >= 1]
    take.sort(reverse=True)
    order = sorted(range(len(add)), key=add.__getitem__)
    for key_take, i in take[:2]:
        j = order[0] if order[0] != i else order[1]
        if add[j] < key_take - tol:
            return False
    return True
