"""Integer chains representing zero and their height sequences; the zero
chains below the chain of a singularity model, which index the
components of the reduced versal base; and the T-singularity test read
off them.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

from .lattice import InvariantError
from .cqs import CqsModel
from .record import Record


class ZeroChain(Record):
    """A chain whose continued fraction is defined and evaluates to zero,
    with nonnegative heights; indexes a reduced versal base component.

    The heights are alpha_1 = 0, alpha_2 = 1 and alpha_{i-1} + alpha_{i+1}
    = k_i * alpha_i; a zero chain has alpha_e = 0.
    """

    __slots__ = ()

    def __new__(cls, k: tuple[int, ...], alpha: tuple[int, ...]):
        return tuple.__new__(cls, (k, alpha))

    def alpha_at(self, i: int) -> int:
        """alpha_i with the 1-based indexing alpha_1..alpha_e."""
        return self.alpha[i - 1]

    def k_at(self, i: int) -> int:
        """k_i with 2 <= i <= e-1."""
        return self.k[i - 2]


def zero_chains_bounded(bounds: Sequence[int]) -> list[ZeroChain]:
    """All chains k with 1 <= k_i <= bounds[i] representing zero, in
    lexicographic order.

    Depth-first search over the heights alpha, with the chain and the
    heights as stacks: at each position k runs up from the least entry
    that keeps the next interior height at least 1, and the final entry
    must bring the last height to exactly 0.
    """
    m = len(bounds)
    out: list[ZeroChain] = []
    if m == 0:
        return out
    make = ZeroChain._make
    # chain[pos] is the entry last tried at pos; on entering pos it is set
    # one below the least entry that keeps the next height at least 1.
    chain = [0] * m
    alpha = [0, 1] + [0] * m  # alpha_1 .. alpha_e
    pos = 0
    while pos >= 0:
        a_prev, a_cur = alpha[pos], alpha[pos + 1]
        if pos == m - 1:
            # alpha_e = k*a_cur - a_prev must equal 0.
            k_last, rest = divmod(a_prev, a_cur)
            if not rest and 1 <= k_last <= bounds[pos]:
                chain[pos] = k_last
                out.append(make((tuple(chain), tuple(alpha))))
            pos -= 1
            continue
        k = chain[pos] + 1
        if k > bounds[pos]:
            pos -= 1
            continue
        chain[pos] = k
        alpha[pos + 2] = k * a_cur - a_prev
        pos += 1
        chain[pos] = alpha[pos] // alpha[pos + 1]
    return out


def enumerate_K(model: CqsModel) -> list[ZeroChain]:
    """All zero chains below the model's chain, lexicographically ordered."""
    return list(model.cached("K", zero_chains_bounded, model.a_chain))


def is_t_singularity(model: CqsModel) -> bool:
    """Whether Y_(n,q) admits a Q-Gorenstein one-parameter smoothing.

    Criterion: the chain (a_2,...,a_{e-1}) equals some zero-chain k except
    at a single index h, where a_h = k_h + m with m >= 0.  Every call
    checks the answer against the arithmetic criterion ksb_t_singularity
    and raises InvariantError when the two disagree.
    """
    a = model.a_chain
    found = any(
        sum(k_i != a_i for k_i, a_i in zip(zc.k, a)) <= 1 for zc in enumerate_K(model)
    )
    if found != ksb_t_singularity(model.n, model.q):
        raise InvariantError(
            f"Y_({model.n},{model.q}): the zero chains and the KSB criterion "
            "disagree on whether it is a T-singularity"
        )
    return found


def ksb_t_singularity(n: int, q: int) -> bool:
    """The criterion of Kollar and Shepherd-Barron for 0 < q < n - 1:
    Y_(n,q) is a T-singularity exactly when n = d*m^2 and q = d*m*a - 1
    with m >= 2, d >= 1, 0 < a < m and gcd(a, m) = 1."""
    m = 2
    while m * m <= n:
        if not n % (m * m):
            a, rest = divmod(q + 1, n // m)  # n // m = d*m
            if not rest and 0 < a < m and gcd(a, m) == 1:
                return True
        m += 1
    return False
