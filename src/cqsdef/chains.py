"""Integer chains: chains representing zero, their height sequences, the
blow-down calculus and the predicates read off it, and the chains
attached to a singularity model.  A singularity is its normal-form chain.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .lattice import InvariantError, cf_eval
from .cqs import CqsModel
from .record import Record


def alpha_seq(k: Sequence[int]) -> tuple[int, ...]:
    """Heights alpha_1..alpha_e for a chain (k_2,...,k_{e-1}).

    alpha_1 = 0, alpha_2 = 1, alpha_{i-1} + alpha_{i+1} = k_i * alpha_i.
    """
    alpha = [0, 1]
    for entry in k:
        alpha.append(entry * alpha[-1] - alpha[-2])
    return tuple(alpha)


class ZeroChain(Record):
    """A chain whose continued fraction is defined and evaluates to zero,
    with nonnegative heights; indexes a reduced versal base component.
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

    def to_json(self) -> dict:
        return {"k": list(self.k), "alpha": list(self.alpha)}


def make_zero_chain(k: Sequence[int]) -> ZeroChain:
    """Validate and wrap a chain representing zero."""
    k = tuple(k)
    alpha = alpha_seq(k)
    if alpha[-1] != 0 or any(a < 1 for a in alpha[1:-1]):
        raise ValueError(f"{k} does not represent zero with positive interior heights")
    val = cf_eval(k)
    if val != 0:
        raise InvariantError(f"continued fraction of {k} is {val}, not 0")
    return ZeroChain(k=k, alpha=alpha)


def zero_chains_bounded(bounds: Sequence[int]) -> list[ZeroChain]:
    """All chains k with 1 <= k_i <= bounds[i] representing zero, in
    lexicographic order.

    Depth-first search carrying (alpha_{i-1}, alpha_i); a branch dies as
    soon as an interior height drops below 1, and the final entry must
    bring the last height to exactly 0.
    """
    m = len(bounds)
    out: list[ZeroChain] = []
    if m == 0:
        return out

    def rec(pos: int, prefix: list[int], a_prev: int, a_cur: int) -> None:
        if pos == m - 1:
            # alpha_e = k*a_cur - a_prev must equal 0.
            if a_prev % a_cur == 0:
                k_last = a_prev // a_cur
                if 1 <= k_last <= bounds[pos]:
                    chain = tuple(prefix) + (k_last,)
                    out.append(ZeroChain(k=chain, alpha=alpha_seq(chain)))
            return
        for k in range(1, bounds[pos] + 1):
            a_next = k * a_cur - a_prev
            if a_next < 1:
                continue
            prefix.append(k)
            rec(pos + 1, prefix, a_cur, a_next)
            prefix.pop()

    rec(0, [], 0, 1)
    return out


def enumerate_K(model: CqsModel) -> list[ZeroChain]:
    """All zero chains below the model's chain, lexicographically ordered."""
    return list(model.cached("K", lambda: tuple(zero_chains_bounded(model.a_chain))))


def rdp_chain(e: int) -> tuple[int, ...]:
    """The chain of the RDP-resolution: (1,2,...,2,1), degenerating to
    (1,1) for e = 4 and (0) for e = 3."""
    if e < 3:
        raise ValueError(f"embedding dimension {e} < 3")
    if e == 3:
        return (0,)
    if e == 4:
        return (1, 1)
    return (1,) + (2,) * (e - 4) + (1,)


def blow_down_trace(chain: Sequence[int]) -> tuple[list[tuple[int, int]], tuple[int, ...]]:
    """Blow a chain down (leftmost 1 first), recording each step as
    (length before, position of the 1) so the process can be replayed as
    blow-ups.

    Returns (trace, terminal chain).  The process stops as soon as an
    entry drops below 1, the chain is (), (1) or (1, 1), or no entry is
    1.  It is one pass over the chain with a stack: every entry left of
    the leftmost 1 is at least 2, so after a blow-down the next leftmost
    1 is the decremented left neighbour or lies further right.  A chain
    whose least entry is not 1 is terminal at once, with an empty trace.
    """
    chain = tuple(chain)
    if min(chain, default=1) != 1:
        return [], chain
    rest = list(chain)
    left: list[int] = []  # the entries left of rest[i]; all but the last are >= 2
    i = 0
    trace: list[tuple[int, int]] = []
    while True:
        length = len(left) + len(rest) - i
        if length <= 2 and (length == 0 or left + rest[i:] in ([1], [1, 1])):
            return trace, tuple(left + rest[i:])
        if left and left[-1] == 1:
            i -= 1
            rest[i] = left.pop()
        else:
            try:
                j = rest.index(1, i)
            except ValueError:
                return trace, tuple(left + rest[i:])
            left += rest[i:j]
            i = j
        pos = len(left)
        trace.append((length, pos))
        i += 1  # remove the 1 and decrement its neighbours
        if pos > 0:
            left[-1] -= 1
        if pos < length - 1:
            rest[i] -= 1
            if rest[i] < 1:
                return trace, tuple(left + rest[i:])


def blow_down(chain: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Normal form of a chain under the blow-down process: () when it
    blows down to a smooth point (terminal chain (), (1) or (1, 1)), the
    terminal chain when every entry is at least 2, and None when an entry
    dropped below 1."""
    _, final = blow_down_trace(chain)
    low = min(final, default=2)
    if low < 1:
        return None
    return final if low >= 2 else ()


def is_rdp(chain: Sequence[int]) -> bool:
    """Whether a resolution-style chain is at most a rational double point:
    it blows down to the empty/smooth chain or to all 2's.
    """
    nf = blow_down(chain)
    if nf is None:
        raise ValueError(f"chain {chain} does not blow down cleanly")
    return all(c == 2 for c in nf)


def is_t_singularity(model: CqsModel) -> bool:
    """Whether Y_(n,q) admits a Q-Gorenstein one-parameter smoothing.

    Criterion: the chain (a_2,...,a_{e-1}) equals some zero-chain k except
    at a single index h, where a_h = k_h + m with m >= 0.
    """
    a = model.a_chain
    for zc in enumerate_K(model):
        diff = [i for i in range(len(a)) if zc.k[i] != a[i]]
        if len(diff) <= 1:
            return True
    return False


def blow_up_step(chain: tuple[int, ...], pos: int, length_before: int) -> tuple[int, ...]:
    """Inverse of one blow-down step: reinsert a 1 at pos into a chain that
    had length length_before before the corresponding blow-down."""
    if pos == 0:
        return (1, chain[0] + 1) + chain[1:]
    if pos == length_before - 1:
        return chain[:-1] + (chain[-1] + 1, 1)
    return chain[: pos - 1] + (chain[pos - 1] + 1, 1, chain[pos] + 1) + chain[pos + 1 :]


def chain_to_nq(chain: Sequence[int]) -> tuple[int, int]:
    """(n, q) of the singularity whose dual chain is the given normal-form
    chain: cf_eval(chain) = n/(n-q)."""
    chain = tuple(chain)
    if not chain or any(c < 2 for c in chain):
        raise ValueError(f"{chain} is not a normal-form singular chain")
    val = cf_eval(chain)
    if val is None or val <= 1:
        raise InvariantError(f"continued fraction of {chain} is {val}, not above 1")
    n, nq = val.numerator, val.denominator
    return n, n - nq


def special_k(model: CqsModel, h: int) -> ZeroChain:
    """The zero chain singled out by replacing a_h with 1 and blowing down.

    Replay: blow (a_2,...,1,...,a_{e-1}) down fully, take the RDP chain of
    the result, then blow both chains back up simultaneously.  The returned
    chain k has k_h = 1 and a_h - k_h maximal over all of K.
    """
    if not 3 <= h <= model.e - 2:
        raise ValueError(f"h = {h} must be interior (3..{model.e - 2})")
    if not any(zc.k_at(h) == 1 for zc in enumerate_K(model)):
        raise ValueError(f"no zero chain for Y_({model.n},{model.q}) has k_{h} = 1")

    a = list(model.a_chain)
    a[h - 2] = 1
    trace, final = blow_down_trace(a)
    if min(final, default=1) < 1:
        raise InvariantError(f"{tuple(a)} blew down below 1")

    k = rdp_chain(len(final) + 2)
    for length_before, pos in reversed(trace):
        k = blow_up_step(k, pos, length_before)
    if len(k) != model.e - 2 or k[h - 2] != 1:
        raise InvariantError(
            f"the replayed chain {k} is not of length {model.e - 2} with k_{h} = 1"
        )
    zc = make_zero_chain(k)
    if zc not in enumerate_K(model):
        raise InvariantError(f"the replayed chain {k} is not below the chain of the model")
    return zc
