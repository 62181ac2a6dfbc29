"""Erasure robustness: how many members of a fusion frame can be erased while a frame remains.

Each :func:`erasure_certificate` runs one :class:`_Search`; :func:`_search` also returns its record.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import NotAFusionFrame
from .numerics import _chunk_rows, _column_blocks, _read_only, _require_finite, hermitian_eigenrange, symmetrize

if TYPE_CHECKING:
    from .fusion import FusionFrame

EXHAUSTIVE_MEMBER_LIMIT = 22


@dataclass(frozen=True)
class ErasureCertificate:
    """Erasure robustness of a fusion frame up to a removal budget.

    ``certified``    largest k <= budget for which some k-subset removal
                     verifiably leaves a fusion frame (a witness subset's
                     remaining operator has positive smallest eigenvalue)
    ``universal``    largest k <= budget for which *every* k-subset
                     removal leaves a fusion frame
    ``weight_rule``  largest k <= budget certified by the weight-sum
                     rule alone: ``spans`` holds on ``[A - a - e_1/2,
                     B + e_1/2]``, ``a`` the k smallest ``v_i^2`` summed
                     (at most ``certified``: :func:`_weight_rule_level`)
    ``rule``         "weight-sum-bound" when the weight rule already
                     certifies ``certified``, "spectral" when only the
                     eigenvalue check does, "none" when nothing is
                     certified
    ``mode``         "exhaustive" (both exact) or "greedy": ``certified``
                     exact when its spanning witness reaches the dimension
                     bound, else a sound lower bound; ``universal`` a sound
                     upper bound from one removal path
    """

    budget: int
    certified: int
    universal: int
    weight_rule: int
    rule: str
    mode: str


class _Search:
    """One certificate's search state, read by every step of it: each derived array is formed once.

    ``spare = sum_i d_i - n``; ``top`` and ``hi``, at most ``budget``, are
    the most of the largest, and of the smallest, ``d_i`` whose sum fits in
    it: every removal of at most ``top`` members passes the dimension test
    ``sum_{i in J} d_i <= spare``, and none of more than ``hi`` does (the
    rest has ``rank S_J < n``).  With the Gram cutoff ``c`` and the weight
    rule's level they are computed up front; ``shifted``, ``c I - G`` in
    the member layout, and ``padded``, the :func:`_padded` synthesis as ``n
    x N d_max``, on first use, read-only.  ``scans`` holds each scanned
    level's chunks (:func:`_level`).  ``events``, the search's record, are
    tuples of counts the search holds anyway, in order, so it grows with
    the chunks, not the rows: ``("layout", g)``, a ``c I - G`` in ``g``
    slots; ``("gram", rows, side)``, a :func:`_gram_survivors` call on
    ``side``-square blocks; ``("top", level, g, certified)``, a
    :func:`_top_pass` over unions of ``level`` of ``g`` slots; ``("chunk",
    k, start, rows)``, removals ``start`` to ``start + rows - 1`` of ``k``
    members in ``itertools.combinations`` order, decided by a level scan
    (:func:`_survivors`); ``("exact", k, rows)``, removals of ``k`` members
    in one :func:`_frames_left` call; ``("witness", picks, level)``, the
    spanning witness and its count (:func:`_witness_level`); and greedy's
    ``("bracket", width)``, a secular bracket on ``width`` columns, and
    ``("near-tie", i)``, member ``i`` evaluated exactly.
    """

    def __init__(self, frame: FusionFrame, budget: int):
        dims, spare = np.sort(frame.dims), int(frame.dims.sum()) - frame.ambient_dim
        self.frame, self.budget, self.spare = frame, budget, spare
        self.top = min(budget, int((np.cumsum(dims[::-1]) <= spare).sum()))
        self.hi = min(budget, int((np.cumsum(dims) <= spare).sum()))
        self.c, self.weight_rule = _gram_cutoff(frame), _weight_rule_level(frame, budget)
        self.scans, self.events = {}, []

    @cached_property
    def shifted(self) -> np.ndarray:
        return _read_only(_shifted_gram(self, np.arange(self.frame.member_count)))

    @cached_property
    def padded(self) -> np.ndarray:
        n, N = self.frame.ambient_dim, self.frame.member_count
        return _read_only(_padded(self.frame, self.frame.synthesis, np.arange(N)).reshape(n, -1))


def _weight_rule_level(frame: FusionFrame, budget: int) -> int:
    """Largest ``k <= budget`` with ``spans(A - a_k - e_1/2, B + e_1/2)``: the weight-sum rule.

    ``a_k`` sums the ``k`` smallest ``v_i^2``, ``e_1`` is :func:`_range_error`,
    and removing ``J`` leaves ``S - a I <= S_J <= S``, ``a = sum_{i in J} v_i^2``.
    Exhaustive: the reference's range of ``S_J``, ``J`` the ``k`` smallest
    weights, lies in ``[A - a_k - e_1/2, B + e_1/2]`` (it is within ``e_1/4``
    of exact, as is ``(A, B)``), and the exact ``lambda_min > 0`` passes the
    dimension test: levels up to ``k`` have a survivor.  So greedy mode's
    witness count (:func:`_witness_level`) takes it as its floor.
    """
    erased = np.cumsum(np.sort(frame.weights**2))[:budget]
    return int(_weight_rule(frame, erased).sum())  # a prefix of levels: a_k grows


def _weight_rule(frame: FusionFrame, erased):
    """``spans(A - erased - e_1/2, B + e_1/2)``, elementwise: removing weighted energy ``erased`` leaves a frame."""
    A, B = frame._operator_range
    margin = _range_error(frame) / 2
    return frame.tol.spans(A - erased - margin, B + margin)


def _frames_left(frame: FusionFrame, H: np.ndarray) -> np.ndarray:
    """Which remaining operators ``H``, a ``(k, n, n)`` stack it overwrites, leave a frame.

    One batched ``eigvalsh`` of the symmetrized ``H`` decides each row bit
    for bit as the per-subset ``hermitian_eigenrange`` test.
    """
    H += np.conjugate(_require_finite(H)).swapaxes(1, 2)  # a new array also when H is real
    H /= 2.0  # the symmetrize() of hermitian_eigenrange, in place
    low, high = np.linalg.eigvalsh(H)[:, [0, -1]].T
    return frame.tol.spans(low, high)


def _padded(frame: FusionFrame, X: np.ndarray, label: np.ndarray) -> np.ndarray:
    """``X``, ``rows x m``, as ``(rows, g, w)``: slot ``j`` holds the columns of group ``j``'s members (``i`` in group
    ``label[i]``), then zeros, ``w`` the largest group's dimension count; ``label = arange(N)`` gives ``w = d_max``."""
    filled = [0] * (label.max() + 1)  # columns placed in each slot so far
    padded = np.zeros((len(X), len(filled), int(np.bincount(label, frame.dims).max())), X.dtype)
    for j, block in zip(label.tolist(), _column_blocks(X, frame.offsets)):
        padded[:, j, filled[j] : filled[j] + block.shape[1]] = block
        filled[j] += block.shape[1]
    return padded


def _range_error(frame: FusionFrame) -> float:
    """``e_1 = 4 (n^2 + 2 m + 8) eps tr S`` of :func:`_exhaustive_levels`; computed ranges lie within ``e_1/4``."""
    n, m = frame.ambient_dim, frame.dims.sum()
    return 4 * (n * n + 2 * m + 8) * (np.finfo(float).eps * frame.operator.trace().real)


def _gram_error(frame: FusionFrame) -> float:
    """``e_2 = 16 (m n + n^2 + (W + 1)^2) eps sqrt(t/A)`` of :func:`_exhaustive_levels`; ``G`` lies within ``e_2/4``."""
    n, m, W = frame.ambient_dim, frame.dims.sum(), frame.member_count * frame.dims.max()
    t_over_a = frame.operator.trace().real / frame._operator_range[0]
    return 16 * (m * n + n * n + (W + 1) ** 2) * np.finfo(float).eps * np.sqrt(t_over_a)


def _gram_cutoff(frame: FusionFrame) -> float:
    """The cutoff ``c`` of :func:`_exhaustive_levels`; no Gram block is certified when ``c <= 0``."""
    A, B = frame._operator_range
    return 1.0 - (frame.tol.floor(B) + _range_error(frame)) / A - _gram_error(frame)


def _shifted_gram(search: _Search, label: np.ndarray) -> np.ndarray:
    """``c I - G`` of :func:`_exhaustive_levels` in :func:`_padded` slots: ``G = Y* Y``, ``Y`` the padded ``Z*``."""
    frame = search.frame
    Y = _padded(frame, frame._synthesis_factor[0].conj().T, label).reshape(frame.ambient_dim, -1)
    G = symmetrize(Y.conj().T @ Y)
    search.events.append(("layout", int(label.max()) + 1))
    return search.c * np.eye(len(G)) - G


def _gram_survivors(search: _Search, shifted: np.ndarray, width: int, J: np.ndarray) -> np.ndarray:
    """Which rows ``J`` of slots, removals or unions of groups, their ``c I - G_JJ`` blocks of ``shifted`` certify.

    One batched Cholesky certifies every row; when it declines, one batched
    ``eigvalsh`` certifies the rows it finds positive.  Either gives
    ``lambda_max(G_JJ) <= c + (s + 1)^2 eps`` on an ``s``-square block: the
    Cholesky backward error is ``(s + 1) s eps``, that of ``eigvalsh``
    ``s^2 eps``, and rounding ``c - G_ii`` adds ``eps``.
    """
    search.events.append(("gram", len(J), J.shape[1] * width))
    idx = _padded_columns(J, width)
    blocks = np.take(shifted, idx[:, :, None] * len(shifted) + idx[:, None, :])
    try:
        np.linalg.cholesky(blocks)
    except np.linalg.LinAlgError:
        return np.linalg.eigvalsh(blocks)[:, 0] > 0.0
    return np.ones(len(J), bool)


def _padded_columns(J: np.ndarray, width: int) -> np.ndarray:
    """The columns of the slots in each row of ``J`` in a :func:`_padded` ``rows x g width`` matrix, row by row."""
    return (J[:, :, None] * width + np.arange(width)).reshape(len(J), -1)


def _exact_frames_left(search: _Search, J: np.ndarray) -> np.ndarray:
    """:func:`_frames_left` on ``S_J = S - Y_J Y_J*`` for each row of ``J``, by chunks within ``CHUNK_BYTES``;
    ``Y_J`` holds the columns of ``J``'s members in the search's ``padded`` synthesis."""
    frame, padded = search.frame, search.padded
    n, width = frame.ambient_dim, frame.dims.max()
    rows = _chunk_rows(n * max(n, J.shape[1] * width), padded.itemsize)
    left = np.empty(len(J), bool)
    for start in range(0, len(J), rows):
        search.events.append(("exact", J.shape[1], min(rows, len(J) - start)))
        Y = padded[:, _padded_columns(J[start : start + rows], width)].swapaxes(0, 1)
        H = Y @ Y.conj().swapaxes(1, 2)
        left[start : start + rows] = _frames_left(frame, np.subtract(frame.operator, H, out=H))
    return left


def _subset_chunks(N: int, k: int, rows: int):
    """``itertools.combinations(range(N), k)`` as arrays of at most ``rows`` rows."""
    indices = itertools.chain.from_iterable(itertools.combinations(range(N), k))
    while len(J := np.fromiter(itertools.islice(indices, rows * k), np.intp).reshape(-1, k)):
        yield J


def _member_groups(dims: np.ndarray, top: int, spare: int) -> np.ndarray:
    """Each member's group, packed first-fit decreasing into groups of at most ``spare // top`` dimensions.

    For a level ``top >= 2`` whose ``top`` largest ``d_i`` sum to at most
    ``spare``.  A member above that capacity is a group of its own.  Every
    member is its own group, in member order, unless the packing merges
    some, its ``top`` largest groups hold at most ``spare`` dimensions, and
    the ``C(g, top)`` union blocks of :func:`_top_pass`, side ``top w`` for
    the largest group's ``w`` dimensions, have ``C(g, top) w^2 <= C(N, top)
    d_max^2 / 2``.  So any union of ``top`` groups passes the dimension test
    either way, and ``top w <= spare < N d_max`` unless a member above the
    capacity makes ``w = d_max``.
    """
    N, capacity = len(dims), spare // top
    label, loads = np.empty(N, np.intp), []
    for i in sorted(range(N), key=lambda i: -dims[i]):
        label[i] = next((j for j, load in enumerate(loads) if load + dims[i] <= capacity), len(loads))
        if label[i] == len(loads):
            loads.append(0)
        loads[label[i]] += int(dims[i])
    g, w, d = len(loads), max(loads), int(dims.max())
    if g == N or sum(sorted(loads)[-top:]) > spare or 2 * math.comb(g, top) * w * w > math.comb(N, top) * d * d:
        return np.arange(N)
    return label


def _top_pass(search: _Search, label: np.ndarray) -> bool:
    """Whether :func:`_gram_survivors` certifies every union of ``top`` of ``label``'s groups on ``c I - G`` in
    their slots, chunk by chunk (one array, one Cholesky each), up to the first chunk it does not wholly certify."""
    g, top = int(label.max()) + 1, search.top
    shifted = search.shifted if g == len(label) else _shifted_gram(search, label)
    width = len(shifted) // g
    rows = _chunk_rows((top * width) ** 2, shifted.itemsize)
    certified = all(_gram_survivors(search, shifted, width, J).all() for J in _subset_chunks(g, top, rows))
    search.events.append(("top", top, g, certified))
    return certified


def _survivors(search: _Search, k: int):
    """Per chunk of the removals of ``k`` members in ``itertools.combinations`` order, which leave a frame.

    The dimension test fails rows unseen, :func:`_gram_survivors` certifies rows when ``c > 0``, and
    :func:`_exact_frames_left` decides the rest.
    """
    frame, c = search.frame, search.c
    dims, width = frame.dims, int(frame.dims.max())
    rows = _chunk_rows((k * width if c > 0.0 else frame.ambient_dim) ** 2, frame.synthesis.itemsize)
    for i, J in enumerate(_subset_chunks(frame.member_count, k, rows)):
        search.events.append(("chunk", k, i * rows, len(J)))
        alive = np.zeros(len(J), bool)
        undecided = dims[J].sum(axis=1) <= search.spare
        if c > 0.0 and undecided.any():
            alive[undecided] = _gram_survivors(search, search.shifted, width, J[undecided])
            undecided &= ~alive
        if undecided.any():
            alive[undecided] = _exact_frames_left(search, J[undecided])
        yield alive


def _level(search: _Search, k: int, every: bool) -> bool:
    """Whether every (``every``) or some removal of ``k`` members leaves a frame, by :func:`_survivors`' chunks up to
    the first that settles it.  Each is decided once: a second question on the level reads the chunks decided so far
    and goes on from there."""
    scan = search.scans.setdefault(k, [_survivors(search, k), False, True])  # its chunks, some alive, all alive
    while scan[1 + every] == every and (alive := next(scan[0], None)) is not None:
        scan[1:] = scan[1] or alive.any(), scan[2] and alive.all()
    return bool(scan[1 + every])


def _exhaustive_levels(search: _Search) -> tuple[int, int]:
    """``certified`` and ``universal`` from every removal of up to ``budget`` members.

    ``universal`` asks whether every removal of ``k`` members leaves a frame,
    ``certified`` whether some removal does; each is its own search below.  A
    level's removals are decided in ``itertools.combinations`` order, by
    chunks (:func:`_survivors`), each chunk once (:func:`_level`).  ``sum_{i
    in J} d_i > sum_i d_i - n`` fails unseen (``rank S_J < n``), so no level
    above ``hi`` (:class:`_Search`) is enumerated.  The rest are decided on
    ``G = T* S^-1 T``, the projection onto the range of ``T*``, formed with
    ``d_max`` columns per member, or in the slots of member groups
    (:func:`_padded`) for the top pass below (a zero column of ``T`` adds a
    row and column of ``c I`` to ``c I - G_JJ``, which changes no decision).
    ``S_J = S^1/2 (I - X X*) S^1/2`` with ``X = S^-1/2 T_J`` and ``X* X =
    G_JJ``, so with ``g = lambda_max(G_JJ) <= 1``: ``lambda_min(S_J) >= A (1 -
    g)`` and ``lambda_max(S_J) <= B``.

    Errors, with ``t = tr S``, ``m = sum_i d_i``, ``W = N d_max``, LAPACK
    backward errors ``p eps`` with ``p <= s^2`` on ``s``-square problems and
    ``p <= m n`` on the ``m x n`` QR, ``e_1 = 4 (n^2 + 2 m + 8) eps t`` and
    ``e_2 = 16 (m n + n^2 + (W + 1)^2) eps sqrt(t / A)``:

    - The ``eigvalsh`` range of the assembled ``S_J = S - Y_J Y_J*``, and
      the computed ``(A, B)``, lie within ``e_1 / 4`` of the exact ranges of
      ``S_J = sum_{i not in J} T_i T_i*`` and ``S = T T*``.  In Frobenius
      norm: rounding ``T`` costs ``2.01 eps t``, ``T T*`` ``m eps t``,
      ``Y_J Y_J*`` (at most ``m - n`` nonzero terms per entry once the
      dimension test passes) ``(m - n) eps t``, subtracting and symmetrizing
      ``2 eps t``, and ``eigvalsh`` ``n^2 eps t``.  The member sum
      ``sum_{i not in J} v_i^2 Q_i Q_i*`` costs ``(N + d_max + 5) eps t`` and
      ``eigvalsh``, also within ``e_1 / 4``.
    - The computed ``G = Z Z*``, from the frame's QR factor ``T* = Z R``,
      lies within ``e_2 / 4`` of the exact one.  ``c > 0`` gives ``e_1 < A``
      and ``e_2 < 1``, so ``sigma_n(T)^2 = lambda_min(S) >= 3A/4`` and
      ``sqrt(t / A) >= 0.86``.  Householder QR (Higham, *Accuracy and
      Stability*, Thm 19.4) gives an orthonormal ``Z'`` with ``T* + dT* =
      Z' R``, ``||dT||_F <= m n eps sqrt t`` and ``||Z - Z'||_F <= m n eps``.
      ``Z' Z'*`` projects onto the range of ``T* + dT*``, within ``||dT|| /
      (sigma_n(T) - ||dT||) <= 1.25 m n eps sqrt(t / A)`` of ``G``, as
      ``||dT|| <= e_2 sqrt(A) / 16``.  ``Z`` for ``Z'`` adds ``2.01 m n
      eps``, ``Y* Y`` ``n^2 eps`` and ``symmetrize`` ``sqrt(n) eps``: in all
      below ``4 (m n + n^2) eps sqrt(t / A)``, so ``e_2`` grows like
      ``sqrt(t / A)``, not ``t / A``.  In any slot layout each entry of
      ``G`` is that inner product of two columns of ``Z*``, or an exact 0.
    - A Cholesky success on ``c I - G_JJ``, of size ``s <= W`` (``|J|
      d_max`` for a removal ``J``, ``top w`` for a union of ``top`` groups
      below: :func:`_member_groups`), or a positive
      ``eigvalsh`` of it, gives ``lambda_max(G_JJ) <= c + (s + 1)^2 eps``
      (:func:`_gram_survivors`): below ``e_2 / 4``.

    So a certified block has ``g <= c + e_2 / 2``.  With
    ``c = 1 - (rank_rel B + e_1) / A - e_2``, ``lambda_min(S_J) >=
    (A - e_1/4)(1 - c - e_2/2) >= rank_rel B + 3 e_1/4 + A e_2/2``, so the
    reference's ``low >= rank_rel B + e_1/2 + A e_2/2`` exceeds
    ``rank_rel high`` (``high <= B + e_1/2``): the removal survives.

    ``universal`` starts from the top, ``top`` (:class:`_Search`).  When ``top
    >= 2``, :func:`_member_groups` packs the members first-fit decreasing into
    ``h`` groups of at most ``spare // top`` dimensions (``spare = m - n``),
    so any union of ``top`` groups passes the dimension test, and ``h > top``,
    as such a union holds at most ``spare < m`` dimensions.  A removal of
    ``top`` members touches at most ``top`` groups, so it lies in some union
    ``K`` of ``top`` groups (pigeonhole), and Cauchy interlacing (``G_JJ`` is
    a principal submatrix of ``G_KK``) gives ``lambda_max(G_JJ) <=
    lambda_max(G_KK)``.  So one Gram block per union, ``C(h, top)`` of them,
    can stand for the ``C(N, top)`` removals.  :func:`_top_pass` packs group
    ``j``'s members into slot ``j`` of ``c I - G``, each slot as wide as the
    largest group's ``w`` dimensions, and decides the groups' ``top``-subsets
    by chunks, one Cholesky each, up to the first chunk it does not wholly
    certify.  A union's block of side ``top w <= W`` is ``c I - G_KK`` and a
    row of ``c I`` per empty column, so ``c``, ``e_1`` and ``e_2`` stand.
    Groups are merged only when the unions' blocks hold at most half the
    entries of the removals' blocks; when a merged pass ends early, the pass
    runs again on single members, the removals themselves, in the member
    layout, so a frame that no merged union certifies pays at most 1.5 times
    that pass.  When every block of a pass is certified, every ``J' ⊂ K`` of a
    certified ``K`` has ``lambda_max(G_J'J') <= g <= c + e_2 / 2``
    (interlacing again), so the chain above holds for ``S_J'`` as for ``S_K``:
    the reference's ``low`` exceeds ``rank_rel high``, and ``J'`` survives.
    So levels ``1`` to ``top`` are universal.  This needs Gram-certified
    blocks: the test ``low > rank_rel high`` on ``S_J`` alone is not closed
    under subsets, since ``lambda_max(S_J')`` can grow faster than
    ``lambda_min(S_J')``.  Otherwise ``universal`` is the last of the levels
    ``1, 2, ...`` up to ``top`` whose removals all survive, each level decided
    up to its first chunk with a failing row.

    ``certified`` ends at the first level without a survivor (supersets of
    failing removals also fail); levels up to ``universal`` have one.  When
    ``universal < hi``, so has each level up to the count of
    :func:`_witness_level`, a prefix of its witness, and the levels above a
    short witness are decided up to the chunk that holds their first one;
    at level ``universal + 1`` that scan goes on from the chunks the
    ``universal`` scan decided.
    """
    N, top, hi = search.frame.member_count, search.top, search.hi
    universal = 0
    if search.c > 0.0 and top >= 2:
        groups = _member_groups(search.frame.dims, top, search.spare)
        if _top_pass(search, groups) or groups.max() < N - 1 and _top_pass(search, np.arange(N)):
            universal = top  # every removal of top members is a subset of a certified union
    while universal < top and _level(search, universal + 1, every=True):
        universal += 1
    certified = max(universal, _witness_level(search)) if universal < hi else universal
    while certified < hi and _level(search, certified + 1, every=False):
        certified += 1
    return certified, universal


def _secular_bracket(C: np.ndarray, lam: np.ndarray, delta: float, start: float) -> tuple[float, float] | None:
    """Test points ``lo < hi <= lam_1``, ``hi - lo <= delta``, with ``g(lo) < 1 <= g(hi)``, or ``None``.

    ``g(beta) = lambda_max(C* (lam - beta)^-1 C)``; ``hi = lam_1`` stands
    for the interlacing end.  Newton steps on ``1 - 1/g`` start from
    ``lam_1 - max(|c_1|^2, delta)`` or from ``start``, whichever is lower;
    once a step from a point with ``g >= 1`` (``g < 1``) is below
    ``delta``, the next test is ``delta`` below (above) that point, and a
    step that leaves ``(lo, hi)`` is replaced by bisection.
    """
    Ch = C.conj().T
    lo, hi = -np.inf, lam[0]
    x = min(lam[0] - max(np.vdot(C[0], C[0]).real, delta), start)
    for _ in range(64):
        w, V = np.linalg.eigh((Ch / (lam - x)) @ C)
        g = w[-1]
        if g >= 1.0:
            hi = x
        else:
            lo = x
        if hi - lo <= delta:
            return lo, hi
        y = (C @ V[:, -1]) / (lam - x)
        x -= g * (g - 1.0) / np.vdot(y, y).real  # Newton on 1 - 1/g
        if g >= 1.0 and hi - x < delta:
            x = hi - delta
        elif g < 1.0 and x - lo < delta:
            x = lo + delta
        if not lo < x < hi:
            x = hi - delta if lo == -np.inf else (lo + hi) / 2.0
    return None


def _spanning_witness(kernel: np.ndarray, dims: np.ndarray, spare: int, count: int) -> np.ndarray:
    """Up to ``count`` members in pick order, by block-pivoted Cholesky on ``kernel = I - G`` by member.

    ``kernel`` is in the member layout of :func:`_padded`, and the search
    overwrites it; removing ``J`` leaves a frame iff ``(I - G)_JJ`` is
    positive definite.  Each step eliminates, of the members that leave room
    for ``count`` removals within ``spare`` dimensions (the smallest remaining
    ``d_i`` fill the rest), the one whose Schur block has the largest
    ``lambda_min`` (one batched ``eigvalsh``), ties to the lowest index: the
    pivots of rank-revealing subset selection (Gu and Eisenstat, 1996).  When
    no such block is positive definite, ``count`` drops by one.
    """
    N, width = len(dims), len(kernel) // len(dims)
    blocks = kernel.reshape(N, width, N, width)  # a view: the eliminations below update it
    picks, free = [], np.ones(N, bool)
    while len(picks) < count:
        smallest, need = np.sort(dims[free]), count - len(picks) - 1  # need: removals after this pick
        room = spare - dims[picks].sum() - smallest[:need].sum()
        cand = np.flatnonzero(free & (np.maximum(dims, smallest[need]) <= room))  # d_i and the need smallest others fit
        low = np.linalg.eigvalsh(blocks[cand, :, cand, :])[:, 0]
        if low.max() <= 0.0:
            count -= 1  # no pick toward count removals leaves a frame: aim one lower
            continue
        picks.append(int(cand[np.argmax(low)]))
        free[picks[-1]] = False
        cols = slice(picks[-1] * width, (picks[-1] + 1) * width)
        kernel -= kernel[:, cols] @ np.linalg.solve(kernel[cols, cols], kernel[cols, :])
    return np.array(picks, np.intp)


def _witness_level(search: _Search) -> int:
    """The leading prefixes of one :func:`_spanning_witness` that leave a frame: a level count with a survivor each.

    Greedy mode's ``certified``, and exhaustive mode's above ``universal``
    (:func:`_exhaustive_levels`, which completes a short count).  No removal
    of more than ``hi`` members leaves a frame (:class:`_Search`), so a
    witness ``J`` of ``hi`` members whose prefixes all leave a frame proves
    ``certified`` exactly.  Gram certificate: :func:`_gram_survivors` on the
    witness's block of ``c I - G`` (``c`` and ``G`` those of
    :func:`_exhaustive_levels`) gives ``lambda_max(G_JJ) <= c + (s + 1)^2
    eps``.  Interlacing: each prefix ``J_k`` indexes a principal submatrix of
    ``G_JJ``, so ``lambda_max(G_{J_k J_k}) <= lambda_max(G_JJ)``, and the
    error chain of :func:`_exhaustive_levels` gives the reference's ``low >
    rank_rel high`` on each ``S_{J_k}``: every level up to ``len(J)`` has a
    survivor.  When ``c <= 0`` or the block is not certified,
    :func:`_exact_frames_left` decides the prefixes one by one, as the
    exhaustive search decides a removal, up to the first that fails; the
    leading ones that pass count.  A shorter count is a sound lower bound,
    floored at the weight rule's level (:func:`_weight_rule_level`).
    """
    if search.hi == 0:
        return 0
    dims, shifted, c = search.frame.dims, search.shifted, search.c
    witness = _spanning_witness(shifted + (1.0 - c) * np.eye(len(shifted)), dims, search.spare, search.hi)
    level = len(witness)
    if level and not (c > 0.0 and _gram_survivors(search, shifted, int(dims.max()), witness[None])[0]):
        left = (_exact_frames_left(search, witness[None, : k + 1])[0] for k in range(level))
        level = next((k for k, alive in enumerate(left) if not alive), level)  # the leading prefixes that pass
    level = max(level, search.weight_rule)
    search.events.append(("witness", witness, level))
    return level


def _greedy_levels(search: _Search) -> tuple[int, int]:
    """``certified`` from one spanning witness (:func:`_witness_level`), ``universal`` along the weakest removal path.

    The path extends by the member whose removal leaves the smallest lower
    bound, ties to the lowest index: member ``i``'s value ``x_i`` is the
    ``eigvalsh`` minimum of ``rest - T_i T_i*`` (``T_i = v_i Q_i``, its
    synthesis columns; ``rest = S - sum_{p in path} T_p T_p*``) that the full
    per-member loop compares.  Tests read the last decomposition ``R_0 = U
    diag(lam) U*`` of the symmetrized rest (one ``eigh``), the columns ``C_i =
    U* T_i`` and those of the picks since then, ``Z = U* W``, ``W`` their
    synthesis columns (``rest = R_0 - W W*``, ``w`` columns); for ``beta <
    lam_1``, ``lambda_min(R_0 - W W* - T_i T_i*) > beta`` iff ``g_i(beta) =
    lambda_max(Y_i* (lam - beta)^-1 Y_i) < 1``, ``Y_i = [Z C_i]`` (Schur
    complement; ``g_i(beta) = 1`` is the low-rank secular equation of Golub,
    1973).  A level decomposes ``rest`` afresh when ``w + d_max > n // 8``, so
    below ``n = 16`` every level does, with ``w = 0``; otherwise ``r = w + d_i
    <= n // 8``, and ``r <= n`` always.  With ``s = max|lam|``, ``[W T_i][W
    T_i]* <= R_0`` (what is left is a sum of member terms), so ``|Y_i|^2 <=
    s``, and LAPACK backward errors ``p(n) eps`` (``p <= n^2``), the errors
    are: ``eigh``, ``(5p + 5n^2 + 4n) eps s`` on the matrix the test decides,
    the departure of ``U`` from orthogonality on all ``r`` columns of ``Y_i``
    included; the test, a relative ``rho <= (2 (n+4) r + p(r)) eps`` on
    ``lambda_max`` (its weights ``1/(lam_k - beta)`` are positive), as if
    ``lam - beta`` moved by ``2.1 rho s``; forming ``rest - T_i T_i*`` from
    ``R_0`` by ``q + 1`` subtractions, ``q <= w`` the picks since the
    decomposition, ``(r^2 + (q + 1)(sqrt(n) + 1)) eps s``; the exact
    ``eigvalsh``, ``(p + 2 sqrt(n)) eps s``.  With ``r <= n`` at ``q = 0`` and
    ``r, q <= n/8`` otherwise, their sum is below ``19 (n+1)^2 eps s < delta =
    32 (n+1)^2 eps s``.  So a test at ``beta < lam_1`` that finds ``g_i >= 1``
    gives ``x_i < beta + delta``, one that finds ``g_i < 1`` gives ``x_i >
    beta - delta``, and interlacing gives ``x_i < lam_1 + delta``.

    Brackets: ``1/g_i`` is concave below ``lam_1`` (a minimum over unit ``u``
    of parallel sums of the affine ``(lam_k - beta) / |(Y_i u)_k|^2``), so
    Newton on ``1 - 1/g_i`` from ``lam_1 - |y_{i,1}|^2`` (at least ``delta``
    below ``lam_1``), where ``g_i >= 1``, descends to the root from above; it
    starts lower at the last pick's certified upper end, above ``x_i`` but for
    roundoff, since ``x_i <= lambda_min(rest)``.  Test points ``lo < hi``,
    ``hi - lo <= delta``, with ``g_i(lo) < 1 <= g_i(hi)``
    (:func:`_secular_bracket`) put ``x_i`` in ``(lo - delta, hi + delta)``; if
    64 tests do not close a bracket, ``x_i`` is evaluated exactly.  Members
    are taken front-runner first (the most weight on ``U``'s first column,
    then the largest ``g``).  Each front-runner is bracketed, and one batched
    test at ``beta = bound + delta``, ``bound`` the smallest certified upper
    end so far, drops every member it puts above ``bound``, which bounds that
    member's ``x_i`` from below; its matrices share the blocks ``Z* D Z`` and
    ``Z* D C_i``, ``D = (lam - beta)^-1``.  Once every member is bracketed or
    dropped, the smallest upper end's member is the pick unless another
    interval reaches that end; then the members whose intervals reach it are
    evaluated exactly, and the smallest value wins, ties to the lowest index.
    Every other member's ``x_i`` is strictly larger, so the pick is the full
    loop's, bit for bit.

    Frames left: the full loop then decides ``spans`` on ``rest - T_p
    T_p*``, the next level's ``rest``, whose ``eigvalsh`` ``low`` is ``x_p``
    itself.  Its ``high`` is below ``lam_n + delta`` and, by interlacing
    (it is ``R_0`` less ``[W T_p][W T_p]*``, of rank ``w + d_p <= w +
    d_max``), above ``lam_{n - w - d_max} - delta``: the ``eigh`` and
    ``eigvalsh`` errors and forming it stay below ``delta``.  So a
    certified lower end ``L > floor(lam_n + delta)`` passes the pick; upper
    ends ``U <= floor(lam_{n - w - d_max} - delta)`` on every member that
    reaches the smallest upper end stop the path there, whichever of them
    the full loop picks; otherwise :func:`_frames_left` decides.

    Memory and time: each pick updates ``rest`` by one ``n x d_p`` product
    and appends its ``d_p`` columns to ``Z``, and each near-tie evaluation
    forms its ``rest - T_i T_i*`` the same way, so a level forms no ``n x
    m`` product, and the search holds O(n^2 + N n d_max) entries, never the
    N x n x n stack of the member terms.
    """
    frame = search.frame
    tol, N, n, dims = frame.tol, frame.member_count, frame.ambient_dim, frame.dims
    eps, width = np.finfo(float).eps, int(dims.max())
    T = _column_blocks(frame.synthesis, frame.offsets)  # member i's synthesis columns T_i

    def less(rest, i):  # rest - T_i T_i*: member i removed
        return rest - T[i] @ T[i].conj().T

    universal, path = 0, []
    rest, start = frame.operator, np.inf  # start: the last pick's certified upper end
    for k in range(1, search.budget + 1):
        cand = np.setdiff1d(np.arange(N), path)
        if (dims[path].sum() + dims[cand] > dims.sum() - n).all():
            break  # every removal fails on its dimensions
        if k == 1 or Z.shape[1] + width > n // 8:  # rest = U diag(lam) U*, Cs[i] = U* T_i padded to width columns
            lam, U = np.linalg.eigh(symmetrize(rest))
            Cs = (U.conj().T @ search.padded).reshape(n, N, width).swapaxes(0, 1)
            delta = 32 * (n + 1) ** 2 * eps * np.abs(lam).max()
            Z = np.empty((n, 0), Cs.dtype)  # no pick carried yet
        C, w = Cs[cand], Z.shape[1]
        lows = np.full(len(cand), -np.inf)  # certified: lows <= x_i <= highs
        highs = np.full(len(cand), np.inf)
        unseen = np.ones(len(cand), bool)  # neither bracketed nor dropped
        score = np.linalg.norm(C[:, 0], axis=1)  # larger: likely a smaller lambda_min
        while unseen.any():
            rows = np.flatnonzero(unseen)
            j = rows[np.argmax(score[rows])]
            unseen[j] = False
            search.events.append(("bracket", w + width))
            bracket = _secular_bracket(np.hstack((Z, C[j])), lam, delta, start)
            if bracket is not None:  # else x_i stays unbounded, so the near-tie step evaluates it
                lows[j], highs[j] = bracket[0] - delta, bracket[1] + delta
            bound = highs.min()
            beta = bound + delta
            rows = np.flatnonzero(unseen)
            if rows.size and beta < lam[0]:
                Cr, Zd = C[rows], Z.conj().T / (lam - beta)
                G = np.empty((len(rows), w + width, w + width), C.dtype)
                G[:, :w, :w] = Zd @ Z
                G[:, :w, w:] = Zd @ Cr
                G[:, w:, :w] = G[:, :w, w:].conj().swapaxes(1, 2)
                G[:, w:, w:] = (Cr.conj().swapaxes(1, 2) / (lam - beta)) @ Cr
                score[rows] = g = np.linalg.eigvalsh(G)[:, -1]
                dropped = rows[g < 1.0]
                unseen[dropped] = False
                lows[dropped] = np.nextafter(bound, np.inf)  # x_i > bound: at least the next double above
        best = np.argmin(highs)
        reach = np.flatnonzero(lows <= highs[best])
        if w + width < n and (highs[reach] <= tol.floor(lam[n - 1 - w - width] - delta)).all():
            break  # whichever of them the full loop picks leaves no frame
        if len(reach) > 1:  # a near tie: the full loop's exact values decide
            for j in reach[lows[reach] < highs[reach]]:
                search.events.append(("near-tie", int(cand[j])))
                lows[j] = highs[j] = hermitian_eigenrange(less(rest, cand[j]))[0]
            best = reach[np.argmin(highs[reach])]
        path.append(int(cand[best]))
        rest, start = less(rest, path[-1]), highs[best]
        Z = np.hstack((Z, C[best, :, : dims[path[-1]]]))
        if dims[path].sum() > dims.sum() - n:
            break
        if lows[best] <= tol.floor(lam[-1] + delta):
            search.events.append(("exact", len(path), 1))
            if not _frames_left(frame, rest[None].copy())[0]:
                break
        universal = k
    return _witness_level(search), universal


def erasure_certificate(frame: FusionFrame, budget: int | None = None, mode: str | None = None) -> ErasureCertificate:
    """Determine how many members can be erased, verified spectrally.

    Removing the members ``J`` leaves a fusion frame iff ``S_J = S - T_J
    T_J*``, from the frame's ``S`` and synthesis columns ``T_J`` (``T_J T_J*
    = sum_{i in J} v_i^2 P_i``), passes ``Tolerance.spans`` on its range.
    Exhaustive mode (at most 22 members) gives both counts exactly, with
    that same outcome per removal, from blocks ``G_JJ`` of the Gram matrix
    ``G = T* S^-1 T`` (``S_J`` is invertible iff ``lambda_max(G_JJ) < 1``),
    of unions of member groups first, and from ``S_J`` itself
    (:func:`_exhaustive_levels`).  Greedy mode decides ``certified`` on one
    spanning witness, chosen by pivoting on ``I - G``, exactly when it
    reaches the dimension bound (:func:`_witness_level`), and ``universal``
    along the weakest removal path (:func:`_greedy_levels`).
    """
    return _search(frame, budget, mode)[0]


def _search(frame: FusionFrame, budget: int | None, mode: str | None) -> tuple[ErasureCertificate, list[tuple]]:
    """:func:`erasure_certificate` and the record of its search, the ``events`` of :class:`_Search`."""
    if not frame.is_frame:
        raise NotAFusionFrame("erasure robustness is defined for fusion frames only")
    N = frame.member_count
    try:
        budget = max(0, min(N - 1 if budget is None else operator.index(budget), N - 1))
    except TypeError as exc:
        raise ValueError(f"erasure budget must be an integer: {exc}") from None
    if mode is None:
        mode = "exhaustive" if N <= EXHAUSTIVE_MEMBER_LIMIT else "greedy"
    if mode not in ("exhaustive", "greedy"):
        raise ValueError(f"unknown erasure search mode {mode!r}")
    if mode == "exhaustive" and N > EXHAUSTIVE_MEMBER_LIMIT:
        raise ValueError(f"exhaustive mode supports at most {EXHAUSTIVE_MEMBER_LIMIT} members, got {N}")
    search = _Search(frame, budget)
    certified, universal = (_exhaustive_levels if mode == "exhaustive" else _greedy_levels)(search)
    rule = "none" if certified == 0 else "weight-sum-bound" if search.weight_rule >= certified else "spectral"
    return ErasureCertificate(budget, certified, universal, search.weight_rule, rule, mode), search.events
