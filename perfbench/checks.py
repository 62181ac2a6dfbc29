"""Independent correctness checks, in plain numpy from the document trees.

None of these call ``ffk``: operators, spectra and reconstruction
residuals are recomputed from the vectors written in the documents, so
a defect in ``ffk`` cannot hide itself from them.  Every check raises
``CheckFailed`` with a one-line reason; the workloads count it as a
failed operation.
"""

from __future__ import annotations

import json

import numpy as np

# ffk's default Tolerance(rank_rel=1e-10, eig_rel=1e-9, recon_abs=1e-8).
RECON_ABS = 1e-8
EIG_REL = 1e-9
RANK_REL = 1e-10
# Agreement required between ffk's spectra and the numpy reference,
# relative to the largest eigenvalue.
SPECTRUM_REL = 1e-8


class CheckFailed(Exception):
    pass


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _entry(value, field):
    return complex(value[0], value[1]) if field == "complex" else float(value)


def _rows(rows, field):
    dtype = np.complex128 if field == "complex" else np.float64
    return np.array([[_entry(v, field) for v in row] for row in rows], dtype=dtype).T


class Reference:
    """Orthonormal bases, weights and operators of one frame document."""

    def __init__(self, tree):
        if isinstance(tree, str):
            tree = json.loads(tree)
        self.field = tree["field"]
        self.n = tree["dimension"]
        self.weights = np.array([float(s["weight"]) for s in tree["subspaces"]])
        self.bases = []
        for s in tree["subspaces"]:
            U, sv, _ = np.linalg.svd(_rows(s["vectors"], self.field), full_matrices=False)
            self.bases.append(U[:, : int(np.count_nonzero(sv > RANK_REL * sv[0]))])
        self.S = sum(w**2 * (Q @ Q.conj().T) for Q, w in zip(self.bases, self.weights))
        self.S1 = sum(Q @ Q.conj().T for Q in self.bases)
        self.bounds = _range(self.S)
        self.redundancy = _range(self.S1)
        self.is_frame = self.bounds[0] > RANK_REL * self.bounds[1]


def _range(M):
    values = np.linalg.eigvalsh((M + M.conj().T) / 2.0)
    return float(values[0]), float(values[-1])


def _close(a, b, scale) -> bool:
    return abs(a - b) <= SPECTRUM_REL * max(1.0, abs(scale))


def check_analysis(ref: Reference, lower, upper, redundancy) -> None:
    """Bounds and the redundancy range against numpy eigvalsh of S and S1."""
    low, high = ref.bounds
    require(_close(upper, high, high), f"upper bound {upper!r} != reference {high!r}")
    if ref.is_frame:
        require(lower is not None and _close(lower, low, high), f"lower bound {lower!r} != reference {low!r}")
    else:
        require(lower is None, f"Bessel-only family reported lower bound {lower!r}")
    r_low, r_high = ref.redundancy
    require(
        _close(redundancy[0], r_low, r_high) and _close(redundancy[1], r_high, r_high),
        f"redundancy range {list(redundancy)!r} != reference [{r_low!r}, {r_high!r}]",
    )


def check_dual(ref: Reference, dual: Reference) -> float:
    """Reconstruction residual of a dual document, recomputed here.

    The residual is the largest column norm of
    ``I - sum_i v_i u_i P_{V_i} S^-1 P_{W_i}``; it must not exceed
    ``RECON_ABS``.  Returns the residual.
    """
    require(len(dual.bases) == len(ref.bases), "dual has a different member count")
    S_inv = np.linalg.inv(ref.S)
    recon = np.zeros_like(ref.S)
    for W, V, v, u in zip(ref.bases, dual.bases, ref.weights, dual.weights):
        recon += v * u * (V @ ((V.conj().T @ S_inv @ W) @ W.conj().T))
    residual = float(np.linalg.norm(np.eye(ref.n) - recon, axis=0).max())
    require(residual <= RECON_ABS, f"dual reconstruction residual {residual:.3e} exceeds {RECON_ABS}")
    return residual


def check_samples(samples, redundancy) -> None:
    """Sampled redundancy values inside [R-, R+] up to eigenvalue slack."""
    r_low, r_high = redundancy
    slack = EIG_REL * max(1.0, r_high)
    require(
        float(np.min(samples)) >= r_low - slack and float(np.max(samples)) <= r_high + slack,
        f"sampled redundancy [{np.min(samples)!r}, {np.max(samples)!r}] leaves [{r_low!r}, {r_high!r}]",
    )


def check_erasure(budget, certified, universal, weight_rule, mode) -> None:
    """The weight rule is a sound witness, so certified >= weight_rule.

    Greedy ``universal`` is an estimate from another search path, so
    the level order is checked for exhaustive certificates only.
    """
    require(certified >= weight_rule, f"certified {certified} < weight_rule {weight_rule}")
    require(certified <= budget, f"certified {certified} exceeds budget {budget}")
    if mode == "exhaustive":
        require(0 <= universal <= certified, f"universal {universal} outside [0, certified {certified}]")


def check_verify(residual, is_dual) -> None:
    require(is_dual and residual <= RECON_ABS, f"verify-dual residual {residual!r}, is_dual {is_dual!r}")
