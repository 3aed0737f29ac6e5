"""Time-reversible ASPC extrapolation of orbitals and densities across
MD steps.

PR 4's warm start reuses only the *last* converged per-domain state; the
MD literature (Kolafa's always-stable predictor-corrector, ASPC; cf. the
low-cost orbital-based linear-scaling AIMD line of work in PAPERS.md) does
better: predict step ``t+1`` from a bounded history window

    ψ_pred(t+1) = Σ_{j=1..k} B_j ψ(t+1-j),
    B_j = (-1)^{j+1} j C(2k, k-j) / C(2k-2, k-1),

whose coefficients sum to 1 (consistency) and reproduce any history that
is *linear in time* exactly for k ≥ 2 — the property behind ASPC's
time-reversibility: running the window forwards or backwards through a
linear segment predicts the same continuation, so the predictor adds no
secular bias to NVE dynamics (the energy-drift parity test pins this).

Orbitals need two extra ingredients the plain formula lacks:

* **Subspace alignment.**  Each SCF solve returns ψ in an arbitrary band
  gauge (degenerate subspaces rotate freely between steps), so combining
  raw histories mixes gauges and cancels signal.  Every older block is
  first aligned to the newest by the orthogonal Procrustes rotation
  ``W = UV†`` from ``SVD(ψ_old† ψ_new)`` — the closest unitary map of the
  old block onto the new gauge.
* **Re-orthonormalization.**  The linear combination leaves the predicted
  block only approximately orthonormal; a Löwdin (symmetric) step
  ``ψ (ψ†ψ)^{-1/2}`` restores it while moving each band the least.

:class:`DomainHistory` packages the window for one LDC domain (or one
global SCF trajectory): converged (ψ, v_bc, ρ) snapshots keyed by the
domain's identity ``(npw, nband, atom indices)``.  Any key change — atom
migration across domain boundaries, a band-count change, a basis rebuild —
clears the window, so the caller falls back to the same deterministic cold
start the fresh-build path uses.  A depth-1 window degrades exactly to the
PR 4 last-state warm start (verbatim copies, no combination), which keeps
the committed ``qmd_warm_start`` baseline bit-for-bit valid.
"""

from __future__ import annotations

from math import comb

import numpy as np


def aspc_coefficients(k: int) -> np.ndarray:
    """Predictor coefficients ``B_1..B_k`` of the length-``k`` ASPC window.

    ``k=1`` → ``[1]`` (last-state reuse), ``k=2`` → ``[2, -1]`` (linear
    extrapolation), ``k=3`` → ``[2.5, -2, 0.5]``.  For every ``k`` the
    coefficients sum to 1; for ``k >= 2`` they satisfy
    ``Σ_j B_j (1-j) = 1`` as well, so linear-in-time histories are
    continued exactly.
    """
    if k < 1:
        raise ValueError("history length k must be >= 1")
    denom = comb(2 * k - 2, k - 1)
    return np.array(
        [
            (-1.0) ** (j + 1) * j * comb(2 * k, k - j) / denom
            for j in range(1, k + 1)
        ],
        dtype=float,
    )


def lowdin_orthonormalize(psi: np.ndarray) -> np.ndarray:
    """Symmetric (Löwdin) orthonormalization ``ψ (ψ†ψ)^{-1/2}``.

    The unique orthonormal block closest to ``psi`` in Frobenius norm —
    the gauge-respecting way to repair a predicted block.
    """
    overlap = psi.conj().T @ psi
    evals, evecs = np.linalg.eigh(overlap)
    evals = np.clip(evals.real, 1e-14, None)
    inv_sqrt = (evecs * (evals ** -0.5)) @ evecs.conj().T
    return psi @ inv_sqrt


def align_to_reference(psi: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Rotate ``psi`` into ``ref``'s band gauge (orthogonal Procrustes).

    Returns ``psi @ (U V†)`` where ``U Σ V† = SVD(psi† ref)`` — the
    unitary band mixing that brings ``psi`` closest to ``ref``, removing
    the arbitrary per-step gauge drift that would otherwise poison the
    ASPC combination.
    """
    u, _, vh = np.linalg.svd(psi.conj().T @ ref)
    return psi @ (u @ vh)


def extrapolate_orbitals(history: list[np.ndarray]) -> np.ndarray:
    """ASPC-predict the next orbital block from ``history`` (newest first).

    Older blocks are gauge-aligned to the newest before the combination
    and the result is Löwdin-orthonormalized.  A length-1 history returns
    a verbatim copy of the newest block (exact last-state warm start).
    """
    k = len(history)
    if k == 0:
        raise ValueError("history must contain at least one orbital block")
    if k == 1:
        return history[0].copy()
    coeffs = aspc_coefficients(k)
    ref = history[0]
    out = coeffs[0] * ref
    for c, psi in zip(coeffs[1:], history[1:]):
        out += c * align_to_reference(psi, ref)
    return lowdin_orthonormalize(out)


def extrapolate_fields(
    history: list[np.ndarray], nonnegative: bool = False
) -> np.ndarray:
    """ASPC-predict the next real-space field (density, v_bc) from
    ``history`` (newest first); ``nonnegative`` clips the prediction at 0
    (densities must stay physical after the signed combination)."""
    k = len(history)
    if k == 0:
        raise ValueError("history must contain at least one field")
    if k == 1:
        return history[0].copy()
    coeffs = aspc_coefficients(k)
    out = coeffs[0] * history[0]
    for c, f in zip(coeffs[1:], history[1:]):
        out += c * f
    if nonnegative:
        np.clip(out, 0.0, None, out=out)
    return out


def subspace_residual(psi_pred: np.ndarray, psi_conv: np.ndarray) -> float:
    """Gauge-invariant distance between a predicted and a converged block.

    ``‖ψ_conv − align(ψ_pred → ψ_conv)‖_F / √nband`` — zero when the
    prediction spans the converged subspace, O(1) for a random guess.
    This is the predictor-quality series the run ledger tracks.
    """
    if psi_pred.shape != psi_conv.shape:
        return float("nan")
    aligned = align_to_reference(psi_pred, psi_conv)
    nband = max(psi_conv.shape[1], 1)
    return float(np.linalg.norm(psi_conv - aligned) / np.sqrt(nband))


class DomainHistory:
    """Bounded ASPC window of converged (ψ, v_bc, ρ) snapshots for one
    domain (or one global SCF trajectory, with ``vbc=None``).

    ``key`` identifies the electronic problem the snapshots solve —
    ``(npw, nband, atom-index tuple)`` for an LDC domain.  Pushing or
    predicting under a different key clears the window (atom migration,
    band-count change, basis rebuild → deterministic cold fallback).
    """

    def __init__(self, depth: int = 3) -> None:
        if depth < 1:
            raise ValueError("history depth must be >= 1")
        self.depth = int(depth)
        self._key: tuple | None = None
        #: newest-first snapshots (ψ, v_bc, ρ)
        self._entries: list[
            tuple[np.ndarray, np.ndarray | None, np.ndarray | None]
        ] = []
        #: the ψ block handed out by the last :meth:`predict` (residual
        #: bookkeeping; compared against the next converged ψ by the
        #: workspace's ``store``)
        self.last_prediction: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def key(self) -> tuple | None:
        return self._key

    def clear(self) -> None:
        self._key = None
        self._entries = []
        self.last_prediction = None

    def resize(self, depth: int) -> None:
        """Change the window depth in place, trimming oldest-first.

        Deepening keeps the existing snapshots (the window simply grows
        from here); shrinking drops the tail — either way no cold restart.
        """
        if depth < 1:
            raise ValueError("history depth must be >= 1")
        self.depth = int(depth)
        del self._entries[self.depth:]

    def push(
        self,
        key: tuple,
        psi: np.ndarray,
        vbc: np.ndarray | None,
        rho: np.ndarray | None,
    ) -> None:
        """Prepend a converged snapshot, invalidating on a key change.

        Snapshots are stored by reference: callers hand over ownership
        (the LDC driver re-binds ``state.psi``/``state.rho_local`` to
        fresh arrays each pass, and :meth:`predict` returns combinations
        or copies, never aliases into the window)."""
        if key != self._key:
            self.clear()
            self._key = key
        self._entries.insert(0, (psi, vbc, rho))
        del self._entries[self.depth:]

    def predict(
        self, key: tuple, depth: int | None = None
    ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None] | None:
        """The ASPC prediction for the next step, or ``None`` (cold).

        ``depth`` (≤ stored depth) restricts the window — the knob
        ``LDCOptions.history_depth`` resolves to.  Returns fresh arrays:
        the caller may mutate them freely (the LDC driver updates v_bc in
        place every SCF iteration) without corrupting the window.
        """
        self.last_prediction = None
        if key != self._key or not self._entries:
            return None
        use = self._entries[: max(1, depth or self.depth)]
        psi = extrapolate_orbitals([e[0] for e in use])
        vbc_hist = [e[1] for e in use]
        rho_hist = [e[2] for e in use]
        vbc = (
            extrapolate_fields([v for v in vbc_hist if v is not None])
            if vbc_hist[0] is not None
            else None
        )
        rho = (
            extrapolate_fields(
                [r for r in rho_hist if r is not None], nonnegative=True
            )
            if rho_hist[0] is not None
            else None
        )
        self.last_prediction = psi
        return psi, vbc, rho
