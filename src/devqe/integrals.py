"""Molecular integral container, FCIDUMP ingestion, and frozen-core folding.

Two-electron integrals live in memory in the physicist convention
g[p, q, r, s] = <pq|rs>; FCIDUMP files carry the chemist convention (ij|kl),
so a body line "value i j k l" lands in g[i, k, j, l] (0-based) together with
all symmetry-equivalent slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

SYMMETRY_TOL = 1e-12


class FcidumpError(ValueError):
    """Malformed FCIDUMP content; carries the offending 1-based line number."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class HeaderError(FcidumpError):
    """Required header fields (NORB, NELEC) are missing."""


class OrbitalIndexError(FcidumpError):
    """An orbital index outside [0, NORB]."""


@dataclass
class MolecularIntegrals:
    n_orb: int
    n_elec: int
    core_energy: float
    h: np.ndarray  # (n_orb, n_orb), Hartree
    g: np.ndarray  # (n_orb,)*4 physicist <pq|rs>, Hartree
    ms2: int = 0

    def __post_init__(self):
        self.core_energy = float(self.core_energy)
        self.h = np.asarray(self.h, dtype=float)
        self.g = np.asarray(self.g, dtype=float)
        if self.h.shape != (self.n_orb, self.n_orb):
            raise ValueError("one-electron matrix shape mismatch")
        if self.g.shape != (self.n_orb,) * 4:
            raise ValueError("two-electron tensor shape mismatch")
        if np.max(np.abs(self.h - self.h.T)) > SYMMETRY_TOL:
            raise ValueError("one-electron matrix is not symmetric")
        # real-orbital 8-fold symmetry, expressed on the physicist tensor
        for axes in ((2, 1, 0, 3), (0, 3, 2, 1), (1, 0, 3, 2)):
            if np.max(np.abs(self.g - self.g.transpose(axes))) > SYMMETRY_TOL:
                raise ValueError("two-electron tensor breaks real-orbital symmetry")

    def chemist(self, i, j, k, l) -> float:
        """Chemist-notation (ij|kl) read out of the physicist tensor."""
        return float(self.g[i, k, j, l])


def _set_chemist(g: np.ndarray, i, j, k, l, value) -> None:
    """Store chemist (ij|kl) into every symmetry-equivalent physicist slot."""
    for a, b, c, d in (
        (i, j, k, l),
        (j, i, k, l),
        (i, j, l, k),
        (j, i, l, k),
        (k, l, i, j),
        (l, k, i, j),
        (k, l, j, i),
        (l, k, j, i),
    ):
        g[a, c, b, d] = value


def parse_fcidump(text: str) -> MolecularIntegrals:
    """Parse FCIDUMP text: namelist header, then "value i j k l" body lines."""
    lines = text.splitlines()
    header_parts = []
    body_start = None
    for idx, line in enumerate(lines):
        header_parts.append(line)
        token = line.strip().upper().replace(" ", "")
        if token.endswith("&END") or token.endswith("/"):
            body_start = idx + 1
            break
    if body_start is None:
        raise HeaderError("no &END terminator found in header")

    header = " ".join(header_parts).upper().replace("=", " = ").replace(",", " , ")
    fields = {}
    tokens = header.split()
    for pos, tok in enumerate(tokens):
        if tok in ("NORB", "NELEC", "MS2"):
            if pos + 2 >= len(tokens) or tokens[pos + 1] != "=":
                raise HeaderError(f"could not read header field {tok}")
            try:
                fields[tok] = int(tokens[pos + 2])
            except ValueError as exc:
                raise HeaderError(f"could not read header field {tok}") from exc
    if "NORB" not in fields or "NELEC" not in fields:
        raise HeaderError("header must define NORB and NELEC")
    n_orb = fields["NORB"]
    if n_orb < 1:
        raise HeaderError(f"NORB must be at least 1, got {n_orb}")
    n_elec = fields["NELEC"]
    ms2 = fields.get("MS2", 0)

    h = np.zeros((n_orb, n_orb))
    g = np.zeros((n_orb,) * 4)
    core_energy = 0.0

    for offset, line in enumerate(lines[body_start:]):
        line_no = body_start + offset + 1
        stripped = line.strip()
        if not stripped:
            continue
        parts = stripped.replace("D", "e").replace("d", "e").split()
        if len(parts) != 5:
            raise FcidumpError("expected 'value i j k l'", line_no)
        try:
            value = float(parts[0])
            i, j, k, l = (int(p) for p in parts[1:])
        except ValueError:
            raise FcidumpError("could not parse numeric fields", line_no)
        if not math.isfinite(value):
            raise FcidumpError(f"value {parts[0]} is not finite", line_no)
        for idx in (i, j, k, l):
            if idx < 0 or idx > n_orb:
                raise OrbitalIndexError(f"orbital index {idx} outside [0, {n_orb}]", line_no)
        if i == j == k == l == 0:
            core_energy = value
        elif k == 0 and l == 0:
            if i == 0 or j == 0:
                raise FcidumpError("one-electron line needs two nonzero indices", line_no)
            h[i - 1, j - 1] = value
            h[j - 1, i - 1] = value
        elif 0 in (i, j, k, l):
            raise FcidumpError("unsupported index pattern", line_no)
        else:
            _set_chemist(g, i - 1, j - 1, k - 1, l - 1, value)

    return MolecularIntegrals(
        n_orb=n_orb, n_elec=n_elec, core_energy=core_energy, h=h, g=g, ms2=ms2
    )


def load_fcidump(path) -> MolecularIntegrals:
    """Read and parse an FCIDUMP file; FcidumpError when it is not UTF-8 text."""
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise FcidumpError(f"not UTF-8 text: {exc}") from exc
    return parse_fcidump(text)


def freeze_core(integrals: MolecularIntegrals, n_frozen: int) -> MolecularIntegrals:
    """Fold the first `n_frozen` doubly occupied orbitals into the effective
    one-electron matrix and the core energy; active tensors are re-indexed."""
    if n_frozen < 0 or 2 * n_frozen > integrals.n_elec:
        raise ValueError("n_frozen must satisfy 0 <= 2*n_frozen <= n_elec")
    if n_frozen == 0:
        return replace(
            integrals, h=integrals.h.copy(), g=integrals.g.copy()
        )
    n = integrals.n_orb
    frozen = range(n_frozen)
    chem = integrals.chemist

    core = integrals.core_energy
    core += 2.0 * sum(integrals.h[i, i] for i in frozen)
    core += sum(
        2.0 * chem(i, i, j, j) - chem(i, j, j, i) for i in frozen for j in frozen
    )

    h_eff = integrals.h.copy()
    for p in range(n):
        for q in range(n):
            h_eff[p, q] += sum(
                2.0 * chem(p, q, i, i) - chem(p, i, i, q) for i in frozen
            )

    active = slice(n_frozen, n)
    return MolecularIntegrals(
        n_orb=n - n_frozen,
        n_elec=integrals.n_elec - 2 * n_frozen,
        core_energy=core,
        h=h_eff[active, active].copy(),
        g=integrals.g[active, active, active, active].copy(),
        ms2=integrals.ms2,
    )


def hf_determinant_energy(integrals: MolecularIntegrals) -> float:
    """Closed-shell single-determinant energy of the lowest orbitals."""
    if integrals.n_elec % 2:
        raise ValueError("closed-shell determinant needs an even electron count")
    n_occ = integrals.n_elec // 2
    chem = integrals.chemist
    energy = integrals.core_energy
    energy += 2.0 * sum(integrals.h[i, i] for i in range(n_occ))
    energy += sum(
        2.0 * chem(i, i, j, j) - chem(i, j, j, i)
        for i in range(n_occ)
        for j in range(n_occ)
    )
    return float(energy)
