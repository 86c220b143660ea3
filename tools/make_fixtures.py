#!/usr/bin/env python3
"""One-off generator for the FCIDUMP fixtures shipped under fixtures/.

Self-contained restricted Hartree-Fock in the STO-3G basis: McMurchie-Davidson
Gaussian integrals (s and p shells), SCF, MO transformation, FCIDUMP output.
Run from the repository root:

    python tools/make_fixtures.py

Cross-checks printed at the end compare the computed RHF total energies with
standard published values (H2/STO-3G at R = 1.4 a0 gives -1.11671 Ha; LiH at
R = 1.5949 A gives about -7.8634 Ha), so a regression in the integral engine
is immediately visible.
"""

import math
import os
import sys

import numpy as np
from scipy.special import hyp1f1

ANGSTROM_TO_BOHR = 1.8897259886

# STO-3G exponents and contraction coefficients (normalized-primitive form)
STO3G = {
    "H": [
        ("s", [3.42525091, 0.62391373, 0.16885540],
         [0.15432897, 0.53532814, 0.44463454]),
    ],
    "Li": [
        ("s", [16.1195750, 2.9362007, 0.7946505],
         [0.15432897, 0.53532814, 0.44463454]),
        ("s", [0.6362897, 0.1478601, 0.0480887],
         [-0.09996723, 0.39951283, 0.70011547]),
        ("p", [0.6362897, 0.1478601, 0.0480887],
         [0.15591627, 0.60768372, 0.39195739]),
    ],
}

CHARGES = {"H": 1, "Li": 3}


def boys(n, x):
    return hyp1f1(n + 0.5, n + 1.5, -x) / (2.0 * n + 1.0)


def hermite_coefs(l1, l2, a, b, dist):
    """E[t] expansion of a 1-D Gaussian product into Hermite Gaussians."""
    p = a + b
    mu = a * b / p
    table = {(0, 0, 0): math.exp(-mu * dist * dist)}

    def get(i, j, t):
        if t < 0 or t > i + j:
            return 0.0
        if (i, j, t) in table:
            return table[(i, j, t)]
        if i > 0:
            val = (
                get(i - 1, j, t - 1) / (2.0 * p)
                - (mu * dist / a) * get(i - 1, j, t)
                + (t + 1) * get(i - 1, j, t + 1)
            )
        else:
            val = (
                get(i, j - 1, t - 1) / (2.0 * p)
                + (mu * dist / b) * get(i, j - 1, t)
                + (t + 1) * get(i, j - 1, t + 1)
            )
        table[(i, j, t)] = val
        return val

    return [get(l1, l2, t) for t in range(l1 + l2 + 1)]


def overlap_prim(a, lmn1, ca, b, lmn2, cb):
    p = a + b
    value = (math.pi / p) ** 1.5
    for axis in range(3):
        coefs = hermite_coefs(lmn1[axis], lmn2[axis], a, b, ca[axis] - cb[axis])
        value *= coefs[0]
    return value


def kinetic_prim(a, lmn1, ca, b, lmn2, cb):
    l2, m2, n2 = lmn2

    def shifted(d_l, d_m, d_n):
        lmn = (l2 + d_l, m2 + d_m, n2 + d_n)
        if min(lmn) < 0:
            return 0.0
        return overlap_prim(a, lmn1, ca, b, lmn, cb)

    term0 = b * (2 * (l2 + m2 + n2) + 3) * shifted(0, 0, 0)
    term1 = -2.0 * b * b * (shifted(2, 0, 0) + shifted(0, 2, 0) + shifted(0, 0, 2))
    term2 = -0.5 * (
        l2 * (l2 - 1) * shifted(-2, 0, 0)
        + m2 * (m2 - 1) * shifted(0, -2, 0)
        + n2 * (n2 - 1) * shifted(0, 0, -2)
    )
    return term0 + term1 + term2


def hermite_coulomb(t, u, v, n, p, pc):
    """R_{tuv}^{(n)} auxiliary integrals by downward recursion."""
    if t < 0 or u < 0 or v < 0:
        return 0.0
    if t == u == v == 0:
        r2 = pc[0] * pc[0] + pc[1] * pc[1] + pc[2] * pc[2]
        return (-2.0 * p) ** n * boys(n, p * r2)
    if t > 0:
        return (t - 1) * hermite_coulomb(t - 2, u, v, n + 1, p, pc) + pc[
            0
        ] * hermite_coulomb(t - 1, u, v, n + 1, p, pc)
    if u > 0:
        return (u - 1) * hermite_coulomb(t, u - 2, v, n + 1, p, pc) + pc[
            1
        ] * hermite_coulomb(t, u - 1, v, n + 1, p, pc)
    return (v - 1) * hermite_coulomb(t, u, v - 2, n + 1, p, pc) + pc[
        2
    ] * hermite_coulomb(t, u, v - 1, n + 1, p, pc)


def nuclear_prim(a, lmn1, ca, b, lmn2, cb, nucleus):
    p = a + b
    centre = (a * np.asarray(ca) + b * np.asarray(cb)) / p
    pc = centre - np.asarray(nucleus)
    ex = hermite_coefs(lmn1[0], lmn2[0], a, b, ca[0] - cb[0])
    ey = hermite_coefs(lmn1[1], lmn2[1], a, b, ca[1] - cb[1])
    ez = hermite_coefs(lmn1[2], lmn2[2], a, b, ca[2] - cb[2])
    total = 0.0
    for t in range(len(ex)):
        for u in range(len(ey)):
            for v in range(len(ez)):
                total += ex[t] * ey[u] * ez[v] * hermite_coulomb(t, u, v, 0, p, pc)
    return (2.0 * math.pi / p) * total


def eri_prim(a, lmn1, ca, b, lmn2, cb, c, lmn3, cc, d, lmn4, cd):
    p = a + b
    q = c + d
    alpha = p * q / (p + q)
    centre_p = (a * np.asarray(ca) + b * np.asarray(cb)) / p
    centre_q = (c * np.asarray(cc) + d * np.asarray(cd)) / q
    pq = centre_p - centre_q
    e1 = [hermite_coefs(lmn1[ax], lmn2[ax], a, b, ca[ax] - cb[ax]) for ax in range(3)]
    e2 = [hermite_coefs(lmn3[ax], lmn4[ax], c, d, cc[ax] - cd[ax]) for ax in range(3)]
    total = 0.0
    for t in range(len(e1[0])):
        for u in range(len(e1[1])):
            for v in range(len(e1[2])):
                w1 = e1[0][t] * e1[1][u] * e1[2][v]
                if w1 == 0.0:
                    continue
                for tt in range(len(e2[0])):
                    for uu in range(len(e2[1])):
                        for vv in range(len(e2[2])):
                            w2 = e2[0][tt] * e2[1][uu] * e2[2][vv]
                            if w2 == 0.0:
                                continue
                            total += (
                                w1
                                * w2
                                * (-1.0) ** (tt + uu + vv)
                                * hermite_coulomb(
                                    t + tt, u + uu, v + vv, 0, alpha, pq
                                )
                            )
    factor = 2.0 * math.pi**2.5 / (p * q * math.sqrt(p + q))
    return factor * total


def prim_norm(a, lmn):
    l, m, n = lmn
    df = lambda k: math.prod(range(k, 0, -2)) if k > 0 else 1
    num = (2.0 * a / math.pi) ** 0.75 * (4.0 * a) ** ((l + m + n) / 2.0)
    den = math.sqrt(df(2 * l - 1) * df(2 * m - 1) * df(2 * n - 1))
    return num / den


class BasisFunction:
    def __init__(self, center, lmn, exps, coefs):
        self.center = tuple(center)
        self.lmn = tuple(lmn)
        self.exps = list(exps)
        self.coefs = [c * prim_norm(a, lmn) for c, a in zip(coefs, exps)]
        # normalize the contracted function
        s = 0.0
        for ai, ci in zip(self.exps, self.coefs):
            for aj, cj in zip(self.exps, self.coefs):
                s += ci * cj * overlap_prim(ai, lmn, self.center, aj, lmn, self.center)
        self.coefs = [c / math.sqrt(s) for c in self.coefs]


def build_basis(atoms):
    basis = []
    for symbol, center in atoms:
        for shell_type, exps, coefs in STO3G[symbol]:
            if shell_type == "s":
                basis.append(BasisFunction(center, (0, 0, 0), exps, coefs))
            elif shell_type == "p":
                for lmn in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
                    basis.append(BasisFunction(center, lmn, exps, coefs))
    return basis


def contracted(integral, *functions, **kwargs):
    total = 0.0
    idx = [range(len(f.exps)) for f in functions]
    import itertools

    for combo in itertools.product(*idx):
        coeff = 1.0
        args = []
        for f, k in zip(functions, combo):
            coeff *= f.coefs[k]
            args.extend([f.exps[k], f.lmn, f.center])
        total += coeff * integral(*args, **kwargs)
    return total


def ao_integrals(atoms):
    basis = build_basis(atoms)
    n = len(basis)
    s_mat = np.zeros((n, n))
    t_mat = np.zeros((n, n))
    v_mat = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1):
            s_mat[i, j] = s_mat[j, i] = contracted(overlap_prim, basis[i], basis[j])
            t_mat[i, j] = t_mat[j, i] = contracted(kinetic_prim, basis[i], basis[j])
            v = 0.0
            for symbol, center in atoms:
                v -= CHARGES[symbol] * contracted(
                    nuclear_prim, basis[i], basis[j], nucleus=center
                )
            v_mat[i, j] = v_mat[j, i] = v

    eri = np.zeros((n, n, n, n))
    done = set()
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    key = min(
                        (i, j, k, l), (j, i, k, l), (i, j, l, k), (j, i, l, k),
                        (k, l, i, j), (l, k, i, j), (k, l, j, i), (l, k, j, i),
                    )
                    if key in done:
                        continue
                    done.add(key)
                    val = contracted(
                        eri_prim, basis[i], basis[j], basis[k], basis[l]
                    )
                    for (a, b, c, d) in {
                        (i, j, k, l), (j, i, k, l), (i, j, l, k), (j, i, l, k),
                        (k, l, i, j), (l, k, i, j), (k, l, j, i), (l, k, j, i),
                    }:
                        eri[a, b, c, d] = val  # chemist (ab|cd)
    return s_mat, t_mat, v_mat, eri


def nuclear_repulsion(atoms):
    e = 0.0
    for i in range(len(atoms)):
        for j in range(i):
            zi, ri = CHARGES[atoms[i][0]], np.asarray(atoms[i][1])
            zj, rj = CHARGES[atoms[j][0]], np.asarray(atoms[j][1])
            e += zi * zj / np.linalg.norm(ri - rj)
    return e


def rhf(atoms, max_cycles=200, conv=1e-12):
    s_mat, t_mat, v_mat, eri = ao_integrals(atoms)
    h_core = t_mat + v_mat
    n_elec = sum(CHARGES[sym] for sym, _ in atoms)
    if n_elec % 2:
        raise ValueError("closed-shell systems only")
    n_occ = n_elec // 2

    evals, evecs = np.linalg.eigh(s_mat)
    s_inv_half = evecs @ np.diag(evals**-0.5) @ evecs.T

    def fock_matrix(density):
        j = np.einsum("pqrs,rs->pq", eri, density)
        k = np.einsum("prqs,rs->pq", eri, density)
        return h_core + j - 0.5 * k

    density = np.zeros_like(h_core)
    energy = 0.0
    for _ in range(max_cycles):
        fock = fock_matrix(density)
        fock_ortho = s_inv_half @ fock @ s_inv_half
        _, c_ortho = np.linalg.eigh(fock_ortho)
        coeffs = s_inv_half @ c_ortho
        occ = coeffs[:, :n_occ]
        new_density = 2.0 * occ @ occ.T
        new_energy = 0.5 * np.sum(new_density * (h_core + fock_matrix(new_density)))
        converged = (abs(new_energy - energy) < conv
                     and np.max(np.abs(new_density - density)) < 1e-10)
        density, energy = new_density, new_energy
        if converged:
            break
    else:  # the last iterate is not an SCF solution: its orbitals must not be written
        raise RuntimeError(f"RHF did not converge in {max_cycles} cycles")
    e_nuc = nuclear_repulsion(atoms)
    return {
        "coeffs": coeffs,
        "h_core": h_core,
        "eri": eri,
        "e_elec": energy,
        "e_nuc": e_nuc,
        "e_total": energy + e_nuc,
        "n_elec": n_elec,
    }


def mo_integrals(result):
    c = result["coeffs"]
    h_mo = c.T @ result["h_core"] @ c
    eri_mo = result["eri"]
    for _ in range(4):
        eri_mo = np.tensordot(eri_mo, c, axes=([0], [0]))
    return h_mo, eri_mo  # eri_mo stays in chemist index order


def write_fcidump(path, h_mo, eri_mo, core_energy, n_elec, tol=1e-12):
    n = h_mo.shape[0]
    lines = [f"&FCI NORB={n},NELEC={n_elec},MS2=0,"]
    lines.append(" ORBSYM=" + "1," * n)
    lines.append(" ISYM=1,")
    lines.append("&END")
    for i in range(n):
        for j in range(i + 1):
            for k in range(i + 1):
                l_max = j if k == i else k
                for l in range(l_max + 1):
                    val = eri_mo[i, j, k, l]
                    if abs(val) > tol:
                        lines.append(
                            f"{val: .16e} {i + 1} {j + 1} {k + 1} {l + 1}"
                        )
    for i in range(n):
        for j in range(i + 1):
            if abs(h_mo[i, j]) > tol:
                lines.append(f"{h_mo[i, j]: .16e} {i + 1} {j + 1} 0 0")
    lines.append(f"{core_energy: .16e} 0 0 0 0")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def generate(path, atoms, label):
    result = rhf(atoms)
    h_mo, eri_mo = mo_integrals(result)
    write_fcidump(path, h_mo, eri_mo, result["e_nuc"], result["n_elec"])
    print(
        f"{label:18s} E_RHF = {result['e_total']: .8f} Ha "
        f"(electronic {result['e_elec']: .8f}, nuclear {result['e_nuc']: .8f}) -> {path}"
    )
    return result


def main():
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "fixtures"
    os.makedirs(out_dir, exist_ok=True)
    scan_dir = os.path.join(out_dir, "h2_scan")
    os.makedirs(scan_dir, exist_ok=True)

    h2 = lambda r: [("H", (0.0, 0.0, 0.0)), ("H", (0.0, 0.0, r))]
    generate(os.path.join(out_dir, "h2_sto3g.fcidump"), h2(1.4), "H2 (R=1.4 a0)")
    for r in (1.1, 1.4, 2.0):
        generate(
            os.path.join(scan_dir, f"h2_r{r:.2f}.fcidump"),
            h2(r),
            f"H2 (R={r} a0)",
        )

    spacing = 1.8
    h4 = [("H", (0.0, 0.0, i * spacing)) for i in range(4)]
    generate(os.path.join(out_dir, "h4_sto3g.fcidump"), h4, "H4 chain (1.8 a0)")

    r_lih = 1.5949 * ANGSTROM_TO_BOHR
    lih = [("Li", (0.0, 0.0, 0.0)), ("H", (0.0, 0.0, r_lih))]
    generate(os.path.join(out_dir, "lih_sto3g.fcidump"), lih, "LiH (R=1.5949 A)")

    print("\nreference values: H2/STO-3G at 1.4 a0 -> -1.11671 Ha;")
    print("LiH/STO-3G near equilibrium -> about -7.8634 Ha")


if __name__ == "__main__":
    main()
