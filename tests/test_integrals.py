"""FCIDUMP parsing, symmetry handling, and frozen-core folding."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from devqe.integrals import (
    MAX_NORB,
    FcidumpError,
    HeaderError,
    OrbitalIndexError,
    freeze_core,
    hf_determinant_energy,
    load_fcidump,
    parse_fcidump,
)
from tests.conftest import fixture_path

HEADER = "&FCI NORB=2,NELEC=2,MS2=0,\n ORBSYM=1,1,\n ISYM=1,\n&END\n"


class TestParse:
    def test_header_echo(self):
        ints = parse_fcidump(HEADER + " 0.0 0 0 0 0\n")
        assert ints.n_orb == 2
        assert ints.n_elec == 2
        assert ints.ms2 == 0

    def test_chemist_to_physicist_mapping(self):
        ints = parse_fcidump(HEADER + " 0.75 1 1 1 1\n 0.0 0 0 0 0\n")
        assert ints.g[0, 0, 0, 0] == 0.75
        assert ints.chemist(0, 0, 0, 0) == 0.75

    def test_core_energy_line(self):
        ints = parse_fcidump(HEADER + " 0.715 0 0 0 0\n")
        assert ints.core_energy == 0.715

    def test_eightfold_symmetry_filled(self):
        ints = parse_fcidump(HEADER + " 0.3 1 2 1 1\n 0.0 0 0 0 0\n")
        # chemist (12|11) populates all eight equivalent chemist slots
        for (i, j, k, l) in [
            (0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0),
        ]:
            assert ints.chemist(i, j, k, l) == 0.3

    def test_one_electron_symmetrized(self):
        ints = parse_fcidump(HEADER + " -1.25 2 1 0 0\n 0.0 0 0 0 0\n")
        assert ints.h[1, 0] == -1.25
        assert ints.h[0, 1] == -1.25

    def test_fortran_d_exponents(self):
        ints = parse_fcidump(HEADER + " 0.5D+00 1 1 0 0\n 0.0 0 0 0 0\n")
        assert ints.h[0, 0] == 0.5

    def test_malformed_line_reports_number(self):
        with pytest.raises(FcidumpError) as excinfo:
            parse_fcidump(HEADER + " 0.5 1 1\n")
        assert "line 5" in str(excinfo.value)

    def test_index_out_of_range(self):
        with pytest.raises(OrbitalIndexError):
            parse_fcidump(HEADER + " 0.5 3 1 0 0\n")

    def test_missing_norb(self):
        with pytest.raises(HeaderError):
            parse_fcidump("&FCI NELEC=2,MS2=0,\n&END\n 0.0 0 0 0 0\n")

    @pytest.mark.parametrize("norb", [0, -1])
    def test_norb_below_one(self, norb):
        # before the numpy arrays are sized: no "zero-size array" or
        # "negative dimensions" error from inside numpy
        with pytest.raises(HeaderError, match=f"NORB must be at least 1, got {norb}"):
            parse_fcidump(f"&FCI NORB={norb},NELEC=2,MS2=0,\n&END\n 0.0 0 0 0 0\n")

    @pytest.mark.parametrize("norb", [MAX_NORB + 1, 999, 10**9])
    def test_norb_above_max_rejected_before_allocating(self, norb):
        # the header sizes the dense g tensor: 65 orbitals would be 136 MiB
        text = f"&FCI NORB={norb},NELEC=2,MS2=0,\n&END\n 0.0 0 0 0 0\n"
        tracemalloc.start()
        try:
            with pytest.raises(HeaderError, match=f"NORB must be at most {MAX_NORB}, got {norb}"):
                parse_fcidump(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999", "-1.0D+999"])
    def test_non_finite_value_rejected_with_its_line(self, value):
        # 1e999 overflows to inf; NaN would pass every symmetry check
        text = HEADER + f" 0.5 1 1 0 0\n {value} 1 1 1 1\n 0.0 0 0 0 0\n"
        with pytest.raises(FcidumpError, match=r"^line 6: value \S+ is not finite$"):
            parse_fcidump(text)


# sha256 of core_energy (float64 bytes), h and g of every shipped FCIDUMP,
# taken from the parser before it checked values for finiteness
PARSED_FIXTURE_PINS = {
    "h2_sto3g": "991ac96e0bff3025f40a3a79281b0f77d89395d1e8778fb5b47e2541efb48e3e",
    "h4_sto3g": "f6a8955272f1368925e31a61a8ab087dc03fabe9795586a4374b07f877b208ff",
    "lih_sto3g": "44bdf94d6d04a41e1fac4c0ff17dce2cf95a21fb93ec348e6a94de935e7511a4",
    "h2_scan/h2_r1.10": "90346b64c42625ff0a78c0f4d6f4273778032a5619614534ae62f413443cab01",
    "h2_scan/h2_r1.40": "991ac96e0bff3025f40a3a79281b0f77d89395d1e8778fb5b47e2541efb48e3e",
    "h2_scan/h2_r2.00": "87e74464b8dc9452195272f1eef834568d41ac496ce5b3bbfe4c17fc9cec8449",
}


@pytest.mark.parametrize("name", sorted(PARSED_FIXTURE_PINS))
def test_shipped_fixtures_parse_to_pinned_arrays(name):
    ints = load_fcidump(fixture_path(f"{name}.fcidump"))
    data = np.float64(ints.core_energy).tobytes() + ints.h.tobytes() + ints.g.tobytes()
    assert hashlib.sha256(data).hexdigest() == PARSED_FIXTURE_PINS[name]


class TestFixtures:
    def test_h2_fixture_hf_energy(self, h2_integrals):
        # frozen from the generator's SCF output (see fixtures/README.md)
        assert abs(hf_determinant_energy(h2_integrals) - (-1.11671433)) < 1e-7

    def test_h4_fixture_hf_energy(self, h4_integrals):
        assert abs(hf_determinant_energy(h4_integrals) - (-2.11342892)) < 1e-7

    def test_lih_fixture_hf_energy(self, lih_integrals):
        assert abs(hf_determinant_energy(lih_integrals) - (-7.86202696)) < 1e-7

    def test_h_symmetric_and_g_eightfold(self, lih_integrals):
        ints = lih_integrals
        assert np.max(np.abs(ints.h - ints.h.T)) < 1e-12
        rng = np.random.default_rng(0)
        n = ints.n_orb
        for _ in range(200):
            i, j, k, l = rng.integers(0, n, 4)
            ref = ints.chemist(i, j, k, l)
            for (a, b, c, d) in [
                (j, i, k, l), (i, j, l, k), (j, i, l, k),
                (k, l, i, j), (l, k, i, j), (k, l, j, i), (l, k, j, i),
            ]:
                assert abs(ints.chemist(a, b, c, d) - ref) < 1e-12


class TestFreezeCore:
    def test_zero_frozen_is_identity(self, h2_integrals):
        out = freeze_core(h2_integrals, 0)
        assert out.n_orb == h2_integrals.n_orb
        assert out.n_elec == h2_integrals.n_elec
        assert np.array_equal(out.h, h2_integrals.h)
        assert np.array_equal(out.g, h2_integrals.g)
        assert out.core_energy == h2_integrals.core_energy

    def test_lih_frozen_core_preserves_hf_energy(self, lih_integrals):
        frozen = freeze_core(lih_integrals, 1)
        assert frozen.n_orb == lih_integrals.n_orb - 1
        assert frozen.n_elec == lih_integrals.n_elec - 2
        e_full = hf_determinant_energy(lih_integrals)
        e_frozen = hf_determinant_energy(frozen)
        assert abs(e_full - e_frozen) < 1e-10

    def test_pure_one_electron_folding(self):
        # no two-electron integrals: freezing one orbital adds exactly 2 h00
        from devqe.integrals import MolecularIntegrals

        h = np.diag([-2.0, -1.0, -0.5])
        ints = MolecularIntegrals(
            n_orb=3, n_elec=4, core_energy=0.25, h=h, g=np.zeros((3,) * 4)
        )
        out = freeze_core(ints, 1)
        assert abs(out.core_energy - (0.25 + 2.0 * (-2.0))) < 1e-14
        assert np.array_equal(out.h, h[1:, 1:])

    def test_invalid_frozen_counts(self, h2_integrals):
        with pytest.raises(ValueError):
            freeze_core(h2_integrals, -1)
        with pytest.raises(ValueError):
            freeze_core(h2_integrals, 2)
