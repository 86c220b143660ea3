"""The SA-VQE sector path against the dense oracles: the occupation-basis
Hamiltonian of fock.py, the Pauli-word excitation chain and the letter-string
expectation."""

import gc
import hashlib
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from devqe import ansatz as ansatz_mod
from devqe import fock, savqe, statevector
from devqe.ansatz import GivensAnsatz, apply_ansatz, default_ansatz
from devqe.de import DEConfig, TerminationCriteria
from devqe.integrals import MolecularIntegrals, freeze_core
from devqe.jw import jordan_wigner
from devqe.local import LocalOptConfig
from devqe.orbitals import MacroConfig, OOConfig, rotate_integrals, run_sa_oo_vqe
from devqe.savqe import OptimizerChoice, Sector, build_initial_states, run_sa_vqe, sa_energy
from devqe.statevector import ShapeError, expectation, ladder_on_basis, measure_rdms
from tests.dense_oracle import apply_excitation, dense_expectation, scatter

SYSTEMS = ("h2", "h4", "lih_frozen_core", "lih")


@pytest.fixture
def system(request):
    """(integrals, letter-form Hamiltonian, ansatz, references, sector)."""
    name = request.param
    if name == "lih_frozen_core":
        integrals = freeze_core(request.getfixturevalue("lih_integrals"), 1)
    else:
        integrals = request.getfixturevalue(f"{name}_integrals")
    ansatz = default_ansatz(integrals.n_orb, integrals.n_elec)
    states = build_initial_states(integrals.n_orb, integrals.n_elec)
    return integrals, jordan_wigner(integrals), ansatz, states, Sector.build(integrals, ansatz)


def excitation_chain(reference, ansatz, theta):
    out = reference
    for excitation, angle in zip(ansatz.excitations, theta):
        out = apply_excitation(out, excitation, float(angle))
    return out


@pytest.mark.parametrize("system", SYSTEMS, indirect=True)
def test_basis_is_the_particle_and_spin_sector(system):
    integrals, _, _, _, sector = system
    expected = fock.sector_basis(2 * integrals.n_orb, integrals.n_elec, 0)
    assert sector.basis.tolist() == expected


def test_ladder_action_matches_occupation_basis_rule():
    # random ladder strings of 1-4 operators on 5 modes, repeated modes and
    # strings that vanish included, on every bitstring
    rng = np.random.default_rng(44)
    basis = np.arange(32)
    for _ in range(300):
        specs = [(int(m), bool(d)) for m, d in zip(rng.integers(0, 5, rng.integers(1, 5)),
                                                   rng.integers(0, 2, 4))]
        src, dst, sign = ladder_on_basis(specs, basis)
        assert np.all(np.diff(src) > 0), specs
        acted = dict(zip(src.tolist(), zip(dst.tolist(), sign.tolist())))
        for b in basis.tolist():
            expected_sign, out = fock._apply_ops(b, specs)
            if out is None:
                assert b not in acted, (specs, b)
            else:
                assert acted[b] == (out, expected_sign), (specs, b)


def test_ladder_leading_out_of_the_basis_rejected():
    # a^+_2 a_0 takes |0b011> out of the one-determinant basis
    with pytest.raises(ValueError, match="not closed"):
        ladder_on_basis(((2, True), (0, False)), np.array([0b011]))


# sha256 of the basis bytes of each fixture's sector
SECTOR_PINS = {
    "h2": "fe2e3876105e2686557dd746753ebaa67513eac43211b6338c98aafd39291f89",
    "h4": "5655235b2460f736e122e4267182a0e3d334e7c58541ee2fe7917dee829907a1",
    "lih_frozen_core": "5e3b6bb4b2f9a5a8849c08b097f62d6736cfc848e9a9cb09c5a202501053c66c",
    "lih": "d2504e6a33fdcd7f2336362fd665a2bf0188f8b623013414360d911756b6c254",
}


@pytest.mark.parametrize("system", SYSTEMS, indirect=True)
def test_sector_bytes_match_pins(system, request):
    *_, sector = system
    assert sector.basis.dtype == np.int64 and sector.hamiltonian.matrix.dtype == np.float64
    pin = SECTOR_PINS[request.node.callspec.params["system"]]
    assert hashlib.sha256(sector.basis.tobytes()).hexdigest() == pin


# sha256 of each fixture's Hamiltonian block, sector references and dense
# build_initial_states amplitudes (the two states' bytes back to back), taken
# from the code that built the references with dense ladder operators
BLOCK_PINS = {
    "h2": ("aee4a616c71ca0a87778ebbe5c2b2cf7a413c8e694c35707c895d51539d6f8e1",
           "e1700c0dadf0f9d8c66d96e4d66258e983794807d7c5de3ad3629210fccc897a",
           "e45d3a60d4de2ebd0354a3d47024f96aed54bc6d9c2229eb2b61c783fc875eb1"),
    "h4": ("87bf4707a4d1e10bcc3c72cd8562a6c7244615ea6370ee0ac7bc54f1afc6a686",
           "b3ca6c63d3c652154844e3e5f1a7432eeac9f3d77628dc18302bb03624bfe35e",
           "32169b9397ebb8cc5d8ff59954e91ac1ffabd7411b6c9c742dc3775f2d481b16"),
    "lih_frozen_core": ("4659c5542f30659784a741d3a84fe21af9ab41b2fa972c5e7500f7095bbd2874",
                        "182c665ebeceac348dd52cc88c75e5fe040b1953795752e7e95f4c54bee6dc7c",
                        "0f1710f9629cc4244b96d980d81b1007903825e74b32f26ed9d56f31d15b8b7f"),
    "lih": ("2bd57197a2385ad558c27cfbfc835f9422b3aba6d093af25f58f6e189b12ceb0",
            "a8bb5d4081da2684740f56a3ac1e2f89eb8aca7bb446cea2307ac4437f07c0cf",
            "ae192f62ff7154880a4c40383cf65be6cf3e487d27d913634379f17610ce2607"),
}


@pytest.mark.parametrize("system", SYSTEMS, indirect=True)
def test_block_and_references_match_pins(system, request):
    *_, states, sector = system
    assert sector.references.dtype == np.float64
    got = (hashlib.sha256(sector.hamiltonian.matrix.tobytes()).hexdigest(),
           hashlib.sha256(sector.references.tobytes()).hexdigest(),
           hashlib.sha256(b"".join(s.amplitudes.tobytes() for s in states)).hexdigest())
    assert got == BLOCK_PINS[request.node.callspec.params["system"]]


@pytest.mark.parametrize("system", SYSTEMS, indirect=True)
def test_sector_hamiltonian_matches_occupation_basis_matrix(system):
    integrals, _, _, _, sector = system
    reference = fock.hamiltonian_matrix(integrals, sector.basis.tolist())
    assert np.max(np.abs(sector.hamiltonian.matrix - reference)) < 1e-12


@pytest.mark.parametrize("system", ["h4", "lih"], indirect=True)
def test_rotated_integrals_block_matches_occupation_basis_matrix(system):
    # every macro iteration after the first re-contracts the block from
    # rotated integrals, which carry weight on every index
    integrals, _, _, _, sector = system
    n_orb = integrals.n_orb
    rng = np.random.default_rng(45)
    for _ in range(3):
        kappa = rng.normal(0.0, 0.3, n_orb * (n_orb - 1) // 2)
        rotated = rotate_integrals(integrals, kappa)
        block = sector.with_integrals(rotated).hamiltonian.matrix
        reference = fock.hamiltonian_matrix(rotated, sector.basis.tolist())
        assert np.max(np.abs(block - reference)) < 1e-12


@pytest.mark.parametrize("system", SYSTEMS, indirect=True)
def test_scattered_states_match_excitation_chain(system):
    _, ham, ansatz, states, sector = system
    rng = np.random.default_rng(41)
    for _ in range(3):
        theta = rng.uniform(-np.pi, np.pi, ansatz.parameter_count)
        _, energies, rows = sa_energy(theta, sector, (0.5, 0.5))
        evolved = scatter(sector, rows)
        for reference, state, energy in zip(states, evolved, energies):
            chain = excitation_chain(reference, ansatz, theta)
            assert np.max(np.abs(state.amplitudes - chain.amplitudes)) < 1e-12
            # the sector energy against the letter form, on the scattered state
            assert abs(energy - dense_expectation(state, ham)) < 1e-12
            assert abs(energy - dense_expectation(chain, ham)) < 1e-12


def assert_rdms_match_dense_oracle(sector, rows):
    n_orb = sector.lists.n_orb
    for row, state in zip(rows, scatter(sector, rows)):
        got, ref = sector.lists.rdms(row), measure_rdms(state, n_orb)
        assert np.max(np.abs(got.one_rdm - ref.one_rdm)) < 1e-12
        assert np.max(np.abs(got.two_rdm - ref.two_rdm)) < 1e-12


@pytest.mark.parametrize("system", SYSTEMS, indirect=True)
def test_list_rdms_match_dense_oracle(system):
    integrals, _, ansatz, _, sector = system
    rng = np.random.default_rng(46)
    # evolved references at random theta
    for _ in range(2):
        theta = rng.uniform(-np.pi, np.pi, ansatz.parameter_count)
        assert_rdms_match_dense_oracle(sector, sa_energy(theta, sector, (0.5, 0.5))[2])
    # random real normalized vectors on the sector
    vectors = rng.normal(size=(2, sector.basis.size))
    assert_rdms_match_dense_oracle(sector, vectors / np.linalg.norm(vectors, axis=1)[:, None])
    # the sector of rotated integrals, as every macro iteration after the first derives
    n_orb = integrals.n_orb
    kappa = rng.normal(0.0, 0.3, n_orb * (n_orb - 1) // 2)
    rotated = sector.with_integrals(rotate_integrals(integrals, kappa))
    theta = rng.uniform(-np.pi, np.pi, ansatz.parameter_count)
    assert_rdms_match_dense_oracle(rotated, sa_energy(theta, rotated, (0.5, 0.5))[2])


def synthetic_integrals(n_orb, n_elec, seed):
    """Random real integrals with the 8-fold symmetry: chemist (ij|kl) =
    sum_P L[P,i,j] L[P,k,l] with every L[P] symmetric."""
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(n_orb, n_orb))
    factors = rng.normal(size=(n_orb, n_orb, n_orb))
    factors = factors + factors.transpose(0, 2, 1)
    chemist = np.einsum("Pij,Pkl->ijkl", factors, factors)
    return MolecularIntegrals(n_orb, n_elec, 0.5, h + h.T, chemist.transpose(0, 2, 1, 3))


def short_saoo_run(integrals, ansatz):
    """One macro iteration of two BFGS steps in each stage, two rotation pairs."""
    short = LocalOptConfig(max_iters=2)
    return run_sa_oo_vqe(integrals, ansatz,
                         inner_optimizer=OptimizerChoice("bfgs", local_config=short),
                         oo_config=OOConfig(local=short, pair_mask=[(1, 0), (2, 1)]),
                         macro_config=MacroConfig(max_macro_iters=1))


@pytest.mark.parametrize("stage", [Sector.build, short_saoo_run], ids=["build", "saoo_run"])
def test_stage_allocates_nothing_of_size_two_to_the_n(stage):
    # 20 qubits and S = 100 determinants: one 2^20 index array alone is 8 MB
    integrals = synthetic_integrals(10, 2, 47)
    ansatz = default_ansatz(10, 2)
    tracemalloc.start()
    try:
        stage(integrals, ansatz)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_saoo_run_path_builds_no_dense_state(h4_integrals, monkeypatch):
    def dense(*_args, **_kwargs):
        raise AssertionError("the run path reached a 2^n state")

    monkeypatch.setattr(statevector.StateVector, "__post_init__", dense)
    monkeypatch.setattr(statevector, "_index_array", dense)
    monkeypatch.setattr(savqe, "_scatter", dense)
    result = run_sa_oo_vqe(h4_integrals, default_ansatz(h4_integrals.n_orb, h4_integrals.n_elec))
    # the counts of the h4_saoo benchmark goldens
    assert (result.evaluations, result.macro_iterations) == (415, 2)


@pytest.mark.parametrize("system", ["h4", "lih"], indirect=True)
@pytest.mark.parametrize("n_rows", [1, 2, 3, 67])
def test_block_rows_bitwise_equal_to_one_row(system, n_rows):
    # rows alternate between the references; each row of a block must be
    # what the same row gives alone, in the evolved state and its energy
    _, _, ansatz, _, sector = system
    rng = np.random.default_rng(42 + n_rows)
    thetas = rng.uniform(-np.pi, np.pi, (n_rows, ansatz.parameter_count))
    refs = sector.references[np.arange(n_rows) % len(sector.references)]
    block = apply_ansatz(refs, sector.ansatz, thetas)
    energies = expectation(block, sector.hamiltonian)
    for row in range(n_rows):
        alone = apply_ansatz(refs[row : row + 1], sector.ansatz, thetas[row : row + 1])
        assert np.array_equal(block[row], alone[0]), row
        assert energies[row] == expectation(alone, sector.hamiltonian)[0], row


@pytest.mark.parametrize("system", ["h4"], indirect=True)
@pytest.mark.parametrize("n_points", [1, 2, 3, 40])
def test_sa_energy_points_bitwise_equal_to_one_point(system, n_points):
    _, _, ansatz, _, sector = system
    thetas = np.random.default_rng(43).uniform(-1.0, 1.0, (n_points, ansatz.parameter_count))
    e_sa, energies, _ = sa_energy(thetas, sector, (0.25, 0.75))
    for i, theta in enumerate(thetas):
        one_e_sa, one_energies, _ = sa_energy(theta, sector, (0.25, 0.75))
        assert e_sa[i] == one_e_sa
        assert tuple(energies[i].tolist()) == one_energies


class CountingTrig:
    """Stands in for the math module: cos and sin, with their calls counted."""

    def __init__(self):
        self.calls = {"cos": 0, "sin": 0}

    def cos(self, x):
        self.calls["cos"] += 1
        return math.cos(x)

    def sin(self, x):
        self.calls["sin"] += 1
        return math.sin(x)


def counted_apply(monkeypatch, *args):
    """apply_ansatz(*args) and the cos and sin calls it made."""
    trig = CountingTrig()
    with monkeypatch.context() as patch:
        patch.setattr(ansatz_mod, "math", trig)
        return apply_ansatz(*args), trig.calls


@pytest.mark.parametrize("system", SYSTEMS, indirect=True)
def test_grouped_rows_bitwise_equal_to_per_row_rows(system, monkeypatch):
    # each point evolves every reference: as one group per point, the point
    # takes its cos and sin once; as one row per (point, reference), once per row
    _, _, ansatz, states, sector = system
    n_points, n_states, n_params = 5, len(sector.references), ansatz.parameter_count
    thetas = np.random.default_rng(44).uniform(-np.pi, np.pi, (n_points, n_params))
    row_thetas = np.repeat(thetas, n_states, axis=0)
    per_row, row_calls = counted_apply(
        monkeypatch, np.tile(sector.references, (n_points, 1)), sector.ansatz, row_thetas)
    grouped, group_calls = counted_apply(monkeypatch, sector.references[None], sector.ansatz,
                                         thetas)
    per_point = n_points * n_params
    assert row_calls == {"cos": n_states * per_point, "sin": n_states * per_point}
    assert group_calls == {"cos": per_point, "sin": per_point}
    assert grouped.shape == (n_points, n_states, sector.basis.size)
    assert np.array_equal(grouped.reshape(per_row.shape), per_row)
    # R groups of their own give the rows of the one shared group
    own = apply_ansatz(np.tile(sector.references, (n_points, 1, 1)), sector.ansatz, thetas)
    assert np.array_equal(own, grouped)
    # the complex 2^n references, on the Givens sets of the full basis
    dense = GivensAnsatz.on_basis(ansatz, np.arange(2**ansatz.n_qubits))
    refs = np.array([state.amplitudes for state in states])
    dense_rows = apply_ansatz(np.tile(refs, (2, 1)), dense, row_thetas[:2 * n_states])
    dense_grouped = apply_ansatz(refs[None], dense, thetas[:2])
    assert dense_grouped.dtype == complex
    assert np.array_equal(dense_grouped.reshape(dense_rows.shape), dense_rows)


def test_grouped_block_shapes_checked(h2_integrals):
    sector = Sector.build(h2_integrals, default_ansatz(h2_integrals.n_orb, h2_integrals.n_elec))
    thetas = np.zeros((3, sector.ansatz.parameter_count))
    blocks = np.tile(sector.references, (3, 1, 1))
    assert apply_ansatz(blocks, sector.ansatz, thetas).shape == blocks.shape
    with pytest.raises(ShapeError):
        apply_ansatz(blocks[:2], sector.ansatz, thetas)
    with pytest.raises(ShapeError):
        apply_ansatz(blocks[..., :-1], sector.ansatz, thetas)
    with pytest.raises(ValueError):
        apply_ansatz(blocks, sector.ansatz, thetas[:, :-1])


def watch_sectors(monkeypatch):
    """Weak references to every Sector that Sector.build or
    Sector.with_integrals returns from now on, per method."""
    made = {"build": [], "with_integrals": []}
    build, derive = Sector.build.__func__, Sector.with_integrals

    def watched_build(cls, *args):
        sector = build(cls, *args)
        made["build"].append(weakref.ref(sector))
        return sector

    def watched_derive(self, integrals):
        sector = derive(self, integrals)
        made["with_integrals"].append(weakref.ref(sector))
        return sector

    monkeypatch.setattr(Sector, "build", classmethod(watched_build))
    monkeypatch.setattr(Sector, "with_integrals", watched_derive)
    return made


def test_saoo_run_builds_one_sector(h4_integrals, monkeypatch):
    # the orbitals are all that change between macro iterations: one build,
    # and one re-contracted block for each stage after the first
    made = watch_sectors(monkeypatch)
    result = run_sa_oo_vqe(h4_integrals, default_ansatz(h4_integrals.n_orb, h4_integrals.n_elec))
    assert result.macro_iterations == 2
    assert len(made["build"]) == 1
    assert len(made["with_integrals"]) == result.macro_iterations - 1


@pytest.mark.parametrize(
    "optimizer",
    [
        OptimizerChoice("bfgs"),
        OptimizerChoice("de", de_config=DEConfig(
            seed=1, termination=TerminationCriteria(max_generations=3))),
    ],
    ids=["bfgs", "de"],
)
def test_sector_freed_with_its_run_without_garbage_collection(h2_integrals, optimizer,
                                                              monkeypatch):
    # the run owns its sectors: a reference cycle or a cache would keep one
    # (for LiH, 0.4 MB of Hamiltonian block) alive after the run returns
    made = watch_sectors(monkeypatch)
    gc.disable()
    try:
        result = run_sa_oo_vqe(h2_integrals, default_ansatz(2, 2), inner_optimizer=optimizer,
                               macro_config=MacroConfig(max_macro_iters=2))
        assert len(made["build"]) == 1 and len(made["with_integrals"]) == 1
        assert all(ref() is None for refs in made.values() for ref in refs)
        assert result.evaluations > 2
    finally:
        gc.enable()


def test_with_integrals_is_the_built_block_on_shared_parts(h4_integrals):
    ansatz = default_ansatz(4, 4)
    sector = Sector.build(h4_integrals, ansatz)
    kappa = np.random.default_rng(48).normal(0.0, 0.3, 6)
    rotated = rotate_integrals(h4_integrals, kappa)
    derived = sector.with_integrals(rotated)
    built = Sector.build(rotated, ansatz)
    assert np.array_equal(derived.hamiltonian.matrix, built.hamiltonian.matrix)
    assert derived.lists is sector.lists and derived.ansatz is sector.ansatz
    assert derived.references is sector.references


@pytest.mark.parametrize("n_orb, n_elec", [(3, 4), (5, 4), (4, 2), (4, 6)])
def test_with_integrals_rejects_other_orbital_or_electron_counts(h4_integrals, n_orb, n_elec):
    sector = Sector.build(h4_integrals, default_ansatz(4, 4))
    with pytest.raises(ShapeError, match="orbital or electron count"):
        sector.with_integrals(synthetic_integrals(n_orb, n_elec, 49))


def test_incumbent_adopted_only_when_lower(h2_integrals):
    short = OptimizerChoice("gd", local_config=LocalOptConfig(max_iters=1))
    sector = Sector.build(h2_integrals, default_ansatz(2, 2))
    plain = run_sa_vqe(sector, optimizer=short)
    best = run_sa_vqe(sector)
    adopted = run_sa_vqe(sector, optimizer=short, incumbent=best.theta)
    assert adopted.evaluations == plain.evaluations + 1
    assert np.array_equal(adopted.theta, best.theta) and adopted.e_sa == best.e_sa
    kept = run_sa_vqe(sector, incumbent=plain.theta)
    assert np.array_equal(kept.theta, best.theta) and kept.e_sa == best.e_sa
