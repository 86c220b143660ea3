"""The trace CSV: one row per event, one energy column per state."""

import csv

from devqe.trace import SCOPE_MACRO, SCOPE_STEP, OptimizationTrace, TraceEvent


def write(tmp_path, events):
    path = tmp_path / "trace.csv"
    OptimizationTrace(events=events).write_csv(path)
    return path


def test_two_state_trace_layout(tmp_path):
    path = write(tmp_path, [
        TraceEvent(3, SCOPE_STEP, 1, -0.5, (-1.25, 0.25)),
        TraceEvent(5, SCOPE_MACRO, 1, -0.75),
    ])
    assert path.read_bytes() == (
        b"cum_evals,scope,macro_index,e_sa,e0,e1\r\n"
        b"3,optimizer_step,1,-0.5,-1.25,0.25\r\n"
        b"5,sa_oo_vqe_iteration,1,-0.75,,\r\n"
    )


def test_every_state_energy_is_written(tmp_path):
    energies = (-1.5, -0.75, 0.125)
    path = write(tmp_path, [
        TraceEvent(4, SCOPE_STEP, 0, sum(energies) / 3, energies),
        TraceEvent(9, SCOPE_MACRO, 1, -0.25),
    ])
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["cum_evals", "scope", "macro_index", "e_sa", "e0", "e1", "e2"]
    assert tuple(float(rows[0][f"e{k}"]) for k in range(3)) == energies
    assert [rows[1][f"e{k}"] for k in range(3)] == ["", "", ""]


def test_frozen_core_saoo_trace_cells_parse_as_numbers(tmp_path, lih_integrals):
    # freeze_core sums numpy scalars into the core energy, which reaches the
    # macro rows' state energies through rdm_energy
    from devqe.ansatz import default_ansatz
    from devqe.integrals import freeze_core
    from devqe.orbitals import MacroConfig, run_sa_oo_vqe

    frozen = freeze_core(lih_integrals, 1)
    assert type(frozen.core_energy) is float
    result = run_sa_oo_vqe(frozen, default_ansatz(frozen.n_orb, frozen.n_elec),
                           macro_config=MacroConfig(max_macro_iters=1))
    path = tmp_path / "trace.csv"
    result.trace.write_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {row["scope"] for row in rows} == {SCOPE_STEP, SCOPE_MACRO}
    for row in rows:
        for column, cell in row.items():
            if column != "scope":
                float(cell)
