"""The benchmark's golden check counts a perturbed run as failed."""

import pytest

from goldens import DEFAULT_SEED, ENERGY_TOL, check_pass, load_goldens
from run import DESphere, H2Compare, de_seeds


def record_from_golden(key, entry, bounded):
    return {"key": key, "counts": dict(entry["counts"]), "energies": dict(entry["energies"]),
            "bounded": entry["energies"][bounded], "error": None}


def h2_records():
    goldens = load_goldens()["workloads"]["h2_compare"]
    seeds = H2Compare().config(DEFAULT_SEED)["seeds"].split(",")
    keys = [H2Compare.run_key(m, s) for m in H2Compare.methods for s in seeds]
    return goldens, [record_from_golden(k, goldens[k], "e_sa") for k in keys]


def test_golden_records_pass():
    goldens, records = h2_records()
    assert len(records) == 15
    assert check_pass(records, goldens, floor=-10.0) == []


@pytest.mark.parametrize("count", ["evaluations", "macro_iterations"])
@pytest.mark.parametrize("index", [0, 14])  # bfgs (every seed), a seeded DE run
def test_perturbed_count_fails(count, index):
    goldens, records = h2_records()
    records[index]["counts"][count] += 1
    failures = check_pass(records, goldens, floor=-10.0)
    assert [key for key, _ in failures] == [records[index]["key"]]
    assert count in failures[0][1]


def test_perturbed_energy_fails():
    goldens, records = h2_records()
    records[3]["energies"]["e_sa"] += 10 * ENERGY_TOL
    records[3]["bounded"] = records[3]["energies"]["e_sa"]
    failures = check_pass(records, goldens, floor=-10.0)
    assert len(failures) == 1 and "e_sa" in failures[0][1]
    records[3]["energies"]["e_sa"] -= 9.5 * ENERGY_TOL  # within the pin again
    assert check_pass(records, goldens, floor=-10.0) == []


def test_seed_without_golden_still_checks_floor():
    goldens, records = h2_records()
    record = dict(records[6], key="de_rand1_bin@999")
    assert check_pass([record], goldens, floor=-10.0) == []
    assert len(check_pass([record], goldens, floor=record["bounded"] + 1e-6)) == 1


def test_reported_error_fails():
    goldens, records = h2_records()
    records[2] = dict(records[2], error="LinAlgError: singular matrix")
    assert check_pass(records, goldens, floor=-10.0) == [(records[2]["key"], "LinAlgError: singular matrix")]


def test_de_sphere_goldens_cover_default_seed():
    goldens = load_goldens()["workloads"]["de_sphere"]
    seeds = de_seeds(DEFAULT_SEED, 2)
    keys = {f"{'-'.join(v)}@{s}" for v in DESphere.variants for s in seeds}
    assert keys == set(goldens)
    assert all(g["counts"]["evaluations"] == DESphere.max_evals for g in goldens.values())
