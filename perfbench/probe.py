"""Set-up probe: one fresh process from start to ready-to-evaluate.

    python3 perfbench/probe.py [FCIDUMP]

Imports devqe and, given a molecule, parses it, maps it with the first
jordan_wigner and builds the default ansatz and initial states.  Prints one
JSON line with the input sizes once it is ready; the parent times the process
from its start to that line.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def main(argv) -> int:
    import devqe

    sizes = {}
    if len(argv) > 1:
        integrals = devqe.load_fcidump(argv[1])
        hamiltonian = devqe.jordan_wigner(integrals)
        ansatz = devqe.default_ansatz(integrals.n_orb, integrals.n_elec)
        devqe.build_initial_states(integrals.n_orb, integrals.n_elec)
        sizes = {
            "qubits": hamiltonian.n_qubits,
            "pauli_terms": len(hamiltonian.terms),
            "ansatz_params": ansatz.parameter_count,
        }
    print(json.dumps(sizes), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
