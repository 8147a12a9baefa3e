#!/usr/bin/env python3
"""Self-distance of a noisy qubit state across coupling sets.

Prints the table of transport self-distances next to the closed-form
metrology quantities they recover, and the entanglement verdict on the
optimizers of the unrestricted problem.
"""

import argparse
import sys

import numpy as np

from qot import coupling as cp
from qot import entanglement as ent
from qot import metrology as mt
from qot import qstates as qs
from qot import wasserstein as ws


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--visibility", type=float, default=0.5,
        help="weight of the pure |1>_x component (rest is white noise)",
    )
    args = parser.parse_args(argv)

    p = args.visibility
    x1 = qs.xbasis_state(1)
    rho = qs.validate_density(p * np.outer(x1, x1.conj()) + (1 - p) * np.eye(2) / 2)
    h = qs.pauli("z")

    print(f"state: {p:.2f} |1>_x<1|_x + {1 - p:.2f} I/2, observable sigma_z")
    print(f"  skew information   {mt.skew_information(rho, h):.8f}")
    print(f"  qfi / 4            {mt.qfi(rho, h) / 4:.8f}")
    print(f"  variance           {mt.variance(rho, h):.8f}")
    print()
    print(f"{'coupling set':<12} {'self-distance^2':>16} {'closed form':>14}")
    for row in ws.self_distance_table(rho, h):
        print(f"{row['set']:<12} {row['value']:>16.8f} {row['closed_form']:>14.8f}")

    rep = ent.wasserstein_verdict(rho, rho, ws.CostSpec((h,), "dpt"))
    print()
    print(f"general vs PPT verdict: {rep.verdict}"
          + (f" ({rep.note})" if rep.note else ""))
    return 0


if __name__ == "__main__":
    sys.exit(run())
