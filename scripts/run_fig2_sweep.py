#!/usr/bin/env python3
"""Run the general-vs-PPT sweep of the rotated-qubit example and print a
summary of the coincidence point.

Equivalent to `qot fig2` plus a terminal digest; the CSV is the artifact.
"""

import argparse
import sys

import numpy as np

from qot import cli
from qot.errors import QotError


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=64)
    parser.add_argument("--out", default="fig2_sweep.csv")
    args = parser.parse_args(argv)

    try:
        phis, results, phi0 = cli.fig2_sweep(args.points)
    except QotError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except cli.SweepFailure as exc:
        sys.stderr.write(f"{exc}\n")
        return 2
    cli.write_fig2_csv(args.out, phis, results, phi0)
    print(f"wrote {args.out} ({len(phis)} rows)")
    print(f"phi = 0:      general {results[0][0]:.6f}   ppt {results[0][1]:.6f}")
    print(f"phi = pi/2:   general {results[-1][0]:.6f}   ppt {results[-1][1]:.6f}")
    if phi0 is not None:
        print(f"curves coincide beyond phi0 = {phi0:.6f} rad "
              f"({phi0 / np.pi:.4f} pi)")
    return 0


if __name__ == "__main__":
    sys.exit(run())
