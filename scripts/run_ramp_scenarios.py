#!/usr/bin/env python3
"""Time-varying disturbance experiments.

Three runs of the same ramp scenario (constant disturbance 2.6 decreasing
linearly to a second level between steps 20 and 40, from rest, gain 11/8):

  * switched PI, ramp down to 2.4  -- the quantized disturbance crosses
    its rounding threshold, the loop oscillates through the transient and
    settles into the new unit-excursion invariant set;
  * switched PI, ramp down to 2.501 -- no threshold crossing, the loop
    never leaves its original invariant set;
  * standard PI, ramp down to 2.4  -- the quantized error keeps the full
    excursion-2 oscillation for the whole horizon.

Each run is written as a trajectory CSV for external plotting.
"""

import argparse
from fractions import Fraction as F
from pathlib import Path

from quantloop.dynamics import (
    Disturbance,
    LoopConfig,
    simulate,
    write_trajectory_csv,
)

SCENARIOS = {
    "switched_crossing": ("switched-pi", F(24, 10)),
    "switched_no_crossing": ("switched-pi", F(2501, 1000)),
    "standard_crossing": ("standard-pi", F(24, 10)),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--out", default="results/ramps",
                        help="output directory (default results/ramps)")
    parser.add_argument("--horizon", type=int, default=200)
    args = parser.parse_args()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, (controller, d_final) in SCENARIOS.items():
        config = LoopConfig(
            alpha=F(11, 8), controller=controller,
            disturbance=Disturbance.ramp([(20, F(26, 10)), (40, d_final)]),
            e0=0, u0=0, horizon=args.horizon)
        traj = simulate(config)
        path = out_dir / f"{name}.csv"
        write_trajectory_csv(traj, path)
        rho_e_tail = sorted(set(traj.rho_e[-100:]))
        print(f"{name}: quantized error values over the last 100 steps: "
              f"{rho_e_tail}; wrote {path}")


if __name__ == "__main__":
    main()
