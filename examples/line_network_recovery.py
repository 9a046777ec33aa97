#!/usr/bin/env python3
"""The paper's §1.2 line-network story, made measurable.

A message is relayed down a line of parties and the two end parties then chat
back and forth.  An adversary corrupts the very first link early in the
simulation.  This example shows

1. how the coding scheme detects the error (meeting points), freezes the
   network (flag passing), rolls back the stale chunks (rewind) and finishes
   correctly;
2. how much a single corrupted transmission costs, with and without the
   flag-passing phase — the measurable version of the paper's "a single error
   can waste Θ(m·n) communication without global coordination" discussion;
3. the per-iteration progress trace (the analysis' G*, H*, B* quantities),
   read from the flight recorder's ``potential`` events.

Run with:  python examples/line_network_recovery.py
"""

from __future__ import annotations

from repro import InteractiveCodingSimulator, crs_oblivious_scheme
from repro.adversary import LinkTargetedAdversary
from repro.experiments import single_error_cost
from repro.experiments.workloads import line_example_workload
from repro.obs import FlightRecorder, use_obs


class PotentialLog(FlightRecorder):
    """A flight recorder that also keeps every ``potential`` event.

    The ring drops old events and a successful trial's dump keeps only
    counts, so the per-iteration Φ snapshots are copied out as they arrive.
    """

    def __init__(self) -> None:
        super().__init__()
        self.potential = []

    def emit(self, kind: str, **fields) -> None:
        super().emit(kind, **fields)
        if kind == "potential":
            self.potential.append(fields)


def traced_run() -> None:
    workload = line_example_workload(num_nodes=6, blocks=3, seed=0)
    adversary = LinkTargetedAdversary(
        target=(0, 1), phases=("simulation",), max_corruptions=1, seed=3
    )
    scheme = crs_oblivious_scheme(iteration_factor=8.0)
    log = PotentialLog()
    with use_obs(recorder=log):
        simulator = InteractiveCodingSimulator(workload.protocol, scheme=scheme, adversary=adversary, seed=0)
        result = simulator.run()

    print(f"single corrupted transmission on link (0, 1); success={result.success}")
    print("iteration   G*   H*   B*")
    for row in log.potential:
        print(f"{row['iteration']:9d}  {row['G_star']:3d}  {row['H_star']:3d}  {row['B_star']:3d}")
    print(f"iterations used: {result.iterations_run} / {result.iterations_budget}, "
          f"overhead {result.overhead:.1f}x\n")


def flag_passing_cost() -> None:
    with_flags = single_error_cost(enable_flag_passing=True)
    without_flags = single_error_cost(enable_flag_passing=False)
    print("cost of one corrupted transmission (extra communication, as a multiple of CC(Pi)):")
    print(f"  with flag passing   : {with_flags['extra_overhead']:.1f}x "
          f"(success={bool(with_flags['noisy_success'])})")
    print(f"  without flag passing: {without_flags['extra_overhead']:.1f}x "
          f"(success={bool(without_flags['noisy_success'])})")


def main() -> None:
    traced_run()
    flag_passing_cost()


if __name__ == "__main__":
    main()
