"""Show that each of the benchmark's correctness checks can fail.

    python3 benchmarks/selftest.py

Each case runs a check on the program's real output, which must pass, and
on a deliberately broken variant, which must be rejected:

- the sweep's Magnus reference rejects a transfer simulated with the L2
  end's alternating mode signs replaced by the L1 end's all-positive ones;
- the NB prediction rejects a reduction that leaves the dark-passage Z in
  the transfer map;
- the noiseless RB control rejects sequences whose inverting element is
  dropped.

Exits 0 when every case behaves, 1 otherwise.  Runs in about 10 s.
"""

import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from lcoupler import benchmarking as bm  # noqa: E402
from lcoupler import cliffords, config, dynamics, pulses  # noqa: E402
from lcoupler.rng import RngHandle  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402


def sweep_reference_case() -> tuple[bool, bool]:
    cfg = config.load_config()
    ramp_total = cfg.transfer.total_duration_s - cfg.transfer.satd_duration_s
    schedule = pulses.build_transfer_schedule(cfg, "satd", 3.8e6, 137.5e-9, 137.5e-9 + ramp_total)
    _, expected, _ = reference.transfer_populations(cfg, schedule, lossy=False)

    def accepted() -> bool:
        got = dynamics.simulate_transfer(cfg, schedule, lossy=False).pop_receiver
        print(f"  pop_receiver {got:.9f}, reference {expected:.9f}")
        return abs(got - expected) <= workloads.SWEEP_REFERENCE_TOL

    good = accepted()
    original = dynamics.mode_sign
    dynamics.mode_sign = lambda mode_index, target_mode_index, end: 1.0
    try:
        broken = accepted()
    finally:
        dynamics.mode_sign = original
    return good, broken


def nb_prediction_case() -> tuple[bool, bool]:
    cfg = config.load_config()
    noise = bm.NoiseModel.from_config(cfg, transfer_channels=workloads.analytic_transfer_channels())
    data = bm.run_network_benchmarking(noise, bm.SpamModel.from_config(cfg), rng=RngHandle(seed=0))
    fit = bm.fit_exponential(data)
    counts = workloads._sq_pulse_counts()
    results = []
    for remove_z in (True, False):
        found, problems = {}, []
        workloads.check_nb(found, problems, fit, reference.nb_prediction(noise, counts, remove_z))
        print(f"  fitted EPS {found['nb_eps']:.5f}, predicted {found['nb_eps_predicted']:.5f}")
        results.append(not problems)
    return results[0], results[1]


def noiseless_control_case() -> tuple[bool, bool]:
    rb = workloads.Rb(0, ROOT / "benchmarks" / "out")
    good = not rb.check_noiseless_control()
    original = bm.invert_sequence
    identity = cliffords.two_qubit_clifford(0, rb.cfg)
    bm.invert_sequence = lambda seq, cfg=None: identity
    try:
        broken = not rb.check_noiseless_control()
    finally:
        bm.invert_sequence = original
    return good, broken


def main() -> int:
    ok = True
    for name, case in (
        ("sweep reference vs flipped L2 mode signs", sweep_reference_case),
        ("NB prediction vs dark-passage Z left in", nb_prediction_case),
        ("noiseless RB control vs dropped inverse", noiseless_control_case),
    ):
        print(name)
        good, broken = case()
        behaves = good and not broken
        ok &= behaves
        print(f"  real output accepted: {good}; broken variant accepted: {broken} -> "
              f"{'ok' if behaves else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
