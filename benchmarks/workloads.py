"""The benchmark's workloads: inputs made from a seed, one job, its checks.

Each workload is built in three steps that ``run.py`` times apart:

- the constructor is set-up: the device config, the seeded inputs and the
  one-time lazy tables every CLI invocation pays;
- ``run_round`` is the job a user waits for, through lcoupler's public API
  and the same calls the CLI makes;
- ``check`` compares the first round's outputs with computations made apart
  from the program (``reference.py``) and returns what it found.

Library functions are called through their modules (``bm.run_two_qubit_rb``)
so that the tracer's wrappers, installed on the module attributes, see them.
"""

from __future__ import annotations

import csv
import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from lcoupler import benchmarking as bm
from lcoupler import channels, cli, cliffords, config, pulses, tomography
from lcoupler.rng import RngHandle

import reference

SPECTATORS = ("spectator_l1", "spectator_l2")
SWEEP_REFERENCE_TOL = 1e-6  # |pop_receiver - Magnus reference|, lossless


@dataclass
class Outcome:
    """What one round produced and how many operations it tried."""

    attempted: int = 0
    failed: int = 0
    outputs: dict = field(default_factory=dict)
    fingerprint: str = ""


def _fingerprint(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return digest.hexdigest()


def _sq_pulse_counts() -> list[int]:
    return [
        sum(1 for op in elem.decomposition if op.kind is cliffords.GateKind.SQ_ROT)
        for elem in cliffords.single_qubit_cliffords()
    ]


def _fit_all(dataset, names, outcome: Outcome) -> dict:
    """Fit each named channel as the CLI does; a fit that does not converge
    is a failed operation."""
    fits = {}
    for name in names:
        outcome.attempted += 1
        try:
            fits[name] = bm.fit_exponential(dataset, name)
        except bm.FitError:
            outcome.failed += 1
    return fits


def nb_predicted(noise) -> float:
    return reference.nb_prediction(noise, _sq_pulse_counts())


# Over 40 seeds the link's NB fits sat 1.3 sigma (7%) above this
# prediction on average and at most 3.3 sigma above it; the analytic
# channel's sat at -0.1 sigma.  Carrying the state a transfer leaves on the
# emitter into the next transfer moved the prediction by 0.3% only, so the
# bias is allowed for here, not explained.
NB_RELATIVE_TOL = 0.10


def check_nb(found: dict, problems: list, fit, predicted: float) -> None:
    """Fitted NB EPS within 3 sigma plus 10% of the channel prediction."""
    eps = bm.eps_from_decay(fit)
    sigma = 0.5 * fit.decay_err
    tol = 3.0 * sigma + NB_RELATIVE_TOL * predicted
    found.update(nb_eps=eps, nb_eps_tolerance=tol, nb_eps_predicted=predicted)
    if not abs(eps - predicted) <= tol:
        problems.append(f"NB EPS {eps:.5f} is not within {tol:.5f} of {predicted:.5f}")


# ---------------------------------------------------------------------------
# sweep


class Sweep:
    """Lossless (g, T) grid, SATD and STIRAP, on the default 5-mode device,
    run through ``lcoupler sweep`` so the CSVs and heatmaps are the CLI's.

    The grid spans the range of acceptance criterion 02, g 1-4 MHz and
    T 50-400 ns; five T points put one at 137.5 ns, where SATD runs
    unsaturated at 4 MHz and must beat STIRAP.  The lossless dynamics are
    deterministic and a cell's integrator effort depends strongly on its
    (g, T), so the grid is fixed: the seed picks the cells the reference
    recomputes, and every seed times the same work.
    """

    METHODS = ("satd", "stirap")
    G_SPEC = "1e6:4e6:2"
    T_SPEC = "50e-9:400e-9:5"
    SHORT_T_S = 150e-9
    REFERENCE_CELLS = 2  # per method, chosen by the seed

    def __init__(self, seed: int, out_dir: Path):
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.out_dir = out_dir
        self.cfg = config.load_config()
        n_g, n_t = (int(spec.rsplit(":", 1)[1]) for spec in (self.G_SPEC, self.T_SPEC))
        cells = [(i, j) for i in range(n_g) for j in range(n_t)]
        self.reference_cells = {
            m: [cells[k] for k in rng.choice(len(cells), self.REFERENCE_CELLS, replace=False)]
            for m in self.METHODS
        }
        self.ops_per_round = len(self.METHODS) * len(cells)

    def run_round(self) -> Outcome:
        outcome = Outcome()
        captured = {}
        traced_sweep = cli.sweep_transfer

        def capture(*args, **kwargs):
            result = traced_sweep(*args, **kwargs)
            captured[result.method] = result
            return result

        cli.sweep_transfer = capture
        try:
            for method in self.METHODS:
                code = cli.main(
                    [
                        "sweep", "--method", method, "--g", self.G_SPEC, "--T", self.T_SPEC,
                        "--out", str(self.out_dir), "--seed", str(self.seed),
                    ]
                )
                outcome.outputs[f"exit_{method}"] = code
        finally:
            cli.sweep_transfer = traced_sweep
        outcome.attempted = self.ops_per_round
        pops = []
        for method in self.METHODS:
            result = captured.get(method)
            if result is None:
                outcome.failed += self.ops_per_round // len(self.METHODS)
                continue
            outcome.failed += sum(e is not None for row in result.errors for e in row)
            outcome.outputs[method] = result
            pops.append(result.receiver_population_grid())
        outcome.fingerprint = _fingerprint(*pops)
        return outcome

    def check(self, outcome: Outcome) -> tuple[dict, list[str]]:
        found, problems = {}, []
        ramp_total = self.cfg.transfer.total_duration_s - self.cfg.transfer.satd_duration_s
        worst_sum = worst_ref = 0.0
        for method in self.METHODS:
            code = outcome.outputs.get(f"exit_{method}")
            if code != 0:
                problems.append(f"lcoupler sweep --method {method} exited {code}")
            result = outcome.outputs.get(method)
            if result is None:
                continue
            for r in (r for row in result.results for r in row if r is not None):
                total = r.pop_emitter + r.pop_receiver + r.pop_other
                worst_sum = max(worst_sum, abs(total - 1.0))
            for i, j in self.reference_cells[method]:
                r = result.results[i][j]
                if r is None:
                    continue
                g, t = result.g_values_hz[i], result.t_values_s[j]
                schedule = pulses.build_transfer_schedule(self.cfg, method, g, t, t + ramp_total)
                _, pop_receiver, _ = reference.transfer_populations(self.cfg, schedule, lossy=False)
                worst_ref = max(worst_ref, abs(pop_receiver - r.pop_receiver))
            problems += self._check_csv(result)
        found.update(max_population_sum_error=worst_sum, max_reference_deviation=worst_ref)
        if worst_sum > 1e-8:
            problems.append(f"excitation not conserved: |sum - 1| = {worst_sum:.3e}")
        if worst_ref > SWEEP_REFERENCE_TOL:
            problems.append(f"pop_receiver departs from the Magnus reference by {worst_ref:.3e}")
        satd, stirap = outcome.outputs.get("satd"), outcome.outputs.get("stirap")
        if satd is not None and stirap is not None:
            short = np.array([t <= self.SHORT_T_S + 1e-15 for t in satd.t_values_s])
            mask = ~satd.saturated_grid() & ~stirap.saturated_grid() & short[None, :]
            gap = satd.receiver_population_grid() - stirap.receiver_population_grid()
            found["satd_minus_stirap_min"] = float(np.min(gap[mask])) if mask.any() else None
            if not mask.any():
                problems.append("no unsaturated cell with T <= 150 ns to compare SATD on")
            elif not np.all(gap[mask] >= 0.0):
                problems.append("STIRAP beats SATD on an unsaturated short-T cell")
        return found, problems

    def _check_csv(self, result) -> list[str]:
        """The CSV the CLI wrote holds every cell with the result's values."""
        path = self.out_dir / f"sweep_{result.method}.csv"
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        expected = [r for row in result.results for r in row]
        if len(rows) != len(expected):
            return [f"{path.name} has {len(rows)} rows for {len(expected)} cells"]
        for row, r in zip(rows, expected):
            if r is not None and abs(float(row["pop_receiver"]) - r.pop_receiver) > 1e-9:
                return [f"{path.name} disagrees with the sweep result"]
        return []


# ---------------------------------------------------------------------------
# link


class Link:
    """Noise model with extracted transfer channels, then network
    benchmarking and data-full Bell tomography, as ``lcoupler nb`` and
    ``lcoupler bell`` run them.

    The bus keeps one mode, the target mode of the default device, as
    acceptance criterion 12 does: each direction's pair extraction then
    propagates 16 stacked inputs at d = 8 under the Lindblad generator.
    Three modes (d = 19) take about 30 s per direction on a 2-core box,
    which the benchmark's run budget cannot hold 22 times over.  The mode
    lists are spelled out because a partial override of ``modes_retained``
    alone is refused (see CHANGES.md).  The seed drives the NB sequences and
    the tomography shots; the extraction is the same for every seed.
    """

    OVERRIDES = {
        "cpw": {"modes_retained": 1, "mode_frequencies_hz": [4.881e9], "mode_t1_s": [5.23e-6]}
    }
    BELL_VARIANT = "data-full"
    SHOTS_PER_SETTING = 10000
    POPULATION_TOL = 1e-7

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.cfg = config.load_config(self.OVERRIDES)

    def run_round(self) -> Outcome:
        outcome = Outcome()
        rng = RngHandle(seed=self.seed)
        outcome.attempted += 2  # one pair extraction per direction
        noise = bm.NoiseModel.from_config(self.cfg)
        spam = bm.SpamModel.from_config(self.cfg)
        nb = bm.run_network_benchmarking(noise, spam, rng=rng)
        outcome.attempted += len(nb.records)
        fits = _fit_all(nb, ("survival", *SPECTATORS), outcome)
        target, pair = tomography.bell_target(self.BELL_VARIANT)
        outcome.attempted += 1
        tomo = tomography.state_tomography(
            tomography.bell_circuit(self.BELL_VARIANT, self.cfg),
            noise,
            spam,
            qubits=pair,
            shots_per_setting=self.SHOTS_PER_SETTING,
            rng=rng,
        )
        raw = tomography.state_fidelity(tomo.density_matrix, target)
        optimized, _ = tomography.optimize_bell_phases(tomo.density_matrix, target)
        outcome.outputs.update(noise=noise, nb=nb, fits=fits, raw=raw, optimized=optimized)
        outcome.fingerprint = _fingerprint(
            *(ch.superoperator for ch in noise.transfer_channels.values()),
            nb.to_csv(),
            tomo.density_matrix,
        )
        return outcome

    def check(self, outcome: Outcome) -> tuple[dict, list[str]]:
        found, problems = {}, []
        noise = outcome.outputs["noise"]
        forward = pulses.build_transfer_schedule(self.cfg)
        worst = 0.0
        for schedule in (forward, pulses.reverse_schedule(forward)):
            direction = f"{schedule.emitter}->{schedule.receiver}"
            s = noise.transfer_channels[direction].superoperator
            # |10><10| is column 10 and |01><01| row 5 in the (L1, L2) order
            moved = s[5, 10] if direction == "L1->L2" else s[10, 5]
            _, expected, _ = reference.transfer_populations(self.cfg, schedule, lossy=True)
            worst = max(worst, abs(float(np.real(moved)) - expected))
        found["max_transfer_population_deviation"] = worst
        if worst > self.POPULATION_TOL:
            problems.append(f"channel transfer population off the reference by {worst:.3e}")
        if "survival" in outcome.outputs["fits"]:
            check_nb(found, problems, outcome.outputs["fits"]["survival"], nb_predicted(noise))
        raw, optimized = outcome.outputs["raw"], outcome.outputs["optimized"]
        found.update(bell_raw_fidelity=raw, bell_optimized_fidelity=optimized)
        if not raw <= optimized + 1e-12 or not optimized <= 1.0 + 1e-12:
            problems.append(f"Bell fidelities out of order: raw {raw:.6f}, opt {optimized:.6f}")
        return found, problems


# ---------------------------------------------------------------------------
# rb

RECEIVER_DAMPING = 0.02


def analytic_transfer_channels() -> dict:
    """Ideal signed swap followed by amplitude damping on the receiver."""
    swap = channels.ideal_transfer_channel()
    damp = channels.amplitude_damping_channel(RECEIVER_DAMPING)
    ident = channels.QuantumChannel.identity(2)
    return {
        "L1->L2": ident.tensor(damp).compose(swap),
        "L2->L1": damp.tensor(ident).compose(swap),
    }


class Rb:
    """Reference and interleaved remote-CNOT two-qubit RB plus NB on the
    default device's calibrated gate and idle noise, as ``lcoupler rb
    --interleave remote-cnot`` and ``lcoupler nb`` run them.

    The transfer channel is analytic, so no dynamics run: the ideal signed
    swap followed by amplitude damping on the receiver.  TQRB, IRB and NB use
    the CLI's default lengths, 30 seeds per length and 1000 shots.  The seed
    drives every sequence and every shot.
    """

    SAMPLES_PER_CLASS = 8
    DECAY_ITERATIONS = 3
    IRB_RELATIVE_TOL = 0.25  # interleaved RB's own bias beyond its fit error
    CONTROL_LENGTHS = (1, 2, 4)
    CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.cfg = config.load_config()
        self.transfer_channels = analytic_transfer_channels()
        start = time.perf_counter()
        cliffords.invert_sequence([cliffords.two_qubit_clifford(1, self.cfg)], self.cfg)
        self.lookup_build_s = time.perf_counter() - start

    def run_round(self) -> Outcome:
        outcome = Outcome()
        rng = RngHandle(seed=self.seed)
        noise = bm.NoiseModel.from_config(self.cfg, transfer_channels=self.transfer_channels)
        spam = bm.SpamModel.from_config(self.cfg)
        common = dict(rng=rng, cfg=self.cfg)
        ref = bm.run_two_qubit_rb(noise, spam, **common)
        outcome.attempted += len(ref.records)
        ref_fits = _fit_all(ref, ("survival", *SPECTATORS), outcome)
        irb = bm.run_two_qubit_rb(
            noise, spam, interleave=cliffords.compile_remote_cnot(cfg=self.cfg), **common
        )
        outcome.attempted += len(irb.records)
        irb_fits = _fit_all(irb, ("survival",), outcome)
        nb = bm.run_network_benchmarking(noise, spam, rng=rng)
        outcome.attempted += len(nb.records)
        nb_fits = _fit_all(nb, ("survival", *SPECTATORS), outcome)
        outcome.outputs.update(
            noise=noise, ref=ref, irb=irb, ref_fits=ref_fits, irb_fits=irb_fits, nb_fits=nb_fits,
            elements=sum(r.length + 1 for r in ref.records)
            + sum(2 * r.length + 1 for r in irb.records),
        )
        outcome.fingerprint = _fingerprint(ref.to_csv(), irb.to_csv(), nb.to_csv())
        return outcome

    def check(self, outcome: Outcome) -> tuple[dict, list[str]]:
        found, problems = {}, []
        problems += self.check_noiseless_control()
        noise = outcome.outputs["noise"]
        executor = reference.DenseExecutor(noise)
        ref_fit = outcome.outputs["ref_fits"].get("survival")
        if ref_fit is not None:
            decay = reference.group_decay(
                executor, self._stratified_sample(), self.DECAY_ITERATIONS
            )
            predicted = 0.75 * (1.0 - decay)
            epg, sigma = bm.eps_from_decay(ref_fit), 0.75 * ref_fit.decay_err
            found.update(tqrb_epg=epg, tqrb_epg_sigma=sigma, tqrb_epg_predicted=predicted)
            if not abs(epg - predicted) <= 3.0 * sigma:
                problems.append(
                    f"TQRB EPG {epg:.4f} is not within 3 sigma ({sigma:.4f}) of {predicted:.4f}"
                )
        irb_fit = outcome.outputs["irb_fits"].get("survival")
        if ref_fit is not None and irb_fit is not None:
            cnot = cliffords.compile_remote_cnot(cfg=self.cfg)
            action = reference.pauli_error_action(executor, cnot, self.CNOT, reference.L_GROUND)
            predicted = 0.75 * (1.0 - float(np.real(np.trace(action))))
            epg = bm.eps_from_decay(irb_fit, ref_fit)
            # error of 0.75 (1 - p_int / p_ref) from both fits' decay errors
            sigma = 0.75 * math.hypot(
                irb_fit.decay_err / ref_fit.decay,
                irb_fit.decay * ref_fit.decay_err / ref_fit.decay**2,
            )
            tol = 3.0 * sigma + self.IRB_RELATIVE_TOL * predicted
            found.update(cnot_epg=epg, cnot_epg_tolerance=tol, cnot_infidelity_predicted=predicted)
            if not abs(epg - predicted) <= tol:
                problems.append(
                    f"interleaved CNOT EPG {epg:.4f} is not within {tol:.4f} of {predicted:.4f}"
                )
        if "survival" in outcome.outputs["nb_fits"]:
            check_nb(found, problems, outcome.outputs["nb_fits"]["survival"], nb_predicted(noise))
        return found, problems

    def check_noiseless_control(self) -> list[str]:
        """Ideal noise and SPAM must return every survival exactly."""
        data = bm.run_two_qubit_rb(
            bm.NoiseModel.ideal(),
            bm.SpamModel.ideal(),
            lengths=self.CONTROL_LENGTHS,
            seeds_per_length=2,
            rng=RngHandle(seed=self.seed),
            cfg=self.cfg,
        )
        bad = [
            r for r in data.records
            if (r.survival, r.spectator_l1, r.spectator_l2) != (1.0, 1.0, 1.0)
        ]
        return [f"noiseless control lost population in {len(bad)} sequences"] if bad else []

    def _stratified_sample(self):
        """(weight, ops, target) for SAMPLES_PER_CLASS seeded elements of each
        CNOT class, weighted by the class's share of the group."""
        rng = np.random.default_rng(self.seed)
        sizes = cliffords.TWO_QUBIT_CLASS_SIZES
        order = sum(sizes)
        elements, start = [], 0
        for size in sizes:
            for index in rng.integers(start, start + size, self.SAMPLES_PER_CLASS):
                elem = cliffords.two_qubit_clifford(int(index), self.cfg)
                weight = size / order / self.SAMPLES_PER_CLASS
                elements.append((weight, elem.decomposition, elem.unitary))
            start += size
        return elements


WORKLOADS = {"sweep": Sweep, "link": Link, "rb": Rb}
