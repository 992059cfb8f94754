"""Command-line front end.

Subcommands run the transfer sweeps, the benchmarking protocols and the
Bell tomography against a JSON device config, writing CSV/JSON results plus
static SVG plots into an output directory.  Each ``cmd_*`` returns the files
it wrote and its manifest extras; ``main`` checks that those files exist and
writes ``run_manifest.json`` only after a run succeeds.  Exit codes: 0
success; 2 usage, config or lookup problems (a ``ValueError`` or a
``KeyError``, e.g. a qubit pair with no configured CZ); 3 numerical failures
(a ``RuntimeError``: a decay fit that refuses to converge, a propagator that
cannot reach its tolerance, or a declared output that is missing).  Each
failure prints one line to stderr and leaves no manifest.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .benchmarking import (
    DEFAULT_NB_LENGTHS,
    DEFAULT_SEEDS_PER_LENGTH,
    DEFAULT_SHOTS,
    DEFAULT_TQRB_LENGTHS,
    NoiseModel,
    SpamModel,
    check_fit_lengths,
    check_lengths,
    eps_from_decay,
    fit_exponential,
    run_network_benchmarking,
    run_two_qubit_rb,
)
from .cliffords import compile_remote_cnot
from .config import ConfigError, load_config
from .dynamics import sweep_transfer
from .rng import RngHandle
from .svg import bars_svg, decay_svg, heatmap_svg, write_svg
from .tomography import (
    BellVariant,
    bell_circuit,
    bell_target,
    optimize_bell_phases,
    state_fidelity,
    state_tomography,
)


def _grid(text: str) -> np.ndarray:
    """start:stop:count grid specification."""
    try:
        start, stop, count = text.split(":")
        values = np.linspace(float(start), float(stop), int(count))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected start:stop:count, got {text!r}"
        ) from exc
    if len(values) < 1:
        raise argparse.ArgumentTypeError("grid needs at least one point")
    return values


def _lengths(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from exc
    if not values:
        raise argparse.ArgumentTypeError("need at least one length")
    return values


def _write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _fit_payload(fit) -> dict:
    return {k: (v if not isinstance(v, float) or np.isfinite(v) else None)
            for k, v in asdict(fit).items()}


def _decay_artifacts(dataset, fits, title, out_csv: Path, out_svg: Path):
    out_csv.write_text(dataset.to_csv())
    colors = {"survival": "#1f4e9c", "spectator_l1": "#c05020", "spectator_l2": "#2d8a4e"}
    series = []
    curves = []
    for channel, fit in fits.items():
        x, y, err = dataset.series(channel)
        series.append(
            {"label": channel, "x": x, "y": y, "err": err, "color": colors[channel]}
        )
        if fit is not None:
            dense = np.linspace(0.0, float(x.max()), 200)
            curves.append(
                {
                    "label": f"{channel} fit",
                    "x": dense,
                    "y": fit.amplitude * fit.decay**dense + fit.offset,
                    "color": colors[channel],
                }
            )
    write_svg(out_svg, decay_svg(title, series, curves))


# ---------------------------------------------------------------------------
# subcommands


def cmd_sweep(args, cfg, out_dir: Path):
    result = sweep_transfer(cfg, args.method, args.g, args.T, lossy=args.lossy)
    csv_path = out_dir / f"sweep_{result.method}.csv"
    result.to_csv(csv_path)
    svg_path = out_dir / f"sweep_{result.method}.svg"
    write_svg(
        svg_path,
        heatmap_svg(
            [(name, result.grid(f"pop_{name}")) for name in ("emitter", "receiver", "other")],
            x_values=[t * 1e9 for t in result.t_values_s],
            y_values=[g * 1e-6 for g in result.g_values_hz],
            x_label="sweep duration (ns)",
            y_label="peak coupling (MHz)",
        ),
    )
    cell_errors = [
        {"g_hz": g, "T_s": t, "error": error}
        for g, row in zip(result.g_values_hz, result.errors)
        for t, error in zip(result.t_values_s, row)
        if error is not None
    ]
    for cell in cell_errors:
        print(
            f"sweep cell g={cell['g_hz']:.9e} Hz, T={cell['T_s']:.9e} s failed: {cell['error']}",
            file=sys.stderr,
        )
    return [csv_path, svg_path], {"cell_errors": cell_errors}


def _benchmark_models(cfg, noiseless: bool):
    if noiseless:
        return NoiseModel.ideal(), SpamModel.ideal()
    return NoiseModel.from_config(cfg), SpamModel.from_config(cfg)


_SPECTATORS = ("spectator_l1", "spectator_l2")
# every NB sequence ends with the carrier on L1, whose column is the survival
_NB_SPECTATORS = ("spectator_l2",)


def _fits(dataset, spectators) -> dict:
    """The survival fit and the spectator fits of one dataset."""
    return {ch: fit_exponential(dataset, ch) for ch in ("survival", *spectators)}


def _leakage(fits, spectators) -> dict:
    """The spectator fits as leakage entries; a fit with a parameter on its
    bound resolves no decay, so its rate is null."""
    entries = {ch: _fit_payload(fits[ch]) for ch in spectators}
    for entry in entries.values():
        if entry["at_bound"]:
            entry["rate"] = None
    return entries


def cmd_nb(args, cfg, out_dir: Path):
    # the lengths the fit refuses are refused before the run extracts anything
    check_lengths("NB", args.lengths)
    check_fit_lengths(args.lengths)
    noise, spam = _benchmark_models(cfg, args.noiseless)
    dataset = run_network_benchmarking(
        noise,
        spam,
        lengths=args.lengths,
        seeds_per_length=args.seeds,
        shots=args.shots,
        rng=RngHandle(seed=args.seed),
        cfg=cfg,
    )
    fits = _fits(dataset, _NB_SPECTATORS)
    csv_path = out_dir / "nb_dataset.csv"
    svg_path = out_dir / "nb_decay.svg"
    _decay_artifacts(dataset, fits, "network benchmarking", csv_path, svg_path)
    fit_path = _write_json(
        out_dir / "nb_fit.json",
        {
            "protocol": dataset.protocol,
            "survival": _fit_payload(fits["survival"]),
            "eps": eps_from_decay(fits["survival"]),
            "leakage": _leakage(fits, _NB_SPECTATORS),
        },
    )
    return [csv_path, fit_path, svg_path], {}


def cmd_rb(args, cfg, out_dir: Path):
    check_lengths("TQRB", args.lengths)
    check_fit_lengths(args.lengths)
    noise, spam = _benchmark_models(cfg, args.noiseless)
    kwargs = dict(
        lengths=args.lengths,
        seeds_per_length=args.seeds,
        shots=args.shots,
        rng=RngHandle(seed=args.seed),
        cfg=cfg,
    )
    reference = run_two_qubit_rb(noise, spam, **kwargs)
    fits = _fits(reference, _SPECTATORS)
    csv_path = out_dir / "rb_dataset.csv"
    svg_path = out_dir / "rb_decay.svg"
    _decay_artifacts(reference, fits, "two-qubit RB", csv_path, svg_path)
    interleaved_paths = []
    payload = {
        "protocol": reference.protocol,
        "reference": _fit_payload(fits["survival"]),
        "epg": eps_from_decay(fits["survival"]),
        "leakage": _leakage(fits, _SPECTATORS),
        "interleaved": None,
        "interleaved_epg": None,
    }
    if args.interleave:
        interleaved = run_two_qubit_rb(
            noise, spam, interleave=compile_remote_cnot(cfg=cfg), **kwargs
        )
        int_fit = fit_exponential(interleaved)
        interleaved_paths = [out_dir / "rb_interleaved.csv", out_dir / "rb_interleaved.svg"]
        _decay_artifacts(
            interleaved, {"survival": int_fit}, "interleaved two-qubit RB", *interleaved_paths
        )
        payload["interleaved"] = _fit_payload(int_fit)
        payload["interleaved_epg"] = eps_from_decay(int_fit, fits["survival"])
    fit_path = _write_json(out_dir / "rb_fit.json", payload)
    return [csv_path, fit_path, svg_path, *interleaved_paths], {}


def cmd_bell(args, cfg, out_dir: Path):
    variant = BellVariant(args.variant)
    noise, spam = _benchmark_models(cfg, args.noiseless)
    target, pair = bell_target(variant)
    # noiseless runs drop shot sampling too, so the JSON is deterministic
    result = state_tomography(
        bell_circuit(variant, cfg),
        noise,
        spam,
        qubits=pair,
        shots_per_setting=args.shots_per_setting,
        rng=RngHandle(seed=args.seed),
        exact=args.noiseless,
    )
    raw = state_fidelity(result.density_matrix, target)
    optimized, phases = optimize_bell_phases(result.density_matrix, target)
    payload = result.to_json_dict()
    payload.update(
        {
            "variant": variant.value,
            "raw_fidelity": raw,
            "optimized_fidelity": optimized,
            "optimized_phases_rad": list(phases),
            "fidelity_note": "optimized over per-qubit virtual-Z phases",
        }
    )
    json_path = _write_json(out_dir / f"bell_{variant.value}.json", payload)
    labels = [f"{i:02b},{j:02b}" for i in range(4) for j in range(4)]
    magnitudes = np.abs(result.density_matrix).ravel()
    svg_path = write_svg(
        out_dir / f"bell_{variant.value}.svg",
        bars_svg(f"|rho| for {variant.value}", labels, magnitudes, vmax=0.5),
    )
    return [json_path, svg_path], {"fidelity": optimized, "raw_fidelity": raw}


# ---------------------------------------------------------------------------
# parser and entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcoupler",
        description="Simulate and benchmark the module interconnect.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="device config JSON (default: LCOUPLER_CONFIG or built-ins)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=0, help="root rng seed")

    p = sub.add_parser("sweep", help="transfer population over a (g, T) grid")
    common(p)
    p.add_argument("--method", required=True, choices=["stirap", "satd"])
    p.add_argument("--g", type=_grid, required=True, metavar="START:STOP:COUNT")
    p.add_argument("--T", type=_grid, required=True, metavar="START:STOP:COUNT")
    p.add_argument("--lossy", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("nb", help="network benchmarking across the link")
    common(p)
    p.add_argument("--lengths", type=_lengths, default=DEFAULT_NB_LENGTHS)
    p.add_argument("--seeds", type=int, default=DEFAULT_SEEDS_PER_LENGTH)
    p.add_argument("--shots", type=int, default=DEFAULT_SHOTS)
    p.add_argument("--noiseless", action="store_true")
    p.set_defaults(func=cmd_nb)

    p = sub.add_parser("rb", help="two-qubit RB through compiled circuits")
    common(p)
    p.add_argument("--lengths", type=_lengths, default=DEFAULT_TQRB_LENGTHS)
    p.add_argument("--seeds", type=int, default=DEFAULT_SEEDS_PER_LENGTH)
    p.add_argument("--shots", type=int, default=DEFAULT_SHOTS)
    p.add_argument("--noiseless", action="store_true")
    p.add_argument("--interleave", choices=["remote-cnot"])
    p.set_defaults(func=cmd_rb)

    p = sub.add_parser("bell", help="Bell preparation and tomography")
    common(p)
    p.add_argument(
        "--variant",
        required=True,
        choices=[v.value for v in BellVariant],
    )
    p.add_argument("--shots-per-setting", type=int, default=10000)
    p.add_argument("--noiseless", action="store_true")
    p.set_defaults(func=cmd_bell)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    started = datetime.now(timezone.utc).isoformat()
    try:
        cfg = load_config(args.config or os.environ.get("LCOUPLER_CONFIG") or None)
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        outputs, extra = args.func(args, cfg, out_dir)
        missing = [str(p) for p in outputs if not p.exists()]
        if missing:
            raise RuntimeError(f"declared outputs missing: {missing}")
    except RuntimeError as exc:  # FitError included
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"lookup failure: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    _write_json(
        out_dir / "run_manifest.json",
        {
            "command": "lcoupler " + " ".join(argv),
            "config_sha256": cfg.config_hash(),
            "rng_seed": args.seed,
            "tool_version": __version__,
            "started_at": started,
            "finished_at": datetime.now(timezone.utc).isoformat(),
            "outputs": [p.name for p in outputs],
            **extra,
        },
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
