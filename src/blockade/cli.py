"""Command-line front end: single solves, analytics, spectrum and sweeps.

Values come from three layers, lowest precedence first: built-in defaults,
a JSON config file (--config, same field names as the flags), then explicit
flags.  All diagnostics go to the error stream; data goes to stdout or the
requested output file.  Exit codes: 0 success, 1 solver or I/O failure,
2 usage errors and parameter singularities.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from dataclasses import asdict, dataclass, fields

from .analytic import (
    DegenerateParametersError,
    SingularParametersError,
    amplitudes_closed_form,
    blockade_conditions,
    g2_analytic,
    optimal_g,
)
from .model import SystemParams, energy_levels
from .steady import DEFAULT_MAX_DIM, DEFAULT_TOL, SteadyStateError, converged_steady_state
from .sweep import GridAxis, SweepResult, preset, run_sweep

PARAM_FIELDS = tuple(field.name for field in fields(SystemParams))

_DEFAULTS = {
    **asdict(SystemParams()),
    "tol": DEFAULT_TOL,
    "max_dim": DEFAULT_MAX_DIM,
    "format": "csv",
    "omega_a": 0.0,
    "n_max": 5,
    "preset": None,
    "axis": None,
    "output": None,
}


class CliUsageError(ValueError):
    """Malformed invocation: bad flag value, bad config, conflicting options."""


@dataclass
class RunConfig:
    """Fully resolved invocation.

    For a preset sweep, params is the preset's base with the explicitly set
    knobs applied, and axes are the preset's unless axes were given.
    """

    command: str
    params: SystemParams
    preset: str | None
    axes: list[GridAxis] | None
    output_path: str | None
    format: str
    tol: float
    max_dim: int
    omega_a: float
    n_max: int


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockade",
        description="Steady-state photon statistics of a driven Kerr cavity with parametric gain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_param_flags(p, names=PARAM_FIELDS):
        for name in names:
            p.add_argument(f"--{name}", type=float, default=None, help=f"{name} (units of kappa)")

    def add_common(p):
        p.add_argument("--config", default=None, help="JSON config file, field names as flags")

    p_solve = sub.add_parser("solve", help="converged steady-state observables at one point")
    add_param_flags(p_solve)
    p_solve.add_argument("--tol", type=float, default=None, help="convergence tolerance on lg N, lg g2")
    p_solve.add_argument("--max-dim", type=int, default=None, help="largest truncation dimension")
    add_common(p_solve)

    p_analytic = sub.add_parser("analytic", help="two-photon truncated amplitudes and conditions")
    add_param_flags(p_analytic)
    add_common(p_analytic)

    p_optimal = sub.add_parser("optimal", help="optimal parametric gain for blockade")
    add_param_flags(p_optimal, names=("delta", "f", "phi", "kappa"))
    add_common(p_optimal)

    p_spectrum = sub.add_parser("spectrum", help="bare Kerr-shifted energy levels")
    p_spectrum.add_argument("--u", type=float, default=None, help="Kerr strength")
    p_spectrum.add_argument("--omega-a", type=float, default=None, help="bare mode frequency")
    p_spectrum.add_argument("--n-max", type=int, default=None, help="highest photon number")
    add_common(p_spectrum)

    p_sweep = sub.add_parser("sweep", help="grid evaluation over one or two parameters")
    add_param_flags(p_sweep)
    p_sweep.add_argument("--preset", default=None, help="figure preset id, e.g. fig1a")
    p_sweep.add_argument(
        "--axis",
        action="append",
        default=None,
        metavar="PARAM:MIN:MAX:COUNT",
        help="sweep axis, linear 'param:min:max:count' or explicit 'param:v1,v2,v3'; repeatable",
    )
    p_sweep.add_argument("--tol", type=float, default=None)
    p_sweep.add_argument("--max-dim", type=int, default=None)
    p_sweep.add_argument("--output", default=None, help="output file (default: stdout)")
    p_sweep.add_argument("--format", choices=("csv", "json"), default=None)
    add_common(p_sweep)
    return parser


def parse_axis(text: str) -> GridAxis:
    """Axis syntax: 'param:min:max:count' (linear) or 'param:v1,v2,...' (explicit)."""
    parts = text.split(":")
    try:
        if len(parts) == 2 and "," in parts[1]:
            values = [float(v) for v in parts[1].split(",")]
            return GridAxis.explicit(parts[0], values)
        if len(parts) == 4:
            return GridAxis.linear(parts[0], float(parts[1]), float(parts[2]), int(parts[3]))
    except (TypeError, ValueError) as exc:
        raise CliUsageError(f"bad axis {text!r}: {exc}") from exc
    raise CliUsageError(
        f"bad axis {text!r}: expected 'param:min:max:count' or 'param:v1,v2,...'"
    )


def _check_config_types(config: dict) -> None:
    for key, value in config.items():
        if key not in _DEFAULTS:
            raise CliUsageError(f"unknown config field {key!r}")
        if key in ("preset", "output", "format"):
            if not isinstance(value, str):
                raise CliUsageError(f"config field {key!r} must be a string")
        elif key == "axis":
            if isinstance(value, str):
                continue
            if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
                raise CliUsageError("config field 'axis' must be a string or list of strings")
        elif key in ("max_dim", "n_max"):
            if not isinstance(value, int) or isinstance(value, bool):
                raise CliUsageError(f"config field {key!r} must be an integer")
        else:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise CliUsageError(f"config field {key!r} must be a number")
            try:
                float(value)
            except OverflowError as exc:
                raise CliUsageError(f"config field {key!r} is too large: {exc}") from exc


def parse_config(argv, config_text: str | None = None) -> RunConfig:
    """Resolve argv (plus optional config-file text) into a RunConfig.

    Flags override config values override defaults.  Without config_text,
    the file named by --config, if any, is read (OSError and
    UnicodeDecodeError propagate).
    Raises CliUsageError for malformed config or conflicting options;
    argparse itself exits with code 2 on unknown flags or malformed numbers.
    """
    namespace = _build_parser().parse_args(list(argv))
    if config_text is None and namespace.config is not None:
        with open(namespace.config, "r", encoding="utf-8") as handle:
            config_text = handle.read()

    config = {}
    if config_text is not None:
        try:
            config = json.loads(config_text)
        except json.JSONDecodeError as exc:
            raise CliUsageError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(config, dict):
            raise CliUsageError("config file must hold a JSON object")
        _check_config_types(config)

    flags = {k: v for k, v in vars(namespace).items() if k in _DEFAULTS and v is not None}
    given = {**config, **flags}
    values = {**_DEFAULTS, **given}
    try:
        params = SystemParams(**{name: values[name] for name in PARAM_FIELDS})
    except (TypeError, ValueError) as exc:
        raise CliUsageError(str(exc)) from exc

    if values["format"] not in ("csv", "json"):
        raise CliUsageError(f"format must be csv or json, got {values['format']!r}")

    axes = None
    axis_spec = values["axis"]
    if axis_spec is not None:
        if isinstance(axis_spec, str):
            axis_spec = [axis_spec]
        axes = [parse_axis(text) for text in axis_spec]
        if not 1 <= len(axes) <= 2:
            raise CliUsageError(f"expected one or two axes, got {len(axes)}")

    preset_id = values["preset"]
    if namespace.command == "sweep":
        if preset_id is None and axes is None:
            raise CliUsageError("sweep needs --preset or at least one --axis")
    else:
        if axes is not None:
            raise CliUsageError(f"{namespace.command} does not accept axes")
        if preset_id is not None:
            raise CliUsageError(f"{namespace.command} does not accept a preset")

    if preset_id is not None:
        try:
            base, preset_axes = preset(preset_id)
        except ValueError as exc:
            raise CliUsageError(str(exc)) from exc
        params = base.replace(**{name: given[name] for name in PARAM_FIELDS if name in given})
        if axes is None:
            axes = preset_axes

    return RunConfig(
        command=namespace.command,
        params=params,
        preset=preset_id,
        axes=axes,
        output_path=values["output"],
        format=values["format"],
        tol=float(values["tol"]),
        max_dim=int(values["max_dim"]),
        omega_a=float(values["omega_a"]),
        n_max=int(values["n_max"]),
    )


def format_value(x) -> str:
    """17-significant-digit float formatting; the undefined marker is NA."""
    if x is None:
        return "NA"
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


def _format_complex(z: complex) -> str:
    return f"{format_value(z.real)}{'+' if z.imag >= 0 else '-'}{format_value(abs(z.imag))}j"


CSV_HEADER = (
    "axis1_name,axis1_value,axis2_name,axis2_value,"
    "delta,u,g,f,phi,kappa,dim,n_mean,g2,lg_n,lg_g2,status"
)


def _row_record(row, axes) -> dict:
    names = [axis.param for axis in axes] + [None]
    params = {name: getattr(row.params, name) for name in PARAM_FIELDS}
    return {
        "axis1_name": names[0],
        "axis1_value": params[names[0]],
        "axis2_name": names[1],
        "axis2_value": params.get(names[1]),
        **params,
        "dim": row.dim,
        "n_mean": row.n_mean,
        "g2": row.g2,
        "lg_n": row.lg_n,
        "lg_g2": row.lg_g2,
        "status": row.status,
    }


def sweep_to_csv(result: SweepResult) -> str:
    lines = [CSV_HEADER]
    for row in result.rows:
        record = _row_record(row, result.axes).values()
        lines.append(",".join(v if isinstance(v, str) else format_value(v) for v in record))
    return "\n".join(lines) + "\n"


def sweep_to_json(result: SweepResult) -> str:
    doc = {
        "metadata": dict(result.metadata),
        "rows": [_row_record(row, result.axes) for row in result.rows],
    }
    return json.dumps(doc, indent=2) + "\n"


def execute(cfg: RunConfig) -> int:
    """Run the resolved command; returns the process exit code."""
    out = sys.stdout
    err = sys.stderr
    try:
        if cfg.command == "solve":
            try:
                _, obs, dim = converged_steady_state(cfg.params, cfg.tol, max_dim=cfg.max_dim)
            except SteadyStateError as exc:
                print(f"solver failure: {exc}", file=err)
                return 1
            print(f"n_mean = {format_value(obs.mean_photon)}", file=out)
            print(f"g2 = {format_value(obs.g2)}", file=out)
            print(f"lg_n = {format_value(obs.lg_n)}", file=out)
            print(f"lg_g2 = {format_value(obs.lg_g2)}", file=out)
            print(f"dim = {dim}", file=out)
            print("populations = " + ",".join(format_value(p) for p in obs.populations), file=out)
            return 0

        if cfg.command == "analytic":
            try:
                amps = amplitudes_closed_form(cfg.params)
            except DegenerateParametersError as exc:
                print(f"degenerate parameters: {exc}", file=err)
                return 2
            real_res, imag_res = blockade_conditions(cfg.params)
            print(f"c1 = {_format_complex(amps.c1)}", file=out)
            print(f"c2 = {_format_complex(amps.c2)}", file=out)
            print(f"g2_analytic = {format_value(g2_analytic(amps))}", file=out)
            print(f"real_residual = {format_value(real_res)}", file=out)
            print(f"imag_residual = {format_value(imag_res)}", file=out)
            return 0

        if cfg.command == "optimal":
            p = cfg.params
            try:
                g_star = optimal_g(p.f, p.phi, p.delta, p.kappa)
            except SingularParametersError as exc:
                print(f"singular parameters: {exc}", file=err)
                return 2
            print(f"g_opt = {format_value(g_star)}", file=out)
            return 0

        if cfg.command == "spectrum":
            print("n,energy", file=out)
            for level in energy_levels(cfg.omega_a, cfg.params.u, cfg.n_max):
                print(f"{level.n},{format_value(level.energy)}", file=out)
            return 0

        # sweep: the output is opened before solving, so a bad path costs no
        # work, and emptied only once the grid is solved, so a sweep that
        # fails on the way leaves an existing file as it was
        try:
            sink = nullcontext(out) if cfg.output_path is None else open(cfg.output_path, "a", encoding="utf-8")
        except OSError as exc:
            print(f"cannot write output: {exc}", file=err)
            return 1
        with sink as handle:
            result = run_sweep(cfg.params, cfg.axes, cfg.tol, max_dim=cfg.max_dim, preset_name=cfg.preset)
            try:
                if handle is not out:
                    handle.truncate(0)
                handle.write(sweep_to_csv(result) if cfg.format == "csv" else sweep_to_json(result))
                handle.flush()
            except BrokenPipeError:
                raise  # reported by main, as for every command
            except OSError as exc:
                print(f"cannot write output: {exc}", file=err)
                return 1
        return 0
    except (ValueError, TypeError) as exc:
        print(f"usage error: {exc}", file=err)
        return 2


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        cfg = parse_config(argv)
    except CliUsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read config file: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = execute(cfg)
        sys.stdout.flush()  # where a block-buffered stdout meets a closed pipe
    except BrokenPipeError as exc:
        # point stdout at devnull: the interpreter's exit flush would fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
