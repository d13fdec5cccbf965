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
from dataclasses import asdict, dataclass, fields, replace

from .analytic import (
    DegenerateParametersError,
    SingularParametersError,
    amplitudes_closed_form,
    g2_analytic,
    interference_residual,
    optimal_g,
)
from .model import SystemParams, energy_levels
from .steady import DEFAULT_MAX_DIM, DEFAULT_TOL, SteadyStateError, check_ladder, converged_steady_state
from .sweep import GridAxis, SweepResult, _resolve_workers, check_grid, preset, run_sweep

PARAM_FIELDS = tuple(field.name for field in fields(SystemParams))

FORMATS = ("csv", "json")

# Every flag and config field: name -> (type, default, flag help).  The flag
# is --name with "-" for "_"; an axis is a list of axis strings.
_FIELDS = {
    **{name: (float, value, f"{name} (units of kappa)") for name, value in asdict(SystemParams()).items()},
    "tol": (float, DEFAULT_TOL, "convergence tolerance on lg N, lg g2"),
    "max_dim": (int, DEFAULT_MAX_DIM, "largest truncation dimension"),
    "format": (str, "csv", "output format"),
    "omega_a": (float, 0.0, "bare mode frequency"),
    "n_max": (int, 5, "highest photon number"),
    "preset": (str, None, "figure preset id, e.g. fig1a"),
    "axis": (list, None, "sweep axis, linear 'param:min:max:count' or explicit 'param:v1,v2,v3'; repeatable"),
    "output": (str, None, "output file (default: stdout)"),
}

# Subcommand -> (summary, its fields in flag order); each also takes --config.
_COMMANDS = {
    "solve": ("converged steady-state observables at one point", PARAM_FIELDS + ("tol", "max_dim")),
    "analytic": ("two-photon truncated amplitudes and conditions", PARAM_FIELDS),
    "optimal": ("optimal parametric gain for blockade", ("delta", "f", "phi", "kappa")),
    "spectrum": ("bare Kerr-shifted energy levels", ("u", "omega_a", "n_max")),
    "sweep": (
        "grid evaluation over one or two parameters",
        PARAM_FIELDS + ("preset", "axis", "tol", "max_dim", "output", "format"),
    ),
}

# Field type -> (test of a config value, what the value must be).
_CONFIG_TYPES = {
    float: (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), "a number"),
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    str: (lambda v: isinstance(v, str), "a string"),
    list: (
        lambda v: isinstance(v, str) or isinstance(v, list) and all(isinstance(x, str) for x in v),
        "a string or list of strings",
    ),
}


class CliUsageError(ValueError):
    """Malformed invocation: bad flag value, bad config, conflicting options."""


@dataclass
class RunConfig:
    """Fully resolved invocation; each field after axes is the _FIELDS entry of that name.

    For a preset sweep, params is the preset's base with the explicitly set
    knobs applied, and axes are the preset's unless axes were given.
    """

    command: str
    params: SystemParams
    axes: list[GridAxis] | None
    preset: str | None
    output: str | None
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
    for command, (summary, names) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for name in names:
            kind, _, text = _FIELDS[name]
            flag = "--" + name.replace("_", "-")
            if kind is list:
                p.add_argument(flag, action="append", metavar="PARAM:MIN:MAX:COUNT", help=text)
            else:
                p.add_argument(flag, type=kind, choices=FORMATS if name == "format" else None, help=text)
        p.add_argument("--config", help="JSON config file, field names as flags")
    return parser


def parse_axis(text: str) -> GridAxis:
    """Axis syntax: 'param:min:max:count' (linear) or 'param:v1,v2,...' (explicit)."""
    parts = text.split(":")
    try:
        if len(parts) == 2 and "," in parts[1]:
            return GridAxis(parts[0], parts[1].split(","))
        if len(parts) == 4:
            return GridAxis.linear(parts[0], float(parts[1]), float(parts[2]), int(parts[3]))
    except (TypeError, ValueError) as exc:
        raise CliUsageError(f"bad axis {text!r}: {exc}") from exc
    raise CliUsageError(
        f"bad axis {text!r}: expected 'param:min:max:count' or 'param:v1,v2,...'"
    )


def _check_config_types(config: dict) -> None:
    for key, value in config.items():
        if key not in _FIELDS:
            raise CliUsageError(f"unknown config field {key!r}")
        kind = _FIELDS[key][0]
        accepts, noun = _CONFIG_TYPES[kind]
        if not accepts(value):
            raise CliUsageError(f"config field {key!r} must be {noun}")
        if kind is float:
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

    flags = {k: v for k, v in vars(namespace).items() if k in _FIELDS and v is not None}
    given = {**config, **flags}
    values = {**{name: row[1] for name, row in _FIELDS.items()}, **given}
    preset_id = values["preset"]
    base, preset_axes = SystemParams(), None
    try:
        if preset_id is not None and namespace.command == "sweep":
            base, preset_axes = preset(preset_id)
        params = base.replace(**{name: given[name] for name in PARAM_FIELDS if name in given})
    except (TypeError, ValueError) as exc:
        raise CliUsageError(str(exc)) from exc

    if values["format"] not in FORMATS:
        raise CliUsageError(f"format must be {' or '.join(FORMATS)}, got {values['format']!r}")

    axes = preset_axes  # None unless a sweep names a preset
    axis_spec = values["axis"]
    if axis_spec is not None:
        if isinstance(axis_spec, str):
            axis_spec = [axis_spec]
        axes = [parse_axis(text) for text in axis_spec]

    if namespace.command == "sweep":
        if axes is None:
            raise CliUsageError("sweep needs --preset or at least one --axis")
    else:
        if axes is not None:
            raise CliUsageError(f"{namespace.command} does not accept axes")
        if preset_id is not None:
            raise CliUsageError(f"{namespace.command} does not accept a preset")

    # Everything execute would reject is rejected here, before any output is
    # written: the ladder settings, the spectrum length, the sweep's grid
    # (sweep.check_grid) and its worker count.
    names = _COMMANDS[namespace.command][1]
    try:
        if "tol" in names:
            check_ladder(values["tol"], values["max_dim"])
        if "n_max" in names and values["n_max"] < 0:
            raise ValueError(f"n_max must be a non-negative integer, got {values['n_max']!r}")
        if namespace.command == "sweep":
            check_grid(params, axes)
            _resolve_workers(None)
    except ValueError as exc:
        raise CliUsageError(str(exc)) from exc

    options = {f.name: values[f.name] for f in fields(RunConfig) if f.name in _FIELDS}
    return RunConfig(
        command=namespace.command,
        params=params,
        axes=axes,
        **{name: None if v is None else _FIELDS[name][0](v) for name, v in options.items()},
    )


def format_value(x) -> str:
    """17-significant-digit float formatting; the undefined marker is NA."""
    if x is None:
        return "NA"
    return format(float(x), ".17g")


def _format_complex(z: complex) -> str:
    return f"{format_value(z.real)}{'+' if z.imag >= 0 else '-'}{format_value(abs(z.imag))}j"


# A sweep row's columns: its axes, every parameter, then SweepRow attributes.
_COLUMNS = ("axis1_name", "axis1_value", "axis2_name", "axis2_value", *PARAM_FIELDS,
            "dim", "n_mean", "g2", "lg_n", "lg_g2", "status")
CSV_HEADER = ",".join(_COLUMNS)


def _row_record(row, axes) -> dict:
    names = [axis.param for axis in axes] + [None]
    params = {name: getattr(row.params, name) for name in PARAM_FIELDS}
    cells = (names[0], params[names[0]], names[1], params.get(names[1]), *params.values())
    return dict(zip(_COLUMNS, (*cells, *(getattr(row, name) for name in _COLUMNS[len(cells):]))))


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
            residual = interference_residual(cfg.params)
        except DegenerateParametersError as exc:
            print(f"degenerate parameters: {exc}", file=err)
            return 2
        print(f"c1 = {_format_complex(amps.c1)}", file=out)
        print(f"c2 = {_format_complex(amps.c2)}", file=out)
        print(f"g2_analytic = {format_value(g2_analytic(amps))}", file=out)
        print(f"real_residual = {format_value(residual.real)}", file=out)
        print(f"imag_residual = {format_value(residual.imag)}", file=out)
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
        for n, energy in enumerate(energy_levels(cfg.omega_a, cfg.params.u, cfg.n_max)):
            print(f"{n},{format_value(energy)}", file=out)
        return 0

    # sweep: the output is opened before solving, so a bad path costs no
    # work, and emptied only once the grid is solved, so a sweep that
    # fails on the way leaves an existing file as it was
    try:
        sink = nullcontext(out) if cfg.output is None else open(cfg.output, "a", encoding="utf-8")
    except OSError as exc:
        print(f"cannot write output: {exc}", file=err)
        return 1
    with sink as handle:
        result = run_sweep(cfg.params, cfg.axes, cfg.tol, max_dim=cfg.max_dim)
        result = replace(result, metadata={"preset": cfg.preset, **result.metadata})
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
