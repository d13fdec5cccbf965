"""Property test of the command-line contract over generated invocations.

Whatever the arguments and config file, `main` returns 0, 1 or 2, prints no
traceback and raises no warning (which would land on stderr), and a
nonzero exit leaves exactly one diagnostic line on stderr, after
argparse's usage preamble where argparse itself rejects the command line.
A ValueError raised inside a solve never comes out as exit 2.
The solver runs for real: every drawn sweep has at most 3 x 3 points and
every solve climbs at most to D=18.
"""

import contextlib
import io
import json
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import blockade.steady
from blockade.cli import main

PARAMS = ("delta", "u", "g", "f", "phi", "kappa")
SWEEPABLE = ("delta", "u", "g", "f", "phi")
FLOAT_FLAGS = {
    "solve": PARAMS + ("tol",),
    "analytic": PARAMS,
    "optimal": ("delta", "f", "phi", "kappa"),
    "spectrum": ("u", "omega-a"),
    "sweep": PARAMS + ("tol",),
}

EDGE_FLOATS = (0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300)
floats = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(-2.0, 2.0),
    st.floats(-1e300, 1e300),
)


def values_of(name):
    """Floats for one flag; f, kappa and tol are mostly in their valid range."""
    return st.one_of(floats.map(abs), floats) if name in ("f", "kappa", "tol") else floats


@st.composite
def axes(draw):
    param = draw(st.sampled_from(SWEEPABLE * 3 + ("kappa", "bogus")))
    values = draw(st.lists(values_of(param), min_size=2, max_size=3, unique=True))
    if draw(st.integers(0, 3)):  # mostly an ascending, well-formed axis
        values.sort()
    if draw(st.booleans()):
        return f"{param}:{values[0]!r}:{values[-1]!r}:{draw(st.integers(2, 3))}"
    return f"{param}:" + ",".join(map(repr, values))


@st.composite
def argvs(draw, command):
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(FLOAT_FLAGS[command]), unique=True)):
        argv.append(f"--{flag}={draw(values_of(flag))!r}")
    if command in ("solve", "sweep"):
        argv.append(f"--max-dim={draw(st.integers(12, 18))}")
    if command == "spectrum" and draw(st.booleans()):
        argv.append(f"--n-max={draw(st.integers(-3, 10))}")
    if command == "sweep":
        # always at least one --axis, so a preset never brings its 101 x 101 grid
        argv += [f"--axis={axis}" for axis in draw(st.lists(axes(), min_size=1, max_size=3))]
        if draw(st.booleans()):
            argv.append(f"--preset={draw(st.sampled_from(('fig1a', 'fig2d', 'fig9z')))}")
        if draw(st.booleans()):
            argv.append(f"--format={draw(st.sampled_from(('csv', 'json')))}")
    return argv


# Config fields with values mostly of the right type; "output" is left out
# so that no drawn text names a file to write.
config_fields = {
    **{name: values_of(name) for name in PARAMS + ("tol", "omega_a")},
    "max_dim": st.integers(12, 18),
    "n_max": st.integers(-3, 10),
    "format": st.sampled_from(("csv", "json", "xml")),
    "preset": st.sampled_from(("fig1a", "fig9z")),
    "axis": st.one_of(axes(), st.lists(axes(), max_size=2)),
    "driving": floats,
}
# wrong-typed values; integers stay small, since n_max sets the output length
small_ints = st.integers(-3, 18)
junk = st.one_of(floats, small_ints, st.booleans(), st.text(max_size=8), st.lists(small_ints, max_size=2))
configs = st.one_of(
    st.none(),
    st.fixed_dictionaries({}, optional=config_fields).map(json.dumps),
    st.dictionaries(st.sampled_from(sorted(config_fields)), junk, max_size=3).map(json.dumps),
    st.text(max_size=20),
)


@contextlib.contextmanager
def watch_solves():
    """Collect every ValueError raised out of a batched solve or its observables."""
    errors = []
    originals = {name: getattr(blockade.steady, name) for name in ("_rung",)}

    def watched(solve):
        def call(*args):
            try:
                return solve(*args)
            except ValueError as exc:
                errors.append(exc)
                raise

        return call

    for name, solve in originals.items():
        setattr(blockade.steady, name, watched(solve))
    try:
        yield errors
    finally:
        for name, solve in originals.items():
            setattr(blockade.steady, name, solve)


@pytest.mark.parametrize("command", sorted(FLOAT_FLAGS))
@settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data(), config=configs, to_file=st.booleans())
def test_cli_contract(tmp_path, monkeypatch, command, data, config, to_file):
    argv = data.draw(argvs(command), label="argv")
    monkeypatch.setenv("BLOCKADE_THREADS", "1")
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(config, encoding="utf-8")
        argv = argv + [f"--config={path}"]
    if to_file and argv[0] == "sweep":
        argv = argv + [f"--output={tmp_path / 'out.csv'}"]

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), watch_solves() as solve_errors:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)

    assert code in (0, 1, 2), argv
    assert not (code == 2 and solve_errors), (argv, solve_errors)
    assert not caught, (argv, [str(w.message) for w in caught])
    text = err.getvalue()
    assert "Traceback" not in text, argv
    if code != 0:
        lines = text.splitlines()
        assert lines, argv
        preamble = lines[:-1]
        if preamble:  # argparse prints its (wrapped) usage ahead of its error line
            assert preamble[0].startswith("usage: "), (argv, text)
            assert all(line.startswith(" ") for line in preamble[1:]), (argv, text)
        assert lines[-1].strip(), argv
