"""Truncation truth: a converged answer lies within tol of a converged large-D solve.

converged_steady_state promises lg N and lg g2 converged in truncation to
tol.  At g = 0, exact_kerr_moments checks that promise against the
truncation-free solution; here it is checked for any gain against one
solve at the fixed truncation D_REF, kept only where that solve is itself
converged: its top levels n >= D_REF - 12 hold a negligible share of N and
of <a'a'aa>.  The draws cover the weak-drive regime, the fig1a, fig3 and
fig4 maps, bright drives that climb the ladder, and Kerr-free points with
strong gain, whose long tails sit closest to tol.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import weak_drive_params

from blockade.model import SystemParams
from blockade.steady import ConvergenceError, converged_steady_state, observables, steady_state
from blockade.sweep import preset

D_REF = 60
REFERENCE_SHARE = 1e-9
MAPS = ("fig1a", *(f"fig3{tag}" for tag in "abcdef"), *(f"fig4{tag}" for tag in "abcd"))


@st.composite
def map_points(draw):
    base, axes = preset(draw(st.sampled_from(MAPS)))
    return base.replace(**{axis.param: draw(st.floats(axis.min, axis.max)) for axis in axes})


# N of about 3 to 15: the ladder climbs to D = 24-42
bright_params = st.builds(
    SystemParams,
    delta=st.floats(-0.5, 0.5),
    u=st.one_of(st.just(0.0), st.floats(0.0, 0.05)),
    g=st.floats(-0.05, 0.05),
    f=st.floats(0.8, 1.6),
    phi=st.floats(0.0, 2 * math.pi),
)


@st.composite
def kerr_free_strong_gain(draw):
    """u = 0 with 2|g| at 50-75% of the gain threshold sqrt(delta^2 + kappa^2/4)."""
    delta = draw(st.floats(-1.0, 1.0))
    ratio = draw(st.floats(0.5, 0.75)) * draw(st.sampled_from((1.0, -1.0)))
    return SystemParams(
        delta=delta,
        g=0.5 * ratio * math.hypot(delta, 0.5),
        f=draw(st.floats(0.0, 0.5)),
        phi=draw(st.floats(0.0, 2 * math.pi)),
    )


def top_share(pops):
    """Largest share of N and of <a'a'aa> held, by magnitude, by the top 12 levels."""
    n = np.arange(len(pops), dtype=float)
    return max(np.dot(w[-12:], np.abs(pops[-12:])) / np.dot(w, pops) for w in (n, n * (n - 1.0)))


@settings(max_examples=36, deadline=None, derandomize=True, database=None)
@given(
    p=st.one_of(weak_drive_params, map_points(), bright_params, kerr_free_strong_gain()),
    tol=st.sampled_from([0.05, 1e-3, 1e-6]),
)
def test_converged_answer_is_within_tol_of_large_truncation(p, tol):
    reference = observables(steady_state(p, D_REF))
    assume(top_share(np.array(reference.populations)) < REFERENCE_SHARE)
    try:
        _, obs, dim = converged_steady_state(p, tol, max_dim=D_REF)
    except ConvergenceError:
        assume(False)  # no answer, so no wrong one
    assert abs(obs.lg_n - reference.lg_n) <= tol, (dim, obs.lg_n, reference.lg_n)
    assert abs(obs.lg_g2 - reference.lg_g2) <= tol, (dim, obs.lg_g2, reference.lg_g2)
