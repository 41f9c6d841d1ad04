"""The ``simulate`` and ``elliptic`` CSVs against a ``csv.writer`` reference.

The CLI builds its CSV text directly; these tests keep the writer it
replaced (``csv.writer``, excel dialect, on a file opened with
``newline=""``) as the reference and compare bytes: for real runs of every
layout, for states holding values whose ``repr`` is long, signed or
exponential, and for step counts where ``i * h`` prints with rounding noise.
"""

import csv
import io

import numpy as np
import pytest

from laxchain import cli
from laxchain.curves import SpectralCurve
from laxchain.elliptic import wp_init_bounded, wp_trajectory
from laxchain.flows import GammaChain, Trajectory, VWChain, rk4_integrate
from laxchain.scalars import rational

# Each value prints differently under repr: a signed zero, the smallest
# subnormal, exponent notation on both sides, and rounding noise.
EDGE_VALUES = [-0.0, 5e-324, 1e16, 1e-5, 0.1 + 0.2, 1e22, -1e300]


def csv_writer_bytes(header, rows):
    """The bytes ``csv.writer`` writes for ``header`` and ``rows``."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


def reference_trajectory_bytes(traj):
    """The per-site rows of the earlier writer, through ``csv.writer``."""
    states = traj.states.tolist()
    sites = range(traj.period)
    if traj.kind == "gamma":
        header = ["step", "x", "site", "gamma"]
        rows = [[i, i * traj.h, site, s[site]] for i, s in enumerate(states) for site in sites]
    else:
        header = ["step", "x", "site", "V", "W"]
        rows = [
            [i, i * traj.h, site, s[site], s[traj.period + site]]
            for i, s in enumerate(states)
            for site in sites
        ]
    return csv_writer_bytes(header, rows)


def reference_elliptic_bytes(ys, wps, wpps, drift):
    rows = zip(ys.tolist(), wps.tolist(), wpps.tolist(), drift.tolist())
    return csv_writer_bytes(["y", "wp", "wp_prime", "energy_drift"], rows)


def chain_values(period, offset):
    """Distinct sites of a period-``period`` chain, evenly spaced over a
    unit interval, so that short runs stay bounded at every period."""
    return [round(offset + n / period, 9) for n in range(period)]


def edge_states(steps, width):
    """States cycling through :data:`EDGE_VALUES`, each value at every column."""
    flat = [EDGE_VALUES[k % len(EDGE_VALUES)] for k in range((steps + 1) * width)]
    return np.array(flat, dtype=float).reshape(steps + 1, width)


# reduced_t2 (the second gamma flow) blows up within a few steps on an evenly
# spaced long chain; dkn covers the gamma layout at period 64.
@pytest.mark.parametrize(
    "flow, period",
    [(flow, period) for flow in ("dkn", "vw", "flow2") for period in (3, 5, 64)]
    + [("reduced_t2", 3), ("reduced_t2", 5)],
)
def test_simulate_csv_matches_csv_writer(tmp_path, flow, period):
    steps, h = 40, 1e-6
    if flow in ("dkn", "reduced_t2"):
        curve = "1/3,-2,5/7" if flow == "reduced_t2" else "0,-1,0"
        gamma = chain_values(period, -0.9)
        chain_args = ["--curve", curve, "--gamma=" + ",".join(map(repr, gamma))]
        state = GammaChain(tuple(gamma), SpectralCurve.elliptic(*map(rational, curve.split(","))))
    else:
        v, w = chain_values(period, 0.4), chain_values(period, -0.2)
        chain_args = ["--v=" + ",".join(map(repr, v)), "--w=" + ",".join(map(repr, w))]
        state = VWChain(tuple(v), tuple(w))
    csv_path = tmp_path / "traj.csv"
    argv = ["simulate", "--flow", flow, *chain_args, "--h", repr(h), "--steps", str(steps),
            "--csv", str(csv_path), "--out", str(tmp_path / "summary.json")]
    assert cli.main(argv) == 0
    expected = reference_trajectory_bytes(rk4_integrate(state, flow, h, steps))
    assert csv_path.read_bytes() == expected


@pytest.mark.parametrize("period", [3, 5, 64])
@pytest.mark.parametrize("kind", ["gamma", "vw"])
def test_trajectory_csv_edge_values(kind, period):
    width = period if kind == "gamma" else 2 * period
    traj = Trajectory("dkn" if kind == "gamma" else "vw", 1e-3, edge_states(9, width),
                      kind, period, None)
    text = cli._trajectory_csv(traj)
    assert text.encode() == reference_trajectory_bytes(traj)
    for value in EDGE_VALUES:
        assert f",{value!r}\r\n" in text or f",{value!r}," in text


@pytest.mark.parametrize("h", [0.1, 1e-3, 0.7])
def test_trajectory_csv_noisy_step_positions(h):
    steps = 400
    traj = Trajectory("vw", h, edge_states(steps, 6), "vw", 3, None)
    text = cli._trajectory_csv(traj)
    assert text.encode() == reference_trajectory_bytes(traj)
    # some x = i * h prints with rounding noise, e.g. 3 * 0.1
    assert any(len(repr(i * h)) > 15 for i in range(steps + 1))
    if h == 0.1:
        assert "\r\n3,0.30000000000000004,0," in text


def test_elliptic_csv_matches_csv_writer(tmp_path):
    csv_path = tmp_path / "wp.csv"
    argv = ["elliptic", "--curve", "0,-1,0", "--y-max", "0.5", "--h", "1e-2",
            "--csv", str(csv_path)]
    assert cli.main(argv) == 0
    curve = SpectralCurve.elliptic(0, -1, 0)
    arrays = wp_trajectory(wp_init_bounded(curve), 0.5, 1e-2)
    assert csv_path.read_bytes() == reference_elliptic_bytes(*arrays)


def test_elliptic_csv_edge_values():
    arrays = edge_states(12, 4).T.copy()
    text = cli._elliptic_csv(*arrays)
    assert text.encode() == reference_elliptic_bytes(*arrays)
    assert text.startswith("y,wp,wp_prime,energy_drift\r\n")
    assert text.count("\r\n") == 14 and "\n" not in text.replace("\r\n", "")


def test_empty_trajectory_writes_header_and_first_state(tmp_path):
    csv_path = tmp_path / "traj.csv"
    argv = ["simulate", "--flow", "vw", "--v=1,2,1.5", "--w=0.5,-0.5,1", "--h", "1e-3",
            "--steps", "0", "--csv", str(csv_path), "--out", str(tmp_path / "s.json")]
    assert cli.main(argv) == 0
    assert csv_path.read_bytes() == (
        b"step,x,site,V,W\r\n0,0.0,0,1.0,0.5\r\n0,0.0,1,2.0,-0.5\r\n0,0.0,2,1.5,1.0\r\n"
    )
