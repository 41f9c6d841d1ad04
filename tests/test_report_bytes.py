"""Byte-identity regression for the numeric reports.

``simulate`` (every flow, period 5, 20 steps) and a short ``elliptic`` run
must write exactly these bytes: the CSV, the JSON summary (its ``csv`` path
replaced by a placeholder) and, for ``elliptic``, the printed line.  The
digests pin the bit-for-bit output of the RK4 stage arithmetic, the
invariant reports and the number formatting.  A one-ulp change inside a
right-hand side is mostly absorbed into the state at h = 1e-3; the
bit-for-bit checks of ``test_flow_arrays.py`` catch those.
"""

import contextlib
import hashlib
import io

import pytest

from laxchain import cli

GAMMA = "--gamma=-0.82,-0.31,0.28,0.77,1.4"
V = "--v=0.33,-0.93,0.89,-0.4,0.61"
W = "--w=1.13,0.03,-1.05,0.05,-0.7"

RUNS = {
    "dkn": ["simulate", "--flow", "dkn", "--curve", "0,-1,0", GAMMA],
    "reduced_t2": ["simulate", "--flow", "reduced_t2", "--curve", "1/3,-2,5/7", GAMMA],
    "vw": ["simulate", "--flow", "vw", V, W],
    "flow2": ["simulate", "--flow", "flow2", V, W],
    "elliptic": ["elliptic", "--curve", "0,-1,0", "--y-max", "0.25"],
}

# Digests of the reports as the earlier per-site flow code wrote them.
EXPECTED = {
    "dkn": {
        "csv": "a786125f269f375c19a327cdbc470117a183fd3eece08fe7ae6e229c6c66d2a7",
        "json": "acfefad5bc18d545f8b2ef98d5eef43adbf3722fca2fcb78d5dce8acfd57fd6d",
    },
    "elliptic": {
        "csv": "e671e141e6f209e58f13de8c31439a7507060abfeacde233b84c0c19d9889725",
        "stdout": "005e8e72a3e98e844c1216410f0eedfcb84027d97469a09235cd3305a602b248",
    },
    "flow2": {
        "csv": "e8cac3222d50d8f3ff3f296c53afd15e55fca804787ca21ca21e97844bcb6e27",
        "json": "36122bc8bd549397967e6f395ab5ef3c82380db64900411e1c0bc688ceb06bee",
    },
    "reduced_t2": {
        "csv": "bacaf3a401dbc13a0f94580ed422d280305e6acb4a0457a594922551677a7e96",
        "json": "8c76fdb74d470430c503acefdf9285dab8f3ad88e5d958ee12dab277738e04b8",
    },
    "vw": {
        "csv": "8cf591cf94ddde50d35ca44260b7c20793e3226cb1bb497a257c1c9b23eb18f7",
        "json": "421a654eac86278313448810a63c335323174da59b5b69f8f28725101eecda2f",
    },
}


def report_digests(name, workdir):
    """sha256 of every output of one run, with the CSV path normalised."""
    csv_path, json_path = workdir / f"{name}.csv", workdir / f"{name}.json"
    argv = RUNS[name] + ["--h", "1e-3", "--csv", str(csv_path)]
    if name != "elliptic":
        argv += ["--steps", "20", "--out", str(json_path)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(argv) == 0
    outputs = {"csv": csv_path.read_bytes()}
    if name == "elliptic":
        outputs["stdout"] = stdout.getvalue().encode()
    else:
        outputs["json"] = json_path.read_bytes()
    return {
        key: hashlib.sha256(raw.replace(str(csv_path).encode(), b"<csv>")).hexdigest()
        for key, raw in outputs.items()
    }


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_bytes_unchanged(name, tmp_path):
    assert report_digests(name, tmp_path) == EXPECTED[name]
