"""Byte-identity regression for the numeric and the exact reports.

``simulate`` (every flow, period 5, 20 steps) and a short ``elliptic`` run
must write exactly these bytes: the CSV, the JSON summary (its ``csv`` path
replaced by a placeholder) and, for ``elliptic``, the printed line.  The
digests pin the bit-for-bit output of the RK4 stage arithmetic, the
invariant reports and the number formatting.  A one-ulp change inside a
right-hand side is mostly absorbed into the state at h = 1e-3; the
bit-for-bit checks of ``test_flow_arrays.py`` catch those.

The exact reports (``verify`` on default and wide draws, the README
``darboux`` run and three more at periods 5 and 6 and on wide rationals,
the library-level lax-l4 suite and the exact ``commutant``
searches) are pinned the same way: every exact value they print is part of
the digest.  So is the standard output of the demos that print the chain
residuals (01 and 05).
"""

import contextlib
import hashlib
import io
import pathlib
import subprocess
import sys

import pytest

from laxchain import cli
from laxchain.verify import report_to_json, run_suite

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


EXACT_RUNS = {
    "verify-all": ["verify", "--suite", "all", "--samples", "2", "--seed", "7"],
    "verify-all-wide": [
        "verify", "--suite", "all", "--samples", "1", "--seed", "3",
        "--max-num", "1000000000", "--max-den", "1000000",
    ],
    "verify-chain-constants": [
        "verify", "--suite", "chain", "--samples", "3",
        "--constants", "1,2/3,-5,0,0,1",
    ],
    "verify-chain-constants-workers-2": [
        "verify", "--suite", "chain", "--samples", "3",
        "--constants", "1,2/3,-5,0,0,1", "--workers", "2",
    ],
    "darboux": ["darboux", "--curve", "1/3,-2,5/7", "--gamma", "1,2,3,5", "--z0", "9/2"],
    "darboux-period-5": [
        "darboux", "--curve", "1/3,-2,5/7", "--gamma", "1,2,3,5,7/2", "--z0", "9/2",
    ],
    "darboux-period-6": [
        "darboux", "--curve", "1/3,-2,5/7", "--gamma", "1,2,3,5,7/2,-4", "--z0", "9/2",
    ],
    "darboux-wide": [
        "darboux", "--curve", "912673/7,-403518/5,785021/3",
        "--gamma", "123456789/1000,-98765432/999,55555/7,31415926/2718",
        "--z0", "271828182/31",
    ],
    "commutant-sharp": ["commutant", "--variant", "sharp", "--band", "3", "--degree", "9"],
    "commutant-sharp-wide": [
        "commutant", "--variant", "sharp", "--band", "3", "--degree", "9",
        "--r=912673,-403518,785021,-640297",
    ],
    "commutant-custom": [
        "commutant", "--variant", "custom", "--band", "2", "--degree", "3",
        "--bands", '{"1": ["1"], "-1": ["0", "1"], "0": ["1/2", "-3"]}',
    ],
}

# Digests of the exact reports as the per-bracket rebuilt-operator code wrote
# them (lax-l4 from its former stand-alone function), of the commutant reports
# as the dense Fraction elimination wrote them, and of the user-constants
# report as it was written when each sample parsed its constants back from
# strings (serial and pooled runs give the same bytes).
EXACT_EXPECTED = {
    "commutant-custom": "cdc8240a4897074f1febad7be0ec5a887184ae3cb353e231203630682a466d07",
    "commutant-sharp": "c0b944c0cc88f8afbf0d9294dd896485b212c5cd8946d3ea4dc9a4936c5ba38b",
    "commutant-sharp-wide": "6d703a0b0295608d2a6d3250a9683fd477cf25d44a0aff4d046ce3d84dea1c95",
    "verify-all": "5662889fa91dc406e839a0ce4d2b988203443fb5cd4d49f199f2f75e466fbb1c",
    "verify-all-wide": "5a852d3d6cc03213c875dd220f9d00c159fb5057ead873baa65714b3c36714d7",
    "verify-chain-constants":
        "745cf67f6784fcbcdcaa98648748d58ccce1f5dc38c33b04f00c315a41599677",
    "verify-chain-constants-workers-2":
        "745cf67f6784fcbcdcaa98648748d58ccce1f5dc38c33b04f00c315a41599677",
    "darboux": "11ddd7a88bd90b98a0bbb00a0e266f96457f3f96123d7349bb6efe8e7efa5bcb",
    "darboux-period-5": "469da2d705e3a507f529c4a8500d2e8714720bd5dfcc58f0becf1a527952bdbf",
    "darboux-period-6": "5531192c049a0b2ef84c32fccbea1d0c450906cf980030f8562a26ab0797c316",
    "darboux-wide": "75fd0997c18ea28f098eb97bae1077b1db7e342e98441a8849fd8e54282ac682",
    "lax-l4": "073790661a2d2a0d94860c802b2c672f0f5e4155e51376a046d5cf9850dca70d",
}


# Exit status of the runs that do not pass: at a period other than 4 no tail
# closes the chain equations, so the y-Lax check is not zero.
EXACT_STATUS = {"darboux-period-5": 1, "darboux-period-6": 1}


@pytest.mark.parametrize("name", sorted(EXACT_RUNS))
def test_exact_report_bytes_unchanged(name, tmp_path):
    out = tmp_path / f"{name}.json"
    assert cli.main(EXACT_RUNS[name] + ["--out", str(out)]) == EXACT_STATUS.get(name, 0)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EXACT_EXPECTED[name]


def test_lax_l4_report_bytes_unchanged():
    text = report_to_json(run_suite("lax-l4", samples=3, seed=17))
    assert hashlib.sha256(text.encode()).hexdigest() == EXACT_EXPECTED["lax-l4"]


DEMOS = pathlib.Path(__file__).resolve().parents[1] / "demos"

# Digests of the demos' standard output as the hand-written chain-residual
# formulas printed it.
DEMO_EXPECTED = {
    "01_exact_identities.py": "2e6d49ee78559e1456e75072457a9aed75707f8ea694bdf00abadf43b96c2c1e",
    "05_darboux_pipeline.py": "ac36caf2e8b229db3a1c674593cfb45894368e36afa148b6ef011242ae2f6fd8",
}


@pytest.mark.parametrize("script", sorted(DEMO_EXPECTED))
def test_demo_stdout_bytes_unchanged(script):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / script)], capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_EXPECTED[script]
