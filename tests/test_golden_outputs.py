"""The experiment outputs stay byte-identical on seeded fixtures.

Each case synthesizes a fixture with `idtree synth`, runs `idtree eval-z`
(fractional and absolute gain) and `idtree eval-tot` on it under one tie
policy, and compares the sha256 of every output file with a pinned value.
The random fixture has depth ties, so the two tie policies differ there.
A change that moves any of these bytes has to say why and re-pin them.
"""

import csv
import hashlib
import json
from collections import Counter

import pytest

from idtree.cli import main

# fixture -> (synth flags, eval-z flags, eval-tot flags)
FIXTURES = {
    "toy": (["--kind", "toy"], ["--years", "2000:2000", "--t1", "1", "--t2", "3"], ["--t2", "4"]),
    "planted-z": (["--kind", "planted-z"], [], ["--pct", "0.25"]),
    "planted-tot": (["--kind", "planted-tot"], [], []),
    "random": (
        ["--kind", "random", "--n-papers", "2500", "--years", "1985:2005", "--mean-refs", "6", "--followup", "1",
         "--seed", "3"],
        ["--years", "1990:2001", "--t1", "3", "--t2", "7"],
        ["--pct", "0.25", "--t2", "8"],
    ),
}

RUNS = {
    "eval-z": ("venues.csv", "z_summary.json"),
    "eval-z-absolute": ("venues.csv", "z_summary.json"),
    "eval-tot": ("tot_cases.csv", "tot_summary.json"),
}

# sha256 of each output file, and the exit code of each run
PINNED = {
    ("planted-tot", "min-id"): {
        "eval-z": 0,
        "eval-z/venues.csv": "53cbdad9f95e0549cb64a21c5a6dd57f91a0a51ac24515697ea76d5decf42f46",
        "eval-z/z_summary.json": "73250a41ac25c5c9f42a441739fd247ceea405b1883d649e6411893184d631f2",
        "eval-z-absolute": 0,
        "eval-z-absolute/venues.csv": "53cbdad9f95e0549cb64a21c5a6dd57f91a0a51ac24515697ea76d5decf42f46",
        "eval-z-absolute/z_summary.json": "73250a41ac25c5c9f42a441739fd247ceea405b1883d649e6411893184d631f2",
        "eval-tot": 0,
        "eval-tot/tot_cases.csv": "0c48d24ab1d81ecfd5671e44bdb25bcd579b00e7e55244efcf4171a0e76d67f8",
        "eval-tot/tot_summary.json": "97c5e37cd0676cfc35731642dc9ed75aa9603dbc9750a611fb3bf4132326be3e",
    },
    ("planted-tot", "random"): {
        "eval-z": 0,
        "eval-z/venues.csv": "53cbdad9f95e0549cb64a21c5a6dd57f91a0a51ac24515697ea76d5decf42f46",
        "eval-z/z_summary.json": "73250a41ac25c5c9f42a441739fd247ceea405b1883d649e6411893184d631f2",
        "eval-z-absolute": 0,
        "eval-z-absolute/venues.csv": "53cbdad9f95e0549cb64a21c5a6dd57f91a0a51ac24515697ea76d5decf42f46",
        "eval-z-absolute/z_summary.json": "73250a41ac25c5c9f42a441739fd247ceea405b1883d649e6411893184d631f2",
        "eval-tot": 0,
        "eval-tot/tot_cases.csv": "0c48d24ab1d81ecfd5671e44bdb25bcd579b00e7e55244efcf4171a0e76d67f8",
        "eval-tot/tot_summary.json": "97c5e37cd0676cfc35731642dc9ed75aa9603dbc9750a611fb3bf4132326be3e",
    },
    ("planted-z", "min-id"): {
        "eval-z": 0,
        "eval-z/venues.csv": "81991655b979678669b889ce5e2fa222b57b4c969cfc65e1029599af863dab69",
        "eval-z/z_summary.json": "a0594cf5c9a7b3957d72d27561642032145166f6d76d3281f46ef6adecfbf1b5",
        "eval-z-absolute": 0,
        "eval-z-absolute/venues.csv": "81991655b979678669b889ce5e2fa222b57b4c969cfc65e1029599af863dab69",
        "eval-z-absolute/z_summary.json": "a0594cf5c9a7b3957d72d27561642032145166f6d76d3281f46ef6adecfbf1b5",
        "eval-tot": 0,
        "eval-tot/tot_cases.csv": "8a63972adc3c8c821e6e1f04e3ea6b9d34d298c4dceeb50228f8a6a6951341c3",
        "eval-tot/tot_summary.json": "6b7cff0348f43a125707ae4b1ab9639f4da04879a2d896c9314fa4095e1b0188",
    },
    ("planted-z", "random"): {
        "eval-z": 0,
        "eval-z/venues.csv": "81991655b979678669b889ce5e2fa222b57b4c969cfc65e1029599af863dab69",
        "eval-z/z_summary.json": "a0594cf5c9a7b3957d72d27561642032145166f6d76d3281f46ef6adecfbf1b5",
        "eval-z-absolute": 0,
        "eval-z-absolute/venues.csv": "81991655b979678669b889ce5e2fa222b57b4c969cfc65e1029599af863dab69",
        "eval-z-absolute/z_summary.json": "a0594cf5c9a7b3957d72d27561642032145166f6d76d3281f46ef6adecfbf1b5",
        "eval-tot": 0,
        "eval-tot/tot_cases.csv": "8a63972adc3c8c821e6e1f04e3ea6b9d34d298c4dceeb50228f8a6a6951341c3",
        "eval-tot/tot_summary.json": "6b7cff0348f43a125707ae4b1ab9639f4da04879a2d896c9314fa4095e1b0188",
    },
    ("random", "min-id"): {
        "eval-z": 0,
        "eval-z/venues.csv": "9da270a0bf9714f3c2eaf310c563248a3cece9e24ae373a2ce58e28af1653cc7",
        "eval-z/z_summary.json": "be97a3a057c7b3a69c332210426b23643ca09ffad1fa5d8c0842a4be3a31d055",
        "eval-z-absolute": 0,
        "eval-z-absolute/venues.csv": "a3c8616c357ef4d278af82d5d1a1e7586f53789f321fb2bcd453e38341afdad6",
        "eval-z-absolute/z_summary.json": "66bac61cf7c279bd9e2b7fba619f2fe135ec8e0347c1d273af8ecefce0137707",
        "eval-tot": 0,
        "eval-tot/tot_cases.csv": "a4240947d9b33068775b96e212d2eb2e663579bc7a238e4f33d2a5fc6ae78d5f",
        "eval-tot/tot_summary.json": "c161d53b67632ccf47e108bc17c946beba914decc4b205537ab02d55ae67a950",
    },
    ("random", "random"): {
        "eval-z": 0,
        "eval-z/venues.csv": "9da270a0bf9714f3c2eaf310c563248a3cece9e24ae373a2ce58e28af1653cc7",
        "eval-z/z_summary.json": "be97a3a057c7b3a69c332210426b23643ca09ffad1fa5d8c0842a4be3a31d055",
        "eval-z-absolute": 0,
        "eval-z-absolute/venues.csv": "a3c8616c357ef4d278af82d5d1a1e7586f53789f321fb2bcd453e38341afdad6",
        "eval-z-absolute/z_summary.json": "66bac61cf7c279bd9e2b7fba619f2fe135ec8e0347c1d273af8ecefce0137707",
        "eval-tot": 0,
        "eval-tot/tot_cases.csv": "c265730bc72e09def3a39da655c58d46cdb488031ee0a9ab039c7d9460dc1e05",
        "eval-tot/tot_summary.json": "bcdae2adc0dd685108b2156dbb3bbf0061aecfdbdfa3326d9b03049be4808216",
    },
    ("toy", "min-id"): {
        "eval-z": 2,
        "eval-z/venues.csv": "e31f5a98fde29b0c1913e65d91e49e7d0fc40e5a2928dadaf3b68c1465a638cb",
        "eval-z/z_summary.json": "b81591a743528528410cdf0300e6ed7032c9503fb8caed28c44b464bafd3dc3d",
        "eval-z-absolute": 2,
        "eval-z-absolute/venues.csv": "e31f5a98fde29b0c1913e65d91e49e7d0fc40e5a2928dadaf3b68c1465a638cb",
        "eval-z-absolute/z_summary.json": "b81591a743528528410cdf0300e6ed7032c9503fb8caed28c44b464bafd3dc3d",
        "eval-tot": 0,
        "eval-tot/tot_cases.csv": "747d38ff117ac2b22ea5cf1e5ce82c27571942f133dc37fe8765de119c9bc45e",
        "eval-tot/tot_summary.json": "9e829205754faf062867b32f05a6f533e812314f2aa70f18c1c231cd907184b9",
    },
    ("toy", "random"): {
        "eval-z": 2,
        "eval-z/venues.csv": "e31f5a98fde29b0c1913e65d91e49e7d0fc40e5a2928dadaf3b68c1465a638cb",
        "eval-z/z_summary.json": "b81591a743528528410cdf0300e6ed7032c9503fb8caed28c44b464bafd3dc3d",
        "eval-z-absolute": 2,
        "eval-z-absolute/venues.csv": "e31f5a98fde29b0c1913e65d91e49e7d0fc40e5a2928dadaf3b68c1465a638cb",
        "eval-z-absolute/z_summary.json": "b81591a743528528410cdf0300e6ed7032c9503fb8caed28c44b464bafd3dc3d",
        "eval-tot": 0,
        "eval-tot/tot_cases.csv": "747d38ff117ac2b22ea5cf1e5ce82c27571942f133dc37fe8765de119c9bc45e",
        "eval-tot/tot_summary.json": "9e829205754faf062867b32f05a6f533e812314f2aa70f18c1c231cd907184b9",
    },
}


def _write_awardees(fixture) -> None:
    """Each venue edition's most cited paper (smallest id on ties), and one unknown venue."""
    with open(fixture / "edges.tsv", encoding="utf-8") as fh:
        cites = Counter(line.rstrip("\n").split("\t")[1] for line in fh)
    best = {}
    with open(fixture / "meta.jsonl", encoding="utf-8") as fh:
        for rec in map(json.loads, fh):
            if "venue" in rec:
                key = (rec["venue"], rec["year"])
                score = (-cites[rec["id"]], rec["id"])
                best[key] = min(best.get(key, score), score)
    with open(fixture / "awardees.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("paper_id", "venue", "year"))
        writer.writerows((pid, venue, year) for (venue, year), (_, pid) in sorted(best.items()))
        writer.writerow(("nobody", "NOWHERE-1999", 1999))


def output_digests(root, fixture_name: str, tie: str) -> dict:
    """{run/file: sha256} plus {run: exit code} for one fixture under one tie policy."""
    synth_flags, z_flags, tot_flags = FIXTURES[fixture_name]
    fixture = root / fixture_name
    if not (fixture / "edges.tsv").exists():
        assert main(["synth", *synth_flags, "--out", str(fixture)]) == 0
        if fixture_name != "planted-tot":
            _write_awardees(fixture)
    corpus = ["--edges", str(fixture / "edges.tsv"), "--meta", str(fixture / "meta.jsonl"),
              "--tie", tie, "--seed", "5"]
    argv = {
        "eval-z": ["eval-z", *corpus, *z_flags],
        "eval-z-absolute": ["eval-z", *corpus, *z_flags, "--gain", "absolute"],
        "eval-tot": ["eval-tot", *corpus, *tot_flags, "--awardees", str(fixture / "awardees.csv")],
    }
    digests = {}
    for run, files in RUNS.items():
        out = root / f"{fixture_name}-{tie}-{run}"
        digests[run] = main([*argv[run], "--out", str(out)])
        for name in files:
            digests[f"{run}/{name}"] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    return digests


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    return tmp_path_factory.mktemp("golden")


@pytest.mark.parametrize("tie", ["min-id", "random"])
@pytest.mark.parametrize("fixture_name", sorted(FIXTURES))
def test_outputs_match_pinned_digests(root, fixture_name, tie):
    assert output_digests(root, fixture_name, tie) == PINNED[fixture_name, tie]
