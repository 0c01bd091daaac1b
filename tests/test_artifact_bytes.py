"""The artifact bytes are frozen: scenario CSVs, figure CSVs, SVGs and JSON.

The digests were computed with the ``csv.writer`` code that wrote one row per
call and formatted every float of every frame. Any change to a writer that
moves a byte of an artifact fails here, not only one that breaks
rerun-equals-rerun.
"""

import hashlib

import pytest

from dynact.cli import main
from dynact.simulation import SimulationConfig, run_scenario, scenario_to_csv

SCENARIO_DIGESTS = [
    (SimulationConfig(seed=0), "c1805a619a141cc434727a0837d9ca026d0591a96f04339f36d56677f4f9c72a"),
    (SimulationConfig(seed=1), "9a554e878e90222411023af1af8335550fa57f78db7b79be51c78a21a0f297ea"),
    (SimulationConfig(seed=2), "81a507fef7acdd47268e9eec798e4fae0d48de0b2c291536c45fe565962af458"),
    (SimulationConfig(seed=3), "bef6f68ed6696c94b4894abbf9eb6083d762d873593da574f4a7f1fb5055ad8b"),
    (SimulationConfig(seed=4), "37e54569a0f3becffdaec0e624aeaef230dbea58f6c37253d1eff24538825cc1"),
    (
        SimulationConfig(channels=1024, s_max=16, seed=501),
        "b9f7103f229254f37e56f43ea0eb6d2c35de1b3f4f4971887eba95296b4a4d41",
    ),
    (
        SimulationConfig(channels=2, s_max=0, seed=0),
        "d4d0cf640e0111aefba47917dda9b6e2c24c2386ba3ab557da737f7285dfc845",
    ),
    (
        SimulationConfig(mu=-3.0, step=0.5, seed=11),
        "e49cc301dd8e5431d608ac0d26f1987b5e4afbbf0776bc3d891b29efa7969bb5",
    ),
]

FIGURES_SEED0_DIGESTS = {
    "fig1.svg": "3d1af42d6dab876f94a3f20083917a9cbb641bbecbdd26fd026fc3d827f061ee",
    "fig1_curves.csv": "38cfc5c795648a295fb4d2d8c2229f7541d689b62690a59b52a92ef24d57676d",
    "fig3.svg": "0ca46cee9da9c3765f4cf379a6888c1ce8da36e3268497318611ce9b04c14f37",
    "fig3_residuals.csv": "74f2748dfaa826259d4e7a1d6eefdc8da48496c74c66c50cffdf8c4f9db68037",
    "fit_dyisru.json": "3d9adea6f581f06a52ba8463934f19c5083e7a414131b70244453f1ad7d78944",
    "fit_dyt.json": "68afed4235ee51f35d51c76520ef26aef75390790f5a392bf0d2e6e2403fa3e0",
    "frame_s0.svg": "2699cd81e1ebee7f36f40ada2d91547ee37fa617702bf11ddedc68fe8131b31a",
    "frame_s1.svg": "725ac73f4459fd1a6d81a9cc55fab689d10384b6c99303b732baf7eec91c39f6",
    "frame_s2.svg": "4186b8b43a84989f51f653403de3a29ce8a5bba4bbafbb8b632d1c18531a1e16",
    "frame_s9.svg": "38a3bec079b18584c6097d375f12b0ccc54f2cc3118d0f1ef5901d893fc527ea",
    "manifest.json": "fa5f671c5ddbda8ce15f2a8f426e4402b4baadb7adf7a4d26a7f080a8f6fd610",
    "scenario.csv": "c1805a619a141cc434727a0837d9ca026d0591a96f04339f36d56677f4f9c72a",
}

SIMULATE_C1024_SEED3_DIGESTS = {
    "frame_s0.svg": "996300523bd6182056b63d8177cf9fdeb3b639975f5ac45a4efcfe0f664c0036",
    "frame_s1.svg": "5eef2e7c6e3fc31994722cdc2cabff20dbd9d31c161844cdb651221c237bada8",
    "frame_s2.svg": "2fba7669c308d066e7ff01530fd4ebfb7319cc27efc8f36fd3eccce7c60fe3ff",
    "frame_s9.svg": "a725a25c485e8d40d02efad149c297351aa3c09ecb2a46304926284ddd5498be",
    "manifest.json": "050cd07fb89029db87d05eb6b8ad96a9cbd609cd9f3e045d0977a74d56409a76",
    "scenario.csv": "359374fb7e02c8535a15ab364571e482ea4639a5eb271a0ebacccf4de30062e8",
}

# `fit --input <simulate --seed 0>/scenario.csv`; the manifest is left out
# because it holds the input path
FIT_SEED0_DIGESTS = {
    "dyt": {
        "fit_dyt.json": "68afed4235ee51f35d51c76520ef26aef75390790f5a392bf0d2e6e2403fa3e0",
        "fit_dyt.svg": "f79711d6c2099fbd0ec2736df9f1fccd5bb411474e9a27028264d171ba807851",
    },
    "dyisru": {
        "fit_dyisru.json": "3d9adea6f581f06a52ba8463934f19c5083e7a414131b70244453f1ad7d78944",
        "fit_dyisru.svg": "a62180684827308e12509d574603ef721bacd6dbecbca3151df9ab99190255f7",
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _tree_digests(out) -> dict:
    return {p.name: _sha256(p.read_bytes()) for p in out.iterdir()}


@pytest.mark.parametrize("config,digest", SCENARIO_DIGESTS)
def test_scenario_csv_bytes_match_golden(config, digest):
    assert _sha256(scenario_to_csv(run_scenario(config)).encode("utf-8")) == digest


def test_figures_bytes_match_golden(tmp_path):
    out = tmp_path / "figs"
    assert main(["figures", "--seed", "0", "--out", str(out)]) == 0
    assert _tree_digests(out) == FIGURES_SEED0_DIGESTS


def test_simulate_bytes_match_golden(tmp_path):
    out = tmp_path / "sim"
    argv = ["simulate", "--channels", "1024", "--s-max", "16", "--seed", "3", "--out", str(out)]
    assert main(argv) == 0
    assert _tree_digests(out) == SIMULATE_C1024_SEED3_DIGESTS


@pytest.mark.parametrize("kind", sorted(FIT_SEED0_DIGESTS))
def test_fit_bytes_match_golden(tmp_path, kind):
    sim, out = tmp_path / "sim", tmp_path / "fit"
    assert main(["simulate", "--seed", "0", "--out", str(sim)]) == 0
    assert main(["fit", "--input", str(sim / "scenario.csv"), "--kind", kind, "--out", str(out)]) == 0
    digests = _tree_digests(out)
    del digests["manifest.json"]
    assert digests == FIT_SEED0_DIGESTS[kind]
