"""The artifact bytes are frozen: scenario CSVs, figure CSVs, SVGs and JSON.

The digests were computed with the ``csv.writer`` code that wrote one row per
call and formatted every float of every frame, and re-frozen once for each
new rng stream version (now 2). Any change to a writer that moves a byte of
an artifact fails here, not only one that breaks rerun-equals-rerun.
"""

import hashlib

import pytest

from dynact.cli import main
from dynact.simulation import SimulationConfig, run_scenario, scenario_to_csv

SCENARIO_DIGESTS = [
    (SimulationConfig(seed=0), "d1b8fe8ca5193187410d5508501cb6fd06412fb27f026cb053fd652a966c555d"),
    (SimulationConfig(seed=1), "23684eef99f507f332fe530a3fe4889f4aeee85eaa58efbdfce2e1f84f7b7b84"),
    (SimulationConfig(seed=2), "dbd82440730220d55a28cd87020ab6f1d68d16d0abe5033f12fa77422268b43b"),
    (SimulationConfig(seed=3), "3076cee222d332687831c683e2baea8de6b2e9c224937fff782e39317c326b79"),
    (SimulationConfig(seed=4), "3578b3edc60460e940f09bf7bb73f5a1291111af092c8581f403a6eaa159ea50"),
    (
        SimulationConfig(channels=1024, s_max=16, seed=501),
        "d3fb1a6c80559490ac683805a5cac83c9441282d9685841aac199956123a2937",
    ),
    (
        SimulationConfig(channels=2, s_max=0, seed=0),
        "d294759126c47ff00af0d2296662b9a689acd5e8e2d89cb52dd3907d8dc96691",
    ),
    (
        SimulationConfig(mu=-3.0, step=0.5, seed=11),
        "85c6ed52d3976483bb154cca9b89123e7d4558d4fe0dc89ec09b9211216b4eaa",
    ),
]

FIGURES_SEED0_DIGESTS = {
    "fig1.svg": "3d1af42d6dab876f94a3f20083917a9cbb641bbecbdd26fd026fc3d827f061ee",
    "fig1_curves.csv": "38cfc5c795648a295fb4d2d8c2229f7541d689b62690a59b52a92ef24d57676d",
    "fig3.svg": "0ca46cee9da9c3765f4cf379a6888c1ce8da36e3268497318611ce9b04c14f37",
    "fig3_residuals.csv": "5170b04c50b2dd8888ac57f9d59dce40205a9f57ddea64d70fed7342344d7aa5",
    "fit_dyisru.json": "b0b2e1390dfc4f568bf831b1e0b1c562b1f88217c0f690534a376b75ef352aa9",
    "fit_dyt.json": "d6acf5db77a6702108bf12284ed586b890e3368203ab28dc3a707d0286fe4937",
    "frame_s0.svg": "2699cd81e1ebee7f36f40ada2d91547ee37fa617702bf11ddedc68fe8131b31a",
    "frame_s1.svg": "725ac73f4459fd1a6d81a9cc55fab689d10384b6c99303b732baf7eec91c39f6",
    "frame_s2.svg": "4186b8b43a84989f51f653403de3a29ce8a5bba4bbafbb8b632d1c18531a1e16",
    "frame_s9.svg": "38a3bec079b18584c6097d375f12b0ccc54f2cc3118d0f1ef5901d893fc527ea",
    "manifest.json": "423b4faf00cab0a03d4cf0e444b643a99b329329c5be67a7b72c6739704de058",
    "scenario.csv": "d1b8fe8ca5193187410d5508501cb6fd06412fb27f026cb053fd652a966c555d",
}

SIMULATE_C1024_SEED3_DIGESTS = {
    "frame_s0.svg": "996300523bd6182056b63d8177cf9fdeb3b639975f5ac45a4efcfe0f664c0036",
    "frame_s1.svg": "5eef2e7c6e3fc31994722cdc2cabff20dbd9d31c161844cdb651221c237bada8",
    "frame_s2.svg": "2fba7669c308d066e7ff01530fd4ebfb7319cc27efc8f36fd3eccce7c60fe3ff",
    "frame_s9.svg": "a725a25c485e8d40d02efad149c297351aa3c09ecb2a46304926284ddd5498be",
    "manifest.json": "6a7b65787f700d235ffd811cc07151e378cf7ecf7f70d5073afcee050e21e0ee",
    "scenario.csv": "56ff46c0140506455724386dfffdfb7498a26adcb8a7f79bf26f4107368968de",
}

# `fit --input <simulate --seed 0>/scenario.csv`; the manifest is left out
# because it holds the input path
FIT_SEED0_DIGESTS = {
    "dyt": {
        "fit_dyt.json": "d6acf5db77a6702108bf12284ed586b890e3368203ab28dc3a707d0286fe4937",
        "fit_dyt.svg": "f79711d6c2099fbd0ec2736df9f1fccd5bb411474e9a27028264d171ba807851",
    },
    "dyisru": {
        "fit_dyisru.json": "b0b2e1390dfc4f568bf831b1e0b1c562b1f88217c0f690534a376b75ef352aa9",
        "fit_dyisru.svg": "a62180684827308e12509d574603ef721bacd6dbecbca3151df9ab99190255f7",
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _tree_digests(out) -> dict:
    return {p.name: _sha256(p.read_bytes()) for p in out.iterdir()}


# the ids leave the digests out, so that a re-freeze keeps the test names
@pytest.mark.parametrize("config,digest", SCENARIO_DIGESTS, ids=[f"config{i}" for i in range(len(SCENARIO_DIGESTS))])
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
