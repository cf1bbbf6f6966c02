"""Golden outputs: sha256 digests of CLI outputs for fixed seeds.

The digests pin the exact bytes of ``explain`` JSON, the ``evaluate``
reports and the SVG figures. A change that moves any of them by a single
ulp fails here; such a change has to say why and re-record the digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

import pytest

from prolime.cli import main

EXPLAIN_POINT = ["0.41", "-0.51"]

EXPLAIN_VARIANTS = {
    "standard-gaussian": ["--sampler", "standard"],
    "standard-lhs": ["--sampler", "standard", "--noise", "lhs"],
    "standard-mean": ["--sampler", "standard", "--center", "mean"],
    "process-aware": ["--sampler", "process-aware"],
}

EXPLAIN_DIGESTS = {
    ("standard-gaussian", 7): "a2f48bf95b7ba4449848202ab99da7b54ef7778dfe05bd0649b1b6d988677028",
    ("standard-gaussian", 24): "32c69434bce232dac14070428544b5fb7019e21c6fd02a59a7facc2f5ed63004",
    ("standard-lhs", 7): "78a728be5f8c770f0f5062b28de94225ba33439a8988951fde48d9d268ab683e",
    ("standard-lhs", 24): "07cc4b81836caa4410ee3d480b131fe2177ee0de540df50019c2d4fb1692bd34",
    ("standard-mean", 7): "17a07f33de26fc5f8aefeff3f31321b28b1d7e4acecf364fc0cf2494f203a2d7",
    ("standard-mean", 24): "96b68cb1d1ca31ca833593ff37d83facf0a96d8c01802594f22420a8479b1832",
    ("process-aware", 7): "bdc091b7d00d690e972743299d1c410762b12879ddc217325a79d007f51f0a4a",
    ("process-aware", 24): "df793fbd9da7f833a66e271296bd5818b11ffc39fb28ac3614b1705ec08cb77c",
}

EVALUATE_DIGESTS = {
    (3, "csv"): "6188eb8942b5cc412ebdb5b7c74e45baa6f0ddf86ad8eb79db781d68bd8a32d6",
    (3, "json"): "f06614f09a96b2dc80fe95b910b2e3f88b8e577daff1ee7da9cee5827db0931d",
    (11, "csv"): "b0ad48a3cd9bdd1ac76046b57749ae99b00475c138118f72caa618113d18eb14",
    (11, "json"): "473a30144795c91ed629f73c10fa74dd8c5b10615fc611cb0f4b0cda9ac30ebe",
}

PLOT_DIGESTS = {
    "model-grid": "fd8594cebc8a13be85f0532095a2c606e9efeb664838b0a5ce7e375b5df4bfc5",
    "neighborhood": "42a33bb2e35816e87ec8e3768e12d9650afcfa268aa0a25ea5aaa6015910368d",
    "model-grid-50-seed0": "eeaef2f97ff7ad279b25b6f983db2c94f5c89c9737a134fa075b455a516a66e7",
    "model-grid-50-seed9": "f019688a29efb9fe555fbd5dfd285b60beb8bfa724b78d1f3625a0b8c65d75f9",
    "neighborhood-process-aware": "b1c452324a2e27011aebfea275d8e9aef063c31c64c87659cea4965a8bb3421d",
    "neighborhood-lhs": "743661dd3f548dbd87cccf5ee5ccd1df97ec0283ba5df107b4d9913a1ac4b093",
}

_NEIGHBORHOOD = ["neighborhood", "--seed", "5", "--credit", "0.41", "--risk", "-0.51", "--neighborhood-size", "300"]

# The 50-point model grid at seeds 0 and 9 is the model-grid plot of one
# benchmark ``figures`` op.
PLOT_ARGS = {
    "model-grid": ["model-grid", "--seed", "5", "--resolution", "40"],
    "neighborhood": _NEIGHBORHOOD,
    "model-grid-50-seed0": ["model-grid", "--seed", "0", "--resolution", "50"],
    "model-grid-50-seed9": ["model-grid", "--seed", "9", "--resolution", "50"],
    "neighborhood-process-aware": [*_NEIGHBORHOOD, "--sampler", "process-aware"],
    "neighborhood-lhs": [*_NEIGHBORHOOD, "--noise", "lhs"],
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _quiet(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("variant, seed", sorted(EXPLAIN_DIGESTS))
def test_explain_json_matches_golden_digest(variant, seed):
    text = _quiet(["explain", *EXPLAIN_POINT, "--seed", str(seed), *EXPLAIN_VARIANTS[variant]])
    assert _sha256(text.encode("utf-8")) == EXPLAIN_DIGESTS[(variant, seed)]


@pytest.mark.parametrize("seed", sorted({seed for seed, _ in EVALUATE_DIGESTS}))
def test_evaluate_reports_match_golden_digests(seed, tmp_path):
    out = tmp_path / "report.csv"
    _quiet(["evaluate", "--trials", "3", "--seed", str(seed), "--out", str(out)])
    assert _sha256(out.read_bytes()) == EVALUATE_DIGESTS[(seed, "csv")]
    assert _sha256(out.with_suffix(".json").read_bytes()) == EVALUATE_DIGESTS[(seed, "json")]


@pytest.mark.parametrize("kind", sorted(PLOT_DIGESTS))
def test_plot_svg_matches_golden_digest(kind, tmp_path):
    out = tmp_path / f"{kind}.svg"
    _quiet(["plot", *PLOT_ARGS[kind], "--out", str(out)])
    assert _sha256(out.read_bytes()) == PLOT_DIGESTS[kind]


# ``generate --n 3000`` writes ``dataset.csv`` in the working directory, so
# the stdout (which names the path) is pinned too; ``plot data`` draws it.
DATASET_DIGESTS = {
    (0, "csv"): "40417a06c94a22c8181b07521d0bb807ab64d7a3338ee8c03c6c82395abe42bc",
    (0, "stdout"): "2832b6e09a12b2cd4075658898cd2a61a7b6fc995622de3cb2f1030e30c1bdfa",
    (0, "svg"): "047959e2ef7bd34aa9d79f958ca8af89800fa637c07fadf645cb1118bc299463",
    (9, "csv"): "7366bd0e4bf58fe0afb66b3586cd0ab818a406929155770dd4cdb3eae02c73e0",
    (9, "stdout"): "461ccbe6400dc29982e33bb33d5e1dc97fcbe0a3950839e004d2ab5b2d6ee85a",
    (9, "svg"): "230d476234e34f448e7b10f51ce89090f49faacb77aad38764fa9718b290ea49",
}


@pytest.mark.parametrize("seed", sorted({seed for seed, _ in DATASET_DIGESTS}))
def test_generate_and_data_plot_match_golden_digests(seed, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    stdout = _quiet(["generate", "--n", "3000", "--seed", str(seed), "--out", "dataset.csv"])
    _quiet(["plot", "data", "--data", "dataset.csv", "--out", "data.svg"])
    assert _sha256((tmp_path / "dataset.csv").read_bytes()) == DATASET_DIGESTS[(seed, "csv")]
    assert _sha256(stdout.encode("utf-8")) == DATASET_DIGESTS[(seed, "stdout")]
    assert _sha256((tmp_path / "data.svg").read_bytes()) == DATASET_DIGESTS[(seed, "svg")]


# ``--help`` texts at 80 columns, pinned so that a change to a flag, its
# default or its help string has to re-record them on purpose.
HELP_DIGESTS = {
    "prolime": "8e135cde4cc6aea30add4f8bf3e903bafb80f0ffe4ddc090b0ab0a9d62042085",
    "generate": "0bd1ab12552b6383ee395a3a8fa37d5c5664cbf868bd5a0a9430e1a1fd61a257",
    "explain": "b7f20eeb4df27b4cd66f0a602532f9226c30792463539b751a3192b464d3020e",
    "evaluate": "2dfdfee490ee57001e5072b20abcfb85bbdfc22224286762c21eb2416a9bf227",
    "plot": "d20809af31eecc09e74d0d3f6fcc816f1e0ad0ce9eed59f406f7de73b5bd927f",
}


@pytest.mark.parametrize("command", sorted(HELP_DIGESTS))
def test_help_text_matches_golden_digest(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [] if command == "prolime" else [command]
    text = _quiet([*argv, "--help"])
    assert _sha256(text.encode("utf-8")) == HELP_DIGESTS[command]
