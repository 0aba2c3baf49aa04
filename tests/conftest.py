import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from helpers import merged_calibration
from mmqlab.pipeline import PipelineSpec, build_model
from mmqlab.tasks import ProbeConfig, make_probe_set


@pytest.fixture(scope="session")
def default_spec():
    return PipelineSpec(seed=7)


@pytest.fixture(scope="session")
def default_model(default_spec):
    return build_model(default_spec)


@pytest.fixture(scope="session")
def probe_set():
    return make_probe_set(ProbeConfig(seed=11, n_pairs=128), PipelineSpec())


@pytest.fixture(scope="session")
def calibration(default_model, probe_set):
    return merged_calibration(default_model, probe_set)


@pytest.fixture(scope="session")
def tiny_spec():
    return PipelineSpec(
        d_model=32,
        vision_blocks=3,
        connector_blocks=3,
        language_blocks=3,
        heads=2,
        patch_count=8,
        vocab=64,
        seed=5,
    )


@pytest.fixture(scope="session")
def tiny_probes(tiny_spec):
    return make_probe_set(ProbeConfig(seed=3, n_pairs=8), tiny_spec)
