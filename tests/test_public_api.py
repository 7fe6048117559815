"""Every exported name resolves, so a deletion cannot leave a stale export."""

import pytest

import stepgp
import stepgp.kernels


@pytest.mark.parametrize("module", [stepgp, stepgp.kernels],
                         ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
