"""The CLI's committed reference outputs (`tests/reference/`), each
configuration run in-process and compared by `reference_outputs`."""

import pytest

import reference_outputs


@pytest.mark.parametrize("config", reference_outputs.load_manifest()["configs"],
                         ids=lambda config: config["name"])
def test_outputs_match_the_reference(config, tmp_path):
    diffs = reference_outputs.check(config, tmp_path)
    assert [miss for diff in diffs for miss in diff.misses] == []
