"""The exactness gate: outputs equal, bit for bit, the digests committed in
tests/exactness_digests.json (see tests/exactness.py for what each family
holds and the command that rewrites the file)."""

import json

import pytest

import exactness


def test_outputs_match_the_committed_digests():
    with open(exactness.DIGEST_FILE, encoding="utf-8") as f:
        committed = json.load(f)
    here = exactness.environment()
    if here != committed["environment"]:
        differ = sorted(k for k in here if here[k] != committed["environment"].get(k))
        pytest.skip(f"compared nothing: the digests were made under another {', '.join(differ)}")
    got = exactness.digests()
    assert sorted(got) == sorted(committed["digests"]), \
        f"families {sorted(got)} computed, {sorted(committed['digests'])} committed"
    moved = [name for name, digest in committed["digests"].items() if got.get(name) != digest]
    assert not moved, f"outputs moved in families {moved}"
