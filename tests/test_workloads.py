"""perfbench's workloads still load their run file, check decoding and meet
their anchors.

perfbench/workloads.py drives the analyze workload through a run file and
`cli.main`, and checks every greedy decode of decode-base against a
teacher-forced `decoder_forward` over `model.encode(src)`. A change to the
run-file reader or to the decode context can break either without failing
any other test; the benchmark would only show it as failed operations.
Each workload's anchors (decode tokens, training losses, similarity values)
must also still match perfbench/reference.json.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import wideffn as w
from wideffn.bench import decode_greedy
from wideffn.cli import build_corpus, load_run_config

from conftest import tiny_config

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
REFERENCE_JSON = WORKLOADS_PY.parent / "reference.json"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_analyze_run_file_loads_and_builds_its_probe_corpus(workloads, tmp_path):
    path = str(tmp_path / "run.yaml")
    workloads.write_run_yaml(path, 3, workloads.PROBE_SENTENCES)
    run = load_run_config(path)
    assert run.model == w.ModelConfig(**workloads.ANALYZE_MODEL)
    corpus = build_corpus(run)
    assert len(corpus.pairs) == workloads.PROBE_SENTENCES == 32
    assert {len(src) for src, _ in corpus.pairs} == {7}


@pytest.mark.parametrize("arch", ["encoder-decoder", "decoder-only"])
def test_check_greedy_accepts_a_greedy_decode(workloads, arch):
    n_enc = 0 if arch == "decoder-only" else 2
    model = w.build_model(tiny_config(n_enc=n_enc, architecture=arch), seed=5)
    for src in ([4, 5, 6], [7, 8, 9, 10, 11]):
        out = decode_greedy(model, src, max_len=6)
        assert workloads.check_greedy(model, src, out, 6) == (True, "")


def test_every_workload_meets_its_committed_anchors(workloads, tmp_path):
    reference = json.loads(REFERENCE_JSON.read_text())
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(0, str(tmp_path / name))
        wl.setup()
        rec = workloads.Record()
        wl.anchor(rec, reference)
        assert rec.problems == [], name
