"""The perfbench span tracer still finds and names every wideffn sublayer.

perfbench/spans.py wraps wideffn functions by name and names each attention
and FFN span by the forward pass that called it, and its counting hooks read
the positional arguments of the calls they wrap, so a refactor of the forward,
similarity or command-line code can break `perfbench/run.py --trace 1`
without failing any other test.
"""

import importlib.util
from pathlib import Path

import yaml

import wideffn
from wideffn import bench, checkpoint, cli, similarity, tensor, training, transformer

from conftest import tiny_config

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
MODULES = {"wideffn": wideffn, "bench": bench, "checkpoint": checkpoint, "cli": cli,
           "similarity": similarity, "tensor": tensor, "training": training,
           "transformer": transformer}
PATCHED_CLASSES = (transformer.TransformerModel, tensor.ComputeTape)


def _bindings():
    """Every module- and class-level binding the tracer may replace."""
    out = {(name, attr): value for name, mod in MODULES.items()
           for attr, value in vars(mod).items() if callable(value)}
    for cls in PATCHED_CLASSES:
        out.update({(cls.__name__, attr): value for attr, value in vars(cls).items()})
    return out


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.Tracer()


def test_tracer_names_every_sublayer_and_restores_the_originals():
    model = wideffn.build_model(tiny_config(), seed=0)
    before = _bindings()
    tracer = _tracer()
    tracer.install(MODULES)
    try:
        bench.decode_greedy(model, [4, 5, 6], max_len=4)
        model.step_logits(model.encode([4, 5, 6]), [4, 5, 6], [])  # as check_greedy calls it
        model.loss_for_pair([([4, 5, 6], [6, 5, 4])])
    finally:
        tracer.remove()
    names = set(tracer.times_by_name(0, tracer.n_spans()))
    for kind in ("enc_sa", "enc_ffn", "dec_sa", "dec_ca", "dec_ffn", "embed"):
        assert f"transformer.{kind}" in names, kind
    assert "transformer.attention_other" not in names
    assert "transformer.ffn_other" not in names
    assert {"bench.encode", "bench.step_logits", "training.forward"} <= names
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_tracer_spans_and_counts_the_similarity_verbs(tmp_path):
    ckpts = []
    for seed in (0, 1, 2):
        ckpts.append(str(tmp_path / f"m{seed}.ckpt"))
        checkpoint.save_model_checkpoint(wideffn.build_model(tiny_config(), seed=seed), ckpts[-1])
    run = tmp_path / "run.yaml"
    run.write_text(yaml.safe_dump({"model": tiny_config().to_dict(),
                                   "task": {"count": 8, "len_range": [3, 5], "vocab_size": 12}}))
    tracer = _tracer()
    tracer.install(MODULES)
    try:
        assert cli.main(["selfsim", "--config", str(run), "--checkpoint", ckpts[0],
                         "--out-dir", str(tmp_path / "selfsim")]) == 0
        selfsim_cells = tracer.counts["similarity.cells"]
        assert cli.main(["compare", "--config", str(run), "--a", ckpts[0], "--b", ckpts[1],
                         "--benchmark", ckpts[2], "--metric", "lns",
                         "--out-dir", str(tmp_path / "lns")]) == 0
        assert cli.main(["compare", "--config", str(run), "--a", ckpts[0], "--b", ckpts[1],
                         "--benchmark", ckpts[2], "--metric", "cka",
                         "--out-dir", str(tmp_path / "cka")]) == 0
    finally:
        tracer.remove()
    calls = {name: t["calls"] for name, t in tracer.times_by_name(0, tracer.n_spans()).items()}
    assert {"similarity.lns", "similarity.knn", "similarity.pairwise_layer_similarity",
            "checkpoint.load_checkpoint", "cli.main"} <= set(calls)
    assert selfsim_cells > 0
    # one knn call per side of each model of the lns compare, over that
    # side's stacked taps, however many cells use them: --a's tables also
    # serve the --benchmark comparison; one metric call per report, whatever
    # its cells: two sides of selfsim, and two sides of --b and of
    # --benchmark for each compare
    cfg = tiny_config()
    assert tracer.counts["similarity.cells"] > selfsim_cells
    assert tracer.counts["similarity.knn_calls"] == 3 * 2
    assert calls["similarity.lns"] == 2 * 2
    assert calls["similarity.linear_cka"] == 2 + 2 * 2
    assert tracer.counts["similarity.metric_calls"] == 2 + 2 * 2 + 2 * 2
    assert tracer.counts["checkpoint.bytes_read"] > 0
    # one encoder and one decoder forward per model per evaluation chunk of
    # the 8 probe pairs: one model for selfsim, three for each compare
    probe = cli.build_corpus(cli.load_run_config(str(run))).pairs
    chunks = len(wideffn.build_model(cfg).chunk_pairs(probe))
    assert tracer.counts["transformer.forward_calls"] == 7 * 2 * chunks
