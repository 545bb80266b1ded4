"""Span tracing of the wideffn package from outside it.

The program itself carries no tracing. `Tracer.install` replaces the public
functions of each wideffn module with timing wrappers, at every place a
function is bound: its defining module, every module that imported it with
`from .x import name`, and the class for methods. `Tracer.remove` puts the
originals back.

A span is (name, parent span, start, end, request id). Spans stay in
memory as columns of integers and are written once, at the end of a run.
A span's self time is its duration minus the durations of its child spans;
calls are strictly nested on one thread, so children never overlap.
"""

from __future__ import annotations

import json
import os
import time
from array import array
from collections import Counter

import numpy as np

# Sublayer kind of an attention_forward / ffn_forward span, by the forward
# pass that called it. Self attention gets the same tensor as query and key.
ATTENTION_KIND = {
    ("transformer.encoder_forward", True): "enc_sa",
    ("transformer.decoder_forward", True): "dec_sa",
    ("transformer.decoder_forward", False): "dec_ca",
}
FFN_KIND = {"transformer.encoder_forward": "enc_ffn", "transformer.decoder_forward": "dec_ffn"}

HEAD_COPY_OPS = ("slice_cols", "concat_cols", "transpose")


class Tracer:
    """Records nested spans and exact counts for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_col = array("q")
        self.parent_col = array("q")
        self.start_col = array("q")
        self.end_col = array("q")
        self.request_col = array("q")
        self.counts: Counter = Counter()
        self.request = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _parent_name(self) -> str:
        if not self._stack:
            return ""
        return self.names[self.name_col[self._stack[-1]]]

    def _wrap(self, name, fn, namer=None, note=None):
        """A function that records one span around each call to `fn`.

        `namer(args, parent_name)`, when given, names each span from the call;
        `note(args, kwargs, result)` updates exact counts after the call.
        """
        tracer = self
        fixed_id = self._name_id(name) if namer is None else None
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            nid = fixed_id if namer is None else tracer._name_id(
                namer(args, tracer._parent_name()))
            sid = len(tracer.name_col)
            tracer.name_col.append(nid)
            tracer.parent_col.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.start_col.append(0)
            tracer.end_col.append(0)
            tracer.request_col.append(tracer.request)
            tracer._stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._stack.pop()
                tracer.start_col[sid] = start
                tracer.end_col[sid] = end
            if note is not None:
                note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_only(self, key, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation --------------------------------------------------------

    def _replace_everywhere(self, modules, original, replacement):
        """Rebind `original` to `replacement` in every module that holds it."""
        hits = 0
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, replacement)
                    hits += 1
        if hits == 0:
            raise RuntimeError(f"no binding of {original.__qualname__} found to trace")

    def _replace_method(self, cls, attr, replacement):
        self._patched.append((cls, attr, getattr(cls, attr)))
        setattr(cls, attr, replacement)

    def install(self, wideffn_modules: dict):
        """Wrap the public functions of every wideffn layer.

        `wideffn_modules` maps module name ('bench', 'transformer', ...) to
        the imported module.
        """
        m = wideffn_modules
        mods = list(m.values())
        counts = self.counts

        def fn_span(module, fname, name=None, namer=None, note=None):
            original = getattr(m[module], fname)
            wrapped = self._wrap(name or f"{module}.{fname}", original, namer, note)
            self._replace_everywhere(mods, original, wrapped)

        def method_span(cls, attr, name, note=None):
            self._replace_method(cls, attr, self._wrap(name, getattr(cls, attr), note=note))

        # bench: the decoders and the throughput helper.
        def note_tokens(args, kwargs, result):
            counts["bench.tokens_out"] += len(result)

        fn_span("bench", "decode_greedy", note=note_tokens)
        fn_span("bench", "decode_beam", note=note_tokens)
        fn_span("bench", "measure_throughput")

        # transformer: the decode/training protocol methods, forward passes
        # and sublayers. attention/ffn spans are named by sublayer kind.
        model_cls = m["transformer"].TransformerModel
        method_span(model_cls, "encode", "bench.encode")
        method_span(model_cls, "step_logits", "bench.step_logits")

        def note_loss(args, kwargs, result):
            counts["training.target_tokens"] += int(result[1])

        method_span(model_cls, "loss_for_pair", "training.forward", note=note_loss)

        def note_forward(args, kwargs, result):
            counts["transformer.forward_calls"] += 1

        def note_dec_positions(args, kwargs, result):
            counts["transformer.forward_calls"] += 1
            if self._parent_name() == "bench.step_logits":
                counts["transformer.dec_positions_decode"] += len(args[2])

        fn_span("transformer", "encoder_forward", note=note_forward)
        fn_span("transformer", "decoder_forward", note=note_dec_positions)

        def attention_kind(args, parent):
            return "transformer." + ATTENTION_KIND.get((parent, args[0] is args[1]),
                                                       "attention_other")

        def ffn_kind(args, parent):
            return "transformer." + FFN_KIND.get(parent, "ffn_other")

        fn_span("transformer", "attention_forward", "transformer.attention", attention_kind)
        fn_span("transformer", "ffn_forward", "transformer.ffn", ffn_kind)
        fn_span("transformer", "_embed", name="transformer.embed")

        # tensor: matmul and the head-splitting copies, wherever imported.
        def note_matmul(args, kwargs, result):
            a, b = args[0].data.shape, args[1].data.shape
            counts["tensor.matmul_calls"] += 1
            counts["tensor.matmul_flop"] += 2 * a[0] * a[1] * b[1]

        fn_span("tensor", "matmul", note=note_matmul)
        for op in HEAD_COPY_OPS:
            fn_span("tensor", op)
        tape_cls = m["tensor"].ComputeTape
        self._replace_method(tape_cls, "record",
                             self._count_only("tensor.tape_nodes", tape_cls.record))
        method_span(tape_cls, "backward", "tensor.backward")

        # training: the loop and the optimizer step.
        def note_train(args, kwargs, result):
            counts["training.steps"] += len(result)

        fn_span("training", "train", note=note_train)
        fn_span("training", "adam_step")

        # similarity: collection, the two metrics, kNN and the pairwise matrix.
        def note_cells(args, kwargs, result):
            counts["similarity.cells"] += len(args[0]) * len(args[1])

        def note_metric(args, kwargs, result):
            counts["similarity.metric_calls"] += 1

        def note_knn(args, kwargs, result):
            counts["similarity.knn_calls"] += 1

        fn_span("similarity", "collect_activations")
        fn_span("similarity", "pairwise_layer_similarity", note=note_cells)
        fn_span("similarity", "linear_cka", note=note_metric)
        fn_span("similarity", "lns", note=note_metric)
        fn_span("similarity", "knn", note=note_knn)

        # checkpoint: save, load, and the bytes each load reads.
        def note_read(args, kwargs, result):
            counts["checkpoint.bytes_read"] += os.path.getsize(args[0])

        fn_span("checkpoint", "save_model_checkpoint")
        fn_span("checkpoint", "load_model_checkpoint")
        fn_span("checkpoint", "load_checkpoint", note=note_read)

        # cli: one span per verb.
        fn_span("cli", "main")

    def remove(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- analysis ------------------------------------------------------------

    def span_table(self):
        """Columns as numpy arrays: name id, parent, start, end, request."""
        return (np.frombuffer(self.name_col, dtype=np.int64),
                np.frombuffer(self.parent_col, dtype=np.int64),
                np.frombuffer(self.start_col, dtype=np.int64),
                np.frombuffer(self.end_col, dtype=np.int64),
                np.frombuffer(self.request_col, dtype=np.int64))

    def n_spans(self) -> int:
        return len(self.name_col)

    def times_by_name(self, lo: int, hi: int) -> dict[str, dict[str, float]]:
        """Per span name among spans lo..hi-1: calls and total, self and
        same-layer self seconds.

        Self time subtracts every child span. Same-layer self time subtracts
        only children of the same layer (the name's prefix before the dot),
        so it keeps the time of lower layers the span waited on, such as the
        tensor ops inside a sublayer.
        """
        names, parents, starts, ends, _ = self.span_table()
        dur = (ends - starts).astype(np.float64)
        layer_of = np.array([n.split(".")[0] for n in self.names] or [""], dtype=object)
        child = np.zeros(len(dur))
        child_same = np.zeros(len(dur))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        same = has_parent.copy()
        same[has_parent] = layer_of[names[has_parent]] == layer_of[names[parents[has_parent]]]
        np.add.at(child_same, parents[same], dur[same])
        names, dur, child, child_same = names[lo:hi], dur[lo:hi], child[lo:hi], child_same[lo:hi]
        out: dict[str, dict[str, float]] = {}
        for nid, name in enumerate(self.names):
            mask = names == nid
            if mask.any():
                out[name] = {
                    "calls": int(mask.sum()),
                    "total_s": float(dur[mask].sum()) / 1e9,
                    "self_s": float((dur[mask] - child[mask]).sum()) / 1e9,
                    "layer_self_s": float((dur[mask] - child_same[mask]).sum()) / 1e9,
                }
        return out

    def write(self, path: str, meta: dict):
        """Write every span as a JSON header line plus one line per span."""
        names, parents, starts, ends, requests = self.span_table()
        t0 = int(starts.min()) if len(starts) else 0
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            f.write(json.dumps({**meta, "names": self.names, "spans": int(len(starts)),
                                "columns": ["id", "name", "parent", "start_ns",
                                            "end_ns", "request"]}) + "\n")
            for i in range(len(starts)):
                f.write(f"{i} {names[i]} {parents[i]} {starts[i] - t0} "
                        f"{ends[i] - t0} {requests[i]}\n")
        os.replace(tmp, path)


SUBLAYER_KINDS = ("enc_sa", "dec_sa", "dec_ca", "enc_ffn", "dec_ffn", "embed")

# Counts that must repeat exactly, pass to pass and run to run.
EXACT = ("bench.step_logits_calls", "transformer.dec_positions_per_token",
         "transformer.forward_calls", "tensor.matmul_calls", "tensor.matmul_gflop",
         "tensor.head_copy_calls", "tensor.tape_nodes_per_step", "training.tokens_per_step",
         "similarity.knn_calls", "similarity.metric_calls_per_cell", "checkpoint.bytes_read",
         "trace.spans_per_pass")


def pass_metrics(times: dict, counts: Counter) -> dict[str, float]:
    """Per-layer figures of one traced pass.

    Names ending in `_s` are seconds in that pass. Self times (`*_self_s` and
    the transformer sublayer kinds) exclude every traced child; `*_incl_s`
    excludes only transformer-level children; the rest are whole-call times.
    Every ratio names its base in the comment beside it.
    """
    def t(name, key="total_s"):
        return times.get(name, {}).get(key, 0.0)

    def calls(name):
        return times.get(name, {}).get("calls", 0)

    tokens = counts["bench.tokens_out"]
    steps = counts["training.steps"]
    cells = counts["similarity.cells"]
    m = {
        "bench.encode_s": t("bench.encode"),
        "bench.step_logits_s": t("bench.step_logits"),
        "bench.step_logits_calls": calls("bench.step_logits"),
        "bench.search_self_s": sum(t(f"bench.{n}", "self_s") for n in
                                   ("decode_greedy", "decode_beam", "measure_throughput")),
        # base: tokens the decoders returned
        "transformer.dec_positions_per_token":
            counts["transformer.dec_positions_decode"] / tokens if tokens else 0.0,
        "transformer.forward_calls": counts["transformer.forward_calls"],
        "tensor.matmul_calls": counts["tensor.matmul_calls"],
        # computed from operand shapes (2*m*k*n), not measured
        "tensor.matmul_gflop": counts["tensor.matmul_flop"] / 1e9,
        "tensor.matmul_s": t("tensor.matmul"),
        "tensor.head_copy_calls": sum(calls(f"tensor.{op}") for op in HEAD_COPY_OPS),
        # base: optimizer steps; with no steps, the raw node count (0 expected)
        "tensor.tape_nodes_per_step":
            counts["tensor.tape_nodes"] / steps if steps else counts["tensor.tape_nodes"],
        "tensor.backward_s": t("tensor.backward"),
        "training.forward_s": t("training.forward"),
        "training.adam_s": t("training.adam_step"),
        "training.step_self_s": t("training.train", "self_s"),
        # base: optimizer steps
        "training.tokens_per_step": counts["training.target_tokens"] / steps if steps else 0.0,
        "similarity.collect_s": t("similarity.collect_activations"),
        "similarity.cka_s": t("similarity.linear_cka"),
        "similarity.lns_s": t("similarity.lns", "self_s"),
        "similarity.knn_calls": counts["similarity.knn_calls"],
        "similarity.knn_s": t("similarity.knn"),
        # base: similarity-matrix cells
        "similarity.metric_calls_per_cell": counts["similarity.metric_calls"] / cells if cells else 0.0,
        "checkpoint.load_s": t("checkpoint.load_model_checkpoint"),
        "checkpoint.bytes_read": counts["checkpoint.bytes_read"],
        "cli.self_s": t("cli.main", "self_s"),
    }
    for kind in SUBLAYER_KINDS:
        m[f"transformer.{kind}_s"] = t(f"transformer.{kind}", "self_s")
        m[f"transformer.{kind}_incl_s"] = t(f"transformer.{kind}", "layer_self_s")
    # The output projection is what decoder_forward does outside its sublayers.
    m["transformer.out_proj_s"] = t("transformer.decoder_forward", "self_s")
    m["transformer.out_proj_incl_s"] = t("transformer.decoder_forward", "layer_self_s")
    return m
