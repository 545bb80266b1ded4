import csv
import json
import os
import shutil
import struct
from pathlib import Path

import pytest
import yaml

from wideffn import cli, similarity, training
from wideffn.bench import decode_corpus
from wideffn.cli import RunConfig, load_run_config, main, write_csv
from wideffn.counting import count_params
from wideffn.errors import ConfigError, NumericError
from wideffn.training import Schedule

BASE_DOC = {
    "seed": 3,
    "model": {
        "n_enc": 2, "n_dec": 2, "d_model": 16, "d_ff": 32, "heads": 2,
        "vocab_size": 12, "max_len": 64, "dropout": 0.0,
    },
    "training": {"steps": 3, "batch_size": 4, "base_lr": 0.002, "warmup_steps": 10},
    "task": {"kind": "copy", "count": 6, "len_range": [3, 5], "vocab_size": 12,
             "seed": 1},
    "decode": {"beam": 1, "max_len": 6},
}


def write_config(tmp_path, name="run.yaml", **edits):
    doc = json.loads(json.dumps(BASE_DOC))  # deep copy
    for key, val in edits.items():
        if isinstance(val, dict) and key in doc and isinstance(doc[key], dict):
            doc[key].update(val)
            doc[key] = {k: v for k, v in doc[key].items() if v is not ...}
        elif val is ...:
            doc.pop(key, None)
        else:
            doc[key] = val
    p = tmp_path / name
    p.write_text(yaml.safe_dump(doc))
    return str(p)


@pytest.fixture()
def trained_ckpt(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "model.ckpt")
    assert main(["train", "--config", cfg, "--out", out]) == 0
    return cfg, out


# ----------------------------------------------------------------- config IO

def test_run_config_defaults_and_sections(tmp_path):
    run = load_run_config(write_config(tmp_path))
    assert run.seed == 3
    assert run.steps == 3 and run.batch_size == 4
    assert run.training.base_lr == pytest.approx(0.002)
    assert run.beam == 1 and run.decode_max_len == 6
    assert run.model.d_model == 16
    # an omitted value takes the Schedule/RunConfig default
    bare = load_run_config(write_config(tmp_path, name="bare.yaml", decode=...,
                                        training={"base_lr": ..., "warmup_steps": ...}))
    assert bare.training == Schedule()
    assert (bare.beam, bare.decode_max_len) == (RunConfig().beam, RunConfig().decode_max_len)


def test_run_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(ConfigError, match="top-level"):
        load_run_config(write_config(tmp_path, typo_section={"a": 1}))
    with pytest.raises(ConfigError, match="training"):
        load_run_config(write_config(tmp_path, training={"momentum": 0.9}))
    with pytest.raises(ConfigError, match="model keys"):
        load_run_config(write_config(tmp_path, model={"n_heads": 2}))


def test_run_config_rejects_task_and_corpus_together(tmp_path):
    with pytest.raises(ConfigError, match="not both"):
        load_run_config(write_config(tmp_path, corpus={"src": "a", "tgt": "b"}))


def test_env_seed_overrides_config(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    assert load_run_config(cfg).seed == 3
    monkeypatch.setenv("WFN_SEED", "17")
    assert load_run_config(cfg).seed == 17


def test_preset_expansion_in_run_file(tmp_path):
    run = load_run_config(write_config(tmp_path, preset="SharedEnc"))
    assert run.model.sharing.enc_ffn.kind == "SharedAll"
    assert run.model.sharing.dec_ffn.kind == "Individual"


# --------------------------------------------------------------------- verbs

def test_params_verb_prints_and_writes_json(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out_json = str(tmp_path / "params.json")
    assert main(["params", "--config", cfg, "--json", out_json]) == 0
    stdout = capsys.readouterr().out
    assert "total parameters" in stdout
    assert "percent of baseline" in stdout
    payload = json.loads(open(out_json).read())
    run = load_run_config(cfg)
    assert payload["total"] == count_params(run.model)[0]
    assert payload["percent_of_baseline"] == pytest.approx(100.0)
    assert set(payload["breakdown"]) == {
        "embedding", "enc_attn", "enc_ffn", "dec_self_attn", "dec_cross_attn",
        "dec_ffn", "layer_norms", "biases",
    }


def test_train_writes_checkpoint_sidecar_and_losses(tmp_path, trained_ckpt):
    cfg, out = trained_ckpt
    assert (tmp_path / "model.ckpt").exists()
    sidecar = json.loads(open(out + ".config.json").read())
    assert sidecar["d_model"] == 16
    lines = open(out + ".loss.csv").read().splitlines()
    assert lines[0] == "step,loss"
    assert len(lines) == 1 + 3  # header + one row per step


def test_train_is_byte_reproducible(tmp_path):
    cfg = write_config(tmp_path)
    a, b = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    assert main(["train", "--config", cfg, "--out", a]) == 0
    assert main(["train", "--config", cfg, "--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()
    assert open(a + ".loss.csv").read() == open(b + ".loss.csv").read()


def test_a_failed_csv_write_leaves_the_earlier_loss_csv_whole(tmp_path, trained_ckpt,
                                                             monkeypatch):
    loss_csv = trained_ckpt[1] + ".loss.csv"
    before = sorted(os.listdir(tmp_path)), open(loss_csv, "rb").read()

    def cut_short(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", cut_short)
    with pytest.raises(OSError, match="disk full"):
        write_csv(loss_csv, ["step", "loss"], [{"step": 1, "loss": 0.5}])
    assert (sorted(os.listdir(tmp_path)), open(loss_csv, "rb").read()) == before


def test_env_seed_changes_training(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    a, b = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    assert main(["train", "--config", cfg, "--out", a]) == 0
    monkeypatch.setenv("WFN_SEED", "99")
    assert main(["train", "--config", cfg, "--out", b]) == 0
    assert open(a, "rb").read() != open(b, "rb").read()


def test_resume_continues_from_checkpoint(tmp_path, trained_ckpt, capsys):
    cfg, out = trained_ckpt
    out2 = str(tmp_path / "more.ckpt")
    assert main(["train", "--config", cfg, "--out", out2, "--resume", out]) == 0
    assert "resumed parameters" in capsys.readouterr().out
    assert open(out, "rb").read() != open(out2, "rb").read()  # training moved on


def test_eval_verb_reports_metrics(tmp_path, trained_ckpt, capsys):
    cfg, out = trained_ckpt
    metrics = str(tmp_path / "eval.json")
    code = main(["eval", "--config", cfg, "--checkpoint", out, "--limit", "4",
                 "--json", metrics])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "token accuracy" in stdout and "BLEU" in stdout
    payload = json.loads(open(metrics).read())
    assert payload["pairs"] == 4
    assert 0.0 <= payload["token_accuracy"] <= 1.0
    assert 0.0 <= payload["bleu"] <= 100.0


def test_compare_verb_writes_matrices_and_summary(tmp_path, capsys):
    cfg = write_config(tmp_path)
    outs = []
    for seed, name in [(3, "a.ckpt"), (99, "b.ckpt"), (7, "c.ckpt")]:
        path = str(tmp_path / name)
        env_cfg = write_config(tmp_path, name=f"run{seed}.yaml", seed=seed)
        assert main(["train", "--config", env_cfg, "--out", path]) == 0
        outs.append(path)
    out_dir = str(tmp_path / "cmp")
    code = main(["compare", "--config", cfg, "--a", outs[0], "--b", outs[1],
                 "--benchmark", outs[2], "--metric", "cka", "--out-dir", out_dir])
    assert code == 0
    summary = json.loads(open(out_dir + "/summary.json").read())
    for side in ("encoder", "decoder"):
        assert (tmp_path / "cmp" / f"cka_{side}.csv").exists()
        entry = summary[side]
        assert 0.0 <= entry["aggregate"] <= 1.0
        expect = 100.0 * entry["aggregate"] / (
            sum(entry["benchmark_raws"]) / len(entry["benchmark_raws"]))
        assert entry["normalized"] == pytest.approx(expect)
    header = open(out_dir + "/cka_encoder.csv").read().splitlines()[0]
    assert header.split(",")[1:] == ["0.sa", "0.ffn", "1.sa", "1.ffn"]


def test_compare_scores_a_benchmark_only_on_the_layers_it_reads(tmp_path, monkeypatch):
    paths = []
    for seed, edit in [(3, {}), (99, {}), (7, {"preset": "NoDec"})]:
        paths.append(str(tmp_path / f"{seed}.ckpt"))
        cfg = write_config(tmp_path, name=f"run{seed}.yaml", seed=seed, **edit)
        assert main(["train", "--config", cfg, "--out", paths[-1]]) == 0
    calls = []
    for name in ("linear_cka", "lns"):
        fn = getattr(similarity, name)
        monkeypatch.setattr(similarity, name,
                            lambda *a, _fn=fn, **k: calls.append(1) or _fn(*a, **k))
    cfg = write_config(tmp_path)
    for metric, k in (("cka", []), ("lns", ["--k", "1"])):
        calls.clear()
        assert main(["compare", "--config", cfg, "--a", paths[0], "--b", paths[1],
                     "--benchmark", paths[2], "--metric", metric, *k,
                     "--out-dir", str(tmp_path / metric)]) == 0
        # a against b: 4 x 4 encoder and 6 x 6 decoder cells; a against the
        # NoDec benchmark: its 4 encoder and 4 decoder taps, one cell each
        assert len(calls) == 16 + 36 + 4 + 4, metric


def test_compare_without_benchmark_has_no_normalized(tmp_path, trained_ckpt):
    cfg, out = trained_ckpt
    out_dir = str(tmp_path / "cmp2")
    assert main(["compare", "--config", cfg, "--a", out, "--b", out,
                 "--out-dir", out_dir]) == 0
    summary = json.loads(open(out_dir + "/summary.json").read())
    assert "normalized" not in summary["encoder"]
    # a model against itself: identical representations
    assert summary["encoder"]["aggregate"] == pytest.approx(1.0)


def test_compare_checks_every_architecture_before_writing(tmp_path, trained_ckpt, capsys):
    cfg, out = trained_ckpt
    dec_cfg = write_config(tmp_path, name="dec.yaml",
                           model={"architecture": "decoder-only", "n_enc": 0})
    dec = str(tmp_path / "dec.ckpt")
    assert main(["train", "--config", dec_cfg, "--out", dec]) == 0
    out_dir = tmp_path / "mixed"
    code = main(["compare", "--config", cfg, "--a", out, "--b", out, "--benchmark", dec,
                 "--out-dir", str(out_dir)])
    assert code == 2
    assert "cannot compare models of different architectures" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("k", ["0", "-1", "6"])
def test_compare_checks_k_against_the_probe_count_before_loading_a_model(
        tmp_path, trained_ckpt, capsys, monkeypatch, k):
    cfg, out = trained_ckpt  # its task holds 6 pairs, so k lies in [1, 5]
    loads = []
    monkeypatch.setattr(cli, "load_model_checkpoint", lambda *a, **kw: loads.append(a))
    argv = ["compare", "--config", cfg, "--a", out, "--b", out, "--metric", "lns"]
    out_dir = tmp_path / "cmp"
    assert main([*argv, "--k", k, "--out-dir", str(out_dir)]) == 2
    assert "--k must be in [1, 5]" in capsys.readouterr().err
    assert loads == [] and not out_dir.exists()
    monkeypatch.undo()
    assert main([*argv, "--k", "5", "--out-dir", str(out_dir)]) == 0


@pytest.mark.parametrize("metric_args", [[], ["--metric", "cka"]])
def test_compare_rejects_k_unless_the_metric_is_lns(tmp_path, trained_ckpt, capsys, monkeypatch,
                                                    metric_args):
    cfg, out = trained_ckpt
    loads = []
    monkeypatch.setattr(cli, "load_model_checkpoint", lambda *a, **kw: loads.append(a))
    out_dir = tmp_path / "cmp"
    assert main(["compare", "--config", cfg, "--a", out, "--b", out, *metric_args, "--k", "3",
                 "--out-dir", str(out_dir)]) == 2
    assert "--k is the lns neighborhood size; --metric cka takes none" in capsys.readouterr().err
    assert loads == [] and not out_dir.exists()


@pytest.mark.parametrize("verb", ["selfsim", "cka", "lns"])
def test_a_one_pair_probe_exits_3_before_loading_a_model(tmp_path, trained_ckpt, capsys,
                                                         monkeypatch, verb):
    _, out = trained_ckpt
    cfg = write_config(tmp_path, name="one.yaml", task={"count": 1})
    loads = []
    monkeypatch.setattr(cli, "load_model_checkpoint", lambda *a, **kw: loads.append(a))
    out_dir = tmp_path / "sim"
    argv = (["selfsim", "--checkpoint", out] if verb == "selfsim"
            else ["compare", "--a", out, "--b", out, "--metric", verb])
    assert main([*argv, "--config", cfg, "--out-dir", str(out_dir)]) == 3
    assert "a similarity probe needs at least 2 pairs, got 1" in capsys.readouterr().err
    assert loads == [] and not out_dir.exists()


def test_selfsim_labels_reflect_missing_ffn(tmp_path):
    cfg = write_config(tmp_path, preset="NoDec")
    out = str(tmp_path / "nodec.ckpt")
    assert main(["train", "--config", cfg, "--out", out]) == 0
    out_dir = str(tmp_path / "ss")
    assert main(["selfsim", "--config", cfg, "--checkpoint", out,
                 "--out-dir", out_dir]) == 0
    dec_header = open(out_dir + "/selfsim_decoder.csv").read().splitlines()[0]
    assert "ffn" not in dec_header
    assert "0.sa" in dec_header and "0.ca" in dec_header
    enc_header = open(out_dir + "/selfsim_encoder.csv").read().splitlines()[0]
    assert "0.ffn" in enc_header


def test_selfsim_writes_a_side_with_one_tap(tmp_path):
    cfg = write_config(tmp_path, preset="NoEnc", model={"n_enc": 1})
    out = str(tmp_path / "noenc.ckpt")
    assert main(["train", "--config", cfg, "--out", out]) == 0
    out_dir = tmp_path / "ss"
    assert main(["selfsim", "--config", cfg, "--checkpoint", out, "--out-dir", str(out_dir)]) == 0
    enc = (out_dir / "selfsim_encoder.csv").read_text().splitlines()
    assert enc[0].split(",")[1:] == ["0.sa"] and len(enc) == 2
    assert (out_dir / "selfsim_decoder.csv").exists()


def test_bench_verb_csv_shape(tmp_path, trained_ckpt):
    cfg, out = trained_ckpt
    other = str(tmp_path / "other.ckpt")
    cfg2 = write_config(tmp_path, name="run2.yaml", seed=11)
    assert main(["train", "--config", cfg2, "--out", other]) == 0
    csv_path = str(tmp_path / "bench.csv")
    code = main(["bench", "--config", cfg, "--checkpoints", out, other,
                 "--batch-sizes", "1,2", "--runs", "2", "--out", csv_path])
    assert code == 0
    lines = open(csv_path).read().splitlines()
    assert lines[0] == "# nondeterministic: timing"
    assert lines[1] == "config,batch_size,tokens_per_sec,std,delta_pct,n_batches"
    assert len(lines) == 2 + 4  # 2 models x 2 batch sizes
    assert lines[2].startswith("model,1,")
    # reference rows leave the delta column empty
    assert lines[2].split(",")[4] == ""
    assert lines[3].split(",")[4] != ""


def test_bench_single_model_drops_delta_column(tmp_path, trained_ckpt):
    cfg, out = trained_ckpt
    csv_path = str(tmp_path / "solo.csv")
    assert main(["bench", "--config", cfg, "--checkpoints", out,
                 "--batch-sizes", "2", "--runs", "2", "--out", csv_path]) == 0
    lines = open(csv_path).read().splitlines()
    assert lines[1] == "config,batch_size,tokens_per_sec,std,n_batches"


def test_bench_csv_quotes_a_label_with_a_comma(tmp_path, trained_ckpt):
    cfg, _ = trained_ckpt
    ckpt = str(tmp_path / "x,y.ckpt")
    assert main(["train", "--config", cfg, "--out", ckpt]) == 0
    csv_path = tmp_path / "comma.csv"
    assert main(["bench", "--config", cfg, "--checkpoints", ckpt, "--batch-sizes", "1,2",
                 "--runs", "2", "--out", str(csv_path)]) == 0
    with open(csv_path, newline="") as f:
        header, *rows = csv.reader(f.read().splitlines()[1:])
    assert header == ["config", "batch_size", "tokens_per_sec", "std", "n_batches"]
    assert [row[:2] for row in rows] == [["x,y", "1"], ["x,y", "2"]]
    assert all(len(row) == len(header) for row in rows)


def test_sweep_verb_rows(tmp_path, capsys):
    cfg = write_config(tmp_path)
    csv_path = str(tmp_path / "sweep.csv")
    assert main(["sweep", "--config", cfg, "--side", "decoder",
                 "--dims", "0,16", "--out", csv_path]) == 0
    lines = open(csv_path).read().splitlines()
    assert lines[0] == "d_ff,side,token_accuracy,params,noop"
    assert lines[1].startswith("0,decoder,") and lines[1].endswith(",true")
    assert lines[2].startswith("16,decoder,") and lines[2].endswith(",false")


def test_sweep_exits_2_for_a_side_the_model_does_not_have(tmp_path, capsys):
    cfg = write_config(tmp_path, model={"architecture": "decoder-only", "n_enc": 0})
    csv_path = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--side", "encoder", "--dims", "0,8,64",
                 "--out", str(csv_path)]) == 2
    assert "no encoder layers" in capsys.readouterr().err
    assert not csv_path.exists()


def test_sweep_checks_every_width_before_it_trains_any(tmp_path, capsys, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("train called")

    monkeypatch.setattr(training, "train", no_training)
    csv_path = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", write_config(tmp_path), "--side", "decoder",
                 "--dims", "32,-1", "--out", str(csv_path)]) == 2
    assert "negative width -1" in capsys.readouterr().err
    assert not csv_path.exists()


def test_run_files_are_read_with_libyaml_when_pyyaml_has_it(tmp_path, monkeypatch):
    """load_run_config parses with CSafeLoader when PyYAML has it; the
    README's run file parses as under SafeLoader, and invalid YAML still
    exits 2. (conftest.BothLoaders checks every other run file the tests
    have the CLI read.)"""
    assert issubclass(cli.RUN_FILE_LOADER, getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    text = readme.split("Every verb takes `--config run.yaml`:\n\n```yaml\n")[1].split("```")[0]
    path = tmp_path / "readme.yaml"
    path.write_text(text)
    made = []

    class Counted(cli.RUN_FILE_LOADER):
        def __init__(self, stream):
            made.append(stream)
            super().__init__(stream)

    monkeypatch.setattr(cli, "RUN_FILE_LOADER", Counted)
    run = load_run_config(str(path))
    assert len(made) == 1
    assert (run.seed, run.steps, run.model.d_model, run.task["count"]) == (3, 300, 16, 64)
    for i, invalid in enumerate(["model: {d_model: [1\n", "seed: 'open\n", "a:\n\t- b\n",
                                 "seed: 1\nseed: [\n", "- a\nb: c\n"]):
        bad = tmp_path / f"invalid{i}.yaml"
        bad.write_text(invalid)
        assert main(["params", "--config", str(bad)]) == 2, invalid
    assert len(made) == 1 + 5


# ---------------------------------------------------------------- exit codes

def test_exit_code_2_for_config_errors(tmp_path, capsys, monkeypatch):
    bad = write_config(tmp_path, training={"momentum": 0.9})
    assert main(["params", "--config", bad]) == 2
    assert "error:" in capsys.readouterr().err
    listy = tmp_path / "list.yaml"
    listy.write_text("- a\n- b\n")
    assert main(["params", "--config", str(listy)]) == 2
    broken = tmp_path / "broken.yaml"
    broken.write_text("model: {d_model: [1\n")
    assert main(["params", "--config", str(broken)]) == 2
    assert "error:" in capsys.readouterr().err
    malformed = [
        {"seed": "abc"},
        {"training": {"steps": "ten"}},
        {"training": 5},
        {"model": {"d_model": "wide"}},
        {"model": {"dropout": "high"}},
        {"model": {"sharing": 3}},
        {"preset": ["baseline"]},
        {"decode": {"beam": "x"}},
        {"task": {"count": "many"}},
        {"task": {"len_range": 5}},
        # an integer field takes YAML integers only, and len_range is a list
        {"training": {"steps": 2.7}},
        {"training": {"batch_size": 4.9}},
        {"task": {"count": 6.5}},
        {"task": {"len_range": [3.2, 5.9]}},
        {"task": {"len_range": "35"}},
        {"task": {"seed": 1.5}},
        {"decode": {"max_len": 6.5}},
        # a whole float is no integer either, in any section
        {"seed": 3.0},
        {"training": {"steps": 2.0}},
        {"task": {"count": 8.0}},
        {"task": {"len_range": [3.0, 5]}},
        {"decode": {"beam": 1.0}},
        {"model": {"d_model": 16.0}},
        {"task": ..., "corpus": {"src": "a.txt"}},
        {"task": ..., "corpus": {"src": 0, "tgt": 0}},
        {"model": {"sharing": {"enc_ffn": "SharedAll", "dec_ffn": "SharedAll",
                               "tie_enc_dec_ffn": "false"}}},
        # a model section must be valid on its own, even where the preset overrides it
        {"model": {"n_enc": 3, "sharing": {"enc_ffn": "Cycle(2)"}}, "preset": "baseline"},
        {"model": {"sharing": {"tie_enc_dec_ffn": True}}, "preset": "SharedEncDec"},
        # a YAML true/false is no number
        {"training": {"steps": True}},
        {"training": {"base_lr": True}},
        {"task": {"count": True}},
        {"task": {"len_range": [True, 5]}},
        {"decode": {"beam": True}},
        {"model": {"heads": True}},
        # a learning rate must be finite
        {"training": {"base_lr": float("nan")}},
        {"training": {"base_lr": float("inf")}},
        # a quoted number is a string, not a number
        {"seed": "3"},
        {"training": {"steps": "10"}},
        {"training": {"base_lr": "0.002"}},
        {"task": {"count": "6"}},
        {"task": {"len_range": ["3", "5"]}},
        {"decode": {"beam": "2"}},
    ]
    for edit in malformed:
        cfg = write_config(tmp_path, **edit)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "m.ckpt")]) == 2, edit
        assert "error:" in capsys.readouterr().err, edit
    monkeypatch.setenv("WFN_SEED", "x")
    assert main(["params", "--config", write_config(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_params_checks_the_task_section(tmp_path, capsys):
    # params builds no corpus, yet every section is checked when the file is read
    for task in ({"kind": "nope"}, {"kind": "nope", "count": "many", "len_range": 5},
                 {"count": 0}, {"len_range": [5, 3]}, {"vocab_size": 13}):
        cfg = write_config(tmp_path, task=task)
        assert main(["params", "--config", cfg]) == 2, task
        assert "error:" in capsys.readouterr().err, task


def test_eval_decodes_with_the_run_file_beam(tmp_path, trained_ckpt, monkeypatch):
    cfg, out = trained_ckpt
    beams = []

    def recorded(model, srcs, batch_size, beam, max_len):
        beams.extend([(beam, max_len)] * len(srcs))
        return decode_corpus(model, srcs, batch_size, beam=beam, max_len=max_len)

    monkeypatch.setattr("wideffn.cli.decode_corpus", recorded)
    wide = write_config(tmp_path, name="beam2.yaml", decode={"beam": 2})
    assert main(["eval", "--config", wide, "--checkpoint", out, "--limit", "3"]) == 0
    assert beams == [(2, 6)] * 3


def test_exit_code_2_for_bad_verb_arguments(tmp_path, trained_ckpt, capsys):
    cfg, out = trained_ckpt
    csv_path = str(tmp_path / "out.csv")
    (tmp_path / "other").mkdir()
    namesake = str(tmp_path / "other" / "model.ckpt")
    for suffix in ("", ".config.json"):
        shutil.copyfile(out + suffix, namesake + suffix)
    for argv in (["sweep", "--config", cfg, "--side", "decoder", "--dims", "0,x",
                  "--out", csv_path],
                 ["bench", "--config", cfg, "--checkpoints", out, "--batch-sizes", "1,x",
                  "--out", csv_path],
                 # an empty entry is malformed, not skipped
                 ["sweep", "--config", cfg, "--side", "decoder", "--dims", "0,,16",
                  "--out", csv_path],
                 ["bench", "--config", cfg, "--checkpoints", out, "--batch-sizes", "1,",
                  "--out", csv_path],
                 # as a slice bound, a negative limit would silently drop pairs
                 ["eval", "--config", cfg, "--checkpoint", out, "--limit", "-1"],
                 ["eval", "--config", cfg, "--checkpoint", out, "--limit", "0"],
                 # bench labels a model's rows by its checkpoint's file name
                 ["bench", "--config", cfg, "--checkpoints", out, namesake, "--out", csv_path]):
        assert main(argv) == 2, argv
        assert "error:" in capsys.readouterr().err, argv
    assert not os.path.exists(csv_path)


def test_every_verb_requires_a_run_file(tmp_path, capsys):
    ckpt, out = str(tmp_path / "m.ckpt"), str(tmp_path / "out")
    for argv in (["params"], ["train", "--out", ckpt], ["eval", "--checkpoint", ckpt],
                 ["compare", "--a", ckpt, "--b", ckpt, "--out-dir", out],
                 ["selfsim", "--checkpoint", ckpt, "--out-dir", out],
                 ["bench", "--checkpoints", ckpt, "--out", out],
                 ["sweep", "--side", "encoder", "--dims", "8", "--out", out]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2, argv
        assert "--config" in capsys.readouterr().err, argv


def test_exit_code_3_for_a_checkpoint_vocab_smaller_than_the_corpus(tmp_path, capsys):
    small = write_config(tmp_path, name="small.yaml", model={"vocab_size": 10},
                         task={"vocab_size": 10})
    cfg = write_config(tmp_path, model={"vocab_size": 50}, task={"vocab_size": 50})
    ckpt, fits = str(tmp_path / "small.ckpt"), str(tmp_path / "fits.ckpt")
    assert main(["train", "--config", small, "--out", ckpt]) == 0
    assert main(["train", "--config", cfg, "--out", fits]) == 0
    out = str(tmp_path / "out")
    for argv in (["eval", "--checkpoint", ckpt],
                 ["compare", "--a", ckpt, "--b", fits, "--out-dir", out],
                 ["compare", "--a", fits, "--b", ckpt, "--out-dir", out],
                 ["compare", "--a", fits, "--b", fits, "--benchmark", ckpt, "--out-dir", out],
                 ["selfsim", "--checkpoint", ckpt, "--out-dir", out],
                 ["bench", "--checkpoints", fits, ckpt, "--out", out]):
        assert main(argv + ["--config", cfg]) == 3, argv
        assert "error:" in capsys.readouterr().err, argv


@pytest.mark.parametrize("edit, env", [({"seed": -1}, None), ({}, "-1"),
                                       ({"task": {"seed": -1}}, None)],
                         ids=["seed", "WFN_SEED", "task seed"])
def test_exit_code_2_for_a_negative_seed(tmp_path, capsys, monkeypatch, edit, env):
    # np.random.default_rng takes no negative seed: reject it when the file is read
    if env is not None:
        monkeypatch.setenv("WFN_SEED", env)
    cfg = write_config(tmp_path, **edit)
    for argv in (["params"], ["train", "--out", str(tmp_path / "m.ckpt")]):
        assert main([*argv, "--config", cfg]) == 2, argv
        assert "negative" in capsys.readouterr().err, argv


def test_exit_code_2_for_a_run_file_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "latin1.yaml"
    bad.write_bytes(Path(write_config(tmp_path)).read_bytes() + b"# caf\xe9\n")
    assert main(["params", "--config", str(bad)]) == 2
    assert "UTF-8" in capsys.readouterr().err


def test_exit_code_3_for_missing_files(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["eval", "--config", cfg, "--checkpoint",
                 str(tmp_path / "nope.ckpt")]) == 3
    assert main(["params", "--config", str(tmp_path / "missing.yaml")]) == 3


def test_exit_code_3_for_unreadable_inputs(tmp_path, trained_ckpt, capsys):
    cfg, out = trained_ckpt
    no_sidecar = tmp_path / "dir_sidecar.ckpt"
    no_sidecar.write_bytes(open(out, "rb").read())
    (tmp_path / "dir_sidecar.ckpt.config.json").mkdir()
    (tmp_path / "dir.ckpt").mkdir()
    for argv in (["eval", "--config", cfg, "--checkpoint", str(no_sidecar)],
                 ["eval", "--config", cfg, "--checkpoint", str(tmp_path / "dir.ckpt")],
                 ["params", "--config", str(tmp_path)]):
        assert main(argv) == 3, argv
        assert "error:" in capsys.readouterr().err, argv


def test_exit_code_3_for_malformed_checkpoints_and_sidecars(tmp_path, trained_ckpt, capsys):
    cfg, out = trained_ckpt
    blob = open(out, "rb").read()
    sidecar = json.loads(open(out + ".config.json").read())
    at = blob.index(b"embedding", blob.index(b"src_embed"))
    cases = {
        "dangling_alias": (blob[:at] + b"embeddinG" + blob[at + 9:], sidecar),
        "nan_payload": (blob[:-4] + struct.pack("<f", float("nan")), sidecar),
        "bad_json": (blob, "{not json"),
        "non_mapping": (blob, [1, 2]),
        "unknown_key": (blob, {**sidecar, "depth": 3}),
        "invalid_value": (blob, {**sidecar, "d_model": "wide"}),
    }
    for label, (data, side) in cases.items():
        path = tmp_path / f"{label}.ckpt"
        path.write_bytes(data)
        text = side if isinstance(side, str) else json.dumps(side)
        (tmp_path / f"{label}.ckpt.config.json").write_text(text)
        assert main(["eval", "--config", cfg, "--checkpoint", str(path)]) == 3, label
        assert "error:" in capsys.readouterr().err, label


def test_exit_code_3_for_bad_corpus(tmp_path):
    (tmp_path / "s.txt").write_text("a b\nc\n")
    (tmp_path / "t.txt").write_text("x\n")
    cfg = write_config(tmp_path, task=..., corpus={
        "src": str(tmp_path / "s.txt"), "tgt": str(tmp_path / "t.txt"),
    })
    out = str(tmp_path / "m.ckpt")
    assert main(["train", "--config", cfg, "--out", out]) == 3


def test_exit_code_3_for_a_corpus_file_that_is_not_utf8(tmp_path, capsys):
    (tmp_path / "s.txt").write_text("a b\nc\n")
    (tmp_path / "t.txt").write_bytes(b"x\ncaf\xe9\n")
    cfg = write_config(tmp_path, task=..., corpus={
        "src": str(tmp_path / "s.txt"), "tgt": str(tmp_path / "t.txt"),
    })
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "m.ckpt")]) == 3
    assert f"{tmp_path / 't.txt'}: not UTF-8" in capsys.readouterr().err


def test_exit_code_3_for_a_checkpoint_header_of_rank_5(tmp_path, trained_ckpt, capsys):
    # a header that declares a tensor of a rank Tensor does not take is malformed
    cfg, out = trained_ckpt
    name = b"embedding"
    blob = (b"WFN1" + struct.pack("<IH", 1, len(name)) + name + struct.pack("<BB5I", 0, 5, *[1] * 5)
            + struct.pack("<I", 0) + struct.pack("<f", 0.5))
    path = tmp_path / "rank5.ckpt"
    path.write_bytes(blob)
    shutil.copy(out + ".config.json", str(path) + ".config.json")
    assert main(["eval", "--config", cfg, "--checkpoint", str(path)]) == 3
    assert "rank 5" in capsys.readouterr().err


def test_exit_code_4_for_numeric_failures(tmp_path, monkeypatch):
    def blow_up(*a, **k):
        raise NumericError("non-finite gradient in test")

    monkeypatch.setattr("wideffn.cli.train", blow_up)
    cfg = write_config(tmp_path)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "m.ckpt")]) == 4


def test_corpus_files_drive_training(tmp_path):
    src = tmp_path / "s.txt"
    tgt = tmp_path / "t.txt"
    src.write_text("a b c\nb c a\nc a b\na c b\n")
    tgt.write_text("a b c\nb c a\nc a b\na c b\n")
    cfg = write_config(tmp_path, task=..., corpus={"src": str(src), "tgt": str(tgt)})
    out = str(tmp_path / "files.ckpt")
    assert main(["train", "--config", cfg, "--out", out]) == 0
    assert main(["eval", "--config", cfg, "--checkpoint", out]) == 0


def test_eval_scores_ids_past_the_corpus_vocab(tmp_path, capsys):
    # the model has 40 ids and the corpus 7; at seed 4 the barely trained
    # model decodes ids that name no corpus token, which BLEU must accept
    src = tmp_path / "s.txt"
    src.write_text("a b c\nb c a\nc a b\na c b\n")
    cfg = write_config(tmp_path, seed=4, task=..., model={"vocab_size": 40},
                       corpus={"src": str(src), "tgt": str(src)})
    out = str(tmp_path / "wide_vocab.ckpt")
    assert main(["train", "--config", cfg, "--out", out]) == 0
    assert main(["eval", "--config", cfg, "--checkpoint", out]) == 0
    assert "BLEU" in capsys.readouterr().out
