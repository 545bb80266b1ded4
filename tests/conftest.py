import os

# Pin BLAS to one thread before numpy loads, so that timing tests such as c08
# do not depend on how many cores other processes leave free.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest
import yaml

import wideffn as w
from wideffn import cli, similarity
from wideffn.tensor import Tensor, matmul
from wideffn.training import AdamState, Schedule, token_accuracy, train
from wideffn.vocab import EOS, generate_toy_task

from per_op import reshape

TOY_VOCAB = 20


def tiny_config(**overrides):
    kw = dict(n_enc=2, n_dec=2, d_model=16, d_ff=32, heads=2, vocab_size=12, dropout=0.0)
    kw.update(overrides)
    return w.ModelConfig(**kw)


def count_scored_cells(monkeypatch) -> list[int]:
    """A list that gets, for each `linear_cka` or `lns` call, the cells it
    scores: one for a call on two spaces, and one per pair for a call on two
    lists of spaces."""
    cells = []
    for name in ("linear_cka", "lns"):
        metric = getattr(similarity, name)
        monkeypatch.setattr(similarity, name, lambda a, b, metric=metric, **k: cells.append(
            len(a) if isinstance(a, list) else 1) or metric(a, b, **k))
    return cells


def total(x):
    """The sum of a matrix's entries as a rank-0 Tensor, through ops the tape
    records: ones(1, rows) @ x @ ones(cols, 1), reshaped."""
    rows, cols = x.shape
    product = matmul(matmul(Tensor(np.ones((1, rows))), x), Tensor(np.ones((cols, 1))))
    return reshape(product, ())


class PrefixRows:
    """The rows object `search` steps, over `next_logits(src, prefix)`, the
    logits after a whole generated prefix: each row keeps the ids it was fed,
    <bos> first, and asks for the logits after all of them every step."""

    def __init__(self, next_logits, srcs: list):
        self.next_logits, self.rows = next_logits, [(src, ()) for src in srcs]

    def step(self, ids) -> np.ndarray:
        self.rows = [(src, fed + (tok,)) for (src, fed), tok in zip(self.rows, ids)]
        return np.stack([self.next_logits(src, list(fed[1:])) for src, fed in self.rows])

    def keep(self, rows) -> None:
        self.rows = [self.rows[r] for r in rows]


class Scripted:
    """Fake decoder with next-token distributions scripted per prefix.

    Prefixes missing from the table end the sequence with certainty, so
    every scripted tree is finite.
    """

    def __init__(self, table, vocab=5):
        self.table = table
        self.vocab = vocab

    def decode_rows(self, srcs: list) -> PrefixRows:
        return PrefixRows(self.next_logits, srcs)

    def next_logits(self, src, prefix):
        probs = np.full(self.vocab, 1e-9)
        for tok, p in self.table.get(tuple(prefix), {EOS: 1.0}).items():
            probs[tok] = p
        return np.log(probs)


@pytest.fixture(scope="session")
def toy_corpus():
    return generate_toy_task("copy", 512, (3, 8), TOY_VOCAB, seed=7)


@pytest.fixture(scope="session")
def trained_copy_model(toy_corpus):
    """One convergent copy-task model shared across the suite (slow to make)."""
    cfg = w.ModelConfig(n_enc=2, n_dec=2, d_model=32, d_ff=64, heads=2,
                        vocab_size=TOY_VOCAB, dropout=0.0)
    model = w.build_model(cfg, seed=1)
    sched = Schedule(base_lr=2e-3, warmup_steps=100)
    state = AdamState(model.store)
    for chunk in range(8):
        train(model, toy_corpus, steps=100, batch_size=32, seed=chunk, schedule=sched,
              state=state)
        if token_accuracy(model, toy_corpus, limit=64) >= 0.98:
            break
    return model


PYTHON_RUN_FILE_LOADER = cli.run_file_loader(yaml.SafeLoader)


class BothLoaders(cli.RUN_FILE_LOADER):
    """The CLI's run-file loader, which also parses the same text with
    PyYAML's pure-Python SafeLoader, given the same run-file extensions, and
    checks that the two agree: the same document, or both reject the text."""

    def __init__(self, stream):
        self.text = stream.read()
        super().__init__(self.text)

    def get_single_data(self):
        try:
            doc = super().get_single_data()
        except yaml.YAMLError:
            with pytest.raises(yaml.YAMLError):
                yaml.load(self.text, Loader=PYTHON_RUN_FILE_LOADER)
            raise
        assert repr(doc) == repr(yaml.load(self.text, Loader=PYTHON_RUN_FILE_LOADER)), self.text
        return doc


@pytest.fixture(autouse=True)
def run_files_parse_alike_under_both_loaders(monkeypatch):
    """Every run file a test has the CLI read goes through BothLoaders."""
    monkeypatch.setattr(cli, "RUN_FILE_LOADER", BothLoaders)
