import os

# Pin BLAS to one thread before numpy loads, so that timing tests such as c08
# do not depend on how many cores other processes leave free.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import pytest
import yaml

import wideffn as w
from wideffn import cli
from wideffn.training import AdamState, Schedule, token_accuracy, train
from wideffn.vocab import generate_toy_task

TOY_VOCAB = 20


def tiny_config(**overrides):
    kw = dict(n_enc=2, n_dec=2, d_model=16, d_ff=32, heads=2, vocab_size=12, dropout=0.0)
    kw.update(overrides)
    return w.ModelConfig(**kw)


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


class BothLoaders(cli.RUN_FILE_LOADER):
    """The CLI's run-file loader, which also parses the same text with
    PyYAML's pure-Python SafeLoader and checks that the two agree: the same
    document, or both reject the text."""

    def __init__(self, stream):
        self.text = stream.read()
        super().__init__(self.text)

    def get_single_data(self):
        try:
            doc = super().get_single_data()
        except yaml.YAMLError:
            with pytest.raises(yaml.YAMLError):
                yaml.load(self.text, Loader=yaml.SafeLoader)
            raise
        assert repr(doc) == repr(yaml.load(self.text, Loader=yaml.SafeLoader)), self.text
        return doc


@pytest.fixture(autouse=True)
def run_files_parse_alike_under_both_loaders(monkeypatch):
    """Every run file a test has the CLI read goes through BothLoaders."""
    monkeypatch.setattr(cli, "RUN_FILE_LOADER", BothLoaders)
