"""The learned machine and the active run's report stay byte-identical
for a fixed seed.

The machine digests are of `prm_to_text` of machines learned before the
observation table's row sweeps were indexed by sampled column, written
with each edge's own reward (the machines are those of the earlier
digests; only the reward field of their edge lines and the dropped
`convention:` and `tag:` header lines differ); a change to the table, the
sampling or the RNG draw order that alters a learned machine fails here.  The report digest is of the active run's rendered
report (episodes and counterexample of every round) before the sampling
path was compiled to rows, so a change to the draw order that happens to
leave the final machine unchanged still fails.  The passive table digest
is of the run's `to_csv` output while the table still kept a separate
per-word sample counter; its `sample` column is now each word's summed
count, and must write the same bytes.  The active table digest is of the
active run's `to_csv` output while the table still keyed its counts by
word tuples alone, so a change to recording that alters the active table
fails even where the machine and the report stay the same.  The rollout
digest is of `save_traces` of office uniform-policy episodes while each
episode still built its own `SeedSequence` child and `Generator`; the
truth's coffee draw interleaves there with the action draws.  The S and
E digests are of `word_str` of each member of S and of E, in order, one
a line, while S still held words rather than their ids, so a change to
the closedness and consistency witnesses or to the order in which they
grow the table fails even where the machine stays the same.  The
stochastic digests are of the machine, report and table of an active run
on a fixed `random_nmdp` whose moves and truth are stochastic and whose
one terminal label ends episodes, taken while the environment's moves
still carried labels rather than their indices: office's moves are
deterministic and never draw a successor.  The encoding digest is of
every `encoding_distance` report field over a fixed corpus of random
machine pairs, taken while each label's distributions were still dicts
compared by `total_variation`, so a change to the walk's arithmetic or
order fails here.
"""

import hashlib
from pathlib import Path

import numpy as np

import prmlearn
import prmlearn.verify
from prmlearn import LearnerConfig, PassiveConfig, encoding_distance, learn_active, learn_passive, prm_to_text
from prmlearn.machine import prm_from_text
from prmlearn.alphabet import word_str
from prmlearn.environment import collect_traces, load_env_config, save_traces, uniform_policy

from conftest import random_nmdp, random_prm

OFFICE = Path(prmlearn.__file__).resolve().parent / "assets" / "office.yaml"

PASSIVE_OFFICE_SHA256 = "b82e4bbde4390a5cb5a1f23ed84a8762e5abb21754057379d0c05f04b87a5ed1"
ACTIVE_OFFICE_SHA256 = "692f76ea7f795bce17e6d78238b6c3a97c4116ac1ac154288a8c053c36ea9d77"
ACTIVE_OFFICE_REPORT_SHA256 = "787a7ba6a77a16279bcbd3b76fc5f7f563a3cc2b683e017b00aadc6fe6e84115"
PASSIVE_OFFICE_TABLE_SHA256 = "66a78c0743148a4ec07e86f3f8ce5cb3fd6eb8ea17807e42d72dfde8330d4341"
ACTIVE_OFFICE_TABLE_SHA256 = "8bf31854409e1e58e26f4b5543eac6c2252ba9226b34d6018d28a24f7953a830"
PASSIVE_OFFICE_S_SHA256 = "f0af6bb687b477efd0e0e6a4ae739c8d73652ccee13f85c7906a16b2adf5a96d"
PASSIVE_OFFICE_E_SHA256 = "795447d5ab7c04515295c210a1ca720e083cda163ad0e012bab4f8204dd957ac"
ACTIVE_OFFICE_S_SHA256 = "3cb82b9382722c3fb1890a786297f657e208acc29596d9bcdcea8cf7322ea6fb"
ACTIVE_OFFICE_E_SHA256 = "0f072b4daf81e8b8db6784d78f54e655058b19522c47b945b59d02f41d4cbaab"
OFFICE_ROLLOUTS_SHA256 = "54113c392a0773fda4f2764d842d741020d0350cc09ea7cee88202e2c8cf1501"
ACTIVE_STOCHASTIC_SHA256 = "e1731e2bf2fc4d0b0a07b5084f7211138e49dff4686002c97b00c7139583b9d3"
ACTIVE_STOCHASTIC_REPORT_SHA256 = "e993387fd68d77a1ec65d134988e424eb2bcd82344580e2309c871188bf8257a"
ACTIVE_STOCHASTIC_TABLE_SHA256 = "1f569132a0a1c52141d30ecc1dede92003032f8a0ddd69c070f6e47b65bb3224"
ENCODING_SHA256 = "2008827d2ef34ded0c259f37624abc9a46a8102ab8a30c39a59db38d6d16b492"


def digest(prm) -> str:
    return sha256(prm_to_text(prm))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def s_and_e_digests(table) -> tuple:
    """The sha256 of S and of E, each member's `word_str` a line, in order."""
    return tuple(sha256("\n".join(word_str(w) for w in words))
                 for words in ([table.word(s) for s in table.s], table.e))


def test_passive_office_machine_is_pinned(tmp_path):
    env = load_env_config(OFFICE)
    cfg = PassiveConfig(n_check=40, n_episode=env.n_episode, seed=7)
    result = learn_passive(env.nmdp, uniform_policy(env.nmdp), 300, cfg)
    assert digest(result.hypothesis) == PASSIVE_OFFICE_SHA256
    path = tmp_path / "table.csv"
    result.table.to_csv(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PASSIVE_OFFICE_TABLE_SHA256
    assert s_and_e_digests(result.table) == (PASSIVE_OFFICE_S_SHA256, PASSIVE_OFFICE_E_SHA256)


def test_active_office_machine_is_pinned(tmp_path):
    # the acceptance-4 budget
    env = load_env_config(OFFICE)
    cfg = LearnerConfig(n_check=200, n_query=500, n_stop=50, n_episode=100, seed=0)
    result = learn_active(env.nmdp, cfg)
    assert digest(result.hypothesis) == ACTIVE_OFFICE_SHA256
    assert sha256(result.report.render()) == ACTIVE_OFFICE_REPORT_SHA256
    path = tmp_path / "table.csv"
    result.table.to_csv(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == ACTIVE_OFFICE_TABLE_SHA256
    assert s_and_e_digests(result.table) == (ACTIVE_OFFICE_S_SHA256, ACTIVE_OFFICE_E_SHA256)


def test_office_rollouts_are_pinned(tmp_path):
    env = load_env_config(OFFICE)
    traces = collect_traces(env.nmdp, uniform_policy(env.nmdp), 300, 7, env.n_episode)
    path = tmp_path / "traces.log"
    save_traces(traces, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == OFFICE_ROLLOUTS_SHA256


def test_active_stochastic_machine_is_pinned(tmp_path):
    # every move and truth row is stochastic, and a&b ends episodes
    props = ("a", "b")
    rng = np.random.default_rng(1)
    truth = random_prm(rng, 2, props, [0.0, 1.0])
    m = random_nmdp(rng, n_states=4, n_actions=2, props=props, truth=truth,
                    terminal_labels=(frozenset(props),))
    cfg = LearnerConfig(n_check=30, n_query=100, n_stop=5, n_episode=15, seed=3)
    result = learn_active(m, cfg)
    assert digest(result.hypothesis) == ACTIVE_STOCHASTIC_SHA256
    assert sha256(result.report.render()) == ACTIVE_STOCHASTIC_REPORT_SHA256
    path = tmp_path / "table.csv"
    result.table.to_csv(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == ACTIVE_STOCHASTIC_TABLE_SHA256


def encoding_corpus():
    """(h, truth, max_len): `random_machine` truths of every kind, dyadic
    and not, each against a random machine, a perturbed copy of itself or
    itself, at max_len 0-5; then office against its text copy at 5."""
    from test_verify import perturbed, random_machine

    kinds = ("total", "partial", "bottom")
    rng = np.random.default_rng(35)
    for trial in range(216):
        dyadic = bool(trial // 3 % 2)
        truth = random_machine(rng, kinds[trial % 3], dyadic=dyadic)
        other = random_machine(rng, kinds[int(rng.integers(0, 3))], dyadic=dyadic)
        h = (other, perturbed(rng, truth), truth)[trial // 6 % 3]
        yield h, truth, trial // 18 % 6
    truth = load_env_config(OFFICE).truth
    yield prm_from_text(prm_to_text(truth)), truth, 5


def test_encoding_distance_reports_are_pinned(monkeypatch):
    """Every report field, words by `word_str`, so the digest does not
    depend on the hash seed.  Some label of the corpus differs in three
    rewards, where the order of summing the gaps can matter."""
    widest = []

    def counted(p, q, tv=prmlearn.verify.total_variation):
        widest.append(sum(p.get(k, 0.0) != q.get(k, 0.0) for k in set(p) | set(q)))
        return tv(p, q)

    monkeypatch.setattr(prmlearn.verify, "total_variation", counted)

    def text(word):
        return "-" if word is None else word_str(word)

    lines = []
    for h, truth, max_len in encoding_corpus():
        report = encoding_distance(h, truth, max_len)
        lines.append(" ".join([report.distance.hex(), str(report.words_checked), str(report.bottom_count),
                               text(report.worst_word), text(report.first_bottom_word)]
                              + [text(w) for w in report.bottom_words]))
    assert sha256("\n".join(lines)) == ENCODING_SHA256
    assert max(widest) >= 3
