"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The desk-scale criteria run on a synthetic corpus generated by the CLI
(2,000 documents, vocabulary 500, 16-dim embeddings). A bag-of-words
logistic-regression oracle — implemented here, independent of the model
code — must certify the corpus separable before the capsule model is
held to the 95% bar.
"""

import json
import time

import numpy as np
import pytest

from textcaps.adversarial import (
    BoundedDraws,
    PerturbationPolicy,
    SeededRng,
    perturb_sentence,
    perturb_word,
)
from textcaps.capsule import (
    N_CLASSES,
    CapsuleHeadConfig,
    class_probabilities_batch,
    compress_batch,
    dynamic_routing_batch,
    primary_capsules_batch,
)
from textcaps.cli import main as cli_main
from textcaps.encoders import EncoderConfig, encoder_forward_batch
from textcaps.model import init_model
from textcaps.tensor import Tensor, grad_check, log, squash
from textcaps.text import read_dataset
from textcaps.training import (
    TrainConfig,
    compute_metrics,
    run_ablation,
    run_sweep,
)
from textcaps.text import load_embeddings


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {number}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    data = root / "corpus.jsonl"
    embeddings = root / "embeddings.txt"
    code = cli_main(["gen-synth", "--docs", "2000", "--vocab", "500", "--seed", "7",
                     "--out", str(data), "--embeddings-out", str(embeddings),
                     "--embedding-dim", "16"])
    assert code == 0
    return {"root": root, "data": data, "embeddings": embeddings}


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()

    # every primitive, via composite expressions exercising each backward rule
    from test_tensor import TestGradCheckPrimitives

    suite = TestGradCheckPrimitives()
    for method in [m for m in dir(suite) if m.startswith("test_")]:
        getattr(suite, method)()

    # full encoder -> capsule -> loss pipeline on the stated toy config
    enc_cfg = EncoderConfig(kind="bigru", kernel_sizes=(2, 3),
                            filters_per_kernel=2, hidden_dim=3)
    head_cfg = CapsuleHeadConfig(n_pc=2, n_cc=4, d=3, routing_iterations=3)
    e_d, t = 4, 6
    params = init_model(enc_cfg, head_cfg, e_d, t, SeededRng(1234))
    x = np.random.default_rng(1234).uniform(-1, 1, size=(2, t, e_d))
    labels = np.array([0, 1])

    def pipeline(ps):
        fm = encoder_forward_batch(enc_cfg, params, Tensor(x))
        primary = primary_capsules_batch(fm, params["head.primary.w"].tensor, head_cfg)
        condensed = compress_batch(primary, params["head.compress.w"].tensor)
        v, _ = dynamic_routing_batch(condensed, params["head.routing.w"].tensor, head_cfg)
        probs = class_probabilities_batch(v)
        onehot = np.zeros((2, 2))
        onehot[np.arange(2), labels] = 1.0
        picked = (probs * Tensor(onehot)).sum(axis=1)
        return log(picked).sum().scale(-0.5)

    err = grad_check(pipeline, list(params.values()), epsilon=1e-5, sample_count=60,
                     rng=np.random.default_rng(99))
    elapsed = time.perf_counter() - started
    report(1, "gradient correctness", err < 1e-4 and elapsed < 60.0,
           f"pipeline max rel err {err:.2e}, {elapsed:.1f}s")


def test_criterion_2_squash_properties():
    rng = np.random.default_rng(2024)
    worst_norm_gap = 0.0
    worst_cosine_gap = 0.0
    ok = True
    for _ in range(1000):
        dim = int(rng.integers(1, 65))
        x = rng.uniform(-10, 10, size=dim)
        s = squash(Tensor(x)).values
        nx = np.linalg.norm(x)
        ns = np.linalg.norm(s)
        worst_norm_gap = max(worst_norm_gap, abs(ns - nx ** 2 / (1 + nx ** 2)))
        ok &= ns < 1.0
        if nx > 1e-6:
            cosine = float(np.dot(s, x) / (ns * nx))
            worst_cosine_gap = max(worst_cosine_gap, abs(cosine - 1.0))
    zero = squash(Tensor(np.zeros(8))).values
    ok &= worst_norm_gap <= 1e-12 and worst_cosine_gap <= 1e-9
    ok &= zero.tobytes() == np.zeros(8).tobytes()
    report(2, "squash property suite", ok,
           f"norm gap {worst_norm_gap:.1e}, cosine gap {worst_cosine_gap:.1e}")


def test_criterion_3_routing_invariants():
    from test_capsule import routing_oracle

    rng = np.random.default_rng(31)
    row_sum_gap = 0.0
    oracle_gap = 0.0
    for _ in range(10):
        cfg = CapsuleHeadConfig(n_pc=2, n_cc=int(rng.integers(1, 7)),
                                d=int(rng.integers(1, 5)), routing_iterations=3)
        u = Tensor(rng.normal(size=(2, cfg.n_cc, cfg.d)))
        w = Tensor(rng.normal(size=(cfg.n_cc, N_CLASSES, cfg.d, cfg.d)))
        _, state = dynamic_routing_batch(u, w, cfg)
        assert len(state.couplings) == 3
        for c in state.couplings:
            row_sum_gap = max(row_sum_gap,
                              float(np.max(np.abs(c.sum(axis=-1) - 1.0))))
    for _ in range(10):
        cfg = CapsuleHeadConfig(n_pc=2, n_cc=1, d=int(rng.integers(1, 5)),
                                routing_iterations=3)
        u = rng.normal(size=(1, cfg.d))
        w = rng.normal(size=(1, 2, cfg.d, cfg.d))
        v_ref, _, _ = routing_oracle(u, w, 3)
        caps, _ = dynamic_routing_batch(Tensor(u[None]), Tensor(w), cfg)
        oracle_gap = max(oracle_gap, float(np.max(np.abs(caps.values[0] - v_ref))))
    ok = row_sum_gap <= 1e-9 and oracle_gap <= 1e-9
    report(3, "routing invariants", ok,
           f"row-sum gap {row_sum_gap:.1e}, oracle gap {oracle_gap:.1e}")


def test_criterion_4_adversarial_policy_laws():
    policy = PerturbationPolicy()
    ok = True
    draws = BoundedDraws(np.random.PCG64(404))
    for length, expected in [(1, 1), (3, 1), (4, 1), (5, 2), (12, 2), (20, 2),
                             (21, 3), (40, 3)]:
        sentence = [f"cuvant{i}" for i in range(length)]
        out = perturb_sentence(sentence, policy, draws)
        changed = [(a, b) for a, b in zip(sentence, out) if a != b]
        ok &= len(changed) == min(expected, length)
        for a, b in changed:
            ok &= len(a) == len(b)
            ok &= sum(1 for x, y in zip(a, b) if x != y) == 1
    # bitwise determinism
    s = [f"w{i}" for i in range(10)]
    ok &= (perturb_sentence(s, policy, BoundedDraws(np.random.PCG64(5))) ==
           perturb_sentence(s, policy, BoundedDraws(np.random.PCG64(5))))
    # position-selection frequency on a 5-character word
    counts = np.zeros(5)
    freq_draws = BoundedDraws(np.random.PCG64(777))
    for _ in range(10_000):
        out = perturb_word("abcde", policy, freq_draws)
        counts[[i for i in range(5) if out[i] != "abcde"[i]][0]] += 1
    freqs = counts / 10_000
    ok &= bool(np.all(np.abs(freqs - 0.2) <= 0.02))
    report(4, "adversarial policy laws", ok,
           f"position freqs {np.array2string(freqs, precision=3)}")


def _bow_logistic_regression_accuracy(docs, seed=13):
    """Independent separability oracle: bag-of-words + logistic regression."""
    vocab = sorted({tok for doc in docs for sent in doc.sentences for tok in sent})
    index = {tok: i for i, tok in enumerate(vocab)}
    x = np.zeros((len(docs), len(vocab)))
    y = np.zeros(len(docs))
    for row, doc in enumerate(docs):
        for sent in doc.sentences:
            for tok in sent:
                x[row, index[tok]] += 1.0
        y[row] = doc.label
    order = np.random.default_rng(seed).permutation(len(docs))
    n_train = int(0.7 * len(docs))
    n_valid = int(0.2 * len(docs))
    train_idx = order[:n_train]
    test_idx = order[n_train + n_valid:]
    w = np.zeros(len(vocab))
    b = 0.0
    lr = 0.5
    for _ in range(300):
        z = x[train_idx] @ w + b
        p = 1.0 / (1.0 + np.exp(-np.clip(z, -30, 30)))
        g = p - y[train_idx]
        w -= lr * (x[train_idx].T @ g) / len(train_idx)
        b -= lr * float(np.mean(g))
    preds = (x[test_idx] @ w + b) > 0
    return float(np.mean(preds == y[test_idx]))


def test_criterion_5_desk_scale_training(corpus):
    docs = read_dataset(corpus["data"])
    oracle_acc = _bow_logistic_regression_accuracy(docs)
    assert oracle_acc >= 0.95, f"linear oracle pre-check failed: {oracle_acc:.3f}"

    config_path = corpus["root"] / "desk_config.json"
    config_path.write_text(json.dumps({
        "encoder": {"kind": "bigru", "kernel_sizes": [3, 4, 5],
                    "filters_per_kernel": 16, "hidden_dim": 32},
        "head": {"type": "capsule", "n_pc": 8, "n_cc": 32, "d": 8,
                 "routing_iterations": 3},
        "adversarial": False,
        "learning_rate": 5e-4,   # 5e-5 scaled x10 for the small model
        "epochs": 20,
        "batch_size": 32,
        "split": [0.7, 0.2, 0.1],
        "seed": 42,
        "n_s": 5,
        "n_w": 12,
    }), encoding="utf-8")
    out = corpus["root"] / "desk_run"
    started = time.perf_counter()
    code = cli_main(["train", "--config", str(config_path),
                     "--data", str(corpus["data"]),
                     "--embeddings", str(corpus["embeddings"]),
                     "--out", str(out)])
    elapsed = time.perf_counter() - started
    assert code == 0
    test_row = [line for line in (out / "metrics.csv").read_text().splitlines()
                if ",test," in line][-1]
    accuracy = float(test_row.split(",")[3])
    ok = accuracy >= 0.95 and elapsed < 600.0
    report(5, "desk-scale training", ok,
           f"oracle {oracle_acc:.3f}, test accuracy {accuracy:.4f}, {elapsed:.0f}s")


def test_criterion_6_ablation_harness(corpus):
    docs = read_dataset(corpus["data"])[:1200]
    table = load_embeddings(corpus["embeddings"])
    base = TrainConfig(
        encoder=EncoderConfig(kind="cnn", kernel_sizes=(3, 4, 5),
                              filters_per_kernel=24, hidden_dim=24),
        head=CapsuleHeadConfig(n_pc=4, n_cc=16, d=8, routing_iterations=3),
        learning_rate=2e-3, epochs=12, batch_size=32, seed=11, n_s=5, n_w=12)
    rows = run_ablation(base, docs, table)
    labels = [r.label for r in rows]
    structure_ok = labels == ["CNN", "+Adv", "+Capsule", "+Adv+Capsule"]
    baseline_acc = rows[0].test.accuracy
    capsule_ok = all(r.test.accuracy >= baseline_acc - 0.02
                     for r in rows if "Capsule" in r.label)
    detail = ", ".join(f"{r.label} {r.test.accuracy:.3f}" for r in rows)
    report(6, "ablation harness", structure_ok and capsule_ok, detail)


def test_criterion_7_sweep_harness(corpus):
    docs = read_dataset(corpus["data"])[:500]
    table = load_embeddings(corpus["embeddings"])
    base = TrainConfig(
        encoder=EncoderConfig(kind="cnn", kernel_sizes=(3, 4, 5),
                              filters_per_kernel=16, hidden_dim=16),
        head=CapsuleHeadConfig(n_pc=8, n_cc=32, d=8, routing_iterations=3),
        learning_rate=2e-3, epochs=5, batch_size=32, seed=3, n_s=3, n_w=10)
    cells = run_sweep(base, [2, 8, 32], [32, 128, 256], repeats=3,
                      docs=docs, table=table)
    six_cells = len(cells) == 6 and all(np.isfinite(c.mean_accuracy) for c in cells)
    npc_runtimes = [c.mean_runtime_s for c in cells if c.parameter == "n_pc"]
    monotone = all(b > a for a, b in zip(npc_runtimes, npc_runtimes[1:]))
    detail = "n_pc runtimes " + ", ".join(f"{t:.2f}s" for t in npc_runtimes)
    report(7, "sweep harness", six_cells and monotone, detail)


def test_criterion_8_reproducibility(corpus):
    config_path = corpus["root"] / "repro_config.json"
    config_path.write_text(json.dumps({
        "encoder": {"kind": "cnn", "kernel_sizes": [2, 3],
                    "filters_per_kernel": 4, "hidden_dim": 4},
        "head": {"type": "capsule", "n_pc": 2, "n_cc": 8, "d": 4,
                 "routing_iterations": 3},
        "adversarial": True,
        "learning_rate": 1e-3,
        "epochs": 2,
        "batch_size": 32,
        "split": [0.7, 0.2, 0.1],
        "seed": 2718,
        "n_s": 3,
        "n_w": 8,
    }), encoding="utf-8")
    seed_run = corpus["root"] / "repro_seed"
    code = cli_main(["train", "--config", str(config_path),
                     "--data", str(corpus["data"]),
                     "--embeddings", str(corpus["embeddings"]),
                     "--out", str(seed_run), "--max-docs", "300"])
    assert code == 0
    manifest = seed_run / "manifest.json"
    outputs = []
    for tag in ("a", "b"):
        out = corpus["root"] / f"repro_{tag}"
        code = cli_main(["train", "--config", str(manifest),
                         "--data", str(corpus["data"]),
                         "--embeddings", str(corpus["embeddings"]),
                         "--out", str(out), "--max-docs", "300"])
        assert code == 0
        outputs.append(((out / "metrics.csv").read_bytes(),
                        (out / "model.caps").read_bytes()))
    ok = outputs[0][0] == outputs[1][0] and outputs[0][1] == outputs[1][1]
    report(8, "reproducibility", ok,
           f"metrics.csv {len(outputs[0][0])} bytes, model.caps {len(outputs[0][1])} bytes")


def test_criterion_9_metrics_identities():
    rng = np.random.default_rng(909)
    ok = True
    for trial in range(100):
        n = int(rng.integers(1, 60))
        labels = rng.integers(0, 2, size=n)
        if trial % 10 == 0:
            preds = np.zeros(n, dtype=int)  # degenerate: no predicted positives
        elif trial % 10 == 5:
            labels = np.zeros(n, dtype=int)  # degenerate: no actual positives
            preds = rng.integers(0, 2, size=n)
        else:
            preds = rng.integers(0, 2, size=n)
        m = compute_metrics(labels, preds, 0.0, "t")
        ok &= round(m.accuracy * m.total) == m.tp + m.tn
        ok &= round(m.precision * (m.tp + m.fp)) == m.tp if (m.tp + m.fp) else m.precision == 1.0
        ok &= round(m.recall * (m.tp + m.fn)) == m.tp if (m.tp + m.fn) else m.recall == 1.0
    report(9, "metrics identities", ok, "100 randomized prediction/label sets")
