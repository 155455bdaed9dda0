#!/usr/bin/env python3
"""End-to-end run on a synthetic corpus through the library API: generate,
train with adversarial augmentation, evaluate, inspect representations.

Run:  python3 demos/05_end_to_end_training.py   (about half a minute)
"""

import numpy as np

from textcaps.capsule import CapsuleHeadConfig
from textcaps.encoders import EncoderConfig
from textcaps.model import forward_batch
from textcaps.synth import generate_embeddings, generate_synthetic_corpus
from textcaps.tensor import Tensor
from textcaps.text import EmbeddingTable, encode_batch
from textcaps.training import TrainConfig, evaluate, split_dataset, train

docs, vocab = generate_synthetic_corpus(n_docs=400, vocab_size=120, seed=21)
vectors = generate_embeddings(vocab, e_d=12, seed=21)
table = EmbeddingTable(dimension=12, entries=dict(zip(vocab, vectors)))
print(f"corpus: {len(docs)} docs, {sum(d.label for d in docs)} positive, "
      f"vocab {len(vocab)}")

config = TrainConfig(
    encoder=EncoderConfig(kind="cnn", kernel_sizes=(3, 4), filters_per_kernel=12,
                          hidden_dim=12),
    head=CapsuleHeadConfig(n_pc=4, n_cc=12, d=6, routing_iterations=3),
    adversarial=True,
    learning_rate=2e-3,
    epochs=6,
    batch_size=32,
    seed=5,
    n_s=4,
    n_w=10,
)

params, history = train(config, docs, table)
for record in history:
    print(f"epoch {record.epoch}: train loss {record.train.loss:.4f} "
          f"acc {record.train.accuracy:.3f} | valid acc {record.valid.accuracy:.3f}")

_, _, test_docs = split_dataset(docs, config.split, config.seed)
metrics = evaluate(params, test_docs, table, config)
print(f"\ntest: accuracy {metrics.accuracy:.3f} precision {metrics.precision:.3f} "
      f"recall {metrics.recall:.3f} loss {metrics.loss:.4f}")

# One forward hands back every stage it computed: the feature map, the
# condensed and class capsules, and the routing couplings of each iteration.
ids, labels = encode_batch(test_docs[:8], table, config.n_s, config.n_w)
result = forward_batch(config.encoder, config.head, params, Tensor(table.embed(ids)))
print(f"\nfeature map {result.feature_map.shape}, condensed {result.condensed.shape}, "
      f"class capsules {result.class_capsules.shape}, "
      f"{len(result.routing.couplings)} coupling arrays {result.routing.couplings[-1].shape}")

# Class-capsule representations separate by label (these are the vectors
# `textcaps export-repr` writes for downstream t-SNE or plotting).
norms = np.linalg.norm(result.class_capsules.values, axis=2)
print("\nlabel  |class-0 capsule|  |class-1 capsule|")
for label, (n0, n1) in zip(labels, norms):
    print(f"  {label}        {n0:.3f}             {n1:.3f}")
