"""Self-tests of the benchmark itself; they take about six minutes.

    python3 perfbench/selftest.py

Run them from the root of a textcaps checkout. They test what the benchmark
prints and checks, not how fast textcaps is.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import unittest  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import tracer as tracing  # noqa: E402
from textcaps import tensor, training  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def textcaps_attributes():
    """Every attribute of every loaded textcaps module, by identity."""
    return {(name, attr): id(value)
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == "textcaps" or name.startswith("textcaps."))
            for attr, value in vars(module).items()}


class BenchmarkContract(unittest.TestCase):
    def setUp(self):
        self.workdir = Path(tempfile.mkdtemp(prefix=".perfbench-selftest-", dir=ROOT))

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def test_metric_names_and_units_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for section, units in (("end_to_end", bench.END_TO_END_UNITS),
                               ("per_layer", tracing.per_layer_units())):
            listed = {m["name"]: m["unit"] for m in spec[section]}
            self.assertEqual(listed, units, section)
            for name in listed:
                self.assertTrue(NAME.fullmatch(name), name)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(bench.WORKLOADS))
        self.assertLessEqual(set(tracing.PRIMITIVES), set(tensor._PRIMITIVES))

    def test_counts_repeat_and_swaps_are_undone(self):
        before = textcaps_attributes()
        for name, workload in bench.WORKLOADS.items():
            with self.subTest(workload=name):
                runs = []
                for index in range(2):
                    tracer = tracing.Tracer()
                    runs.append(bench.measure_traced(workload, 5, 0.0,
                                                     self.workdir / f"{name}-{index}", tracer))
                    self.assertEqual(textcaps_attributes(), before)
                counts = [{k: v for k, v in run.metrics.items()
                           if tracing.per_layer_units()[k] != "s"} for run in runs]
                self.assertEqual(counts[0], counts[1])
                self.assertEqual(runs[0].digest, runs[1].digest)
                self.assertGreater(counts[0]["model.forward.tape_nodes"], 0)

    def test_tracing_swaps_the_layer_functions(self):
        import textcaps.model
        import textcaps.training

        original = textcaps.model.encoder_forward_batch
        tracer = tracing.Tracer()
        with tracer.traced("probe"):
            self.assertIsNot(textcaps.model.encoder_forward_batch, original)
            self.assertIs(textcaps.model.encoder_forward_batch.__wrapped__, original)
            self.assertIsNot(textcaps.training.backward, textcaps.training.backward.__wrapped__)
        self.assertIs(textcaps.model.encoder_forward_batch, original)

    def test_probe_sees_every_step_batch_and_epoch_of_train(self):
        workload = bench.WORKLOADS["train-cnn-caps"]
        samples = bench.Samples(bench.HostClock())
        inputs = bench.setup(workload, 5, self.workdir, samples)
        config = inputs.config
        with bench.Probe(samples).installed():
            _, history = training.train(config, inputs.docs, inputs.table)
        n_train, n_valid, _ = (len(part) for part in
                               training.split_dataset(inputs.docs, config.split, config.seed))
        steps = math.ceil(n_train / config.batch_size)
        self.assertEqual(len(samples.steps), config.epochs * steps)
        self.assertEqual(len(samples.epochs), config.epochs)
        self.assertEqual([docs for _, docs in samples.passes], [n_valid] * config.epochs)
        self.assertEqual(len(samples.batches),
                         config.epochs * math.ceil(n_valid / config.batch_size))
        sizes = [min(config.batch_size, n_train - i * config.batch_size) for i in range(steps)]
        for epoch, record in enumerate(history):
            losses = samples.losses[epoch * steps:(epoch + 1) * steps]
            total = 0.0
            for loss, size in zip(losses, sizes):
                total += loss * size
            self.assertEqual(total / n_train, record.train.loss)
        self.assertEqual(samples.attempted, len(samples.steps) + config.epochs * n_valid)

    def test_second_process_gives_identical_losses_and_accuracy(self):
        for name in ("score-adv", "train-bigru-desk"):
            with self.subTest(workload=name):
                lines = []
                for _ in range(2):
                    done = subprocess.run(
                        [sys.executable, str(HERE / "run.py"), "--workload", name,
                         "--seed", "3", "--seconds", "0", "--trace", "0"],
                        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
                    out = done.stdout.splitlines()
                    digest = next(line for line in out if "determinism digest" in line)
                    result = json.loads(out[-1])
                    self.assertTrue(result["correct"])
                    lines.append((digest.split("digest ")[1],
                                  result["metrics"]["accuracy"]["value"]))
                self.assertEqual(lines[0], lines[1])

    def test_fails_without_a_library(self):
        bare = self.workdir / "bare"
        shutil.copytree(HERE, bare / "perfbench")
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "score-adv", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, check=False)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
