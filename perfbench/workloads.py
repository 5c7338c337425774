"""The three benchmark workloads as fixed cycles of operations.

An operation is one call into score-kit's public entry points, timed alone:
``score_kit.cli.main([...])`` for CLI traffic and
``score_kit.simulate.run_experiment`` for sweeps.  Both are looked up on
their module at call time, so the traced run sees the span wrappers.  Each
workload repeats a cycle that holds every operation type in a fixed mix, and
a run ends on a cycle boundary, so every run measures the same mix.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

import score_kit as sk
import score_kit.cli as cli
import score_kit.simulate as simulate

import checks
import inputs

ALPHAS = (0.15, 0.2, 0.25)
GRID_ALPHAS = tuple(round(0.05 * k, 2) for k in range(1, 11))
CLIP = (0.05, 20.0)


@dataclass
class Op:
    """One timed call plus the untimed checks of its output.

    ``call`` returns the raw outcome; ``check(outcome)`` lists problems;
    ``corrupt(outcome)`` returns deliberately wrong outcomes the check must
    reject (used by the checker's self-test); ``oracle`` is the companion
    check ``(kind, weighted, alpha, gamma)`` or ``None``.
    """

    type: str
    points: int
    call: Callable[[], object]
    check: Callable[[object], list]
    corrupt: Callable[[object], list] | None = None
    oracle: tuple | None = None


class Workload:
    """Holds the generated inputs and the reference outputs seen so far.

    The first output for a given input and level is kept; every later
    operation on the same input and level must reproduce it bit for bit.
    """

    types: tuple = ()
    # Layer predictions the traced run checks: (span group, op types or None
    # for all); the group should take more self time than any other span.
    predictions: tuple = ()

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
        self.reference = {}

    def path(self, name):
        return os.path.join(self.workdir, name)

    def op_seed(self, cycle, pos):
        return int(np.random.SeedSequence([self.seed, 1, cycle, pos]).generate_state(1)[0])

    def same_as_reference(self, key, values):
        ref = self.reference.setdefault(key, values)
        if ref is values or np.array_equal(ref, values, equal_nan=True):
            return []
        return [f"output for {key} differs from the first run on the same input"]

    # -- CLI operations ------------------------------------------------------

    def cli_op(self, type_, points, argv, check, corrupt=None, oracle=None):
        out = self.path(f"out_{type_}.csv")
        argv = [*argv, "--out", out]
        return Op(type_, points, lambda: (cli.main(argv), out), check, corrupt, oracle)

    def check_selective(self, key, scores, alpha=None, boost="none", seed=None):
        """Checks for ``select --method sdr`` (``alpha`` given) and
        ``evalues`` output."""
        header = ["index", "score", "evalue"] + (["selected"] if alpha is not None else [])

        def check(outcome):
            code, path = outcome
            if code != 0:
                return [f"exit code {code}"]
            data, problems = checks.read_output(path, header)
            if problems:
                return problems
            ev = data[:, 2]
            problems = checks.check_rows(data, scores.size, scores) + checks.check_evalues(ev)
            if alpha is not None:
                problems += checks.check_flags(data[:, 3], "selected")
                if not problems and not np.array_equal(
                        data[:, 3], checks.expected_selection(ev, alpha, boost, seed)):
                    problems.append("selected column differs from the filter on the emitted e-values")
            return problems + self.same_as_reference(key, ev)

        return check

    def check_deploy(self, scores):
        def check(outcome):
            code, path = outcome
            if code != 0:
                return [f"exit code {code}"]
            data, problems = checks.read_output(path, ["index", "score", "deploy"])
            if problems:
                return problems
            return checks.check_rows(data, scores.size, scores) + checks.check_flags(data[:, 2], "deploy")

        return check

    def corrupt_selective(self, outcome):
        """One flipped ``selected`` flag and one e-value moved by one ulp."""
        code, path = outcome
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        row = lines[1].split(",")
        flipped = row[:3] + [str(1 - int(row[3]))]
        value = float(row[2])
        moved = np.nextafter(value, np.inf) if np.isfinite(value) else 1.0
        perturbed = row[:2] + [repr(float(moved))] + row[3:]
        bad = []
        for i, new_row in enumerate((flipped, perturbed)):
            bad_path = self.path(f"corrupt_{i}.csv")
            with open(bad_path, "w", encoding="utf-8") as fh:
                fh.write("\n".join([lines[0], ",".join(new_row), *lines[2:]]) + "\n")
            bad.append((code, bad_path))
        return bad

    def write_pairs(self, name, n, m, tied, weighted=False, rng=None):
        cs, cr, cw, ts, tw = inputs.score_risk_pairs(rng or self.rng, n, m, tied, weighted)
        calib, test = self.path(f"{name}_calib.csv"), self.path(f"{name}_test.csv")
        inputs.write_calib_csv(calib, cs, cr, cw if weighted else None)
        inputs.write_test_csv(test, ts, tw if weighted else None)
        return calib, test, ts


class SelectSdr(Workload):
    """Exchangeable selective selection at n=4000, m=1000, dominated by the
    exact unit-weight SDR kernel.  Half the inputs are continuous, half tied
    with quarter-valued risks.

    On tied inputs the kernel's cost is bimodal: for a given input and level
    either every covered test point takes the breakpoint path or none does.
    Every cycle therefore draws fresh inputs, so that a run's mix of the two
    cases, and its timing, is steady from seed to seed.
    """

    name = "select-sdr"
    types = ("sdr-none", "sdr-hete", "sdr-homo", "evalues")
    predictions = ((("sdr.sdr_evalues",), None),)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.inputs = {}

    def instance(self, c, a_i, tied):
        """The input of cycle ``c`` at level index ``a_i``, written on first
        use; the same seed always gives the same input."""
        key = (c, a_i, tied)
        if key not in self.inputs:
            rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0, c, a_i, int(tied)]))
            self.inputs[key] = self.write_pairs(f"sdr_{c}_{a_i}_{int(tied)}", 4000, 1000, tied, rng=rng)
        return key, self.inputs[key]

    def cycle(self, c):
        """Per level, one continuous and one tied input, each run by two of
        the four operation types, so every type runs three times a cycle and
        every input's e-values are checked against a second operation."""
        ops = []
        for a_i, alpha in enumerate(ALPHAS):
            for tied in (False, True):
                key, (calib, test, scores) = self.instance(c, a_i, tied)
                first = 2 * ((c + tied) % 2)
                for type_ in self.types[first:first + 2]:
                    ops.append(self.sdr_op(type_, alpha, calib, test, scores, key,
                                           self.op_seed(c, len(ops))))
        return ops

    def sdr_op(self, type_, alpha, calib, test, scores, ref, seed):
        oracle = ("sdr", False, alpha, alpha)
        if type_ == "evalues":
            return self.cli_op(type_, scores.size, ["evalues", calib, test, "--gamma", str(alpha)],
                               self.check_selective(ref, scores), oracle=oracle)
        boost = type_.split("-")[1]
        return self.cli_op(type_, scores.size,
                           ["select", calib, test, "--method", "sdr", "--alpha", str(alpha),
                            "--boost", boost, "--seed", str(seed)],
                           self.check_selective(ref, scores, alpha, boost, seed),
                           self.corrupt_selective, oracle)


class SelectMixed(Workload):
    """CSV I/O plus every CLI path the exact unit-weight kernel does not run."""

    name = "select-mixed"
    types = ("mdr-20k", "mdr-20k-weighted", "mdr-gamma", "sdr-weighted",
             "evalues-conservative", "estimate-weights")
    predictions = tuple((("core.read_calibration_csv", "core.read_test_csv"), (t,))
                        for t in ("mdr-20k", "mdr-20k-weighted"))

    # Inputs per operation type; a cycle uses copy ``c % size``, and odd
    # copies are tied.  The small kernels get more copies because their cost
    # varies more from input to input.
    POOL = {"mdr": 2, "mdr-w": 2, "gamma": 8, "sdr-w": 8, "cons": 8, "features": 2}

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        sizes = {"mdr": (20000, 20000), "mdr-w": (20000, 20000), "gamma": (2000, 500),
                 "sdr-w": (4000, 1000), "cons": (4000, 1000)}
        self.pool = {}
        for kind, (n, m) in sizes.items():
            self.pool[kind] = [
                self.write_pairs(f"{kind}{copy}", n, m, tied=copy % 2 == 1 and kind != "cons",
                                 weighted=kind.endswith("-w"))
                for copy in range(self.POOL[kind])]
        self.pool["features"] = []
        for copy in range(self.POOL["features"]):
            src, tgt = inputs.feature_matrices(self.rng, 1000, 20)
            files = (self.path(f"src{copy}.csv"), self.path(f"tgt{copy}.csv"))
            inputs.write_feature_csv(files[0], src)
            inputs.write_feature_csv(files[1], tgt)
            self.pool["features"].append(files)

    def pick(self, kind, c):
        copy = c % self.POOL[kind]
        return (kind, copy), self.pool[kind][copy]

    def check_weights(self, key, rows):
        def check(outcome):
            code, path = outcome
            if code != 0:
                return [f"exit code {code}"]
            data, problems = checks.read_output(path, ["index", "weight"])
            if problems:
                return problems
            w = data[:, 1]
            problems = checks.check_rows(data, rows)
            if not np.all(np.isfinite(w) & (w >= CLIP[0]) & (w <= CLIP[1])):
                problems.append("weight outside the clip bounds")
            return problems + self.same_as_reference(key, w)

        return check

    def cycle(self, c):
        (_, (calib, test, scores)) = self.pick("mdr", c)
        (_, (wcalib, wtest, wscores)) = self.pick("mdr-w", c)
        (_, (gcalib, gtest, gscores)) = self.pick("gamma", c)
        (skey, (scalib, stest, sscores)) = self.pick("sdr-w", c)
        (ckey, (ccalib, ctest, cscores)) = self.pick("cons", c)
        (fkey, (src, tgt)) = self.pick("features", c)
        seed = self.op_seed(c, 0)
        return [
            self.cli_op("mdr-20k", scores.size,
                        ["select", calib, test, "--method", "mdr", "--alpha", "0.2"],
                        self.check_deploy(scores), oracle=("mdr", False, 0.2, 0.2)),
            self.cli_op("mdr-20k-weighted", wscores.size,
                        ["select", wcalib, wtest, "--method", "mdr", "--alpha", "0.2", "--weighted"],
                        self.check_deploy(wscores), oracle=("mdr", True, 0.2, 0.2)),
            self.cli_op("mdr-gamma", gscores.size,
                        ["select", gcalib, gtest, "--method", "mdr", "--alpha", "0.2",
                         "--gamma", "0.3"],
                        self.check_deploy(gscores), oracle=("mdr", False, 0.2, 0.3)),
            self.cli_op("sdr-weighted", sscores.size,
                        ["select", scalib, stest, "--method", "sdr", "--alpha", "0.2",
                         "--weighted", "--seed", str(seed)],
                        self.check_selective(skey, sscores, 0.2, "none", seed),
                        self.corrupt_selective, ("sdr", True, 0.2, 0.2)),
            self.cli_op("evalues-conservative", cscores.size,
                        ["evalues", ccalib, ctest, "--conservative", "--alpha", "0.2"],
                        self.check_selective(ckey, cscores)),
            self.cli_op("estimate-weights", 1000,
                        ["estimate-weights", src, tgt, "--clip", f"{CLIP[0]},{CLIP[1]}"],
                        self.check_weights(fkey, 1000)),
        ]


class Simulate(Workload):
    """One ``run_experiment`` replicate per operation at the acceptance
    suite's sizes, rotating three configurations; no CSV at all."""

    name = "simulate"
    types = ("s3-l2-sdr-hete", "s1-mdr", "s2-w2-sdr-homo")
    predictions = ((("models.knn_predict",), None),)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        base = dict(reward=sk.RewardKind("constant"), shift=sk.ShiftModel("none"),
                    n=500, m=100, reps=1, alpha_grid=GRID_ALPHAS, train_size=1000, knn_k=25,
                    baselines=("hoeffding", "rademacher"))
        self.configs = [
            sk.ExperimentConfig(setting=sk.DgpSetting(3), risk=sk.canonical_risk(3),
                                method="sdr", boost="hete", **base),
            sk.ExperimentConfig(setting=sk.DgpSetting(1), risk=sk.canonical_risk(1),
                                method="mdr", **base),
            sk.ExperimentConfig(setting=sk.DgpSetting(2), risk=sk.canonical_risk(2),
                                method="sdr", boost="homo", **{**base, "shift": sk.ShiftModel("w2")},
                                weighted="estimated"),
        ]

    @staticmethod
    def corrupt_rows(rows):
        """One row dropped, and one realized risk made nan."""
        return [rows[:-1], [replace(rows[0], realized_risk=float("nan")), *rows[1:]]]

    def cycle(self, c):
        ops = []
        for i, (type_, config) in enumerate(zip(self.types, self.configs)):
            config = replace(config, seed=self.op_seed(c, i))
            alpha = GRID_ALPHAS[(3 * c + i) % len(GRID_ALPHAS)]
            oracle = (config.method, config.shift.kind != "none", alpha, alpha)
            ops.append(Op(type_, config.m * len(config.alpha_grid),
                          lambda config=config: simulate.run_experiment(config),
                          lambda rows, config=config: checks.check_metrics_rows(rows, config),
                          self.corrupt_rows, oracle))
        return ops


WORKLOADS = {w.name: w for w in (SelectSdr, SelectMixed, Simulate)}
# Operation types that get their own latency row in the traced run.
LATENCY_TYPES = SelectMixed.types + Simulate.types
