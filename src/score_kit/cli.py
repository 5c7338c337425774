"""Command-line interface.

Subcommands
-----------
``select``            deploy/abstain decisions (marginal) or eBH selection
                      (selective) on user-supplied calibration/test CSVs
``evalues``           emit the selective e-values without filtering
``simulate``          run a synthetic experiment and emit a metrics CSV
``estimate-weights``  fit covariate-shift weights by probabilistic
                      classification and score a query file

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
Every run with ``--seed`` is bit-reproducible.  A run that makes random
draws (``simulate``, ``select`` with a boost) and gets no ``--seed`` draws
one from entropy and prints it to stderr for replay; other runs draw none.
Floats are written with 17 significant digits.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .core import (Levels, ScoreKitError, _read_columns, _write_csv, read_calibration_csv,
                   read_test_csv, validate_batch)
from .mdr import deploy_mask
from .models import DivergedFit, logistic_fit_weights, weight_predict
from .sdr import sdr_evalues, sdr_evalues_conservative, weighted_sdr_evalues
from .selection import boost_hete, boost_homo, ebh
from .simulate import (DgpSetting, ExperimentConfig, RewardKind, RiskKind, ShiftModel,
                       canonical_risk, run_experiment, write_metrics_csv)

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the CLI contract wants 1.
    def error(self, message):
        raise _UsageError(message)


def _checked(convert, ok, expected: str):
    """An argparse ``type=`` that converts the text and makes a value outside
    the option's range a usage error, like a value that does not convert."""
    def parse(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return parse


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


_LEVEL = _checked(float, lambda v: 0.0 < v < 1.0, "a level in (0, 1)")
_POSITIVE = _checked(float, lambda v: v > 0.0, "a positive number")
_SEED = _checked(int, lambda v: v >= 0, "an integer >= 0")
_COUNT = _checked(int, lambda v: v >= 1, "an integer >= 1")


def _resolve_seed(seed: int | None) -> int:
    if seed is None:
        seed = int(np.random.SeedSequence().entropy % (2 ** 63))
        print(f"seed drawn from entropy: {seed} (pass --seed {seed} to replay)", file=sys.stderr)
    return seed


def _load_batch(args):
    """Build the validated batch; weights enter only under --weighted."""
    calib = read_calibration_csv(args.calib)
    tests = read_test_csv(args.test)
    if not args.weighted:
        return validate_batch(calib[["score", "risk"]], tests[["score"]])
    for path, rows in ((args.calib, calib), (args.test, tests)):
        if "weight" not in rows.dtype.names:
            raise ScoreKitError(f"{path}: --weighted requires a 'weight' column")
    return validate_batch(calib, tests)


def _compute_evalues(args, batch, gamma):
    if args.conservative:
        return sdr_evalues_conservative(batch, None, alpha=args.alpha).evalues
    if args.weighted:
        return weighted_sdr_evalues(batch, None, gamma=gamma).evalues
    return sdr_evalues(batch, None, gamma=gamma).evalues


def _cmd_select(args) -> int:
    batch = _load_batch(args)
    gamma = args.gamma if args.gamma is not None else args.alpha
    index, scores = range(batch.m), batch.test_scores.tolist()
    if args.method == "mdr":
        mask = deploy_mask(batch, Levels(alpha=args.alpha, gamma=gamma))
        _write_csv(args.out or sys.stdout, ["index", "score", "deploy"], "%d,%.17g,%d",
                   zip(index, scores, mask.tolist()))
        return 0

    ev = _compute_evalues(args, batch, gamma)
    selected = np.zeros(batch.m, dtype=int)
    if batch.m:                 # no test points: nothing to select, no draws
        if args.boost == "none":
            result = ebh(ev, args.alpha)
        else:
            rng = np.random.default_rng(_resolve_seed(args.seed))
            if args.boost == "hete":
                result = boost_hete(ev, args.alpha, 1.0 - rng.uniform(size=batch.m))
            else:
                result = boost_homo(ev, args.alpha, 1.0 - float(rng.uniform()))
        selected[list(result.selected)] = 1
    _write_csv(args.out or sys.stdout, ["index", "score", "evalue", "selected"],
               "%d,%.17g,%.17g,%d", zip(index, scores, ev.tolist(), selected.tolist()))
    return 0


def _cmd_evalues(args) -> int:
    batch = _load_batch(args)
    ev = _compute_evalues(args, batch, args.gamma)
    _write_csv(args.out or sys.stdout, ["index", "score", "evalue"], "%d,%.17g,%.17g",
               zip(range(batch.m), batch.test_scores.tolist(), ev.tolist()))
    return 0


_RISK_ALIASES = {"binary-all-one": "one"}


def _cmd_simulate(args) -> int:
    setting = DgpSetting(id=args.setting)
    kind = _RISK_ALIASES.get(args.risk, args.risk)
    if kind == "auto" or kind == canonical_risk(args.setting).kind:
        risk = canonical_risk(args.setting)
    else:
        risk = RiskKind(kind)
    config = ExperimentConfig(
        setting=setting,
        risk=risk,
        reward=RewardKind(args.reward),
        shift=ShiftModel(args.shift),
        n=args.n, m=args.m, reps=args.reps,
        alpha_grid=args.alphas,
        method=args.method,
        boost=args.boost,
        score_mode=args.score_mode,
        seed=_resolve_seed(args.seed),
        weighted=args.weighted,
    )
    write_metrics_csv(run_experiment(config), args.out or sys.stdout)
    return 0


def _read_feature_csv(path):
    """Feature names and the (rows x features) float matrix of a feature CSV,
    read under the same rules as the score CSVs."""
    rows = _read_columns(path, required=None)
    if len(rows) == 0:
        raise ScoreKitError(f"{path}: no data rows after the header")
    return list(rows.dtype.names), np.column_stack([rows[name] for name in rows.dtype.names])


def _cmd_estimate_weights(args) -> int:
    src_header, src = _read_feature_csv(args.source)
    tgt_header, tgt = _read_feature_csv(args.target)
    if src_header != tgt_header:
        raise ScoreKitError(
            f"feature columns differ between {args.source} ({src_header}) and {args.target} ({tgt_header})")
    model = logistic_fit_weights(src, tgt, lr=args.lr, iters=args.iters, clip=args.clip)
    print(f"fit done: final loss {model.final_loss:.6f}", file=sys.stderr)

    if args.query:
        q_header, query = _read_feature_csv(args.query)
        if q_header != src_header:
            raise ScoreKitError(f"query columns {q_header} do not match the training columns {src_header}")
    else:
        query = tgt
    weights = np.atleast_1d(weight_predict(model, query))
    _write_csv(args.out or sys.stdout, ["index", "weight"], "%d,%.17g",
               zip(range(weights.size), weights.tolist()))
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="score-kit", description="Deployment-risk control with e-values")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("select", help="select test points with marginal or selective risk control")
    p.add_argument("calib", help="calibration CSV (score,risk[,weight])")
    p.add_argument("test", help="test CSV (score[,weight])")
    p.add_argument("--method", choices=("mdr", "sdr"), required=True)
    p.add_argument("--alpha", type=_LEVEL, required=True)
    p.add_argument("--gamma", type=_POSITIVE, default=None, help="defaults to --alpha")
    p.add_argument("--boost", choices=("none", "hete", "homo"), default="none")
    p.add_argument("--weighted", action="store_true", help="use the weight columns (covariate shift)")
    p.add_argument("--conservative", action="store_true", help="use the simpler conservative e-values")
    p.add_argument("--seed", type=_SEED, default=None)
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("evalues", help="emit selective e-values without filtering")
    p.add_argument("calib")
    p.add_argument("test")
    p.add_argument("--gamma", type=_POSITIVE, default=None)
    p.add_argument("--alpha", type=_LEVEL, default=None, help="level for --conservative")
    p.add_argument("--weighted", action="store_true")
    p.add_argument("--conservative", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_evalues)

    p = sub.add_parser("simulate", help="run a synthetic experiment")
    p.add_argument("--setting", type=int, choices=range(1, 7), required=True)
    p.add_argument("--risk", default="auto",
                   choices=("auto", "excess", "l2", "sigmoid", "binary", "zero", "binary-all-one"))
    p.add_argument("--reward", choices=("constant", "squared"), default="constant")
    p.add_argument("--shift", choices=("none", "w1", "w2", "w3"), default="none")
    p.add_argument("--n", type=_COUNT, default=1000)
    p.add_argument("--m", type=_COUNT, default=100)
    p.add_argument("--reps", type=_COUNT, default=100)
    p.add_argument("--alphas", default="0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4,0.45,0.5",
                   type=_checked(_floats, lambda a: all(0.0 < x < 1.0 for x in a),
                                 "comma-separated levels in (0, 1)"))
    p.add_argument("--method", choices=("mdr", "sdr"), required=True)
    p.add_argument("--boost", choices=("none", "hete", "homo"), default="none")
    p.add_argument("--score-mode", dest="score_mode",
                   choices=("risk_prediction", "risk_reward_ratio"), default="risk_prediction")
    p.add_argument("--weighted", choices=("estimated", "true"), default="estimated",
                   help="how weights enter when --shift is not 'none'")
    p.add_argument("--seed", type=_SEED, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate-weights", help="fit covariate-shift weights from feature CSVs")
    p.add_argument("source", help="feature CSV from the calibration population")
    p.add_argument("target", help="feature CSV from the test population")
    p.add_argument("--query", default=None, help="feature CSV to score (default: the target file)")
    p.add_argument("--lr", type=_checked(float, lambda v: 0.0 < v < np.inf, "a positive finite number"),
                   default=0.1)
    p.add_argument("--iters", type=_COUNT, default=500)
    p.add_argument("--clip", default="0.05,20", help="weight clip bounds 'LO,HI'",
                   type=_checked(_floats, lambda c: len(c) == 2 and 0.0 < c[0] < c[1],
                                 "'LO,HI' with 0 < LO < HI"))
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_estimate_weights)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command in ("select", "evalues") and args.conservative and (
                args.weighted or args.gamma is not None):
            raise _UsageError("--conservative cannot be combined with --weighted or --gamma")
        if args.command == "select" and args.method == "mdr" and (
                args.conservative or args.boost != "none"):
            raise _UsageError("--conservative and --boost apply only to --method sdr")
        if args.command == "evalues":
            if args.conservative and args.alpha is None:
                raise _UsageError("--conservative requires --alpha")
            if not args.conservative and args.alpha is not None:
                raise _UsageError("--alpha applies only with --conservative")
            if not args.conservative and args.gamma is None:
                raise _UsageError("a positive --gamma is required (or pass --conservative with --alpha)")
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DivergedFit as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (ScoreKitError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
