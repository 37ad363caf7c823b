"""Command-line driver: config parsing, experiment execution, and
deterministic artifact emission (per-round CSV plus a JSON summary).

Subcommands: run, compare, partition-report, selftest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, checks
from .data import class_counts
from .errors import ConfigError
from .evaluation import last_k_mean
from .federation import (
    CONFIG_NAMES,
    DATASETS,
    FEDAVG_VALUES,
    MODELS,
    STRATEGIES,
    FederationConfig,
    RoundRecord,
    partition_data,
    run_experiment,
)

log = logging.getLogger(__name__)

FORMAT_VERSION = 2

# RoundRecord field -> rounds.csv column and summary.json key, in column order.
_ROUND_COLUMNS = {
    "mean_train_loss": "mean_train_loss",
    "test_accuracy_softmax": "acc_softmax",
    "test_accuracy_prototype": "acc_prototype",
}
CSV_HEADER = ",".join(["round", *_ROUND_COLUMNS.values()])

_KEY_TO_FIELD = {key: field for field, key in CONFIG_NAMES.items()}

# What run_cli reports as `error: ...` (status 2); every fedpr.errors class derives from one.
CLI_ERRORS = (ValueError, RuntimeError, ArithmeticError, OSError)


def _coerce(key: str, raw: str):
    """Parse a stripped config-file string into the type of the field's default."""
    target = type(getattr(FederationConfig, _KEY_TO_FIELD[key]))
    if target is bool:
        lowered = raw.lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise ValueError(f"cannot parse {raw!r} as a boolean")  # read_config_file names the key
    return target(raw)


def read_config_file(path) -> dict:
    """Parse `key = value` lines of UTF-8 text; '#' starts a comment;
    unknown and repeated keys fail."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: byte {exc.start}: not UTF-8 text") from None
    values, set_on = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _KEY_TO_FIELD:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in set_on:
            raise ConfigError(f"{path}:{lineno}: {key} already set on line {set_on[key]}")
        set_on[key] = lineno
        try:
            values[key] = _coerce(key, raw.strip())
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}:{lineno}: {key}: {exc}") from exc
    return values


def parse_config(path=None, overrides=None) -> FederationConfig:
    """Resolve a configuration with precedence flags > file > defaults."""
    merged = read_config_file(path) if path is not None else {}
    for key, value in (overrides or {}).items():
        if key not in _KEY_TO_FIELD:
            raise ConfigError(f"unknown config key {key!r}")
        merged[key] = value
    values = {_KEY_TO_FIELD[k]: v for k, v in merged.items()}

    strategy = values.get("strategy", FederationConfig.strategy)
    if strategy == "fedavg":
        # Implied values only; FederationConfig.validate rejects conflicts.
        values = FEDAVG_VALUES | values
    elif strategy == "fedpr" and values.get("lam") == FEDAVG_VALUES["lam"]:
        raise ConfigError(
            "lambda: fedpr with lambda=0 is the fedavg baseline; use strategy=fedavg"
        )

    return FederationConfig(**values).validate()


def config_external_dict(cfg: FederationConfig) -> dict:
    """Resolved config under external key names, in canonical key order, each
    value as its field's type: lambda=1 reads 1.0, a numpy integer a plain int."""
    return {key: type(getattr(FederationConfig, field))(getattr(cfg, field)) for field, key in CONFIG_NAMES.items()}


def config_hash(cfg: FederationConfig) -> str:
    """Platform-stable hash of the fully resolved configuration."""
    canon = "\n".join(
        f"{key}={_canonical_value(value)}" for key, value in sorted(config_external_dict(cfg).items())
    )
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _canonical_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


# ---------------------------------------------------------------------------
# Artifact writers
# ---------------------------------------------------------------------------


def _write_text(path, text: str) -> None:
    """Replace ``path`` with ``text`` only once it is fully written.

    The text goes to a temporary file in the same directory, is flushed
    to disk, and is renamed over ``path``; if writing fails, the
    temporary file is removed and an earlier ``path`` stays as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as f:
            f.write(text)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _csv_text(header: str, rows) -> str:
    return "\n".join([header, *(",".join(map(str, row)) for row in rows)]) + "\n"


def _fmt(value) -> str:
    return "" if value is None else f"{value:.6f}"


def write_round_csv(records, path) -> None:
    """One row per round, 6 fractional digits, LF endings.

    Absent metrics render as empty fields. Records hold no timings, so
    the file is a byte-reproducible function of (config, seed).
    """
    rows = ([r.round_index, *(_fmt(getattr(r, field)) for field in _ROUND_COLUMNS)] for r in records)
    _write_text(path, _csv_text(CSV_HEADER, rows))


def read_round_csv(path) -> list[RoundRecord]:
    """Inverse of write_round_csv; only the current format is read."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0] if lines else ""
    if header != CSV_HEADER:
        raise ConfigError(
            f"{path}: CSV header {header!r} is not the format {FORMAT_VERSION} header {CSV_HEADER!r}"
        )
    records = []
    for row, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 1 + len(_ROUND_COLUMNS):
            raise ConfigError(f"{path}: malformed row {line!r}")
        try:
            optional = [float(part) if part else None for part in parts[2:]]
            records.append(RoundRecord(int(parts[0]), float(parts[1]), *optional))
        except ValueError as exc:
            raise ConfigError(f"{path}: row {row} {line!r}: {exc}") from None
    return records


def _metric_block(records, k: int) -> dict:
    """Last-k means plus final-round values for every populated field."""
    block = {"k": k, "last_k": {}, "final_round": {}}
    final = records[-1]
    for field_name, out_name in _ROUND_COLUMNS.items():
        if all(getattr(r, field_name) is not None for r in records[-k:]):
            block["last_k"][out_name] = last_k_mean(records, k, field_name)
        value = getattr(final, field_name)
        if value is not None:
            block["final_round"][out_name] = value
    block["final_round"]["round"] = final.round_index
    return block


def build_artifact(cfg: FederationConfig, records) -> dict:
    """The summary.json contents of one run."""
    return {
        "format_version": FORMAT_VERSION,
        "mode": "run",
        "config": config_external_dict(cfg),
        "config_hash": config_hash(cfg),
        "master_seed": cfg.master_seed,
        "rounds_completed": len(records),
        **_metric_block(records, min(10, len(records))),
    }


def write_summary(summary: dict, path) -> None:
    _write_text(path, json.dumps(summary, indent=2) + "\n")


def natural_accuracy_field(cfg: FederationConfig) -> str:
    """The inference path a run is scored on: prototypes when it evaluates them, which only fedpr can."""
    return "test_accuracy_prototype" if cfg.eval_inference in ("prototype", "both") else "test_accuracy_softmax"


def build_compare_summary(
    cfg_avg: FederationConfig,
    records_avg,
    cfg_pr: FederationConfig,
    records_pr,
) -> dict:
    k = min(10, len(records_avg), len(records_pr))
    field_avg = natural_accuracy_field(cfg_avg)
    field_pr = natural_accuracy_field(cfg_pr)
    last_avg = last_k_mean(records_avg, k, field_avg)
    last_pr = last_k_mean(records_pr, k, field_pr)
    delta = last_pr - last_avg
    return {
        "format_version": FORMAT_VERSION,
        "mode": "compare",
        "master_seed": cfg_pr.master_seed,
        "fedavg": {
            "config": config_external_dict(cfg_avg),
            "config_hash": config_hash(cfg_avg),
            **_metric_block(records_avg, k),
        },
        "fedpr": {
            "config": config_external_dict(cfg_pr),
            "config_hash": config_hash(cfg_pr),
            **_metric_block(records_pr, k),
        },
        "delta_fields": {"fedpr": field_pr, "fedavg": field_avg},
        # Absolute difference of last-k mean accuracies (fraction and
        # percentage points) plus the relative improvement, kept separate
        # because "x% higher" often means the relative form.
        "delta_last10": delta,
        "delta_last10_pp": 100.0 * delta,
        "delta_last10_relative_pct": 100.0 * delta / last_avg if last_avg else None,
    }


def write_compare_csv(records_avg, records_pr, path) -> None:
    rows = []
    for r_avg, r_pr in zip(records_avg, records_pr):
        delta = None
        if r_avg.test_accuracy_softmax is not None and r_pr.test_accuracy_softmax is not None:
            delta = r_pr.test_accuracy_softmax - r_avg.test_accuracy_softmax
        rows.append([r_avg.round_index, _fmt(r_avg.test_accuracy_softmax), _fmt(r_pr.test_accuracy_softmax),
                     _fmt(r_pr.test_accuracy_prototype), _fmt(delta)])
    header = "round,fedavg_acc_softmax,fedpr_acc_softmax,fedpr_acc_prototype,delta_softmax"
    _write_text(path, _csv_text(header, rows))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _progress(record: RoundRecord, seconds: float) -> None:
    parts = [f"round {record.round_index}", f"loss={record.mean_train_loss:.4f}"]
    if record.test_accuracy_softmax is not None:
        parts.append(f"acc_softmax={record.test_accuracy_softmax:.4f}")
    if record.test_accuracy_prototype is not None:
        parts.append(f"acc_proto={record.test_accuracy_prototype:.4f}")
    parts.append(f"({seconds * 1000.0:.0f} ms)")
    log.info(" ".join(parts))


def _cmd_run(args) -> int:
    cfg = parse_config(args.config, _flag_overrides(args))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    records = run_experiment(cfg, progress=_progress)
    summary = build_artifact(cfg, records)
    write_round_csv(records, out / "rounds.csv")
    write_summary(summary, out / "summary.json")
    last = summary["last_k"]
    print(f"run complete: {len(records)} rounds, last-{summary['k']} " + ", ".join(f"{k}={v:.4f}" for k, v in last.items()))
    print(f"artifacts: {out / 'rounds.csv'}, {out / 'summary.json'}")
    return 0


def _cmd_compare(args) -> int:
    overrides = _flag_overrides(args)
    if "strategy" in overrides:
        raise ConfigError("strategy: compare always runs fedavg and fedpr; do not set it")
    cfg_pr = parse_config(args.config, {**overrides, "strategy": "fedpr"})
    # The baseline is the same experiment with the prototype terms off.
    cfg_avg = cfg_pr.replace(strategy="fedavg", **FEDAVG_VALUES).validate()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    log.info("compare: running fedavg (seed %d)", cfg_avg.master_seed)
    records_avg = run_experiment(cfg_avg, progress=_progress)
    log.info("compare: running fedpr (seed %d)", cfg_pr.master_seed)
    records_pr = run_experiment(cfg_pr, progress=_progress)

    write_round_csv(records_avg, out / "rounds_fedavg.csv")
    write_round_csv(records_pr, out / "rounds_fedpr.csv")
    write_compare_csv(records_avg, records_pr, out / "compare.csv")
    summary = build_compare_summary(cfg_avg, records_avg, cfg_pr, records_pr)
    write_summary(summary, out / "summary.json")
    relative = summary["delta_last10_relative_pct"]  # None when fedavg scored 0
    relative_text = "n/a" if relative is None else f"{relative:+.2f}%"
    print(
        f"compare complete: fedpr-fedavg delta over last {summary['fedpr']['k']} rounds = "
        f"{summary['delta_last10_pp']:+.2f} pp ({relative_text} relative)"
    )
    print(f"artifacts in {out}/")
    return 0


def _cmd_partition_report(args) -> int:
    cfg = parse_config(args.config, _flag_overrides(args))
    train, _, shards = partition_data(cfg)
    counts = class_counts(shards, train.labels, train.num_classes)
    text = _csv_text("client,class,count", ((client, cls, count) for (client, cls), count in np.ndenumerate(counts)))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_text(out / "partition.csv", text)
        print(f"partition report: {out / 'partition.csv'}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_selftest(args) -> int:
    """Criteria 1-4 of the acceptance suite, at sizes that run in seconds."""
    gradient = checks.gradient_error(5, 20240001)
    aggregation = checks.aggregation_error(20, 20240002)
    failures = {
        "gradient-check": None if gradient < checks.GRADIENT_BOUND else f"max relative gradient error {gradient:.2e}",
        "aggregation-oracles": None if aggregation <= checks.AGGREGATION_BOUND else f"max deviation {aggregation:.2e}",
        "fedavg-identity": checks.fedavg_mismatch(1, 20240004),
        "partition-completeness": checks.partition_mismatch(3, 20240003, num_samples=500, num_clients=8),
    }
    for name, detail in failures.items():
        print(f"selftest PASS {name}" if detail is None else f"selftest FAIL {name}: {detail}")
    return 0 if all(detail is None for detail in failures.values()) else 1


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------


def _add_common_flags(sub, out_default="out") -> None:
    # Each flag's dest is the config key it sets (see _flag_overrides).
    sub.add_argument("--config", metavar="PATH", help="key = value config file")
    sub.add_argument("--strategy", choices=STRATEGIES)
    sub.add_argument("--dataset", choices=DATASETS)
    sub.add_argument("--alpha", dest="dirichlet_alpha", type=float, help="Dirichlet concentration")
    sub.add_argument("--lambda", type=float, help="prototype loss weight")
    sub.add_argument("--rounds", type=int)
    sub.add_argument("--epochs", dest="local_epochs", type=int, help="local epochs per round")
    sub.add_argument("--batch", dest="batch_size", type=int, help="local batch size")
    sub.add_argument("--lr", dest="learning_rate", type=float, help="learning rate")
    sub.add_argument("--clients", dest="num_clients", type=int)
    sub.add_argument("--seed", type=int, help="master seed")
    sub.add_argument("--model", choices=MODELS)
    sub.add_argument("--out", metavar="DIR", default=out_default, help="artifact directory")


def _flag_overrides(args) -> dict:
    return {key: getattr(args, key) for key in _KEY_TO_FIELD if getattr(args, key, None) is not None}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedpr",
        description="Deterministic federated-learning simulator (FedAvg / FedPR).",
    )
    parser.add_argument("--version", action="version", version=f"fedpr {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    run = subs.add_parser("run", help="run one experiment and write rounds.csv + summary.json")
    _add_common_flags(run)
    run.set_defaults(func=_cmd_run)

    compare = subs.add_parser("compare", help="run fedavg and fedpr on the same seed and diff them")
    _add_common_flags(compare)
    compare.set_defaults(func=_cmd_compare)

    report = subs.add_parser("partition-report", help="emit the client/class counts matrix")
    _add_common_flags(report, out_default=None)
    report.set_defaults(func=_cmd_partition_report)

    selftest = subs.add_parser("selftest", help="run acceptance criteria 1-4 at small sizes")
    selftest.set_defaults(func=_cmd_selftest)

    return parser


def run_cli(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CLI_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
