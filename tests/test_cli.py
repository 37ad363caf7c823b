import dataclasses
import gzip
import hashlib
import json
import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fedpr import checks, cli, errors
from fedpr.cli import (
    build_artifact,
    config_external_dict,
    config_hash,
    parse_config,
    read_round_csv,
    run_cli,
    write_compare_csv,
    write_round_csv,
    write_summary,
)
from fedpr.data import class_counts, write_idx_images, write_idx_labels
from fedpr.errors import ConfigError
from fedpr.federation import FederationConfig, RoundRecord, prepare_partition


SYNTH_FLAGS = [
    "--dataset", "synthetic", "--model", "mlp2", "--rounds", "3",
    "--clients", "3", "--seed", "11",
]


def synth_overrides(**extra):
    base = {
        "dataset": "synthetic",
        "model": "mlp2",
        "rounds": 3,
        "num_clients": 3,
        "subsample_n": 90,
        "synth_classes": 3,
        "synth_dim": 8,
        "synth_per_class": 40,
        "synth_test_per_class": 10,
        "seed": 11,
    }
    base.update(extra)
    return base


# --- parsing ----------------------------------------------------------------


def test_defaults_match_reference_protocol():
    cfg = parse_config()
    assert cfg.num_clients == 10
    assert cfg.batch_size == 8
    assert cfg.learning_rate == 0.01
    assert cfg.momentum == 0.5
    assert cfg.dirichlet_alpha == 0.05
    assert cfg.lam == 1.0
    assert cfg.rounds == 100
    assert cfg.local_epochs == 1
    assert cfg.subsample_n == 2000
    assert cfg.strategy == "fedpr"


def test_flag_beats_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("local_epochs = 5\nbatch_size = 4\n")
    cfg = parse_config(path, {"local_epochs": 1})
    assert cfg.local_epochs == 1
    assert cfg.batch_size == 4


def test_config_file_comments_and_types(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# reference protocol\n"
        "learning_rate = 0.02   # bumped\n"
        "support_weighted_protos = true\n"
        "\n"
        "dataset = synthetic\n"
    )
    cfg = parse_config(path)
    assert cfg.learning_rate == 0.02
    assert cfg.support_weighted_protos is True
    assert cfg.dataset == "synthetic"


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("optimizer = adam\n")
    with pytest.raises(ConfigError, match="optimizer"):
        parse_config(path)
    with pytest.raises(ConfigError, match="optimiser"):
        parse_config(None, {"optimiser": 1})


def test_malformed_line_rejected(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("rounds\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config(path)


def test_fedpr_with_lambda_zero_rejected():
    with pytest.raises(ConfigError, match="lambda"):
        parse_config(None, {"strategy": "fedpr", "lambda": 0.0})


def test_fedavg_with_nonzero_lambda_rejected():
    with pytest.raises(ConfigError, match="lambda"):
        parse_config(None, {"strategy": "fedavg", "lambda": 0.5})


def test_fedavg_with_prototype_eval_rejected():
    with pytest.raises(ConfigError, match="eval_inference"):
        parse_config(None, {"strategy": "fedavg", "eval_inference": "both"})


def test_fedavg_defaults_coerce_lambda_and_eval():
    cfg = parse_config(None, {"strategy": "fedavg"})
    assert cfg.lam == 0.0
    assert cfg.eval_inference == "softmax"


def test_out_of_range_value_names_key():
    with pytest.raises(ConfigError, match="rounds"):
        parse_config(None, {"rounds": 0})


def test_every_config_default_has_its_annotated_type():
    # A config file's value is parsed into the type of its field's default,
    # so a float field needs a float default (0.0, not 0).
    for field in dataclasses.fields(FederationConfig):
        assert type(field.default).__name__ == field.type, field.name


@pytest.mark.parametrize("raw,value", [
    ("true", True), ("1", True), ("Yes", True), ("false", False), ("0", False), ("NO", False),
])
def test_config_file_bool_spellings(tmp_path, raw, value):
    path = tmp_path / "exp.cfg"
    path.write_text(f"support_weighted_protos = {raw}\n")
    assert parse_config(path).support_weighted_protos is value


# Named errors of the config and CSV readers, each with the file text
# that raises it and the message after the path.
READER_ERRORS = [
    pytest.param(parse_config, "support_weighted_protos = maybe\n",
                 ":1: support_weighted_protos: cannot parse 'maybe' as a boolean", id="config-bool"),
    pytest.param(parse_config, "rounds = 3\n# again\nrounds = 5\n",
                 ":3: rounds already set on line 1", id="config-repeated-key"),
    pytest.param(read_round_csv, "round,mean_train_loss,acc_softmax,acc_prototype\n1,0.5,0.25\n",
                 ": malformed row '1,0.5,0.25'", id="csv-short-row"),
    pytest.param(read_round_csv, "round,mean_train_loss,acc_softmax,acc_prototype\n1,0.5,0.25,,\n",
                 ": malformed row '1,0.5,0.25,,'", id="csv-long-row"),
]


@pytest.mark.parametrize("read,text,message", READER_ERRORS)
def test_each_reader_error_names_the_file(tmp_path, read, text, message):
    path = tmp_path / "input"
    path.write_text(text)
    with pytest.raises(ConfigError) as info:
        read(path)
    assert str(info.value) == f"{path}{message}"


# --- the config contract: each rule's exact message and their order ---------

# One fault per checked field, the first value outside its rule, in the
# order FederationConfig.validate checks them.
CONFIG_FAULTS = [
    ("num_clients", 0, "num_clients: must be >= 1, got 0"),
    ("rounds", 0, "rounds: must be >= 1, got 0"),
    ("local_epochs", 0, "local_epochs: must be >= 1, got 0"),
    ("batch_size", 0, "batch_size: must be >= 1, got 0"),
    ("learning_rate", 0.0, "learning_rate: must be finite and > 0, got 0.0"),
    ("momentum", 1.0, "momentum: must be in [0, 1), got 1.0"),
    ("dirichlet_alpha", 0.0, "dirichlet_alpha: must be finite and > 0, got 0.0"),
    ("lam", -0.5, "lambda: must be finite and >= 0, got -0.5"),
    ("master_seed", -1, "seed: must be a non-negative integer, got -1"),
    ("subsample_n", 0, "subsample_n: must be >= 1, got 0"),
    ("strategy", "x", "strategy: must be one of ('fedavg', 'fedpr'), got 'x'"),
    ("model", "x", "model: must be one of ('cnn4', 'mlp2'), got 'x'"),
    ("dataset", "x", "dataset: must be one of ('mnist', 'fashion', 'synthetic'), got 'x'"),
    ("agg_denominator", "x", "agg_denominator: must be one of ('contributors', 'all_clients'), got 'x'"),
    ("proto_loss_form", "x", "proto_loss_form: must be one of ('squared', 'unsquared'), got 'x'"),
    ("eval_inference", "x", "eval_inference: must be one of ('softmax', 'prototype', 'both'), got 'x'"),
    ("synth_classes", 1, "synth_classes: must be >= 2, got 1"),
    ("synth_dim", 0, "synth_dim: must be >= 1, got 0"),
    ("synth_per_class", 0, "synth_per_class: must be >= 1, got 0"),
    ("synth_test_per_class", 0, "synth_test_per_class: must be >= 1, got 0"),
    ("synth_spread", -0.1, "synth_spread: must be finite and >= 0, got -0.1"),
]
# The other edges of the interval rules.
CONFIG_EDGE_FAULTS = [
    ("learning_rate", math.inf, "learning_rate: must be finite and > 0, got inf"),
    ("learning_rate", math.nan, "learning_rate: must be finite and > 0, got nan"),
    ("momentum", -0.1, "momentum: must be in [0, 1), got -0.1"),
    ("dirichlet_alpha", math.inf, "dirichlet_alpha: must be finite and > 0, got inf"),
    ("lam", math.inf, "lambda: must be finite and >= 0, got inf"),
    ("lam", math.nan, "lambda: must be finite and >= 0, got nan"),
    ("synth_spread", math.inf, "synth_spread: must be finite and >= 0, got inf"),
]


def test_config_faults_cover_every_checked_field():
    assert len({field for field, _, _ in CONFIG_FAULTS}) == 21
    FederationConfig().validate()


@pytest.mark.parametrize("field,value,message", CONFIG_FAULTS + CONFIG_EDGE_FAULTS)
def test_each_config_rule_fails_with_its_exact_message(field, value, message):
    with pytest.raises(ConfigError) as info:
        FederationConfig(**{field: value}).validate()
    assert str(info.value) == message


def test_config_with_several_faults_names_the_first_in_check_order():
    for i, (_, _, message) in enumerate(CONFIG_FAULTS):
        faults = {field: value for field, value, _ in CONFIG_FAULTS[i:]}
        with pytest.raises(ConfigError) as info:
            FederationConfig(**faults).validate()
        assert str(info.value) == message


@pytest.mark.parametrize(
    "faults,message",
    [
        (dict(lam=1.0, synth_dim=0), "lambda: strategy=fedavg forces lambda=0"),
        (
            dict(lam=0.0, eval_inference="both", synth_classes=1),
            "eval_inference: fedavg produces no prototypes; only softmax inference is available",
        ),
        (dict(lam=-1.0, eval_inference="both"), "lambda: must be finite and >= 0, got -1.0"),
        (
            dict(lam=1.0, eval_inference="x"),
            "eval_inference: must be one of ('softmax', 'prototype', 'both'), got 'x'",
        ),
    ],
)
def test_fedavg_cross_checks_run_between_eval_inference_and_synth_classes(faults, message):
    with pytest.raises(ConfigError) as info:
        FederationConfig(strategy="fedavg", **faults).validate()
    assert str(info.value) == message


def test_compare_fedavg_leg_is_the_file_with_the_baseline_pinned(tmp_path, monkeypatch):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "lambda = 0.8\neval_inference = prototype\nseed = 5\ndataset = synthetic\n"
        "model = mlp2\nrounds = 2\nnum_clients = 2\nlearning_rate = 0.02\n"
    )
    legs = {}

    def fake_run(cfg, progress=None):
        legs[cfg.strategy] = cfg
        fedavg = cfg.strategy == "fedavg"
        return [RoundRecord(t, 1.0, 0.5 if fedavg else None, None if fedavg else 0.6) for t in (1, 2)]

    monkeypatch.setattr(cli, "run_experiment", fake_run)
    flags = ["--lambda", "0.3", "--seed", "9", "--clients", "3"]
    assert run_cli(["compare", "--config", str(path), *flags, "--out", str(tmp_path / "cmp")]) == 0
    shared = {"seed": 9, "num_clients": 3}
    want_pr = parse_config(path, {**shared, "lambda": 0.3, "strategy": "fedpr"})
    want_avg = parse_config(path, {**shared, "strategy": "fedavg", "lambda": 0.0, "eval_inference": "softmax"})
    assert vars(legs["fedpr"]) == vars(want_pr)
    assert vars(legs["fedavg"]) == vars(want_avg)


CONFIG_KEYS = list(config_external_dict(parse_config()))
_VALUES = st.sampled_from(
    ["0", "1", "-3", "2.5", "1e400", "nan", "-inf", "true", "no", "", "fedavg", "fedpr",
     "mlp2", "synthetic", "all_clients", "unsquared", "softmax", "1_000", "0x10"]
) | st.text(max_size=10)
_LINES = st.one_of(
    st.tuples(st.sampled_from(CONFIG_KEYS) | st.text(max_size=8), _VALUES).map(" = ".join),
    st.sampled_from(["", "# comment", "rounds = 1  # trailing", "="]),
    st.text(max_size=20),
)


@st.composite
def _config_file_bytes(draw):
    data = bytearray("\n".join(draw(st.lists(_LINES, max_size=8))).encode())
    for _ in range(draw(st.integers(0, 2))):  # bytes that may break the UTF-8
        data.insert(draw(st.integers(0, len(data))), draw(st.integers(0x80, 0xFF)))
    return bytes(data)


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,  # the same examples on every run
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=_config_file_bytes())
def test_config_file_parses_or_names_its_path_or_key(tmp_path, data):
    path = tmp_path / "fuzz.cfg"
    path.write_bytes(data)
    try:
        parse_config(path)
    except ConfigError as exc:
        message = str(exc)
        assert message.startswith(f"{path}:") or message.split(":")[0] in CONFIG_KEYS, message


def test_every_named_error_reaches_the_user_as_an_error_line():
    named = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, Exception)]
    assert named
    assert [c.__name__ for c in named if not issubclass(c, cli.CLI_ERRORS)] == []


def test_non_utf8_config_file_names_its_path(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"rounds = 1\nmodel = \xff\n")
    with pytest.raises(ConfigError, match="byte 19: not UTF-8"):
        parse_config(path)
    assert run_cli(["run", "--config", str(path)]) == 2
    assert f"error: ConfigError: {path}: byte 19" in capsys.readouterr().err


def test_config_hash_stable_and_sensitive():
    a = parse_config(None, synth_overrides())
    b = parse_config(None, synth_overrides())
    c = parse_config(None, synth_overrides(seed=12))
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)


# --- CSV --------------------------------------------------------------------


def test_csv_empty_records_header_only(tmp_path):
    path = tmp_path / "rounds.csv"
    write_round_csv([], path)
    assert path.read_bytes() == b"round,mean_train_loss,acc_softmax,acc_prototype\n"


def test_csv_single_record_exact_bytes(tmp_path):
    path = tmp_path / "rounds.csv"
    write_round_csv([RoundRecord(1, math.log(10.0), 0.1, None)], path)
    assert path.read_bytes() == (
        b"round,mean_train_loss,acc_softmax,acc_prototype\n"
        b"1,2.302585,0.100000,\n"
    )


def test_csv_roundtrip_within_1e6(tmp_path):
    rng = np.random.default_rng(0)
    records = [
        RoundRecord(t, float(rng.uniform(0, 3)), float(rng.uniform()), float(rng.uniform()))
        for t in range(1, 8)
    ]
    path = tmp_path / "rounds.csv"
    write_round_csv(records, path)
    restored = read_round_csv(path)
    for a, b in zip(records, restored):
        assert b.round_index == a.round_index
        assert abs(b.mean_train_loss - a.mean_train_loss) <= 1e-6
        assert abs(b.test_accuracy_softmax - a.test_accuracy_softmax) <= 1e-6
        assert abs(b.test_accuracy_prototype - a.test_accuracy_prototype) <= 1e-6


def test_csv_malformed_cell_names_path_and_row(tmp_path):
    path = tmp_path / "rounds.csv"
    write_round_csv([RoundRecord(1, 0.5, 0.25, None)], path)
    path.write_text(path.read_text() + "2,abc,,\n")
    with pytest.raises(ConfigError, match=r"rounds\.csv: row 3 '2,abc,,'"):
        read_round_csv(path)


def test_csv_of_format_1_is_refused_naming_the_path(tmp_path):
    path = tmp_path / "rounds.csv"
    path.write_text(
        "round,mean_train_loss,acc_softmax,acc_prototype,wall_time_ms\n1,2.302585,0.100000,,\n"
    )
    with pytest.raises(ConfigError, match=r"rounds\.csv: CSV header .* is not the format 2 header"):
        read_round_csv(path)


# --- run subcommand ---------------------------------------------------------


def test_run_twice_byte_identical_artifacts(tmp_path):
    rc1 = run_cli(["run", *SYNTH_FLAGS, "--out", str(tmp_path / "a")])
    rc2 = run_cli(["run", *SYNTH_FLAGS, "--out", str(tmp_path / "b")])
    assert rc1 == rc2 == 0
    rounds = (tmp_path / "a/rounds.csv").read_bytes()
    assert rounds.startswith(b"round,mean_train_loss,acc_softmax,acc_prototype\n")
    assert rounds == (tmp_path / "b/rounds.csv").read_bytes()
    assert (tmp_path / "a/summary.json").read_bytes() == (tmp_path / "b/summary.json").read_bytes()


def test_summary_embedded_config_roundtrips(tmp_path):
    out = tmp_path / "run"
    assert run_cli(["run", *SYNTH_FLAGS, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    reparsed = parse_config(None, summary["config"])
    original = parse_config(None, {k: v for k, v in zip(
        ("dataset", "model", "rounds", "num_clients", "seed"),
        ("synthetic", "mlp2", 3, 3, 11),
    )})
    assert reparsed == original
    assert summary["config_hash"] == config_hash(original)


def test_summary_contents(tmp_path):
    out = tmp_path / "run"
    assert run_cli(["run", *SYNTH_FLAGS, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["format_version"] == 2
    assert summary["rounds_completed"] == 3
    assert summary["k"] == 3
    assert 0.0 <= summary["last_k"]["acc_softmax"] <= 1.0
    assert 0.0 <= summary["last_k"]["acc_prototype"] <= 1.0
    assert summary["final_round"]["round"] == 3


def test_artifact_summary_constant_accuracy_mean():
    cfg = parse_config(None, synth_overrides())
    records = [RoundRecord(t, 0.2, 0.5, 0.5) for t in range(1, 13)]
    summary = build_artifact(cfg, records)
    assert summary["k"] == 10
    assert summary["last_k"]["acc_softmax"] == pytest.approx(0.5)


def test_fedavg_run_leaves_prototype_column_empty(tmp_path):
    out = tmp_path / "avg"
    rc = run_cli(["run", *SYNTH_FLAGS, "--strategy", "fedavg", "--out", str(out)])
    assert rc == 0
    lines = (out / "rounds.csv").read_text().splitlines()
    for line in lines[1:]:
        assert line.split(",")[3] == ""


# --- compare subcommand -----------------------------------------------------


def test_compare_emits_joint_artifacts(tmp_path):
    out = tmp_path / "cmp"
    rc = run_cli(["compare", *SYNTH_FLAGS, "--out", str(out)])
    assert rc == 0
    for name in ("rounds_fedavg.csv", "rounds_fedpr.csv", "compare.csv", "summary.json"):
        assert (out / name).is_file()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mode"] == "compare"
    assert "delta_last10" in summary
    assert summary["delta_last10_pp"] == pytest.approx(100.0 * summary["delta_last10"])
    assert summary["delta_fields"] == {
        "fedpr": "test_accuracy_prototype",
        "fedavg": "test_accuracy_softmax",
    }
    assert summary["fedavg"]["config"]["strategy"] == "fedavg"
    assert summary["fedpr"]["config"]["strategy"] == "fedpr"
    compare_lines = (out / "compare.csv").read_text().splitlines()
    assert compare_lines[0] == "round,fedavg_acc_softmax,fedpr_acc_softmax,fedpr_acc_prototype,delta_softmax"
    assert len(compare_lines) == 4


def test_compare_rejects_strategy_flag(tmp_path):
    rc = run_cli(["compare", *SYNTH_FLAGS, "--strategy", "fedavg", "--out", str(tmp_path)])
    assert rc == 2


def test_compare_accepts_fedpr_oriented_config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("lambda = 0.8\neval_inference = both\ndataset = synthetic\nmodel = mlp2\nrounds = 2\nnum_clients = 2\n")
    rc = run_cli(["compare", "--config", str(path), "--out", str(tmp_path / "cmp")])
    assert rc == 0
    summary = json.loads((tmp_path / "cmp/summary.json").read_text())
    assert summary["fedpr"]["config"]["lambda"] == 0.8
    assert summary["fedavg"]["config"]["lambda"] == 0.0


def test_compare_with_fedavg_at_zero_prints_na(tmp_path, monkeypatch, capsys):
    # the relative delta divides by fedavg's last-k accuracy
    def fake_run(cfg, progress=None):
        return [RoundRecord(t, 1.0, 0.0, None if cfg.strategy == "fedavg" else 0.25) for t in (1, 2)]

    monkeypatch.setattr(cli, "run_experiment", fake_run)
    assert run_cli(["compare", *SYNTH_FLAGS, "--out", str(tmp_path / "cmp")]) == 0
    assert "+25.00 pp (n/a relative)" in capsys.readouterr().out
    summary = json.loads((tmp_path / "cmp/summary.json").read_text())
    assert summary["delta_last10_relative_pct"] is None


# --- partition-report -------------------------------------------------------


def test_partition_report_readme_example_needs_no_model(capsys):
    # the default model is cnn4, which cannot take the 32-dim synthetic data
    rc = run_cli(["partition-report", "--dataset", "synthetic", "--alpha", "0.05", "--clients", "10"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "client,class,count"
    assert len(lines) == 1 + 10 * 10
    assert sum(int(line.split(",")[2]) for line in lines[1:]) == 2000


def test_run_cnn4_on_32_dim_synthetic_names_cnn4(tmp_path, capsys):
    rc = run_cli(["run", "--dataset", "synthetic", "--rounds", "1", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "ConfigError: model: cnn4" in capsys.readouterr().err


def test_partition_report_matches_direct_partition(tmp_path):
    out = tmp_path / "report"
    rc = run_cli([
        "partition-report", "--dataset", "synthetic", "--model", "mlp2",
        "--clients", "4", "--alpha", "0.3", "--seed", "21", "--out", str(out),
    ])
    assert rc == 0
    lines = (out / "partition.csv").read_text().splitlines()
    assert lines[0] == "client,class,count"

    cfg = parse_config(None, {"dataset": "synthetic", "model": "mlp2",
                              "num_clients": 4, "dirichlet_alpha": 0.3, "seed": 21})
    train, _, shards = prepare_partition(cfg)
    counts = class_counts(shards, train.labels, train.num_classes)
    assert len(lines) == 1 + counts.size
    for line in lines[1:]:
        client, cls, count = (int(v) for v in line.split(","))
        assert counts[client, cls] == count


def test_failed_partition_report_write_keeps_earlier_file(tmp_path, monkeypatch):
    flags = ["partition-report", "--dataset", "synthetic", "--model", "mlp2", "--out", str(tmp_path)]
    assert run_cli(flags + ["--clients", "2"]) == 0
    before = (tmp_path / "partition.csv").read_bytes()

    def disk_full(fd):
        raise OSError("disk full")

    monkeypatch.setattr(os, "fsync", disk_full)
    assert run_cli(flags + ["--clients", "3"]) == 2
    assert (tmp_path / "partition.csv").read_bytes() == before
    assert os.listdir(tmp_path) == ["partition.csv"]


def test_partition_report_stdout(capsys):
    rc = run_cli([
        "partition-report", "--dataset", "synthetic", "--model", "mlp2",
        "--clients", "2", "--seed", "3",
    ])
    assert rc == 0
    captured = capsys.readouterr().out
    assert captured.startswith("client,class,count\n")


# --- artifact bytes ---------------------------------------------------------

# sha256 of every file that run, compare and partition-report write for one
# small synthetic experiment, plus partition-report's stdout; any change to
# an artifact's bytes has to change these on purpose.
PINNED_SHA256 = {
    "compare/compare.csv": "e94f3394935b153d85ed3546e3498cf84052121203860da2069b8a7974b25ab8",
    "compare/rounds_fedavg.csv": "b39573def7bde09ff879aab201305d50979d41c3656586fe962fbd046d5a16d5",
    "compare/rounds_fedpr.csv": "838ff73499d8ec2ebd80e990891ecb6e605f443e7bb1b98f6ab6b6708132d897",
    "compare/summary.json": "4630dedd6355c659342952fcc7c84144f71873a152e3f1ca32b9e9d3c24eae76",
    "partition-report/partition.csv": "89154745c980cff791ef8575a6496032d9a305fbf965228a30d1193a33e122df",
    "partition-report/stdout": "89154745c980cff791ef8575a6496032d9a305fbf965228a30d1193a33e122df",
    "run/rounds.csv": "838ff73499d8ec2ebd80e990891ecb6e605f443e7bb1b98f6ab6b6708132d897",
    "run/summary.json": "c955597d4e4afde737e9feac27b0748ecb97cfab6e76e64c75171bf0d0089df4",
}


def test_artifact_bytes_are_pinned(tmp_path, capsys):
    cfg_path = tmp_path / "small.cfg"
    cfg_path.write_text(
        "subsample_n = 200\nsynth_classes = 4\nsynth_dim = 8\n"
        "synth_per_class = 60\nsynth_test_per_class = 10\nlearning_rate = 0.1\n"
    )
    flags = [
        "--config", str(cfg_path), "--dataset", "synthetic", "--model", "mlp2",
        "--clients", "4", "--alpha", "0.3", "--rounds", "3", "--seed", "5",
    ]
    for command in ("run", "compare", "partition-report"):
        assert run_cli([command, *flags, "--out", str(tmp_path / command)]) == 0
    capsys.readouterr()
    assert run_cli(["partition-report", *flags]) == 0
    digests = {
        f"{path.parent.name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.glob("*/*")
    }
    digests["partition-report/stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == PINNED_SHA256


# --- selftest and error paths -----------------------------------------------


def test_selftest_passes(capsys):
    assert run_cli(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4
    assert "FAIL" not in out


def test_selftest_reports_a_failing_check(monkeypatch, capsys):
    monkeypatch.setattr(checks, "fedavg_mismatch", lambda runs, seed: "round 2 differs")
    assert run_cli(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "selftest FAIL fedavg-identity: round 2 differs" in out
    assert out.count("PASS") == 3


def test_missing_config_file_is_structured_error(tmp_path, capsys):
    rc = run_cli(["run", "--config", str(tmp_path / "nope.cfg")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_missing_dataset_files_is_structured_error(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(f"data_dir = {tmp_path / 'empty'}\n")
    rc = run_cli([
        "run", "--config", str(cfg_path), "--dataset", "mnist", "--rounds", "1",
        "--out", str(tmp_path / "out"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "mnist" in err


_WRITERS = {
    "rounds": lambda records, path: write_round_csv(records, path),
    "compare": lambda records, path: write_compare_csv(records, records, path),
    "summary": lambda records, path: write_summary({"rounds": len(records)}, path),
}


@pytest.mark.parametrize("write", _WRITERS.values(), ids=_WRITERS.keys())
def test_failed_artifact_write_keeps_earlier_file(tmp_path, monkeypatch, write):
    path = tmp_path / "artifact"
    write([RoundRecord(1, 0.5, 0.25, None)], path)
    before = path.read_bytes()

    def disk_full(fd):
        raise OSError("disk full")

    monkeypatch.setattr(os, "fsync", disk_full)
    with pytest.raises(OSError, match="disk full"):
        write([RoundRecord(1, 0.5, 0.25, None), RoundRecord(2, 0.4, 0.5, None)], path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["artifact"]


def test_summary_failing_mid_stream_keeps_earlier_file(tmp_path):
    path = tmp_path / "summary.json"
    write_summary({"rounds": 1}, path)
    before = path.read_bytes()
    with pytest.raises(TypeError):  # json.dump has written "rounds" when it fails
        write_summary({"rounds": 2, "bad": object()}, path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["summary.json"]


def test_truncated_gzip_dataset_is_structured_error(tmp_path, capsys):
    mnist = tmp_path / "data" / "mnist"
    mnist.mkdir(parents=True)
    rng = np.random.default_rng(0)
    for split, n in (("train", 40), ("t10k", 20)):
        write_idx_images(
            mnist / f"{split}-images-idx3-ubyte",
            rng.integers(0, 256, size=(n, 28, 28), dtype=np.uint8),
        )
        write_idx_labels(mnist / f"{split}-labels-idx1-ubyte", rng.integers(0, 10, size=n))
    images = mnist / "train-images-idx3-ubyte"
    data = gzip.compress(images.read_bytes(), mtime=0)
    images.unlink()
    (mnist / "train-images-idx3-ubyte.gz").write_bytes(data[: len(data) // 2])
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(f"dataset = mnist\ndata_dir = {tmp_path / 'data'}\nsubsample_n = 40\n")
    rc = run_cli(
        ["run", "--config", str(cfg_path), "--rounds", "1", "--out", str(tmp_path / "out")]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "TruncatedFileError" in err and "train-images-idx3-ubyte.gz" in err


def test_subsample_larger_than_dataset_names_key(tmp_path, capsys):
    path = tmp_path / "big.cfg"
    path.write_text(
        "dataset = synthetic\nmodel = mlp2\nsynth_classes = 3\nsynth_per_class = 10\n"
        "subsample_n = 5000\n"
    )
    rc = run_cli(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "ConfigError" in err and "subsample_n" in err
    assert "5000" in err and "30" in err


@pytest.mark.parametrize(
    "key", ["learning_rate", "lambda", "synth_spread", "dirichlet_alpha"]
)
def test_infinite_value_names_key(tmp_path, capsys, key):
    path = tmp_path / "inf.cfg"
    path.write_text(
        "dataset = synthetic\nmodel = mlp2\nrounds = 1\nnum_clients = 3\n"
        f"synth_classes = 3\nsynth_per_class = 10\nsubsample_n = 30\n{key} = inf\n"
    )
    rc = run_cli(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"ConfigError: {key}: must be finite" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "compare"])
def test_out_that_is_a_file_fails_before_any_round(tmp_path, monkeypatch, capsys, command):
    def no_rounds(cfg, progress=None):
        pytest.fail("run_experiment ran although --out cannot be made")

    monkeypatch.setattr(cli, "run_experiment", no_rounds)
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert run_cli([command, *SYNTH_FLAGS, "--out", str(out)]) == 2
    assert "FileExistsError" in capsys.readouterr().err


def test_external_config_dict_uses_external_names():
    cfg = parse_config(None, synth_overrides())
    ext = config_external_dict(cfg)
    assert "lambda" in ext and "lam" not in ext
    assert "seed" in ext and "master_seed" not in ext
