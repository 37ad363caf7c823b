"""Each parameter rule is stated once, by the module whose function uses the
value: the function and FederationConfig.validate read the same rule object
and refuse the same values with the same text."""

import dataclasses
import json
import math
from operator import attrgetter

import numpy as np
import pytest

import fedpr
from fedpr import data, federation
from fedpr.data import Dataset, dirichlet_partition, load_idx_dataset, synthetic_blobs
from fedpr.errors import ConfigError
from fedpr.evaluation import evaluate_accuracy
from fedpr.federation import FederationConfig
from fedpr.nn import OptimizerState, build_mlp2, finite_diff_gradient, loss_and_grad
from fedpr.prototypes import GlobalPrototypeSet, aggregate_global_prototypes

MLP = build_mlp2(np.random.default_rng(0), 6, 3, hidden=4)
X, Y = np.zeros((2, 6)), [0, 1]


def _row(field, owner, call, param, value, message):
    return pytest.param(field, owner, call, param, value, message, id=f"{param}={value!r}")


def _partition(alpha):
    return dirichlet_partition([0, 1, 0, 1, 0, 1], 2, alpha, seed=0)


# Per row: the config field, the owner's rule object (as fedpr.<module>.<name>),
# a call that passes the value to the owning function, the parameter it
# names, a value outside the rule, and the config's exact message for it.
# eps has no config field; it reads the rule learning_rate reads.
SHARED_RULES = [
    _row("num_clients", "data._COUNT", lambda v: dirichlet_partition([0, 1], v, 0.5, seed=0), "num_clients", 0,
         "num_clients: must be >= 1, got 0"),
    _row("dirichlet_alpha", "data._POSITIVE", _partition, "alpha", math.inf,
         "dirichlet_alpha: must be finite and > 0, got inf"),
    _row("dirichlet_alpha", "data._POSITIVE", _partition, "alpha", math.nan,
         "dirichlet_alpha: must be finite and > 0, got nan"),
    _row("dirichlet_alpha", "data._POSITIVE", _partition, "alpha", 0.0,
         "dirichlet_alpha: must be finite and > 0, got 0.0"),
    _row("synth_classes", "data._CLASS_COUNT", lambda v: synthetic_blobs(v, 3, 2, 0.1, seed=0), "num_classes", 1,
         "synth_classes: must be >= 2, got 1"),
    _row("synth_dim", "data._COUNT", lambda v: synthetic_blobs(2, v, 2, 0.1, seed=0), "dim", 0,
         "synth_dim: must be >= 1, got 0"),
    _row("synth_per_class", "data._COUNT", lambda v: synthetic_blobs(2, 3, v, 0.1, seed=0), "per_class", 0,
         "synth_per_class: must be >= 1, got 0"),
    _row("synth_test_per_class", "data._COUNT", lambda v: synthetic_blobs(2, 3, v, 0.1, seed=0), "per_class", -1,
         "synth_test_per_class: must be >= 1, got -1"),
    _row("synth_spread", "data._NON_NEGATIVE", lambda v: synthetic_blobs(2, 3, 2, v, seed=0), "spread", math.nan,
         "synth_spread: must be finite and >= 0, got nan"),
    _row("synth_spread", "data._NON_NEGATIVE", lambda v: synthetic_blobs(2, 3, 2, v, seed=0), "spread", math.inf,
         "synth_spread: must be finite and >= 0, got inf"),
    _row("learning_rate", "nn._POSITIVE", lambda v: OptimizerState.zeros(MLP, v, 0.5), "learning_rate", math.inf,
         "learning_rate: must be finite and > 0, got inf"),
    _row("learning_rate", "nn._POSITIVE", lambda v: OptimizerState.zeros(MLP, v, 0.5), "learning_rate", math.nan,
         "learning_rate: must be finite and > 0, got nan"),
    _row("momentum", "nn._MOMENTUM", lambda v: OptimizerState.zeros(MLP, 0.1, v), "momentum", 1.0,
         "momentum: must be in [0, 1), got 1.0"),
    _row("momentum", "nn._MOMENTUM", lambda v: OptimizerState.zeros(MLP, 0.1, v), "momentum", math.nan,
         "momentum: must be in [0, 1), got nan"),
    _row("lam", "nn._NON_NEGATIVE", lambda v: loss_and_grad(MLP, X, Y, None, v), "lam", math.inf,
         "lambda: must be finite and >= 0, got inf"),
    _row("lam", "nn._NON_NEGATIVE", lambda v: loss_and_grad(MLP, X, Y, None, v), "lam", math.nan,
         "lambda: must be finite and >= 0, got nan"),
    _row("lam", "nn._NON_NEGATIVE", lambda v: loss_and_grad(MLP, X, Y, None, v), "lam", -1.0,
         "lambda: must be finite and >= 0, got -1.0"),
    _row("proto_loss_form", "nn._PROTO_FORM", lambda v: loss_and_grad(MLP, X, Y, None, 1.0, v), "proto_form", "cubed",
         "proto_loss_form: must be one of ('squared', 'unsquared'), got 'cubed'"),
    _row("learning_rate", "nn._POSITIVE", lambda v: finite_diff_gradient(lambda p: 0.0, MLP, v), "eps", math.inf,
         "learning_rate: must be finite and > 0, got inf"),
    _row("learning_rate", "nn._POSITIVE", lambda v: finite_diff_gradient(lambda p: 0.0, MLP, v), "eps", math.nan,
         "learning_rate: must be finite and > 0, got nan"),
    _row("learning_rate", "nn._POSITIVE", lambda v: finite_diff_gradient(lambda p: 0.0, MLP, v), "eps", 0.0,
         "learning_rate: must be finite and > 0, got 0.0"),
    _row("agg_denominator", "prototypes._DENOMINATOR", lambda v: aggregate_global_prototypes([], denominator=v),
         "denominator", "x", "agg_denominator: must be one of ('contributors', 'all_clients'), got 'x'"),
    _row("eval_inference", "evaluation._EVAL_MODE",
         lambda v: evaluate_accuracy(MLP, None, Dataset(X, Y, 3), v), "mode", "x",
         "eval_inference: must be one of ('softmax', 'prototype', 'both'), got 'x'"),
]


# A value of the wrong type for each shared rule: a float or bool count, a
# string or bool number, a choice that is not a string, a flag that is a
# string, a path that is None. The type step comes first, so its text is the
# one both sides give. chunk has no config field; it reads the rule
# batch_size reads.
WRONG_TYPES = [
    _row("num_clients", "data._COUNT", lambda v: dirichlet_partition([0, 1], v, 0.5, seed=0), "num_clients", 2.5,
         "num_clients: must be an integer, got 2.5"),
    _row("dirichlet_alpha", "data._POSITIVE", _partition, "alpha", "0.5",
         "dirichlet_alpha: must be a number, got '0.5'"),
    _row("synth_classes", "data._CLASS_COUNT", lambda v: synthetic_blobs(v, 3, 2, 0.1, seed=0), "num_classes", 2.0,
         "synth_classes: must be an integer, got 2.0"),
    _row("synth_dim", "data._COUNT", lambda v: synthetic_blobs(2, v, 2, 0.1, seed=0), "dim", 8.0,
         "synth_dim: must be an integer, got 8.0"),
    _row("synth_per_class", "data._COUNT", lambda v: synthetic_blobs(2, 3, v, 0.1, seed=0), "per_class", True,
         "synth_per_class: must be an integer, got True"),
    _row("synth_spread", "data._NON_NEGATIVE", lambda v: synthetic_blobs(2, 3, 2, v, seed=0), "spread", True,
         "synth_spread: must be a number, got True"),
    _row("data_dir", "data._DIRECTORY", lambda v: load_idx_dataset(v, "mnist", "train"), "data_dir", None,
         "data_dir: must be a path, got None"),
    _row("learning_rate", "nn._POSITIVE", lambda v: OptimizerState.zeros(MLP, v, 0.5), "learning_rate", "0.1",
         "learning_rate: must be a number, got '0.1'"),
    _row("momentum", "nn._MOMENTUM", lambda v: OptimizerState.zeros(MLP, 0.1, v), "momentum", False,
         "momentum: must be a number, got False"),
    _row("lam", "nn._NON_NEGATIVE", lambda v: loss_and_grad(MLP, X, Y, None, v), "lam", "1",
         "lambda: must be a number, got '1'"),
    _row("proto_loss_form", "nn._PROTO_FORM", lambda v: loss_and_grad(MLP, X, Y, None, 1.0, v), "proto_form", 1,
         "proto_loss_form: must be a string, got 1"),
    _row("learning_rate", "nn._POSITIVE", lambda v: finite_diff_gradient(lambda p: 0.0, MLP, v), "eps", True,
         "learning_rate: must be a number, got True"),
    _row("agg_denominator", "prototypes._DENOMINATOR", lambda v: aggregate_global_prototypes([], denominator=v),
         "denominator", 1, "agg_denominator: must be a string, got 1"),
    _row("support_weighted_protos", "prototypes._SUPPORT_WEIGHTED",
         lambda v: aggregate_global_prototypes([], support_weighted=v), "support_weighted", "no",
         "support_weighted_protos: must be true or false, got 'no'"),
    _row("eval_inference", "evaluation._EVAL_MODE",
         lambda v: evaluate_accuracy(MLP, None, Dataset(X, Y, 3), v), "mode", 1,
         "eval_inference: must be a string, got 1"),
    _row("batch_size", "evaluation._COUNT",
         lambda v: evaluate_accuracy(MLP, None, Dataset(X, Y, 3), "softmax", chunk=v), "chunk", 2.5,
         "batch_size: must be an integer, got 2.5"),
]


def _from_json(round_index):
    return GlobalPrototypeSet.from_json(json.dumps({"round": round_index, "classes": {}}))


# Rules that no config field reads: the field is None, and the message
# names the parameter where a config's would name its field.
UNSHARED_RULES = [
    _row(None, "prototypes._ROUND_INDEX", GlobalPrototypeSet.empty, "round_index", -1,
         "round_index: must be >= 0, got -1"),
    _row(None, "prototypes._ROUND_INDEX", GlobalPrototypeSet.empty, "round_index", 2.5,
         "round_index: must be an integer, got 2.5"),
    _row(None, "prototypes._ROUND_INDEX", GlobalPrototypeSet.empty, "round_index", "x",
         "round_index: must be an integer, got 'x'"),
    _row(None, "prototypes._ROUND_INDEX", GlobalPrototypeSet.empty, "round_index", True,
         "round_index: must be an integer, got True"),
    _row(None, "prototypes._ROUND_INDEX", _from_json, "round_index", -3, "round_index: must be >= 0, got -3"),
    _row(None, "prototypes._ROUND_INDEX", lambda v: aggregate_global_prototypes([], round_index=v), "round_index", -2,
         "round_index: must be >= 0, got -2"),
]


@pytest.mark.parametrize("field,owner,call,param,value,message", SHARED_RULES + WRONG_TYPES + UNSHARED_RULES)
def test_the_function_and_the_config_refuse_a_value_with_one_text(field, owner, call, param, value, message):
    with pytest.raises(ValueError) as info:
        call(value)
    assert type(info.value) is ValueError
    assert str(info.value) == f"{param} {message.split(': ', 1)[1]}"
    if field is None:
        return
    with pytest.raises(ConfigError) as info:
        FederationConfig(**{field: value}).validate()
    assert str(info.value) == message


def test_each_shared_field_reads_its_owners_rule_object():
    # A second copy of a rule in federation would be another object.
    rules = dict(federation._RULES)
    for row in SHARED_RULES + WRONG_TYPES:
        field, owner = row.values[:2]
        assert rules[field] is attrgetter(owner)(fedpr), (field, owner)


def test_every_config_field_has_one_rule_that_checks_its_type_first():
    fields = [field for field, _ in federation._RULES]
    assert len(fields) == len(set(fields))
    assert set(fields) == {f.name for f in dataclasses.fields(FederationConfig)}
    type_steps = (data._INTEGER, data._NUMBER, data._BOOL, data._TEXT, data._PATH)
    for field, rule in federation._RULES:
        assert any(rule[0] is step for step in type_steps), field
