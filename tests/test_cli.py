"""End-to-end command-line runs over real files."""

import json
import math

import pytest

from liftedrbm import tree as tree_module
from liftedrbm.cli import main
from liftedrbm.data import parse_atom_text, parse_facts, parse_modes
from liftedrbm.model import load_model
from liftedrbm.network import lrbm_inference, paths_to_lrbm
from liftedrbm.tree import LeafNode, LeafParams, RelationalRegressionTree, make_head

from helpers import BOOST_FIXTURE, left_sum, recording_pool, serialize_facts
from synthetic_domain import MODES_TEXT, generate_movie_domain


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    kb, examples, _ = generate_movie_domain(seed=3, n_pairs=200)
    (root / "facts.txt").write_text(serialize_facts(kb))
    (root / "modes.txt").write_text(MODES_TEXT)
    (root / "pos.txt").write_text(
        "".join(f"{a}.\n" for a in examples.positives)
    )
    (root / "neg.txt").write_text(
        "".join(f"{a}.\n" for a in examples.negatives)
    )
    (root / "queries.txt").write_text(
        "".join(f"{a}.\n" for a in examples.positives[:5] + examples.negatives[:5])
    )
    return root


def _common(data_dir):
    return [
        "--facts", str(data_dir / "facts.txt"),
        "--modes", str(data_dir / "modes.txt"),
        "--pos", str(data_dir / "pos.txt"),
        "--neg", str(data_dir / "neg.txt"),
    ]


@pytest.fixture(scope="module")
def trained_model_path(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_model") / "model.json"
    code = main(
        ["train", *_common(data_dir), "--trees", "4", "--out", str(out)]
    )
    assert code == 0
    return out


class TestTrain:
    def test_writes_a_model_and_reports_progress(self, data_dir, tmp_path, capsys):
        out = tmp_path / "model.json"
        code = main(["train", *_common(data_dir), "--trees", "2", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert out.exists()
        assert "tree 1/2" in captured.out and "tree 2/2" in captured.out
        payload = json.loads(out.read_text())
        assert len(payload["trees"]) == 2

    def test_zero_trees_is_a_valid_model(self, data_dir, tmp_path):
        out = tmp_path / "empty.json"
        assert main(["train", *_common(data_dir), "--trees", "0", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["trees"] == []

    def test_negatives_sampled_when_not_supplied(self, data_dir, tmp_path, capsys):
        out = tmp_path / "model.json"
        argv = [
            "train",
            "--facts", str(data_dir / "facts.txt"),
            "--modes", str(data_dir / "modes.txt"),
            "--pos", str(data_dir / "pos.txt"),
            "--neg-ratio", "2",
            "--trees", "1",
            "--out", str(out),
        ]
        assert main(argv) == 0
        message = capsys.readouterr().out
        n_pos = sum(1 for _ in (data_dir / "pos.txt").read_text().splitlines())
        assert f"{n_pos} positive / {2 * n_pos} negative" in message

    def test_missing_file_is_a_usage_error(self, data_dir, tmp_path):
        argv = [
            "train",
            "--facts", str(data_dir / "nope.txt"),
            "--modes", str(data_dir / "modes.txt"),
            "--pos", str(data_dir / "pos.txt"),
            "--out", str(tmp_path / "m.json"),
        ]
        assert main(argv) == 1

    def test_non_finite_learning_rate_is_a_usage_error(self, data_dir, tmp_path):
        out = tmp_path / "m.json"
        assert main(["train", *_common(data_dir), "--lr", "nan", "--out", str(out)]) == 1
        assert not out.exists()

    def test_divergent_learning_rate_still_writes_finite_leaves(self, data_dir, tmp_path):
        # At this rate a leaf fit's first cycle overshoots to non-finite
        # parameters; a model holding them would be refused by predict.
        out = tmp_path / "m.json"
        assert main(["train", *_common(data_dir), "--trees", "2", "--lr", "1e308",
                     "--out", str(out)]) == 0
        trees = json.loads(out.read_text())["trees"]
        leaves = [node["leaf"] for tree in trees for node in _leaves(tree)]
        assert leaves and all(math.isfinite(v) for leaf in leaves for v in leaf)
        assert main(["predict", "--model", str(out), "--facts", str(data_dir / "facts.txt"),
                     "--queries", str(data_dir / "queries.txt"),
                     "--out", str(tmp_path / "s.tsv")]) == 0

    def test_overflowing_squared_error_still_trains(self, data_dir, tmp_path):
        # At this rate a leaf fit's first cycle moves the leaf value to about
        # 1e100, whose squared error is past the float range: a rising cycle,
        # so every fit keeps its all-zero start.
        out = tmp_path / "m.json"
        assert main(["train", *_common(data_dir), "--trees", "2", "--lr", "1e100",
                     "--out", str(out)]) == 0
        trees = json.loads(out.read_text())["trees"]
        leaves = [node["leaf"] for tree in trees for node in _leaves(tree)]
        assert leaves and all(leaf == [0.0] * 5 for leaf in leaves)

    def test_non_finite_leaf_is_refused_and_named(self, data_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            tree_module, "coordinate_descent", lambda mean, **_: LeafParams(math.nan)
        )
        out = tmp_path / "m.json"
        assert main(["train", *_common(data_dir), "--trees", "1", "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: tree 1 leaf ") and "non-finite parameters" in err

    def test_infinite_neg_ratio_is_a_usage_error(self, data_dir, tmp_path, capsys):
        argv = [
            "train",
            "--facts", str(data_dir / "facts.txt"),
            "--modes", str(data_dir / "modes.txt"),
            "--pos", str(data_dir / "pos.txt"),
            "--neg-ratio", "inf",
            "--out", str(tmp_path / "m.json"),
        ]
        assert main(argv) == 1
        assert "ratio" in capsys.readouterr().err

    def test_overflowing_neg_ratio_uses_every_grounding(self, data_dir, tmp_path, capsys):
        # 1e308 negatives for each of two positives overflows a float to inf
        pos = tmp_path / "pos.txt"
        pos.write_text("".join((data_dir / "pos.txt").read_text().splitlines(True)[:2]))
        argv = [
            "train",
            "--facts", str(data_dir / "facts.txt"),
            "--modes", str(data_dir / "modes.txt"),
            "--pos", str(pos),
            "--neg-ratio", "1e308",
            "--trees", "1",
            "--out", str(tmp_path / "m.json"),
        ]
        with pytest.warns(UserWarning, match="groundings are available"):
            assert main(argv) == 0
        kb = parse_facts((data_dir / "facts.txt").read_text(), parse_modes(MODES_TEXT))
        n_person = len(kb.universe("person"))
        assert f"2 positive / {n_person ** 2 - 2} negative" in capsys.readouterr().out

    def test_malformed_facts_are_a_data_error(self, data_dir, tmp_path):
        bad = tmp_path / "bad_facts.txt"
        bad.write_text("actedin(p1 m1).\n")
        argv = [
            "train",
            "--facts", str(bad),
            "--modes", str(data_dir / "modes.txt"),
            "--pos", str(data_dir / "pos.txt"),
            "--neg", str(data_dir / "neg.txt"),
            "--out", str(tmp_path / "m.json"),
        ]
        assert main(argv) == 2

    @pytest.mark.parametrize("command", ["train", "eval", "explain"])
    def test_example_with_both_labels_is_a_data_error(
        self, command, data_dir, trained_model_path, tmp_path, capsys
    ):
        positive = (data_dir / "pos.txt").read_text().splitlines()[0]
        negatives = tmp_path / "neg.txt"
        negatives.write_text((data_dir / "neg.txt").read_text() + positive + "\n")
        examples = [
            "--facts", str(data_dir / "facts.txt"),
            "--pos", str(data_dir / "pos.txt"),
            "--neg", str(negatives),
        ]
        modes = ["--modes", str(data_dir / "modes.txt")]
        argv = {
            "train": ["train", *modes, *examples, "--trees", "1",
                      "--out", str(tmp_path / "m.json")],
            "eval": ["eval", *modes, *examples, "--trees", "1", "--folds", "2",
                     "--out", str(tmp_path / "r.json")],
            "explain": ["explain", "--model", str(trained_model_path), "--mode", "distill",
                        "--depth", "1", *examples, "--out", str(tmp_path / "net")],
        }[command]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("data error: examples appear with both labels")

    @pytest.mark.parametrize("command", ["train", "eval", "explain"])
    def test_no_examples_at_all_is_a_data_error(
        self, command, data_dir, trained_model_path, tmp_path, capsys
    ):
        # Given its target (a model's, in explain), each command finds no
        # example, read or sampled.
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        examples = ["--facts", str(data_dir / "facts.txt"), "--pos", str(empty)]
        examples += ["--neg", str(empty)]
        modes = ["--modes", str(data_dir / "modes.txt"), "--target", "collab"]
        argv = {
            "train": ["train", *modes, *examples, "--trees", "1",
                      "--out", str(tmp_path / "m.json")],
            "eval": ["eval", *modes, *examples, "--trees", "1", "--folds", "2",
                     "--out", str(tmp_path / "r.json")],
            "explain": ["explain", "--model", str(trained_model_path), "--mode", "distill",
                        "--depth", "1", *examples, "--out", str(tmp_path / "net")],
        }[command]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "data error: no examples: the positive and negative examples files are both empty\n"
        )
        assert not any(tmp_path.glob("m.json")) and not any(tmp_path.glob("net*"))


class TestPredict:
    def test_scores_every_query(self, data_dir, trained_model_path, tmp_path):
        out = tmp_path / "scores.tsv"
        argv = [
            "predict",
            "--model", str(trained_model_path),
            "--facts", str(data_dir / "facts.txt"),
            "--queries", str(data_dir / "queries.txt"),
            "--out", str(out),
        ]
        assert main(argv) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 10
        for line in lines:
            name, prob, psi = line.split("\t")
            assert name.startswith("collab(")
            assert 0.0 < float(prob) < 1.0
            float(psi)

    def test_verbose_appends_per_tree_values(self, data_dir, trained_model_path, tmp_path):
        out = tmp_path / "scores.tsv"
        argv = [
            "predict",
            "--model", str(trained_model_path),
            "--facts", str(data_dir / "facts.txt"),
            "--queries", str(data_dir / "queries.txt"),
            "--out", str(out),
            "--verbose",
        ]
        assert main(argv) == 0
        first = out.read_text().splitlines()[0].split("\t")
        assert len(first) == 4
        per_tree = [float(v) for v in first[3].split(",")]
        assert len(per_tree) == 4  # one value per trained tree
        assert sum(per_tree) == pytest.approx(float(first[2]), abs=1e-12)

    def test_verbose_per_tree_values_are_the_network_activations(
        self, data_dir, trained_model_path, tmp_path
    ):
        # Each tree's column entry is bit for bit the value of the one hidden
        # node the path network activates for that tree.
        out = tmp_path / "scores.tsv"
        argv = [
            "predict",
            "--model", str(trained_model_path),
            "--facts", str(data_dir / "facts.txt"),
            "--queries", str(data_dir / "queries.txt"),
            "--out", str(out),
            "--verbose",
        ]
        assert main(argv) == 0
        model = load_model(trained_model_path)
        kb = parse_facts((data_dir / "facts.txt").read_text(), model.modes)
        net = paths_to_lrbm(model)
        lines = out.read_text().splitlines()
        assert len(lines) == 10
        for line in lines:
            text, _, _, column = line.split("\t")
            query = parse_atom_text(text, {model.target.name: model.target}, require_ground=True)
            fired = [net.hidden[index] for index in lrbm_inference(net, query, kb).activated]
            assert [node.source[0] for node in fired] == list(range(len(model.trees)))
            assert column.split(",") == [repr(node.params.value()) for node in fired]

    def test_empty_query_file_succeeds_with_empty_output(
        self, data_dir, trained_model_path, tmp_path
    ):
        empty = tmp_path / "queries.txt"
        empty.write_text("")
        out = tmp_path / "scores.tsv"
        argv = [
            "predict",
            "--model", str(trained_model_path),
            "--facts", str(data_dir / "facts.txt"),
            "--queries", str(empty),
            "--out", str(out),
        ]
        assert main(argv) == 0
        assert out.read_text() == ""

    def test_unknown_constant_reports_line_and_exits_nonzero(
        self, data_dir, trained_model_path, tmp_path, capsys
    ):
        queries = tmp_path / "queries.txt"
        queries.write_text("collab(p0, p1).\ncollab(p0, nobody).\n")
        out = tmp_path / "scores.tsv"
        argv = [
            "predict",
            "--model", str(trained_model_path),
            "--facts", str(data_dir / "facts.txt"),
            "--queries", str(queries),
            "--out", str(out),
        ]
        assert main(argv) == 2
        assert len(out.read_text().splitlines()) == 1  # the good line still scored
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("query, message", [
        ("actedin(p1, m1).", "line 1: expected a collab/2 atom, got actedin(p1, m1)"),
        ("collab(p1 p2).", "line 1: malformed argument 'p1 p2'"),
    ])
    def test_parse_error_names_its_line_once(
        self, query, message, data_dir, trained_model_path, tmp_path, capsys
    ):
        queries = tmp_path / "queries.txt"
        queries.write_text(query + "\n")
        argv = [
            "predict",
            "--model", str(trained_model_path),
            "--facts", str(data_dir / "facts.txt"),
            "--queries", str(queries),
            "--out", str(tmp_path / "scores.tsv"),
        ]
        assert main(argv) == 2
        assert capsys.readouterr().err == message + "\n"

    def test_byte_identical_across_runs(self, data_dir, trained_model_path, tmp_path):
        outs = []
        for name in ("a.tsv", "b.tsv"):
            out = tmp_path / name
            argv = [
                "predict",
                "--model", str(trained_model_path),
                "--facts", str(data_dir / "facts.txt"),
                "--queries", str(data_dir / "queries.txt"),
                "--out", str(out),
            ]
            assert main(argv) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def _drop_true_branch(doc):
    del doc["trees"][0]["true"]
    return doc


def _drop_target(doc):
    del doc["target"]
    return doc


def _top_level_list(doc):
    return [doc]


def _set(value, *path):
    """The mutation that sets ``doc[path[0]]...[path[-1]]`` to ``value``."""
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return doc

    return mutate


def _leaf_parameters(*values):
    """The mutation that sets the first parameters of the first tree's
    all-true leaf to ``values``."""
    def mutate(doc):
        node = doc["trees"][0]
        while "leaf" not in node:
            node = node["true"]
        node["leaf"][:len(values)] = values
        return doc

    return mutate


# Training settings a fit cannot use: counts must be ints and rates real
# numbers, not bools.
BAD_FIT_CONFIGS = {
    "fractional cd_max_iters": _set(1.5, "config", "cd_max_iters"),
    "string cd_max_iters": _set("5", "config", "cd_max_iters"),
    "negative cd_max_iters": _set(-1, "config", "cd_max_iters"),
    "boolean max_leaves": _set(True, "config", "max_leaves"),
    "boolean learning_rate": _set(True, "config", "learning_rate"),
    "string cd_tolerance": _set("x", "config", "cd_tolerance"),
    "negative cd_tolerance": _set(-1e-8, "config", "cd_tolerance"),
}

# Each turns a valid model document into one that breaks the schema.
# Fields the schema makes JSON arrays, each with another value that Python
# would iterate as one: each is refused, naming the field.  An empty array of
# trees is what ``train --trees 0`` writes, and stays valid.
ARRAY_MUTATIONS = {
    "object as trees": (_set({}, "trees"), "trees"),
    "string as trees": (_set("", "trees"), "trees"),
    "string as a mode's chaining": (
        _set("-", "modes", "person", "chaining"), "modes.person.chaining",
    ),
    "string as a mode's arg_types": (
        _set("person", "modes", "person", "arg_types"), "modes.person.arg_types",
    ),
    "string as the target's arg_types": (
        _set("person", "target", "arg_types"), "target.arg_types",
    ),
}


def _drop(*path):
    """The mutation that deletes ``doc[path[0]]...[path[-1]]``."""
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
        return doc

    return mutate


_LEAF = {"leaf": [0.0, 0.0, 0.0, 0.0, 0.0]}

# A key the loader does not read, at each kind of object, and a config
# without a field training needs: each is refused with this message.  A leaf
# holds only "leaf", a test node exactly "test", "true" and "false".
KEY_MUTATIONS = {
    "unknown top-level key": (_set(1, "bogus"), "malformed model document: unknown field bogus"),
    "unknown target key": (
        _set("P3", "target", "head_var"), "malformed model document: unknown field target.head_var",
    ),
    "unknown mode entry key": (
        _set("+", "modes", "person", "flags"),
        "malformed model document: unknown field modes.person.flags",
    ),
    "unknown key in a root test": (
        _set(_LEAF, "trees", 1, "flase"), "malformed model document: unknown field trees[1].flase",
    ),
    "unknown key in an inner test": (
        _set(_LEAF, "trees", 0, "true", "flase"),
        "malformed model document: unknown field trees[0].true.flase",
    ),
    "unknown key in a leaf": (
        _set(0.5, "trees", 0, "false", "value"),
        "malformed model document: unknown field trees[0].false.value",
    ),
    "config without a field": (
        _drop("config", "cd_max_iters"), "model document lacks field config.cd_max_iters",
    ),
    "empty config": (_set({}, "config"), "model document lacks field config.n_trees"),
}


MODEL_MUTATIONS = {
    **BAD_FIT_CONFIGS,
    **{name: mutate for name, (mutate, _) in ARRAY_MUTATIONS.items()},
    **{name: mutate for name, (mutate, _) in KEY_MUTATIONS.items()},
    "boolean psi_clamp": _set(True, "config", "psi_clamp"),
    "missing true branch": _drop_true_branch,
    "unknown config key": _set(1, "config", "bogus"),
    "missing target": _drop_target,
    "non-string test": _set(7, "trees", 0, "test"),
    "top-level list": _top_level_list,
    "non-finite psi0": _set(float("nan"), "psi0"),
    "non-finite leaf parameter": _leaf_parameters(float("nan")),
    # finite parameters whose value, softplus(inf) - softplus(inf), is NaN
    "non-finite leaf value": _leaf_parameters(1e308, 1e308, 1e308, 0.0, 0.0),
    # numbers must be JSON numbers, not strings or booleans
    "string psi0": _set("0.5", "psi0"),
    "boolean psi0": _set(True, "psi0"),
    "string leaf parameter": _leaf_parameters("1.5"),
    "boolean leaf parameter": _leaf_parameters(True),
    "integer psi0 beyond float range": _set(10**400, "psi0"),
    "integer learning_rate beyond float range": _set(10**400, "config", "learning_rate"),
    "integer psi_clamp beyond float range": _set(10**400, "config", "psi_clamp"),
    "integer cd_tolerance beyond float range": _set(10**400, "config", "cd_tolerance"),
    "boolean format_version": _set(True, "format_version"),
    "float format_version": _set(1.0, "format_version"),
    # head variables must be distinct variables of the file grammar
    "repeated head_vars": _set(["P1", "P1"], "target", "head_vars"),
    "constant in head_vars": _set(["p1", "P2"], "target", "head_vars"),
    # a path may not use one variable name at two types: here the test's P1
    # is a movie and the head's P1 a person
    "variable at two types on a path": _set("ingenre(P1, G1)", "trees", 0, "test"),
    # a node is a leaf or a test, never both
    "leaf beside a test": _set([0.1, 0, 0, 0, 0], "trees", 0, "leaf"),
}


def _add_mode(name):
    """The mutation that declares mode ``name`` as ``ingenre`` is declared."""
    def mutate(doc):
        doc["modes"][name] = dict(doc["modes"]["ingenre"])
        return doc

    return mutate


# Mode declarations, and a target, that a modes file could not declare: a
# predicate name must start lowercase, a type is a token of letters, digits
# and underscores, and a flag is '+' or '-'.
MODE_MUTATIONS = {
    **{
        f"{label} as a mode type": _set(value, "modes", "ingenre", "arg_types", 1)
        for label, value in (
            ("object", {}), ("list", []), ("true", True), ("integer", 1), ("float", 2.5),
            ("null", None), ("spaced token", "gen re"),
        )
    },
    "uppercase mode name": _add_mode("Ingenre"),
    "star as a chaining flag": _set("*", "modes", "ingenre", "chaining", 0),
    "object as a target type": _set({}, "target", "arg_types", 0),
    "null as a target type": _set(None, "target", "arg_types", 1),
}


def _mutated_model(name, tmp_path):
    """The path of the benchmark's model file after mutation ``name``."""
    doc = MODEL_MUTATIONS[name](json.loads(BOOST_FIXTURE.read_text(encoding="utf-8")))
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(doc), encoding="utf-8")
    return model_path


def _nested_tests_text(depth=1500):
    """The benchmark's model with one tree of ``depth`` nested tests."""
    doc = json.loads(BOOST_FIXTURE.read_text(encoding="utf-8"))
    doc["trees"] = ["TREE"]
    leaf = '{"leaf": [0.0, 0.0, 0.0, 0.0, 0.0]}'
    test = '{"test": "actedin(P2, M1)", "false": ' + leaf + ', "true": '
    return json.dumps(doc).replace('"TREE"', test * depth + leaf + "}" * depth)


# Model texts nested deeper than the interpreter's recursion limit, written
# as text because json.dumps cannot encode them.
DEEP_MODELS = {
    "tree of 1500 nested tests": _nested_tests_text,
    "200000 open brackets": lambda: "[" * 200_000,
}


class TestModelLoader:
    def test_malformed_test_atom_has_no_line_number(self, data_dir, tmp_path, capsys):
        doc = json.loads(BOOST_FIXTURE.read_text(encoding="utf-8"))
        doc["trees"][0]["test"] = "actedin(P1 M1)"
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(doc), encoding="utf-8")
        code = main([
            "predict", "--model", str(model_path), "--facts", str(data_dir / "facts.txt"),
            "--queries", str(data_dir / "queries.txt"),
        ])
        assert code == 2
        assert capsys.readouterr().err == "data error: malformed argument 'P1 M1'\n"

    @pytest.mark.parametrize("name", sorted(MODEL_MUTATIONS))
    def test_schema_violation_is_a_data_error(self, name, data_dir, tmp_path, capsys):
        model_path = _mutated_model(name, tmp_path)
        code = main([
            "predict", "--model", str(model_path), "--facts", str(data_dir / "facts.txt"),
            "--queries", str(data_dir / "queries.txt"),
        ])
        assert code == 2
        assert "internal error" not in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(MODEL_MUTATIONS))
    def test_schema_violation_is_refused_before_any_query(self, name, tmp_path, capsys):
        # explain routes no query, so only the loader can refuse the model
        model_path = _mutated_model(name, tmp_path)
        assert main(["explain", "--model", str(model_path), "--out", str(tmp_path / "net")]) == 2
        assert capsys.readouterr().err.startswith("data error: ")

    @pytest.mark.parametrize("name", sorted(ARRAY_MUTATIONS))
    def test_a_field_that_is_not_an_array_is_named(self, name, tmp_path, capsys):
        model_path = _mutated_model(name, tmp_path)
        _, field = ARRAY_MUTATIONS[name]
        assert main(["explain", "--model", str(model_path), "--out", str(tmp_path / "net")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: malformed model document: {field} must be a JSON array")

    @pytest.mark.parametrize("name", sorted(KEY_MUTATIONS))
    def test_a_key_the_loader_does_not_read_is_named_by_its_path(self, name, tmp_path, capsys):
        model_path = _mutated_model(name, tmp_path)
        _, message = KEY_MUTATIONS[name]
        assert main(["explain", "--model", str(model_path), "--out", str(tmp_path / "net")]) == 2
        assert capsys.readouterr().err == f"data error: {message}\n"

    @pytest.mark.parametrize("name, path", [
        ("psi0", ("psi0",)), ("target.head_vars", ("target", "head_vars")),
        ("modes.person.chaining", ("modes", "person", "chaining")),
        ("trees[0].true.false", ("trees", 0, "true", "false")),
        ("trees[0].false.test", ("trees", 0, "false", "leaf")),  # then a test node
        ("config.psi_clamp", ("config", "psi_clamp")),
    ])
    def test_a_missing_key_is_named_by_its_path(self, name, path, tmp_path, capsys):
        doc = _drop(*path)(json.loads(BOOST_FIXTURE.read_text(encoding="utf-8")))
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["explain", "--model", str(model_path), "--out", str(tmp_path / "net")]) == 2
        assert capsys.readouterr().err == f"data error: model document lacks field {name}\n"

    @pytest.mark.parametrize("path, mutate", [
        ("config", _set([], "config")), ("modes.person", _set("person", "modes", "person")),
        ("target", _set(None, "target")), ("trees[2].true", _set(7, "trees", 2, "true")),
    ])
    def test_a_field_that_is_not_an_object_is_named(self, path, mutate, tmp_path, capsys):
        doc = mutate(json.loads(BOOST_FIXTURE.read_text(encoding="utf-8")))
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["explain", "--model", str(model_path), "--out", str(tmp_path / "net")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: malformed model document: {path} must be a JSON object")

    @pytest.mark.parametrize("command", ["predict", "explain", "explain --mode distill"])
    @pytest.mark.parametrize("name", sorted(MODE_MUTATIONS))
    def test_mode_declarations_follow_the_modes_file_grammar(
        self, name, command, data_dir, tmp_path, capsys
    ):
        doc = MODE_MUTATIONS[name](json.loads(BOOST_FIXTURE.read_text(encoding="utf-8")))
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(doc), encoding="utf-8")
        facts, out = ["--facts", str(data_dir / "facts.txt")], ["--out", str(tmp_path / "net")]
        argv = {
            "predict": ["predict", *facts, "--queries", str(data_dir / "queries.txt")],
            "explain": ["explain", *out],
            "explain --mode distill": [
                "explain", "--mode", "distill", "--depth", "1", *facts, *out,
                "--pos", str(data_dir / "pos.txt"), "--neg", str(data_dir / "neg.txt"),
            ],
        }[command]
        assert main([*argv, "--model", str(model_path)]) == 2
        assert capsys.readouterr().err.startswith("data error: malformed model document: ")

    def test_a_target_its_mode_declares_otherwise_is_refused(self, tmp_path, capsys):
        # tree tests are parsed with the modes' collab, the model scores the target's
        doc = json.loads(BOOST_FIXTURE.read_text(encoding="utf-8"))
        doc["modes"]["collab"]["arg_types"] = ["movie", "movie"]
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["explain", "--model", str(model_path), "--out", str(tmp_path / "net")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: malformed model document: ")
        assert "collab(person, person)" in err and "collab(movie, movie)" in err

    def test_a_target_without_a_mode_stays_valid(self, tmp_path):
        doc = json.loads(BOOST_FIXTURE.read_text(encoding="utf-8"))
        del doc["modes"]["collab"]
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(doc), encoding="utf-8")
        nets = []
        for path, out in ((BOOST_FIXTURE, tmp_path / "fixture"), (model_path, tmp_path / "net")):
            assert main(["explain", "--model", str(path), "--out", str(out)]) == 0
            nets.append(out.with_suffix(".json").read_text(encoding="utf-8"))
        assert nets[0] == nets[1]

    @pytest.mark.parametrize("name", sorted(BAD_FIT_CONFIGS))
    def test_bad_fit_config_fails_distillation_as_a_data_error(
        self, name, data_dir, tmp_path, capsys
    ):
        # distillation fits a tree with the model's settings, so a setting
        # that cannot fit must be refused when the model loads
        doc = BAD_FIT_CONFIGS[name](json.loads(BOOST_FIXTURE.read_text(encoding="utf-8")))
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(doc), encoding="utf-8")
        code = main([
            "explain", "--model", str(model_path), "--mode", "distill", "--depth", "1",
            "--facts", str(data_dir / "facts.txt"), "--pos", str(data_dir / "pos.txt"),
            "--neg", str(data_dir / "neg.txt"), "--out", str(tmp_path / "net"),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("data error: malformed model document: ")

    def test_distilling_potentials_whose_squares_overflow(self, data_dir, tmp_path):
        # A leaf parameter of 1e200 is finite, so the model loads; the
        # distilled tree's targets are then about 1e200, and their squared
        # errors are past the float range.
        doc = _leaf_parameters(1e200)(json.loads(BOOST_FIXTURE.read_text(encoding="utf-8")))
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(doc), encoding="utf-8")
        code = main([
            "explain", "--model", str(model_path), "--mode", "distill", "--depth", "3",
            "--facts", str(data_dir / "facts.txt"), "--pos", str(data_dir / "pos.txt"),
            "--neg", str(data_dir / "neg.txt"), "--out", str(tmp_path / "net"),
        ])
        assert code == 0
        assert (tmp_path / "net.json").exists()

    def test_distilling_potentials_past_the_float_range_is_refused(
        self, data_dir, tmp_path, capsys
    ):
        # Each leaf's value is 1.7e308, so twenty trees sum past the float
        # range: no example has a finite potential to distill.
        doc = json.loads(BOOST_FIXTURE.read_text(encoding="utf-8"))
        for root in doc["trees"]:
            for leaf in _leaves(root):
                leaf["leaf"] = [1.7e308, 0.0, 0.0, 0.0, 0.0]
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(doc), encoding="utf-8")
        first = (data_dir / "pos.txt").read_text().splitlines()[0].rstrip(".")
        code = main([
            "explain", "--model", str(model_path), "--mode", "distill", "--depth", "3",
            "--facts", str(data_dir / "facts.txt"), "--pos", str(data_dir / "pos.txt"),
            "--neg", str(data_dir / "neg.txt"), "--out", str(tmp_path / "net"),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: example {first} has potential inf; distillation needs finite ones\n"
        )
        assert not (tmp_path / "net.tree.txt").exists()

    @pytest.mark.parametrize("name", sorted(DEEP_MODELS))
    @pytest.mark.parametrize("command", ["predict", "explain"])
    def test_deeply_nested_model_is_a_data_error(
        self, command, name, data_dir, tmp_path, capsys
    ):
        model_path = tmp_path / "model.json"
        model_path.write_text(DEEP_MODELS[name](), encoding="utf-8")
        argv = {
            "predict": ["--facts", str(data_dir / "facts.txt"),
                        "--queries", str(data_dir / "queries.txt")],
            "explain": ["--out", str(tmp_path / "net")],
        }[command]
        assert main([command, "--model", str(model_path), *argv]) == 2
        assert capsys.readouterr().err.startswith("data error: ")


def _in_missing_dir(tmp, name):
    return str(tmp / "no_such_dir" / name)


# name -> (expected exit code, argv built from the data dir, a trained model
# and a scratch dir holding "latin1.txt", a file that is not UTF-8)
FILE_ERRORS = {
    "predict, missing model": (1, lambda d, m, t: [
        "predict", "--model", str(t / "nope.json"), "--facts", str(d / "facts.txt"),
        "--queries", str(d / "queries.txt"),
    ]),
    "explain, missing model": (1, lambda d, m, t: [
        "explain", "--model", str(t / "nope.json"), "--out", str(t / "net"),
    ]),
    "train, out in missing dir": (1, lambda d, m, t: [
        "train", *_common(d), "--trees", "0", "--out", _in_missing_dir(t, "m.json"),
    ]),
    "predict, out in missing dir": (1, lambda d, m, t: [
        "predict", "--model", str(m), "--facts", str(d / "facts.txt"),
        "--queries", str(d / "queries.txt"), "--out", _in_missing_dir(t, "s.tsv"),
    ]),
    "eval, out in missing dir": (1, lambda d, m, t: [
        "eval", *_common(d), "--trees", "0", "--folds", "2",
        "--out", _in_missing_dir(t, "r.json"),
    ]),
    "explain, out in missing dir": (1, lambda d, m, t: [
        "explain", "--model", str(m), "--out", _in_missing_dir(t, "net"),
    ]),
    "train, directory as facts": (1, lambda d, m, t: [
        "train", *_common(d)[2:], "--facts", str(t), "--out", str(t / "m.json"),
    ]),
    "train, non-UTF-8 facts": (2, lambda d, m, t: [
        "train", *_common(d)[2:], "--facts", str(t / "latin1.txt"), "--out", str(t / "m.json"),
    ]),
    "predict, non-UTF-8 queries": (2, lambda d, m, t: [
        "predict", "--model", str(m), "--facts", str(d / "facts.txt"),
        "--queries", str(t / "latin1.txt"),
    ]),
    "predict, non-UTF-8 model": (2, lambda d, m, t: [
        "predict", "--model", str(t / "latin1.txt"), "--facts", str(d / "facts.txt"),
        "--queries", str(d / "queries.txt"),
    ]),
}


class TestFileErrors:
    @pytest.mark.parametrize("name", sorted(FILE_ERRORS))
    def test_exit_code(self, name, data_dir, trained_model_path, tmp_path, capsys):
        expected, build = FILE_ERRORS[name]
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes("actedin(jos\u00e9, m1).\n".encode("latin-1"))
        assert main(build(data_dir, trained_model_path, tmp_path)) == expected
        err = capsys.readouterr().err
        assert "internal error" not in err
        if "non-UTF-8" in name:
            assert str(latin1) in err


READERS = {"--facts": "facts.txt", "--pos": "pos.txt", "--queries": "queries.txt"}
ALL_READERS = tuple(READERS)
EXAMPLE_READERS = ("--pos", "--queries")

# name -> (bad line, the message every command gives for it, the flags whose
# file it is bad in).  Facts define the constants and may use any declared
# predicate, so an unknown constant or a non-target predicate is bad only in
# examples and queries, and a fact's constant can only clash with the type
# an earlier fact gave it (line 1 of facts.txt is person(p0)).
BAD_LINES = {
    "malformed atom": ("collab(p0, p1", "malformed atom 'collab(p0, p1'", ALL_READERS),
    "malformed argument": ("collab(p0 p1).", "malformed argument 'p0 p1'", ALL_READERS),
    "undeclared predicate": (
        "mystery(p0, m0).", "no mode declaration for predicate mystery", ALL_READERS
    ),
    "wrong arity": ("collab(p0).", "collab expects 2 arguments, got 1", ALL_READERS),
    "variable": ("collab(p0, P1).", "expected a ground atom, found variable P1", ALL_READERS),
    "unknown constant": ("collab(p0, nobody).", "unknown constant nobody", EXAMPLE_READERS),
    "wrong-typed constant": (
        "collab(p0, m0).", "constant m0 has type movie, expected person", EXAMPLE_READERS
    ),
    "constant at two types": (
        "actedin(m0, p0).", "constant p0 used with conflicting types person and movie",
        ("--facts",),
    ),
    "declared non-target predicate": (
        "actedin(p0, m0).", "expected a collab/2 atom, got actedin(p0, m0)", EXAMPLE_READERS
    ),
}


def _commands_reading(flag, data_dir, model_path, tmp_path):
    """The argv of each command that reads ``flag``, whose file is taken
    from ``tmp_path``; every other file comes from ``data_dir``."""
    path = {name: str(data_dir / name) for name in ("neg.txt", "modes.txt", *READERS.values())}
    path[READERS[flag]] = str(tmp_path / READERS[flag])
    examples = ["--facts", path["facts.txt"], "--pos", path["pos.txt"], "--neg", path["neg.txt"]]
    model, out = ["--model", str(model_path)], ["--out", str(tmp_path / "out")]
    commands = {
        "train": ["train", *examples, "--modes", path["modes.txt"], *out],
        "eval": ["eval", *examples, "--modes", path["modes.txt"], "--folds", "2"],
        "explain": ["explain", *model, "--mode", "distill", *examples, *out],
        "predict": [
            "predict", *model, "--facts", path["facts.txt"], "--queries", path["queries.txt"], *out
        ],
    }
    return {command: argv for command, argv in commands.items() if flag in argv}


class TestOneAtomReader:
    """Facts, examples and queries share one grammar and one rule set: a bad
    line gives one message, naming its line once, and exit 2 in every
    command that reads it."""

    @pytest.mark.parametrize("name, flag", [
        (name, flag) for name, (_, _, flags) in BAD_LINES.items() for flag in flags
    ])
    def test_bad_line_is_one_data_error(
        self, name, flag, data_dir, trained_model_path, tmp_path, capsys
    ):
        line, message, _ = BAD_LINES[name]
        first, *rest = (data_dir / READERS[flag]).read_text().splitlines()
        (tmp_path / READERS[flag]).write_text("\n".join([first, line, *rest]) + "\n")
        commands = _commands_reading(flag, data_dir, trained_model_path, tmp_path)
        for command, argv in commands.items():
            assert main(argv) == 2, command
            err = capsys.readouterr().err.removeprefix("data error: ")
            assert err == f"line 2: {message}\n", command


class TestExplain:
    def test_paths_mode_emits_json_and_dot(self, trained_model_path, tmp_path, capsys):
        out = tmp_path / "net"
        argv = ["explain", "--model", str(trained_model_path), "--mode", "paths", "--out", str(out)]
        assert main(argv) == 0
        payload = json.loads((tmp_path / "net.json").read_text())
        n_leaves = sum(
            1
            for tree in json.loads(trained_model_path.read_text())["trees"]
            for _ in _leaves(tree)
        )
        assert len(payload["hidden"]) == n_leaves
        dot = (tmp_path / "net.dot").read_text()
        assert dot.startswith("digraph")
        assert str(n_leaves) in capsys.readouterr().out

    def test_paths_mode_maps_a_zero_tree_model(self, data_dir, tmp_path):
        model_path, scores = tmp_path / "empty.json", tmp_path / "scores.tsv"
        assert main(["train", *_common(data_dir), "--trees", "0", "--out", str(model_path)]) == 0
        assert main(["explain", "--model", str(model_path), "--out", str(tmp_path / "net")]) == 0
        assert json.loads((tmp_path / "net.json").read_text())["hidden"] == []
        assert main([
            "predict", "--model", str(model_path), "--facts", str(data_dir / "facts.txt"),
            "--queries", str(data_dir / "queries.txt"), "--out", str(scores),
        ]) == 0
        model = load_model(model_path)
        kb = parse_facts((data_dir / "facts.txt").read_text(), model.modes)
        net = paths_to_lrbm(model)
        lines = scores.read_text().splitlines()
        assert len(lines) == 10
        for line in lines:
            text, prob, psi = line.split("\t")
            query = parse_atom_text(text, {model.target.name: model.target}, require_ground=True)
            inferred = lrbm_inference(net, query, kb)
            assert [repr(inferred.probability), repr(inferred.psi)] == [prob, psi]

    def test_distill_mode_needs_examples(self, trained_model_path, tmp_path):
        out = tmp_path / "net"
        argv = ["explain", "--model", str(trained_model_path), "--mode", "distill", "--out", str(out)]
        assert main(argv) == 1

    def test_distill_mode_writes_tree_and_network(
        self, data_dir, trained_model_path, tmp_path
    ):
        out = tmp_path / "net"
        argv = [
            "explain",
            "--model", str(trained_model_path),
            "--mode", "distill",
            "--depth", "4",
            "--facts", str(data_dir / "facts.txt"),
            "--pos", str(data_dir / "pos.txt"),
            "--neg", str(data_dir / "neg.txt"),
            "--out", str(out),
        ]
        assert main(argv) == 0
        assert (tmp_path / "net.tree.txt").exists()
        assert (tmp_path / "net.json").exists()
        assert (tmp_path / "net.dot").exists()

    @pytest.mark.parametrize("mode", ["paths", "distill"])
    def test_a_dotted_prefix_keeps_its_dots(self, data_dir, trained_model_path, tmp_path, mode):
        # Each suffix is appended to the prefix as given, so the prefixes
        # net.a and net.b write files of their own.
        examples = [
            "--depth", "2", "--facts", str(data_dir / "facts.txt"),
            "--pos", str(data_dir / "pos.txt"), "--neg", str(data_dir / "neg.txt"),
        ] if mode == "distill" else []
        suffixes = [".json", ".dot"] + [".tree.txt"] * (mode == "distill")
        for prefix in ("net.a", "net.b"):
            argv = [
                "explain", "--model", str(trained_model_path), "--mode", mode, *examples,
                "--out", str(tmp_path / prefix),
            ]
            assert main(argv) == 0
        written = sorted(path.name for path in tmp_path.iterdir())
        assert written == sorted(p + s for p in ("net.a", "net.b") for s in suffixes)

    def test_depth_zero_fits_one_leaf_once(self, data_dir, trained_model_path, tmp_path, monkeypatch):
        # A depth-0 distillation is its root, a leaf: one coordinate_descent
        # call, at the mean of the examples' potentials, with the model's
        # settings.
        means = []
        fit = tree_module.coordinate_descent

        def counted(mean, *args, **kwargs):
            means.append(mean)
            return fit(mean, *args, **kwargs)

        monkeypatch.setattr(tree_module, "coordinate_descent", counted)
        out = tmp_path / "net"
        assert main([
            "explain", "--model", str(trained_model_path), "--mode", "distill", "--depth", "0",
            "--facts", str(data_dir / "facts.txt"), "--pos", str(data_dir / "pos.txt"),
            "--neg", str(data_dir / "neg.txt"), "--out", str(out),
        ]) == 0
        monkeypatch.undo()
        model = load_model(trained_model_path)
        kb = parse_facts((data_dir / "facts.txt").read_text(), model.modes)
        queries = [
            parse_atom_text(line.rstrip("."), {model.target.name: model.target}, require_ground=True)
            for name in ("pos.txt", "neg.txt")
            for line in (data_dir / name).read_text().splitlines()
        ]
        psis = model.psi_many(queries, kb)
        mean = left_sum(psis) / len(psis)
        assert [m.hex() for m in means] == [mean.hex()]
        params = fit(
            mean, learning_rate=model.config.learning_rate, max_iters=model.config.cd_max_iters,
            tolerance=model.config.cd_tolerance,
        )
        leaf = RelationalRegressionTree(make_head(model.target), LeafNode(params))
        assert (tmp_path / "net.tree.txt").read_text() == leaf.to_text()

    def test_negative_depth_is_named_in_the_error(
        self, data_dir, trained_model_path, tmp_path, capsys
    ):
        argv = [
            "explain",
            "--model", str(trained_model_path),
            "--mode", "distill",
            "--depth", "-1",
            "--facts", str(data_dir / "facts.txt"),
            "--pos", str(data_dir / "pos.txt"),
            "--neg", str(data_dir / "neg.txt"),
            "--out", str(tmp_path / "net"),
        ]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "depth" in err and "max_leaves" not in err


class TestEval:
    def test_writes_a_report(self, data_dir, tmp_path, capsys):
        out = tmp_path / "report.json"
        argv = [
            "eval", *_common(data_dir),
            "--trees", "1", "--folds", "3", "--seed", "5", "--out", str(out),
        ]
        assert main(argv) == 0
        payload = json.loads(out.read_text())
        assert len(payload["folds"]) == 3
        assert "mean" in capsys.readouterr().out

    def test_deterministic_under_fixed_seed(self, data_dir, tmp_path):
        reports = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            argv = [
                "eval", *_common(data_dir),
                "--trees", "1", "--folds", "2", "--seed", "9", "--out", str(out),
            ]
            assert main(argv) == 0
            payload = json.loads(out.read_text())
            del payload["total_seconds"]
            for fold in payload["folds"]:
                del fold["seconds"]
            reports.append(payload)
        assert reports[0] == reports[1]

    def test_usage_error_on_unknown_flag(self):
        assert main(["eval", "--bogus"]) == 1

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_a_usage_error(self, jobs, data_dir, monkeypatch, capsys):
        import concurrent.futures

        sizes = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool(sizes))
        argv = ["eval", *_common(data_dir), "--trees", "1", "--folds", "2", "--jobs", jobs]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: --jobs must be at least 1, got {jobs}\n"
        assert sizes == []

    def test_jobs_past_the_fold_count_start_one_worker_per_fold(
        self, data_dir, monkeypatch, capsys
    ):
        import concurrent.futures

        sizes = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool(sizes))
        argv = ["eval", *_common(data_dir), "--trees", "1", "--folds", "2", "--jobs", "8"]
        assert main(argv) == 0
        assert sizes == [2]
        out = capsys.readouterr().out
        assert out.startswith("fold 0: ") and "\nfold 1: " in out and "fold 2" not in out


def _leaves(node):
    if "leaf" in node:
        yield node
    else:
        yield from _leaves(node["true"])
        yield from _leaves(node["false"])


class TestOneSubcommandParser:
    """A call that names its subcommand builds that subcommand's parser
    alone, and prints, byte for byte, what the full parser prints."""

    @pytest.mark.parametrize("argv", [
        ["--help"],
        ["train", "--help"],
        ["predict", "--help"],
        ["explain", "--help"],
        ["eval", "--help"],
        ["frobnicate", "--out", "x"],  # an unknown command
        [],
        ["train", "--facts", "f.txt", "--modes", "m.txt"],  # required options missing
        ["eval"],
        ["predict", "--model", "m", "--facts", "f", "--queries", "q", "--bogus"],  # unknown option
        ["explain", "--model", "m", "--out", "o", "--mode", "trees"],  # an invalid choice
        ["--bogus", "train"],
    ])
    def test_outputs_are_the_full_parsers(self, argv, monkeypatch, capsys):
        import liftedrbm.cli as cli

        build, built = cli.build_parser, []

        def run():
            try:
                code = main(list(argv))
            except SystemExit as exc:  # --help
                code = ("exit", exc.code)
            out, err = capsys.readouterr()
            return code, out, err

        def recorded(commands=tuple(cli._COMMANDS)):
            built.append(list(commands))
            return build(commands)

        monkeypatch.setattr(cli, "build_parser", recorded)
        got = run()
        monkeypatch.setattr(cli, "build_parser", lambda commands=None: build())
        want = run()
        assert got == want and (got[1] or got[2])
        named = argv[:1] if argv and argv[0] in ("train", "predict", "explain", "eval") else None
        assert built == [named or ["train", "predict", "explain", "eval"]]

    def test_the_default_parser_has_every_subcommand(self):
        from liftedrbm.cli import build_parser

        (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
        assert list(sub.choices) == ["train", "predict", "explain", "eval"]
