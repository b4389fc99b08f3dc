"""End-to-end command-line runs over real files."""

import json

import pytest

from liftedrbm.cli import main
from liftedrbm.data import serialize_facts

from helpers import BOOST_FIXTURE
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


def _unknown_config_key(doc):
    doc["config"]["bogus"] = 1
    return doc


def _drop_target(doc):
    del doc["target"]
    return doc


def _numeric_test(doc):
    doc["trees"][0]["test"] = 7
    return doc


def _top_level_list(doc):
    return [doc]


def _nan_psi0(doc):
    doc["psi0"] = float("nan")
    return doc


def _nan_leaf(doc):
    node = doc["trees"][0]
    while "leaf" not in node:
        node = node["true"]
    node["leaf"][0] = float("nan")
    return doc


# Each turns a valid model document into one that breaks the schema.
MODEL_MUTATIONS = {
    "missing true branch": _drop_true_branch,
    "unknown config key": _unknown_config_key,
    "missing target": _drop_target,
    "non-string test": _numeric_test,
    "top-level list": _top_level_list,
    "non-finite psi0": _nan_psi0,
    "non-finite leaf parameter": _nan_leaf,
}


class TestModelLoader:
    @pytest.mark.parametrize("name", sorted(MODEL_MUTATIONS))
    def test_schema_violation_is_a_data_error(self, name, data_dir, tmp_path, capsys):
        doc = MODEL_MUTATIONS[name](json.loads(BOOST_FIXTURE.read_text(encoding="utf-8")))
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(doc), encoding="utf-8")
        code = main([
            "predict", "--model", str(model_path), "--facts", str(data_dir / "facts.txt"),
            "--queries", str(data_dir / "queries.txt"),
        ])
        assert code in (1, 2)
        assert "internal error" not in capsys.readouterr().err


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


def _leaves(node):
    if "leaf" in node:
        yield node
    else:
        yield from _leaves(node["true"])
        yield from _leaves(node["false"])
