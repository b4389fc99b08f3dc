"""Train the benchmark's two fixture models once and record their sha256.

    python3 bench/make_fixtures.py

Writes ``bench/fixtures/boost_model.json`` (the ``boost`` domain's fold-0
training set, the model ``distill`` reads), ``bench/fixtures/score_model.json``
(every labelled pair of the ``score`` domain) and ``bench/fixtures/SHA256SUMS``,
which ``bench/run.py`` checks at load.  Both use the library's ``train`` with
the default configuration.  Rerun only on purpose: the benchmark is meant to
read the same fixtures on every commit.
"""

from __future__ import annotations

import hashlib

import run


def main() -> None:
    program = run.import_program()
    run.FIXTURES.mkdir(exist_ok=True)
    boost_kb, boost_train, _ = run.boost_domain(program)
    score_kb, score_examples = run.score_domain(program)
    lines = []
    for name, kb, examples in (
        (run.BOOST_FIXTURE, boost_kb, boost_train),
        (run.SCORE_FIXTURE, score_kb, score_examples),
    ):
        model = program.model.train(kb, examples, program.model.TrainConfig())
        path = run.FIXTURES / name
        program.model.save_model(model, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        lines.append(f"{digest}  {name}\n")
        print(f"{name}: {len(examples)} examples, {len(model.trees)} trees, sha256 {digest}")
    (run.FIXTURES / "SHA256SUMS").write_text("".join(lines), encoding="utf-8")


if __name__ == "__main__":
    main()
