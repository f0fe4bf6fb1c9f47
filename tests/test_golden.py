"""Every CLI output of the fixed corpus against the committed golden file.

``tests/golden/corpus.jsonl`` holds one line for each call of
``tests/cli_corpus.py`` outside ``verify``, each with and without
``--pretty``: its argv and the sha256 of its (exit code, stdout,
stderr).  The test runs those calls in process and fails on the first
whose outputs differ, with that call's command line and its new outputs.
A change that alters outputs on purpose rewrites the file with

    PYTHONHASHSEED=0 python tests/cli_corpus.py src --update

and lists the changed calls.  The corpus's ``verify`` calls take about
15 s and ``verify --suite all --seed 42`` about 5 s, too long for tier-1,
so their names, ``ok`` and ``trials`` stay a manual comparison of two
trees."""

import json
import shlex

from wittcycles import cli

from cli_corpus import GOLDEN, golden_calls, outcome_sha256, run


def test_corpus_outputs_match_the_golden_file():
    with open(GOLDEN) as lines:
        golden = [json.loads(line) for line in lines]
    # the corpus and the file list the same calls, in the same order
    assert [entry["argv"] for entry in golden] == golden_calls()
    for entry in golden:
        code, out, err = outcome = run(cli.main, entry["argv"])
        assert outcome_sha256(outcome) == entry["sha256"], (
            "first changed call: wittcycles %s\nexit %r\nstdout %s\nstderr %s"
            % (shlex.join(entry["argv"]), code, out, err))
