"""The program's output on fixed inputs, pinned byte for byte.

Each workload runs ``cli.main`` in process over a fixed list of argv lists
and hashes every job's exit status, stdout and stderr, in order.  The inputs
come from the generators of ``benchmarks/inputs.py``, not from
``pools.json``, so rebuilding the benchmark pool does not move a digest:

* ``flag``: every ``flag_candidates(7, 320)`` and ``(8, 160)`` tuple;
* ``tower``: every ``tower_item(i)`` for i < 400, by both methods with
  ``--format json``, the towers the pool excludes for cost included;
* ``verify``: ``verify --format json`` at seeds 7 and 11;
* ``root_flag``: the windows of ``rational_root_flag(3)``, whose levels
  share one series per factor in the decoded spec file, by both methods
  with ``--format json`` at every orders tuple in {0..4}^3.  Unequal orders
  give each level's expansions different floors, so a walk memo that hands
  an expansion back at another floor changes this digest.

A change that means to alter the output updates the digest here and says
why in CHANGES.md.
"""

import hashlib
import importlib.util
import itertools
import json
import sys
from pathlib import Path

import pytest

from segre_towers.cli import main, tower_spec_to_doc

from _helpers import rational_root_flag

INPUTS = Path(__file__).resolve().parent.parent / "benchmarks" / "inputs.py"

DIGESTS = {
    "flag": (480, "deb9c07092b3606395d92a3005f3d1b02f6e3399899124b84045bffe8860b556"),
    "tower": (800, "8b6f52f93c206804c5ee2ca18e013ec4e7010c714c23cc0af7e80aa62cbb6d20"),
    "verify": (2, "21ff155d79a9abed4cd28edb129267766aec4f61a61f206681b1a6fc8dc95832"),
    "root_flag": (250, "1e4e9dd023736017367e3a49abe028a06717c90e2052a2a6f3a1a598cc960fe3"),
}


def _inputs():
    name = "_benchmark_inputs_for_digests"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, INPUTS)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def jobs(workload):
    """The argv lists of ``workload``, writing each tower's spec file to the
    working directory as it goes."""
    inputs = _inputs()
    if workload == "flag":
        for k, count in ((7, 320), (8, 160)):
            for exps in inputs.flag_candidates(k, count):
                yield inputs.flag_argv(exps)
    elif workload == "tower":
        for index in range(400):
            doc, orders, aux = inputs.tower_item(index)
            Path("tower.json").write_text(json.dumps(doc), encoding="utf-8")
            for method in ("closed", "stepwise"):
                yield inputs.tower_argv("tower.json", orders, aux, method)
    elif workload == "root_flag":
        doc = tower_spec_to_doc(rational_root_flag(3))
        Path("root.json").write_text(json.dumps(doc), encoding="utf-8")
        for orders in itertools.product(range(5), repeat=3):
            for method in ("closed", "stepwise"):
                yield [
                    "tower-segre", "root.json", "--orders", ",".join(map(str, orders)),
                    "--method", method, "--format", "json",
                ]
    else:
        for seed in (7, 11):
            yield ["verify", "--format", "json", "--seed", str(seed)]


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_outputs_match_their_pinned_digest(workload, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    codes, silent = [], 0
    for argv in jobs(workload):
        code = main(argv)
        out, err = capsys.readouterr()
        digest.update(repr((code, out, err)).encode())
        codes.append(code)
        silent += not out
    # Every job succeeds and prints, so the digest covers real output.
    assert set(codes) == {0} and silent == 0
    assert (len(codes), digest.hexdigest()) == DIGESTS[workload]
