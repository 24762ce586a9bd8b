"""Whole-report digests, pinned so that kernel changes keep every byte.

The sha256 values were taken from the Fraction kernels, before the int
straightening, bracket-table and back-substitution kernels replaced them.
Regenerate them only when report text is meant to change.
"""

import hashlib

import pytest

from affine_verma import cli


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_verify_all_document():
    text = cli.to_json(cli.run_all(range(4, 6), 1))
    assert _digest(text) == \
        "d2518c89feb805528247e922e69fa8f1d897cb836dab8b8995232805d4723384"


@pytest.mark.parametrize("argv, digest", [
    ("verify singular --type B --l 4 --strict",
     "d7682f4455e12abc795a1a93b1448cdf35c4d20a797ef9a145419224b9d90008"),
    ("verify singular --type D --l 4 --strict",
     "31d91ecf6f7ab85bdacc2fcd10042f4840671bd015b4564f331d7c9b34f0bb0d"),
    ("dump-algebra --type B --l 4",
     "f76caf65a112754dd1e8c83198543ffb05b252477bb4175d0a00f855cd9f4c87"),
    ("dump-algebra --type B --l 5",
     "18cce62fe13958907e1f2c81aada55932ad8c9814899678f90b565d4395f0a58"),
    ("dump-algebra --type B --l 6",
     "a96cf4e729047c84dc5ad1b8f4b64550b8f6b016a5f02edc697252d25de803f0"),
    ("dump-algebra --type D --l 4",
     "d699c2e8c1279b70b74779dc921ade5ff25dfa8126635837eaf37e560e8ac37d"),
    ("dump-algebra --type D --l 5",
     "778811cb3bd048153d94f4f04de896440f53791f41f93615dda722a4771c35ea"),
    ("dump-algebra --type D --l 6",
     "6c19626332aa3c4de59aacf6baa5cad2bcaee64b046a54d42cd49e9dd11416d3"),
])
def test_command_output(capsys, argv, digest):
    assert cli.main(argv.split()) == 0
    assert _digest(capsys.readouterr().out) == digest
