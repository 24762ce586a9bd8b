"""Whole-report digests, pinned so that kernel changes keep every byte.

The sha256 values were taken from the Fraction kernels, before the int
straightening, bracket-table and back-substitution kernels replaced them;
the admissibility ones from the memoized DFS cone test, before the integer
basis replaced it; the dump-algebra ones at l = 8, 12 and 16 from the table
built by Clifford multiplication, before the contraction rule replaced it;
the `verify all` one at l = 6, 7 from states of Fraction coefficients,
before int numerators over one denominator replaced them; the l = 24 ones
from the stored bracket table, with the rank ceiling raised past 24, before
brackets computed on demand replaced it; the strict D_12 one from the
elimination that took each row's content gcd at every step, before the
in-place integer kernel replaced it; the admissibility ones at mode bound
200 from the greedy pass that reduced every integral coroot up to the
bound, before the check by mode progressions past full rank replaced it.
Regenerate them only when report text is meant to change.
"""

import hashlib

import pytest

from affine_verma import cli, liealg, verma


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_verify_all_document():
    text = cli.to_json(cli.run_all(range(4, 6), 1))
    assert _digest(text) == \
        "d2518c89feb805528247e922e69fa8f1d897cb836dab8b8995232805d4723384"


def test_verify_all_document_upper_ranks():
    text = cli.to_json(cli.run_all(range(6, 8), 1))
    assert _digest(text) == \
        "12f9cdd9132620e5682d25557b5c0d4f8874f4d343163d8f105537e0f049998b"


def test_warm_rerun_is_byte_identical():
    # the benchmark's warm set at l = 4, 5: a cold run fills the memos, and
    # the rerun in reverse order answers from them alone
    specs = [(check, kind, l) for l in (4, 5)
             for check, kind in (("singular", "B"), ("singular", "D"),
                                 ("embedding", None), ("conformal", None),
                                 ("appendix", None))]
    specs.append(("triality", None, 4))
    liealg.algebra.cache_clear()
    verma.vacuum_module.cache_clear()
    cold = {spec: cli.to_json(cli.run_check(*spec)) for spec in specs}
    modules = [verma.vacuum_module(kind, l) for kind in "BD" for l in (4, 5)]
    sizes = [len(m._memo) for m in modules]
    for spec in reversed(specs):
        assert cli.to_json(cli.run_check(*spec)) == cold[spec], spec
    assert [len(m._memo) for m in modules] == sizes


@pytest.mark.parametrize("argv, digest", [
    ("verify singular --type B --l 4 --strict",
     "d7682f4455e12abc795a1a93b1448cdf35c4d20a797ef9a145419224b9d90008"),
    ("verify singular --type D --l 4 --strict",
     "31d91ecf6f7ab85bdacc2fcd10042f4840671bd015b4564f331d7c9b34f0bb0d"),
    ("verify singular --type B --l 10 --strict",
     "100f0bac48b39feb17f69bc9fa8d99a0fdc7bdc8f1dfee4af1bf9be7b073af24"),
    ("verify singular --type D --l 10 --strict",
     "e6c2b49dc11dde5e4c66a89468cd057d9934d28e6d812a60e3b7170618b4f420"),
    ("verify singular --type D --l 12 --strict",
     "7699fe05e8f4c749228840fe7be02499ec1cda99a5c3dd496be001d3fc66b90c"),
    ("verify admissible --type B --l 4",
     "1a65dde328828fb42011d36a12f69f8d894cb8c2d4c8b57b567c57b57ae8e55b"),
    ("verify admissible --type B --l 5",
     "ca61782be028f7cddb3dfae32fe81ede49935407045bad26daf1939fedfa9eba"),
    ("verify admissible --type B --l 6",
     "d24f25110fb399d75bb03ee27ce287e17ee4c79c439a39868ef3d060fc24bc69"),
    ("verify admissible --type B --l 7",
     "abccb6b94c64ede1a50fffa5717fd4b201e66a18b7244af7218bc484ea19ac7f"),
    ("verify admissible --type B --l 8",
     "e06c2d2e55fbcc0994c2c4812e8579771deb38d94e74e6ae90b76e87a1c65aa9"),
    ("verify admissible --type D --l 4",
     "c1a641b2d3803f3a833ffe03686c7db5489bb59cd96463117795034d9beef584"),
    ("verify admissible --type D --l 5",
     "e9495b1784af2ce8a00d47a634d1146d529979ee4f8c6359f38413782c883ab5"),
    ("verify admissible --type D --l 6",
     "ca50ccfc43399b54c2d6470f7e535e551feee291bccaa864103a067047d6905b"),
    ("verify admissible --type D --l 7",
     "489acb3bf1f3fc7740c8ed4ecd4ce79d4f4720dc899a28a26879d2436c961db4"),
    ("verify admissible --type D --l 8",
     "300e16e6116ba8e8bd4bbcf548dd9de87391bc013797ba556aff0a9192a40f04"),
    ("verify admissible --type D --l 16",
     "32e3ce1bbfc25c5513cceac3553e02b2487e66757887c0aaa2e55a2523dbae1a"),
    ("verify admissible --type B --l 12 --mode-bound 200",
     "fcc896c40451e7af74792e741055c71eba9e615da07d10035b44cc84c080199b"),
    ("verify admissible --type D --l 24 --mode-bound 200",
     "e7fccb61e2959482d2457344c8e8c8309f87c556159cbbf73a6934c784589c18"),
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
    ("dump-algebra --type B --l 8",
     "bff355b2cc33f513bb47c5a4e30c1e63c2a2ebe3ba62056ba67cb7be6e442050"),
    ("dump-algebra --type B --l 12",
     "f857b4c02697bb11d79e2ba6905e57c8fad2fe6b9b4d811c1e4283e1e88d6f61"),
    ("dump-algebra --type B --l 16",
     "73e325d4200642e85d4a15ed09657f3a5e7b5e1963440852d0fcfb65c1a1fbbe"),
    ("dump-algebra --type D --l 8",
     "430975330008827bee1c8e8faeb22d0615747a0f495d6a5180b1a43ff86f4b90"),
    ("dump-algebra --type D --l 12",
     "04c62d1ccf7d21c1a0c7661490e860818110e4be3a91081e42798af21fe53a77"),
    ("dump-algebra --type D --l 16",
     "b2955317bf7a3e63faad74eb5aa3bce9b540b60aa93929c73e14ce511b784ebf"),
    ("dump-algebra --type B --l 24",
     "49c1a8af1f5404114bfcef021dc9ad15c39f57a2bf2fdf0f93e529ef694e2015"),
    ("verify all --l 24 --jobs 1",
     "dce8b1960b39a76c67d29008f0af0f9ced1fa451e0e06254721bd9ec69c8e6dd"),
])
def test_command_output(capsys, argv, digest):
    assert cli.main(argv.split()) == 0
    assert _digest(capsys.readouterr().out) == digest
