"""Catalog of the verified mathematical statements, with a coverage gate.

Each entry states one fact the package checks and the command that checks
it; tests name the claims they pin down with the verifies decorator.  The
trace matrix is read from those marks in the test sources, without importing
the tests, and generation fails if any claim has no marked test, so deleting
a test reopens the gap loudly.
"""

import argparse
import ast
import json
import os
import sys

CLAIMS = (
    {
        "id": "form-normalization",
        "statement": "The invariant bilinear form is fixed so the highest "
                     "root has squared length 2, and it is ad-invariant on "
                     "the whole basis.",
        "command": "affine-verma dump-algebra --type B --l 4",
    },
    {
        "id": "affine-bracket",
        "statement": "Mode operators on the vacuum module satisfy "
                     "[x(m), y(n)] = [x,y](m+n) + m delta_{m+n,0} (x,y) k "
                     "with the central scalar acting as the level.",
        "command": "pytest tests/test_verma.py",
    },
    {
        "id": "vacuum-module",
        "statement": "The level-k vacuum module is spanned by ordered "
                     "monomials in negative modes applied to a vacuum vector "
                     "killed by every nonnegative mode, and straightening "
                     "always terminates in that canonical form.",
        "command": "pytest tests/test_verma.py",
    },
    {
        "id": "sugawara-vector",
        "statement": "The quadratic energy vector built from any basis and "
                     "its form-dual at mode -1, scaled by 1/(2(k + h)), is "
                     "basis independent.",
        "command": "affine-verma verify conformal --l 4",
    },
    {
        "id": "clifford-realization",
        "statement": "The quadratic fermionic realization reproduces the "
                     "full bracket table of types B_l and D_l, with the odd "
                     "generators giving the short root vectors of B_l.",
        "command": "affine-verma dump-algebra --type B --l 4",
    },
    {
        "id": "root-data",
        "statement": "Simple roots, positive roots, the highest root, and "
                     "dual Coxeter numbers match the standard epsilon-basis "
                     "tables for B_l and D_l.",
        "command": "affine-verma dump-algebra --type D --l 4",
    },
    {
        "id": "coroot-normalization",
        "statement": "The coroot attached to the i-th coordinate weight is "
                     "twice the i-th diagonal Cartan generator, and "
                     "[e, f] = coroot holds for every root vector pair.",
        "command": "pytest tests/test_liealg.py",
    },
    {
        "id": "singular-vector-B",
        "statement": "In type B_l at level -l + 3/2, the explicit degree-2 "
                     "combination of paired mode -1 root vectors (weight "
                     "twice the first coordinate) is killed by all simple "
                     "raising zero modes and by the lowering mode-1 operator "
                     "of the highest root.",
        "command": "affine-verma verify singular --type B --l 4",
    },
    {
        "id": "singular-vector-D",
        "statement": "In type D_l at level -l + 3/2, the explicit degree-4 "
                     "vector of weight twice the highest root is killed by "
                     "all simple raising zero modes and by the lowering "
                     "mode-1 operator of the highest root.",
        "command": "affine-verma verify singular --type D --l 4",
    },
    {
        "id": "admissibility",
        "statement": "The type-D vacuum weight at level -l + 3/2 is "
                     "admissible: shifted pairings with positive real "
                     "coroots avoid nonpositive integers, integer-pairing "
                     "coroots have full rank, the simple pairings are 1 and "
                     "-l + 5/2, and the reflection coroot pairs to 2.",
        "command": "affine-verma verify admissible --l 4",
    },
    {
        "id": "weight-reflection",
        "statement": "The degree-4 vector's affine weight equals the "
                     "shifted-action reflection of the vacuum weight in the "
                     "real root at twice delta minus the highest root.",
        "command": "pytest tests/test_weights.py",
    },
    {
        "id": "embedding-relations",
        "statement": "Nine families of quadratic zero-mode relations hold "
                     "among type-B generators acting on the type-B vacuum "
                     "module at level -l + 3/2.",
        "command": "affine-verma verify embedding --l 4",
    },
    {
        "id": "membership-certificate",
        "statement": "An explicit operator word maps the type-B degree-2 "
                     "singular vector to the image of the type-D degree-4 "
                     "vector under the basis embedding, so the latter lies "
                     "in the submodule the former generates.",
        "command": "affine-verma verify embedding --l 4",
    },
    {
        "id": "quadratic-relation",
        "statement": "The weighted sum of symmetrized short e f pairs minus "
                     "squared short Cartan modes equals an explicit lowering "
                     "word applied to the degree-2 singular vector, with one "
                     "consistent rational factor.",
        "command": "affine-verma verify conformal --l 4",
    },
    {
        "id": "conformal-equality",
        "statement": "The difference of the type-B energy vector and the "
                     "embedded type-D energy vector is a rational multiple "
                     "of the quadratic certificate, hence vanishes in the "
                     "quotient where the certificate does.",
        "command": "affine-verma verify conformal --l 4",
    },
    {
        "id": "central-charge",
        "statement": "Both energy vectors have central charge "
                     "-l(2l - 3) at level -l + 3/2; at l = 4 the value "
                     "is -20.",
        "command": "affine-verma verify conformal --l 4",
    },
    {
        "id": "level-equation",
        "statement": "Equality of the two central actions forces the level "
                     "to satisfy a quadratic equation whose only solutions "
                     "are 0 and -l + 3/2.",
        "command": "affine-verma verify conformal --l 4",
    },
    {
        "id": "triality-maps",
        "statement": "The order-3 and order-2 diagram symmetries of D_4 "
                     "lift to bracket-preserving automorphisms with those "
                     "exact orders, determined by bracket words with no "
                     "hand-chosen signs.",
        "command": "affine-verma verify triality --l 4",
    },
    {
        "id": "triality-invariance",
        "statement": "Both lifted D_4 automorphisms fix the degree-4 "
                     "singular vector and the energy vector exactly.",
        "command": "affine-verma verify triality --l 4",
    },
    {
        "id": "zero-mode-table",
        "statement": "The forty-row rewrite table for the first raising "
                     "zero mode acting on quartic states holds exactly, "
                     "and that zero mode annihilates the degree-4 vector.",
        "command": "affine-verma verify appendix --l 4",
    },
    {
        "id": "state-serialization",
        "statement": "Module states serialize to plain JSON data with "
                     "normalized rational coefficients and parse back to "
                     "equal states.",
        "command": "pytest tests/test_verma.py",
    },
)

_KNOWN = {c["id"] for c in CLAIMS}
assert len(_KNOWN) == len(CLAIMS)


class CoverageError(Exception):
    """Raised when some cataloged claim has no marked test."""


def verifies(*claim_ids):
    """Mark a test as evidence for cataloged claims; rejects unknown ids and
    returns the test unchanged (generate_trace_matrix reads the marks)."""
    if not claim_ids:
        raise ValueError("verifies() needs at least one claim id")
    for cid in claim_ids:
        if not isinstance(cid, str) or cid not in _KNOWN:
            raise KeyError("unknown claim id: %r" % (cid,))
    return lambda func: func


def generate_trace_matrix(tests_dir):
    """Claim-to-test matrix from the verifies or claims.verifies marks on
    the top-level functions of tests_dir/test_*.py, read with ast: mark ids
    must be literals and known claims (else ValueError or KeyError naming
    the test), and a claim with no test raises CoverageError."""
    tests = {cid: set() for cid in _KNOWN}
    for name in sorted(os.listdir(tests_dir)):
        if not (name.startswith("test_") and name.endswith(".py")):
            continue
        with open(os.path.join(tests_dir, name)) as fh:
            tree = ast.parse(fh.read(), name)
        for node in tree.body:
            for dec in getattr(node, "decorator_list", ()):
                if not (isinstance(dec, ast.Call) and "verifies" in (
                        getattr(dec.func, "id", None),
                        getattr(dec.func, "attr", None))):
                    continue
                test = "%s::%s" % (name, node.name)
                try:
                    ids = [ast.literal_eval(arg) for arg in dec.args]
                    verifies(*ids)
                except (KeyError, ValueError) as exc:
                    raise type(exc)("%s: @%s: claim ids must be known string "
                                    "literals" % (test, ast.unparse(dec))) \
                        from None
                for cid in ids:
                    tests[cid].add(test)
    holes = [c["id"] for c in CLAIMS if not tests[c["id"]]]
    if holes:
        raise CoverageError("claims with no marked test: %s"
                            % ", ".join(holes))
    entries = [{
        "claim": c["id"],
        "statement": c["statement"],
        "command": c["command"],
        "tests": sorted(tests[c["id"]]),
    } for c in CLAIMS]
    return {"entries": entries}


def render_markdown(matrix):
    lines = [
        "# Trace matrix",
        "",
        "Generated by `python3 -m affine_verma.claims`; do not edit by hand.",
        "Each row links one verified statement to the command that checks it",
        "and the tests that pin it down.",
        "",
        "| Claim | Statement | Command | Tests |",
        "| --- | --- | --- | --- |",
    ]
    for e in matrix["entries"]:
        lines.append("| %s | %s | `%s` | %s |" % (
            e["claim"], e["statement"], e["command"],
            "<br>".join("`%s`" % t for t in e["tests"])))
    return "\n".join(lines) + "\n"


def write_docs(matrix, out_dir):
    with open(os.path.join(out_dir, "trace_matrix.json"), "w") as fh:
        fh.write(json.dumps(matrix, indent=2, sort_keys=True) + "\n")
    with open(os.path.join(out_dir, "trace_matrix.md"), "w") as fh:
        fh.write(render_markdown(matrix))


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Generate the claim-to-test trace matrix.")
    parser.add_argument("--tests-dir", default="tests")
    parser.add_argument("--out-dir", default="docs")
    args = parser.parse_args(argv)
    for flag, path in (("--tests-dir", args.tests_dir),
                       ("--out-dir", args.out_dir)):
        if not os.path.isdir(path):
            print("%s: error: %s %s is not a directory"
                  % (parser.prog, flag, path), file=sys.stderr)
            return 2
    try:
        matrix = generate_trace_matrix(args.tests_dir)
    except CoverageError as exc:
        print("coverage hole: %s" % exc, file=sys.stderr)
        return 1
    except (KeyError, ValueError) as exc:
        print("bad mark in %s" % exc.args[0], file=sys.stderr)
        return 1
    write_docs(matrix, args.out_dir)
    print("trace matrix: %d claims, all covered" % len(matrix["entries"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
