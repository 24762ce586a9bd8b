"""Diagram automorphisms of D_4 acting on the level -5/2 vacuum module.

The D_4 diagram has symmetry group S_3 permuting the three outer nodes.
From a node permutation the Lie algebra automorphism is built without any
hand-chosen signs: simple root vectors map by the permutation, every other
root vector is reached once through a bracket with a simple generator (so
its image is the same bracket of images), and the Cartan images follow from
the simple coroots.  Positive roots are ordered by their pairing with rho,
which is positive on every simple root, so each root comes after the root it
splits off; the image of a simple coroot is the closed-form coroot of the
permuted simple root.  The construction is validated by brute force: bracket
preservation over every basis pair.  Extension to the vacuum module is
factorwise on canonical monomials.  The two generating symmetries - the
3-cycle and a swap of two outer nodes - must fix both the degree-4 singular
vector and the Sugawara vector exactly.
"""

from . import conformal
from . import liealg
from . import linalg
from . import singular
from . import verma


def is_diagram_symmetry(alg, sigma):
    """Does the simple-root permutation preserve the Cartan matrix?"""
    if sorted(sigma) != list(range(len(alg.simple_roots))):
        return False
    cartan = alg.cartan_matrix()
    n = len(sigma)
    return all(
        cartan[sigma[i]][sigma[j]] == cartan[i][j]
        for i in range(n) for j in range(n)
    )


class Automorphism:
    """Exact basis-to-sparse-image map of one Lie algebra."""

    def __init__(self, alg, images, name="automorphism"):
        self.alg = alg
        self.images = images
        self.name = name

    def __call__(self, elem):
        """Image of a sparse {index: coeff} element."""
        out = {}
        for x, c in elem.items():
            for y, cy in self.images[x].items():
                out[y] = out.get(y, 0) + c * cy
        return {y: c for y, c in out.items() if c}

    def compose(self, other):
        """self after other."""
        if self.alg is not other.alg:
            raise ValueError("automorphisms of different algebras")
        images = [self(img) for img in other.images]
        return Automorphism(self.alg, images, "%s*%s" % (self.name, other.name))

    def is_identity(self):
        return all(
            img == {i: 1} for i, img in enumerate(self.images)
        )

    def preserves_brackets(self):
        """[pi x, pi y] == pi [x, y] over every basis pair."""
        alg = self.alg
        for i in range(alg.dim):
            for j in range(i + 1, alg.dim):
                lhs = alg.bracket_elem(self.images[i], self.images[j])
                rhs = self(dict(alg.bracket(i, j)))
                if lhs != rhs:
                    return False
        return True

    def apply_to_state(self, state):
        """Factorwise image of a canonical state, recanonicalized: one term
        per monomial, each factor x(n) the position of y(n) over pi x."""
        module, alg = state.module, self.alg
        if module.alg is not alg:
            raise ValueError("state over a different algebra")
        terms = [(v, tuple(tuple((verma.encode(alg, n, y), cy)
                                 for y, cy in self.images[x].items())
                           for n, x in (verma.decode(alg, f) for f in mono)))
                 for mono, v in state.nums.items()]
        return module.act(terms, module.state({(): 1}, state.den))


def build_automorphism(alg, sigma, name="automorphism"):
    """Automorphism from a diagram symmetry, one bracket word per vector.

    sigma maps simple-root positions to simple-root positions.  Positive
    roots are processed by their pairing with rho; each non-simple root is
    split once as beta + alpha_i with beta positive, and the structure
    constant of [e_beta, e_simple] transports to the image side unchanged.
    Root-vector images have int coefficients (the constants are +-1 on D
    and divide the image bracket exactly); a Cartan image keeps Fraction
    only where a coefficient is 1/2.
    """
    if not is_diagram_symmetry(alg, sigma):
        raise ValueError("not a diagram symmetry")
    images = [None] * alg.dim
    for i, root in enumerate(alg.simple_roots):
        target = alg.simple_roots[sigma[i]]
        images[alg.e_index(root)] = {alg.e_index(target): 1}
        images[alg.f_index(root)] = {alg.f_index(target): 1}

    simple_set = {tuple(r) for r in alg.simple_roots}
    root_set = {tuple(r) for r in alg.positive_roots}
    rho = alg.rho()
    by_rho = sorted(
        alg.positive_roots,
        key=lambda r: (sum(a * b for a, b in zip(rho, r)), r),
    )
    for root in by_rho:
        if tuple(root) in simple_set:
            continue
        split = None
        for simple in alg.simple_roots:
            beta = tuple(a - b for a, b in zip(root, simple))
            if beta in root_set:
                split = (beta, simple)
                break
        if split is None:
            raise AssertionError("positive root with no simple split")
        beta, simple = split
        for index_of, block in ((alg.e_index, "e"), (alg.f_index, "f")):
            i, j = index_of(beta), index_of(simple)
            items = alg.bracket(i, j)
            if len(items) != 1 or items[0][0] != index_of(root):
                raise AssertionError("bracket split is not a single %s term" % block)
            constant = items[0][1]
            img = alg.bracket_elem(images[i], images[j])
            if any(c % constant for c in img.values()):
                raise AssertionError("image bracket is not a multiple")
            images[index_of(root)] = {y: c // constant for y, c in img.items()}

    # Cartan block: H_j in simple-coroot coordinates, coroots map by sigma
    cols = [liealg.coroot_ints(r, liealg.root_norm(r)) for r in alg.simple_roots]
    for j in range(alg.l):
        coords = linalg.solve_exact(cols, [int(i == j) for i in range(alg.l)])
        image = [sum(c * cols[s][k] for c, s in zip(coords, sigma))
                 for k in range(alg.l)]
        images[alg.h_index(j + 1)] = {
            alg.h_index(k + 1): c if c.denominator > 1 else c.numerator
            for k, c in enumerate(image) if c}
    return Automorphism(alg, images, name)


def d4_symmetries(alg):
    """The generating D_4 diagram symmetries: the outer 3-cycle and a swap."""
    if alg.kind != "D" or alg.l != 4:
        raise ValueError("triality needs D_4")
    three_cycle = build_automorphism(alg, (2, 1, 3, 0), "three_cycle")
    swap = build_automorphism(alg, (3, 1, 2, 0), "swap")
    return three_cycle, swap


def report(l):
    """Full triality verdict; meaningful only at rank 4."""
    if l != 4:
        raise ValueError("triality is specific to D_4")
    module = verma.vacuum_module("D", 4)
    alg = module.alg
    vec = singular.singular_vector(module)
    omega = conformal.sugawara_vector(module)
    three_cycle, swap = d4_symmetries(alg)
    entries = []
    passed = True
    for auto, order in ((three_cycle, 3), (swap, 2)):
        power = auto
        for _ in range(order - 1):
            power = power.compose(auto)
        checks = {
            "name": auto.name,
            "order": order,
            "bracket_preserving": auto.preserves_brackets(),
            "power_is_identity": power.is_identity(),
            "fixes_singular_vector": auto.apply_to_state(vec) == vec,
            "fixes_conformal_vector": auto.apply_to_state(omega) == omega,
        }
        passed = passed and all(
            v for k, v in checks.items() if isinstance(v, bool))
        entries.append(checks)
    return {
        "check": "triality",
        "type": "D",
        "l": 4,
        "level": str(module.level),
        "automorphisms": entries,
        "passed": passed,
    }
