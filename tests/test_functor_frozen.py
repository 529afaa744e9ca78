"""Hom/tensor functor outputs against frozen digests.

The induced maps, the grid differentials d' and d'', the four module
functors and the kernel identification witnesses are all built by the
package's one Hom/tensor functor.  The property tests check that their
outputs are valid; this file checks that they are the same matrices as
before, bit for bit, on a fixed set of seeded inputs: the cyclic
coordinates they are written in reach the user through every grid and
every serialised complex.

tests/golden_functor.json holds, per family, the number of inputs and the
SHA-256 of the JSON list of outputs.  The group families run over Z with
Z summands (so Hom(Z, Z/b), the dropped Hom(Z/a, Z) and Z (x) Z all occur)
and over Z/4, Z/8, Z/9 and Z/12, on presentations scrambled by unimodular
factors so that the cyclic transition matrices are not the identity.
Regenerate the file (`python tests/test_functor_frozen.py`) only for an
intended change of the functor's output.
"""

import hashlib
import json
import pathlib
import sys

import pytest

from bicohom.abgroup import (hom_group, induced_hom_map, induced_tensor_map,
                             tensor_group)
from bicohom.complexes import (COHOMOLOGICAL, HOMOLOGICAL, hom_from_module,
                               hom_into_module, module_tensor_with,
                               tensor_with_module)
from bicohom.constructions import (complete_injective_resolution,
                                   complete_projective_resolution,
                                   hom_bicomplex, random_exact_complex,
                                   tensor_bicomplex, zprime_witness,
                                   zsecond_witness)

from helpers import random_factor_group, random_morphism, seeded

GOLDEN = pathlib.Path(__file__).parent / "golden_functor.json"

MODULI = [4, 8, 9, 12]
def rows(f):
    return f.matrix.to_lists()


def induced_hom_case(rng, m):
    g, h, g2, h2 = (random_factor_group(rng, m) for _ in range(4))
    pre = random_morphism(rng, g2, g)
    post = random_morphism(rng, h, h2)
    which = rng.randrange(3)
    if which == 0:
        pre, g2 = None, g
    elif which == 1:
        post, h2 = None, h
    src, dst = hom_group(g, h), hom_group(g2, h2)
    return rows(induced_hom_map(src, dst, precompose=pre, postcompose=post))


def induced_tensor_case(rng, m):
    g, h, g2, h2 = (random_factor_group(rng, m) for _ in range(4))
    f, g_map = random_morphism(rng, g, g2), random_morphism(rng, h, h2)
    return rows(induced_tensor_map(tensor_group(g, h), tensor_group(g2, h2),
                                   f, g_map))


def _grid_rows(x, lo, hi):
    return [[rows(x.dprime(i, j)), rows(x.dsecond(i, j))]
            for i in range(lo, hi + 1) for j in range(lo, hi + 1)]


def grid_case(rng, tensor):
    m = rng.choice(MODULI)
    kind = rng.choice(["periodic", "window"])
    second = HOMOLOGICAL if tensor else COHOMOLOGICAL
    c = random_exact_complex(m, rng.randrange(10 ** 6), blocks=2, kind=kind)
    d = random_exact_complex(m, rng.randrange(10 ** 6), blocks=2, kind=kind,
                             convention=second)
    if tensor:
        return _grid_rows(tensor_bicomplex(c, d), -4, 0)
    return _grid_rows(hom_bicomplex(c, d), 0, 4)


def _complex_rows(c):
    return [[n, list(c.cell(n).invariant_factors), rows(c.diff(n))]
            for n in c.diff_degrees()]


def module_functor_case(rng):
    m = rng.choice(MODULI)
    module, other = random_factor_group(rng, m), random_factor_group(rng, m)
    p, _ = complete_projective_resolution(m, module)
    e, _ = complete_injective_resolution(m, other)
    q, _ = complete_projective_resolution(m, other)
    return [_complex_rows(hom_into_module(p, other)),
            _complex_rows(hom_from_module(module, e)),
            _complex_rows(tensor_with_module(p, other)),
            _complex_rows(module_tensor_with(module, q))]


def window_functor_case(rng):
    m = rng.choice(MODULI)
    group = random_factor_group(rng, m)
    c = random_exact_complex(m, rng.randrange(10 ** 6), blocks=3,
                             kind="window")
    d = random_exact_complex(m, rng.randrange(10 ** 6), blocks=3,
                             kind="window", convention=COHOMOLOGICAL)
    return [_complex_rows(hom_into_module(c, group)),
            _complex_rows(hom_from_module(group, d)),
            _complex_rows(tensor_with_module(c, group)),
            _complex_rows(module_tensor_with(group, c))]


def witness_case(rng):
    m = rng.choice(MODULI)
    kind = rng.choice(["periodic", "window"])
    c = random_exact_complex(m, rng.randrange(10 ** 6), blocks=2, kind=kind)
    d = random_exact_complex(m, rng.randrange(10 ** 6), blocks=2, kind=kind,
                             convention=COHOMOLOGICAL)
    bd = (rng.randint(-1, 3), rng.randint(-1, 3))
    return [[rows(f) for f in witness(c, d, bd)]
            for witness in (zprime_witness, zsecond_witness)]


FAMILIES = {
    "induced_hom_z": (lambda rng: induced_hom_case(rng, 0), 60),
    "induced_hom_zm": (lambda rng: induced_hom_case(rng, rng.choice(MODULI)),
                       80),
    "induced_tensor_z": (lambda rng: induced_tensor_case(rng, 0), 60),
    "induced_tensor_zm": (
        lambda rng: induced_tensor_case(rng, rng.choice(MODULI)), 80),
    "hom_grid": (lambda rng: grid_case(rng, False), 16),
    "tensor_grid": (lambda rng: grid_case(rng, True), 16),
    "module_functors": (module_functor_case, 24),
    "window_functors": (window_functor_case, 16),
    "witnesses": (witness_case, 16),
}


def digest(family):
    make, count = FAMILIES[family]
    rng = seeded("functor-frozen-" + family)
    outputs = [make(rng) for _ in range(count)]
    text = json.dumps(outputs, separators=(",", ":"))
    return {"inputs": len(outputs),
            "sha256": hashlib.sha256(text.encode("ascii")).hexdigest()}


def current():
    return {f: digest(f) for f in FAMILIES}


@pytest.mark.parametrize("family", FAMILIES)
def test_functor_output_matches_frozen_digest(family):
    frozen = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert digest(family) == frozen[family]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(current(), indent=2) + "\n", encoding="utf-8")
    print("wrote", GOLDEN, file=sys.stderr)
