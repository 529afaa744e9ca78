"""Group-layer outputs against frozen digests.

Every group the package reports is a numerator over a denominator of
subgroups, and those subgroups come from `kernel_image`, `intersect` and
the push of a subgroup along a morphism.  The property tests check that
their outputs are valid; this file checks that they are the same
generators, relations and coordinates as before, bit for bit, on a fixed
set of seeded inputs: the generator order of a numerator is the ambient
basis of its subquotient, so it reaches the user through every class and
every induced map.

tests/golden_group.json holds, per family, the number of inputs and the
SHA-256 of the JSON list of outputs.  A subgroup is recorded by the
coordinate columns of its generators.  The families run over Z with Z
summands and over Z/4, Z/8, Z/9 and Z/12, on presentations scrambled by
unimodular factors.  Regenerate the file (`python
tests/test_group_frozen.py`) only for an intended change of the group
layer's output.
"""

import hashlib
import json
import pathlib
import sys

import pytest

from bicohom.abgroup import (Subgroup, _push, intersect, kernel_image,
                             subquotient)

from helpers import random_factor_group, random_morphism, seeded

GOLDEN = pathlib.Path(__file__).parent / "golden_group.json"

MODULI = [4, 8, 9, 12]


def columns(sub):
    return [list(g.coords) for g in sub.generators]


def random_subgroup(rng, g):
    bound = g.modulus or 9
    return Subgroup(g, [[rng.randint(-bound, bound)
                         for _ in range(g.ambient_rank)]
                        for _ in range(rng.randint(1, 3))])


def random_modulus(rng, over_z):
    return 0 if over_z else rng.choice(MODULI)


def kernel_image_case(rng, over_z):
    m = random_modulus(rng, over_z)
    g, h = random_factor_group(rng, m), random_factor_group(rng, m)
    ker, img = kernel_image(random_morphism(rng, g, h))
    return [columns(ker), columns(img)]


def push_case(rng, over_z):
    m = random_modulus(rng, over_z)
    g, h = random_factor_group(rng, m), random_factor_group(rng, m)
    f = random_morphism(rng, g, h)
    return columns(_push(random_subgroup(rng, g), f))


def intersect_case(rng, over_z):
    m = random_modulus(rng, over_z)
    g = random_factor_group(rng, m)
    return columns(intersect(random_subgroup(rng, g),
                             random_subgroup(rng, g)))


def combination(rng, sub):
    """The coordinates of a seeded integer combination of sub's generators."""
    out = [0] * sub.parent.ambient_rank
    for gen in sub.generators:
        k = rng.randint(-4, 4)
        out = [a + k * b for a, b in zip(out, gen.coords)]
    return out


def subquotient_case(rng, over_z):
    m = random_modulus(rng, over_z)
    g = random_factor_group(rng, m)
    num = random_subgroup(rng, g)
    den = Subgroup(g, [combination(rng, num)
                       for _ in range(rng.randint(0, 2))])
    q = subquotient(g, num, den)
    projected = [list(q.project(g.element(combination(rng, num))).coords)
                 for _ in range(3)]
    lifted = [list(q.representative(q.group.element(
        [rng.randint(-5, 5) for _ in range(q.group.ambient_rank)])).coords)
        for _ in range(3)]
    return [q.group.relations.to_lists(), projected, lifted]


FAMILIES = {
    "kernel_image_z": (lambda rng: kernel_image_case(rng, True), 60),
    "kernel_image_zm": (lambda rng: kernel_image_case(rng, False), 80),
    "push_z": (lambda rng: push_case(rng, True), 60),
    "push_zm": (lambda rng: push_case(rng, False), 80),
    "intersect_z": (lambda rng: intersect_case(rng, True), 60),
    "intersect_zm": (lambda rng: intersect_case(rng, False), 80),
    "subquotient_z": (lambda rng: subquotient_case(rng, True), 60),
    "subquotient_zm": (lambda rng: subquotient_case(rng, False), 80),
}


def digest(family):
    make, count = FAMILIES[family]
    rng = seeded("group-frozen-" + family)
    outputs = [make(rng) for _ in range(count)]
    text = json.dumps(outputs, separators=(",", ":"))
    return {"inputs": len(outputs),
            "sha256": hashlib.sha256(text.encode("ascii")).hexdigest()}


def current():
    return {f: digest(f) for f in FAMILIES}


@pytest.mark.parametrize("family", FAMILIES)
def test_group_output_matches_frozen_digest(family):
    frozen = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert digest(family) == frozen[family]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(current(), indent=2) + "\n", encoding="utf-8")
    print("wrote", GOLDEN, file=sys.stderr)
