"""Write a seeded copy of a built complex: the same surface moved by a
symmetry of its honeycomb.

    PYTHONPATH=src python3 bench/seed_input.py BUILT.json OUT.json --seed N

Coset ambients apply a word of WORD_LENGTH reflection generators (no
letter repeated twice in a row) with gridforge.coxeter.transform.  The
Z^n lattices apply a signed axis permutation plus an even translation of
the doubled coordinates.  The same seed always writes the same bytes.
Prints the square count of the written complex.
"""

from __future__ import annotations

import argparse
import random

from gridforge.coxeter import build_system, identity_cell, transform
from gridforge.formats import dumps_complex, load_complex
from gridforge.lattice import GriddedComplex, ambient_dim, is_lattice_ambient

WORD_LENGTH = 8
MAX_SHIFT = 10  # lattice translation per axis, in unit steps


def _word(rng, rank):
    word = []
    while len(word) < WORD_LENGTH:
        letter = rng.randrange(rank)
        if not word or word[-1] != letter:
            word.append(letter)
    return word


def moved(obj, seed):
    """The gridded complex `obj` moved by the symmetry that `seed` draws."""
    rng = random.Random(seed)
    if is_lattice_ambient(obj.ambient):
        n = ambient_dim(obj.ambient)
        perm = rng.sample(range(n), n)
        signs = [rng.choice((-1, 1)) for _ in range(n)]
        shift = [2 * rng.randint(-MAX_SHIFT, MAX_SHIFT) for _ in range(n)]
        squares = {tuple(signs[i] * s[perm[i]] + shift[i] for i in range(n))
                   for s in obj.squares}
    else:
        system = build_system(obj.ambient)
        g = identity_cell(system, 0)   # its rep accumulates the word
        for letter in _word(rng, system.rank):
            g = transform(system.generators[letter], g)
        squares = {transform(g.rep, s) for s in obj.squares}
    if len(squares) != len(obj.squares):
        raise AssertionError("the symmetry merged squares")
    return GriddedComplex(obj.ambient, squares)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("built")
    parser.add_argument("out")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    out = moved(load_complex(args.built), args.seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(dumps_complex(out))
    print(len(out.squares))


if __name__ == "__main__":
    main()
