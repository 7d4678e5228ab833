"""Cells of the cubical tiling of Z^n, addressed by doubled coordinates.

Every cell of the unit-cube tiling has a barycenter with half-integer
coordinates, so twice the barycenter is an integer vector that pins the
cell down uniquely.  A key's parity pattern tells its dimension:

    vertex  (0 odd coordinates)   e.g. (0, 0, 0)
    edge    (1 odd coordinate)    e.g. (1, 0, 0)
    square  (2 odd coordinates)   e.g. (1, 1, 0)
    cube    (3 odd coordinates)   e.g. (1, 1, 1)

and so on in higher rank.  Face and coface enumeration are pure parity
bookkeeping done by one step enumerator: a face steps r of the odd
coordinates by +-1 to a neighbouring even value, a coface steps r of the
even ones to an odd value.

A lattice ambient is named "Z" and its dimension in ASCII decimal digits
with no leading zero ("Z2", "Z3", "Z10"); is_lattice_ambient is that one
grammar, and ambient_dim reads the dimension of a name it accepts.  Any
other name, such as "Z03" or a "Z" with a non-ASCII digit, is left to
the honeycomb systems, which reject it as unknown.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter

from gridforge.coxeter import CosetKey, build_system, cell_faces


def cell_dim(key):
    """Dimension of the cell with the given doubled-coordinate key."""
    return sum(1 for x in key if x % 2)


def _steps(key, axes, r):
    """The cells one step of +-1 away from key along each of r of the
    given axes, for every choice of r axes and every sign pattern,
    sorted; none when r is out of range."""
    if not 0 <= r <= len(axes):
        return ()
    out = []
    for chosen in itertools.combinations(axes, r):
        for signs in itertools.product((-1, 1), repeat=r):
            cell = list(key)
            for i, s in zip(chosen, signs):
                cell[i] += s
            out.append(tuple(cell))
    return tuple(sorted(out))


def faces(key, k):
    """All k-dimensional faces of a cell, sorted.

    Includes the cell itself when k equals its dimension.  A d-cell has
    binom(d, k) * 2^(d-k) faces of dimension k.
    """
    odd = [i for i, x in enumerate(key) if x % 2]
    return _steps(key, odd, len(odd) - k)


def cofaces(key, k):
    """All k-dimensional cells of the full tiling having this cell as a face."""
    even = [i for i, x in enumerate(key) if x % 2 == 0]
    return _steps(key, even, k - len(key) + len(even))


def corners_cyclic(square):
    """The 4 vertices of a square in cyclic order around its perimeter."""
    if cell_dim(square) != 2:
        raise ValueError(f"not a square key: {square}")
    # sorted, the corners step the two odd coordinates by (-, -),
    # (-, +), (+, -) and (+, +)
    a, b, c, d = faces(square, 0)
    return (a, c, d, b)


def cell_codes(keys):
    """Mixed-radix int codes of a nonempty set of same-length keys.

    Coordinate t of a key becomes a digit that runs from one below the
    least coordinate t of the keys to one above the greatest, most
    significant first.  So int order is tuple order, and every cell a
    coordinate step of 1 from a key has a code too: the step moves the
    code by weights[t].  Returns (codes, odd, weights, decode): the codes
    in increasing order, odd[i] the mask of the odd coordinates of the
    key of codes[i] (bit t for coordinate t), and decode, which maps a
    list of codes back to key tuples.
    """
    cols = list(zip(*keys))
    n = len(cols)
    lows = [min(col) - 1 for col in cols]
    sizes = [max(col) + 2 - low for col, low in zip(cols, lows)]
    weights = [1] * n
    for t in range(n - 2, -1, -1):
        weights[t] = weights[t + 1] * sizes[t + 1]
    # sort the codes with their masks in the low n bits
    packed = [-sum(map(operator.mul, lows, weights)) << n] * len(cols[0])
    for t, (col, w) in enumerate(zip(cols, weights)):
        w <<= n
        packed = [p + x * w + ((x & 1) << t) for p, x in zip(packed, col)]
    packed.sort()
    mask = (1 << n) - 1

    def decode(codes):
        return list(zip(*[[c // w % size + low for c in codes]
                          for w, size, low in zip(weights, sizes, lows)]))

    return [p >> n for p in packed], [p & mask for p in packed], weights, \
        decode


def translate(squares, vec):
    """Translate cell keys by a doubled-coordinate vector.

    The vector must have all even entries, i.e. be a genuine lattice
    translation; odd entries would scramble cell dimensions.
    """
    vec = tuple(vec)
    if any(x % 2 for x in vec):
        raise ValueError(f"translation vector must be even in doubled coords: {vec}")
    return frozenset(tuple(a + b for a, b in zip(s, vec)) for s in squares)


def embed_higher(squares, n):
    """Pad keys with trailing zeros so they live in Z^n."""
    squares = frozenset(squares)
    for s in squares:
        if len(s) > n:
            raise ValueError(f"cell {s} already has more than {n} coordinates")
    return frozenset(s + (0,) * (n - len(s)) for s in squares)


def cube_union_boundary(cells):
    """Boundary of a union of same-dimension cells.

    Given solid d-cells, either lattice keys or honeycomb cells
    (gridforge.coxeter.CosetKey), returns the (d-1)-faces that belong to
    exactly one of them.  For a finite union of cubes in Z^3 or {4,3,5}
    this is the usual boundary surface.
    """
    cells = list(cells)
    if not cells:
        return frozenset()
    coset = isinstance(cells[0], CosetKey)
    other = next((c for c in cells if isinstance(c, CosetKey) != coset), None)
    if other is not None:
        raise ValueError("cells mix lattice keys and honeycomb cells: "
                         f"{other!r} is not like {cells[0]!r}")
    if coset:
        dims, facets = {c.dim for c in cells}, cell_faces
    else:
        dims, facets = {cell_dim(c) for c in cells}, faces
    if len(dims) != 1:
        raise ValueError("cells must all have the same dimension")
    if len(set(cells)) != len(cells):
        raise ValueError("duplicate cells in union")
    d = dims.pop()
    counts = Counter()
    for c in cells:
        counts.update(facets(c, d - 1))
    return frozenset(f for f, m in counts.items() if m == 1)


def is_lattice_ambient(ambient):
    """Whether an ambient name is a lattice: "Z" and its dimension in
    ASCII decimal digits with no leading zero, such as "Z3" or "Z10"."""
    digits = ambient[1:]
    return (ambient[:1] == "Z" and digits.isascii() and digits.isdigit()
            and digits[0] != "0")


def ambient_dim(ambient):
    """Coordinate dimension for a lattice ambient tag like "Z3"."""
    if not is_lattice_ambient(ambient):
        raise ValueError(f"not a lattice ambient: {ambient!r}")
    return int(ambient[1:])


def distinct(items, message):
    """frozenset of the list items, the one check for a repeated entry:
    an item equal to an earlier one raises ValueError with message
    formatted by both positions i < j and the item x."""
    found = frozenset(items)
    if len(found) < len(items):  # walk only to name the first repeat
        first = {}
        for j, x in enumerate(items):
            i = first.setdefault(x, j)
            if i != j:
                raise ValueError(message.format(i=i, j=j, x=x))
    return found


class Frozen:
    """Base of an immutable record with __slots__ = (*fields, "meta").

    Equality, hashing and repr read the fields, in order, and leave out
    meta.  _set gives every slot its value once; assignment raises
    AttributeError.
    """

    __slots__ = ()

    def _set(self, *values, meta=None):
        values += ({} if meta is None else meta,)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__[:-1])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__name__}(" + ", ".join(
            map("{}={!r}".format, self.__slots__, self._values())) + ")"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), (*self._values(), self.meta)


class GriddedComplex(Frozen):
    """A set of squares of a cubical tiling, tagged with its ambient space.

    For lattice ambients ("Z2", "Z3", "Z4") the squares are doubled integer
    keys.  For the curved honeycombs ("{4,3,5}", "{4,3,3,5}") they are coset
    keys from gridforge.coxeter, 2-cells of that honeycomb's system.  Any
    other ambient or cell, "{4,3,4}" included, raises ValueError; a cell is
    named by its position in the order given, and so is a repeated square,
    looked for once every cell has passed.  meta is not compared.
    """

    __slots__ = ("ambient", "squares", "meta")

    def __init__(self, ambient, squares, meta=None):
        n = ambient_dim(ambient) if is_lattice_ambient(ambient) else 0
        if not n:
            system = build_system(ambient)  # rejects an unknown ambient
            if system.affine:
                raise ValueError(f"{ambient} is a lattice: use ambient "
                                 f"Z{system.rank - 1}")
        checked = []
        for i, s in enumerate(squares):
            if n:  # odd reads int coordinates only: a float or bool fails
                odd = isinstance(s, tuple) and [x & 1 for x in s
                                                if type(x) is int]
                ok = odd and len(s) == n == len(odd) and sum(odd) == 2
            else:
                ok = (isinstance(s, CosetKey) and s.system.name == ambient
                      and s.dim == 2)
            if not ok:
                raise ValueError(
                    f"squares[{i}]: not a square of {ambient}: {s!r}")
            checked.append(s)
        self._set(ambient, distinct(
            checked, "squares[{j}]: same square as squares[{i}]"), meta=meta)

    def __len__(self):
        return len(self.squares)
