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

Bulk work runs on mixed-radix int cell codes (cell_codes), in which a
step of +-1 along coordinate t adds +-weights[t].  The boundary of a
union of cells (cube_union_boundary) counts its facets as such steps
from the codes of the cells, after checking that the cells are int
tuples of one length, and decodes only the facets counted once; the
square index of gridforge.surface finds corners and edges the same way.
Keys are checked in bulk, by set tests over all of them (_check_keys),
and walked one by one only to name the first bad one.

A lattice ambient is named "Z" and its dimension in ASCII decimal digits
with no leading zero ("Z2", "Z3", "Z10"); is_lattice_ambient is that one
grammar, and ambient_dim reads the dimension of a name it accepts.  Any
other name, such as "Z03" or a "Z" with a non-ASCII digit, is left to
the honeycomb systems, which reject it as unknown.
"""

from __future__ import annotations

import itertools
from collections import Counter

from gridforge.coxeter import CosetKey, build_system, cell_faces

_TUPLE = frozenset([tuple])
_INT = frozenset([int])


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
    significant first.  The digits of each 8 coordinates form a run that
    fills whole bytes of the code.  So int order is tuple order, and
    every cell a coordinate step of 1 from a key has a code too: the step
    moves the code by weights[t].  Returns (codes, odd, weights, decode):
    the codes in increasing order, odd[i] the mask of the odd coordinates
    of the key of codes[i] (bit t for coordinate t), and decode, which
    maps a list of codes back to key tuples.  Past 8 coordinates, codes
    and masks are joined from the bytes of their runs, and decode splits
    a code into those bytes, so both cost time linear in the dimension
    per key.
    """
    cols = list(zip(*keys))
    n = len(cols)
    lows = [min(col) - 1 for col in cols]
    sizes = [max(col) + 2 - low for col, low in zip(cols, lows)]
    # most significant first (one of no digits for keys of length 0):
    # each run's (t, weight of digit t within the run), and its bytes
    runs = []
    for g in range(0, max(n, 1), 8):
        w, digits = 1, []
        for t in reversed(range(g, min(g + 8, n))):
            digits.append((t, w))
            w *= sizes[t]
        runs.append((digits[::-1], ((w - 1).bit_length() + 7) // 8))
    starts = [0, *itertools.accumulate(width for _, width in runs)]
    # per run, its digits above the odd bits of its coordinates
    weights, words = [0] * n, []
    for (digits, _), end in zip(runs, starts[1:]):
        offset = -sum(lows[t] * w for t, w in digits) << len(digits)
        word = [offset] * len(keys)
        for i, (t, w) in enumerate(digits):
            weights[t] = w << 8 * (starts[-1] - end)
            w <<= len(digits)
            word = [v + x * w + ((x & 1) << i) for v, x in zip(word, cols[t])]
        words.append(word)
    if len(runs) == 1:
        # the word is the code above its mask: a round trip through bytes
        # would about double the time to encode the squares and decode
        # the vertices of a tree-of-life of depth 7
        packed = words[0]
    else:
        codes = _join([[v >> len(digits) for v in word]
                       for word, (digits, _) in zip(words, runs)],
                      [width for _, width in runs])
        odd = _join([[v & (1 << len(digits)) - 1 for v in word]
                     for word, (digits, _) in zip(words[::-1], runs[::-1])],
                    [1] * len(runs))
        packed = [c << n | m for c, m in zip(codes, odd)]
    # sort the codes with their masks in the low n bits
    packed.sort()
    mask = (1 << n) - 1
    reads = [[(w, sizes[t], lows[t]) for t, w in digits] for digits, _ in runs]

    def decode(codes):
        if len(runs) == 1:  # the code is its one run, as above
            words = [codes]
        else:
            raws = [c.to_bytes(starts[-1], "big") for c in codes]
            words = [[int.from_bytes(r[a:b], "big") for r in raws]
                     for a, b in zip(starts, starts[1:])]
        return list(zip(*[[x // w % size + low for x in word]
                          for word, read in zip(words, reads)
                          for w, size, low in read]))

    return [p >> n for p in packed], [p & mask for p in packed], weights, \
        decode


def _join(words, widths):
    """The ints whose big-endian bytes are those of words[0][i] in
    widths[0] bytes, then of words[1][i] in widths[1] bytes, and so on."""
    parts = [[x.to_bytes(width, "big") for x in word]
             for word, width in zip(words, widths)]
    return [int.from_bytes(b"".join(p), "big") for p in zip(*parts)]


def translate(squares, vec):
    """Translate cell keys by a doubled-coordinate vector.

    The vector must have all even entries, i.e. be a genuine lattice
    translation; odd entries would scramble cell dimensions.  A key of
    another length than the vector raises ValueError naming both lengths.
    """
    vec = tuple(vec)
    if any(x % 2 for x in vec):
        raise ValueError(f"translation vector must be even in doubled coords: {vec}")
    squares = frozenset(squares)
    for s in squares:
        if len(s) != len(vec):
            raise ValueError(f"cell {s} has {len(s)} coordinates, the "
                             f"vector {vec} has {len(vec)}")
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
    this is the usual boundary surface.  Lattice keys must be tuples of
    ints (no bool or float) of one length; the first that is not raises
    ValueError naming it by position.  They are counted on their cell
    codes: a facet of a cell steps one odd coordinate t by +-1, which
    moves the cell's code by weights[t], and only the facets counted once
    are decoded.  Honeycomb cells must all be cells of the system of
    cells[0]; the first that is not raises ValueError naming it.  Cells
    of two dimensions, then a repeated cell, raise ValueError.
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
        name = cells[0].system.name
        other = next((c for c in cells if c.system.name != name), None)
        if other is not None:
            raise ValueError("cells mix honeycombs: "
                             f"{other!r} is not in {name} like {cells[0]!r}")
        dims, keys = {c.dim for c in cells}, cells
    else:
        _check_keys(cells, len(cells[0]) if isinstance(cells[0], tuple)
                    else -1)
        keys, odd, weights, decode = cell_codes(cells)
        dims = set(map(int.bit_count, odd))
    if len(dims) != 1:
        raise ValueError("cells must all have the same dimension")
    if len(set(keys)) != len(keys):
        raise ValueError("duplicate cells in union")
    if coset:
        d = dims.pop()
        counts = Counter()
        for c in cells:
            counts.update(cell_faces(c, d - 1))
        return frozenset(f for f, m in counts.items() if m == 1)
    by_mask = {}
    for code, m in zip(keys, odd):
        by_mask.setdefault(m, []).append(code)
    facets = []
    for m, group in by_mask.items():
        while m:  # the odd coordinates of the group, lowest first
            w = weights[(m & -m).bit_length() - 1]
            m &= m - 1
            facets += map(w.__rsub__, group)
            facets += map(w.__add__, group)
    counts = Counter(facets)
    return frozenset(decode([f for f, m in counts.items() if m == 1]))


def all_ints(items):
    """Whether every item is of type int: a float, even 1.0, is not, and
    nor are bools (JSON true and false), which isinstance(x, int) lets
    through.  The one int test of the gridded checks and the loader."""
    return _INT.issuperset(map(type, items))


def _check_keys(cells, n, odd=None, message=None):
    """Raise ValueError naming the first cell that is not a tuple of n
    ints (all_ints) or, given odd, that has other than odd odd
    coordinates.

    The tests run in bulk: one set of the cell types, one of their
    lengths, all_ints of all their coordinates, and the count of odd
    coordinates of every cell, summed column by column.  Only when one
    fails are the cells walked, to name the first bad one by message(i,
    c) of its position i and the cell c, or by default by what is wrong
    with it.
    """
    if (_TUPLE.issuperset(map(type, cells))
            and {n}.issuperset(map(len, cells))
            and all_ints(itertools.chain.from_iterable(cells))):
        if odd is None:
            return
        counts = [0] * len(cells)
        for col in zip(*cells):
            counts = [m + (x & 1) for m, x in zip(counts, col)]
        if {odd}.issuperset(counts):
            return
    for i, c in enumerate(cells):
        if not (isinstance(c, tuple) and all_ints(c)):
            why = "not a tuple of ints"
        elif len(c) != n:
            why = f"{len(c)} coordinates, cells[0] has {n}"
        elif odd is not None and sum(x & 1 for x in c) != odd:
            why = f"not {odd} odd coordinates"
        else:
            continue
        raise ValueError(message(i, c) if message
                         else f"cells[{i}]: {why}: {c!r}")


def check_squares(ambient, squares):
    """Raise ValueError naming the first of a list of squares that is not
    a square of the ambient, one GriddedComplex accepts: "squares[i]: not
    a square of Z3: (1, 1, 1)".  Repeats are not looked for.  Lattice keys
    are checked in bulk (_check_keys), and walked only to name a bad one."""
    def message(i, c):
        return f"squares[{i}]: not a square of {ambient}: {c!r}"

    if is_lattice_ambient(ambient):
        _check_keys(squares, ambient_dim(ambient), 2, message)
        return
    for i, s in enumerate(squares):
        if not (isinstance(s, CosetKey) and s.system.name == ambient
                and s.dim == 2):
            raise ValueError(message(i, s))


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
    try:
        return int(ambient[1:])
    except ValueError:  # past the interpreter's int string digit limit
        raise ValueError(f"ambient dimension has {len(ambient) - 1} digits,"
                         " too many to read") from None


def distinct(items, name, message):
    """frozenset of the list items, the one check for a repeated entry:
    an item equal to an earlier one raises ValueError "name[j]: " and
    message formatted by the earlier position i and the item x, and an
    unhashable item raises ValueError "name[j]: not hashable: x"."""
    try:
        found = frozenset(items)
    except TypeError:  # the walk below names the unhashable item
        found = ()
    if len(found) < len(items):  # walk only to name the first bad item
        first = {}
        for j, x in enumerate(items):
            try:
                i = first.setdefault(x, j)
            except TypeError:
                raise ValueError(f"{name}[{j}]: not hashable: {x!r}") \
                    from None
            if i != j:
                raise ValueError(f"{name}[{j}]: "
                                 + message.format(i=i, x=x))
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
    other ambient (a name that is not a string included) or cell,
    "{4,3,4}" included, raises ValueError; a cell is
    named by its position in the order given, and so is a repeated square,
    looked for once every cell has passed.  meta is not compared.

    The ambient is checked before any square is drawn, and the squares
    by check_squares.
    """

    __slots__ = ("ambient", "squares", "meta")

    def __init__(self, ambient, squares, meta=None):
        if not isinstance(ambient, str):
            raise ValueError(f"ambient must be a string: {ambient!r}")
        if is_lattice_ambient(ambient):
            ambient_dim(ambient)  # refuses a dimension too long to read
        else:
            system = build_system(ambient)  # rejects an unknown ambient
            if system.affine:
                raise ValueError(f"{ambient} is a lattice: use ambient "
                                 f"Z{system.rank - 1}")
        squares = list(squares)
        check_squares(ambient, squares)
        self._set(ambient, distinct(
            squares, "squares", "same square as squares[{i}]"), meta=meta)

    def __len__(self):
        return len(self.squares)
