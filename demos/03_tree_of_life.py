"""The tree-of-life family: spheres grown from a planar binary tree.

A complete binary tree is drawn in the plane with spiralling arms so that
no two arms touch away from their endpoints.  Thickening every arm into a
row of cubes inside a slab and taking the boundary of the union gives a
sphere, no matter how deep the tree is.  Pruning branches and decorating
the result with handles, crosscaps and truncated ends then realizes
surfaces with prescribed genus, orientability and boundary circles.
"""

from gridforge.constructors import (
    EndDecoration, prune_and_decorate, spiral_tree, tree_of_life,
)
from gridforge.surface import classify

print("Plane trees and their thickened spheres")
print("---------------------------------------")
for depth in range(4):
    tree = spiral_tree(depth)
    ball = tree_of_life(depth)
    rep = classify(ball)
    print(f"  depth {depth}: {len(tree.segments):>4} arm segments -> "
          f"{len(ball.squares):>5} squares, {rep.class_name}")

print()
print("Decorating the depth-1 sphere")
print("-----------------------------")
base = spiral_tree(1)
for handles, crosscaps in ((1, 0), (2, 0), (0, 1), (1, 1)):
    rep = classify(prune_and_decorate(base, handles=handles,
                                      crosscaps=crosscaps))
    print(f"  +{handles} handle(s), +{crosscaps} crosscap(s): "
          f"chi={rep.euler_characteristic:>2}, {rep.class_name}")

print()
print("Truncated ends stay open, one boundary circle each")
print("--------------------------------------------------")
decorated = prune_and_decorate(base, ends=[EndDecoration("cylinder", 2),
                                           EndDecoration("ladder", 1)])
rep = classify(decorated)
print(f"  cylinder end + ladder end: {rep.class_name}")
print("  (an end is a finite truncation of an infinite repeating picture;"
      " longer")
print("   truncations approximate the infinite end without changing the"
      " type)")
