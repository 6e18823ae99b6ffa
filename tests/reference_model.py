"""A reference writer of the model graph, independent of build_model_graph,
and a reference counter of an equitable partition's quotient.

It writes the model's edges as three parts of row masks, the additive
split whose quotients the split-spectra check reads off the model
graph's twin quotient, and counts a quotient on every member of every
cell, where the verifier counts one head per proved cell.
"""


def split_parts(spec):
    """The model's clique, star and rest for spec, as tuples of row masks
    in canonical order: the clique on the rotations, the star from the
    identity to every flip, and the rest, which joins the central rotation
    to each order-4 flip and each order-4 flip to its pair partner."""
    q = spec.rotation_order
    half = q // 2
    quads = ((1 << half) - 1) << q  # order-4 flips, vertices q .. q + half - 1
    clique = [((1 << q) - 1) ^ (1 << i) for i in range(q)] + [0] * q
    star = [((1 << q) - 1) << q] + [0] * (q - 1) + [0b1] * q
    # q is a multiple of 4, so the pair partners q + 2t, q + 2t + 1 differ in bit 0
    rest = [0, quads] + [0] * (q - 2)
    rest += [0b10 | (1 << (a ^ 1)) for a in range(q, q + half)] + [0] * half
    return tuple(clique), tuple(star), tuple(rest)


def member_counts(masks, member_rows):
    """K of the cells with the given masks, counted on every row given for
    each cell, K_IJ = popcount(row & masks[J]), or None when two rows of
    one cell have different counts."""
    counts = []
    for rows in member_rows:
        found = {tuple((row & m).bit_count() for m in masks) for row in rows}
        if len(found) != 1:
            return None
        counts.append(found.pop())
    return counts
