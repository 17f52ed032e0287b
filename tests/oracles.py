"""Independent reference implementations used to cross-check the package.

Everything here is written the slow, obvious way: full double
enumeration over plain Python sets, no pruning, no bit tricks, and no
shared helpers with the package internals.  A package family is read
only through ``family.masks``, the one way to read it, and each block
mask is unpacked by this module's own ``mask_to_set``.
"""

import random
from itertools import combinations


def mask_to_set(mask):
    out = set()
    e = 1
    while mask:
        if mask & 1:
            out.add(e)
        mask >>= 1
        e += 1
    return out


def family_sets(family):
    return [mask_to_set(m) for m in family.masks]


def planted_matching_blocks(seed, n=40, k=3, planted=13, total=1500):
    """``planted`` disjoint k-blocks of [n] plus random ones, ``total`` in all.

    With (planted + 1) * k > n the matching number is exactly ``planted``.
    """
    rng = random.Random(seed)
    blocks = {tuple(range(k * i + 1, k * i + k + 1)) for i in range(planted)}
    while len(blocks) < total:
        blocks.add(tuple(sorted(rng.sample(range(1, n + 1), k))))
    return sorted(blocks)


def naive_min_grid_sum(entries, ell):
    """Minimum ell x ell grid sum; lex-least (value, rows, cols) witness."""
    n_rows = len(entries)
    n_cols = len(entries[0]) if n_rows else 0
    best = None
    for rsel in combinations(range(n_rows), ell):
        for csel in combinations(range(n_cols), ell):
            value = sum(entries[r][c] for r in rsel for c in csel)
            key = (value, rsel, csel)
            if best is None or key < best:
                best = key
    return best


def direct_cross_t_check(left_sets, right_sets, t):
    """Classical cross t-intersecting: every left/right pair shares >= t points."""
    return all(len(a & b) >= t for a in left_sets for b in right_sets)


def naive_weak_cross(left_sets, right_sets, ell, t):
    """Verdict string by direct enumeration of all ell x ell choices."""
    if len(left_sets) < ell or len(right_sets) < ell:
        return "vacuous"
    threshold = ell * ell * t - ell + 1
    for lsel in combinations(left_sets, ell):
        for rsel in combinations(right_sets, ell):
            total = sum(len(a & b) for a in lsel for b in rsel)
            if total < threshold:
                return "violated"
    return "satisfied"


def naive_single_min(sets, ell):
    """Minimum pairwise-intersection sum over ell-subsets; lex-least witness."""
    best = None
    for sel in combinations(range(len(sets)), ell):
        value = sum(len(sets[sel[i]] & sets[sel[j]])
                    for i in range(ell) for j in range(i + 1, ell))
        key = (value, sel)
        if best is None or key < best:
            best = key
    return best


def sunflower_exists(sets, t, r):
    """Is there a kernel of size t whose members pairwise meet in exactly it,
    with at least r members?"""
    universe = sorted(set().union(*sets)) if sets else []
    for kernel in combinations(universe, t):
        ks = set(kernel)
        group = [i for i, s in enumerate(sets) if ks <= s]
        if len(group) >= r and _pick_members(sets, group, ks, r, 0, []):
            return True
    return False


def _pick_members(sets, group, ks, r, pos, chosen):
    if len(chosen) == r:
        return True
    for gi in range(pos, len(group)):
        i = group[gi]
        if all(sets[i] & sets[j] == ks for j in chosen):
            if _pick_members(sets, group, ks, r, gi + 1, chosen + [i]):
                return True
    return False


def exhaustive_matching_number(sets):
    """nu by trying every subset, with the lex-least maximum as witness."""
    best = (0, ())

    def rec(i, chosen_idx):
        nonlocal best
        if len(chosen_idx) > best[0]:
            best = (len(chosen_idx), tuple(chosen_idx))
        for j in range(i, len(sets)):
            if all(not (sets[j] & sets[c]) for c in chosen_idx):
                rec(j + 1, chosen_idx + [j])

    rec(0, [])
    return best


def exhaustive_max_no_matching(n, k, ell):
    """(max size, lex-least witness masks) by scanning every subfamily."""
    blocks = []
    for combo in combinations(range(1, n + 1), k):
        mask = 0
        for e in combo:
            mask |= 1 << (e - 1)
        blocks.append(mask)
    blocks.sort()
    m = len(blocks)
    best = (-1, ())
    for pick in range(1 << m):
        chosen = [blocks[i] for i in range(m) if pick >> i & 1]
        if _has_ell_disjoint(chosen, ell):
            continue
        cand = (len(chosen), tuple(chosen))
        if cand[0] > best[0] or (cand[0] == best[0] and cand[1] < best[1]):
            best = cand
    return best


def exhaustive_max_no_matching_sel(masks, ell):
    """(max size, lex-least index tuple) of a subfamily of ``masks`` with no
    ell pairwise-disjoint members, by scanning subsets from the largest."""
    for size in range(len(masks), -1, -1):
        for sel in combinations(range(len(masks)), size):
            if not _has_ell_disjoint([masks[i] for i in sel], ell):
                return size, sel
    return None


def _has_ell_disjoint(masks, ell):
    if ell <= 0:
        return True

    def rec(i, union, size):
        if size >= ell:
            return True
        for j in range(i, len(masks)):
            if masks[j] & union == 0 and rec(j + 1, union | masks[j], size + 1):
                return True
        return False

    return rec(0, 0, 0)


def oracle_search(n, k, kprime, ell, t):
    """(best product, lex-least attaining (left, right) mask tuples) over the
    double powerset of all k- and k'-blocks."""
    def all_masks(size):
        out = []
        for combo in combinations(range(1, n + 1), size):
            mask = 0
            for e in combo:
                mask |= 1 << (e - 1)
            out.append(mask)
        return sorted(out)

    left_all = all_masks(k)
    right_all = all_masks(kprime)
    best = (0, (), ())
    for lpick in range(1 << len(left_all)):
        left = tuple(left_all[i] for i in range(len(left_all)) if lpick >> i & 1)
        lsets = [mask_to_set(a) for a in left]
        for rpick in range(1 << len(right_all)):
            right = tuple(right_all[i] for i in range(len(right_all)) if rpick >> i & 1)
            rsets = [mask_to_set(b) for b in right]
            if naive_weak_cross(lsets, rsets, ell, t) == "violated":
                continue
            cand = (len(left) * len(right), left, right)
            if (cand[0] > best[0]
                    or (cand[0] == best[0] and (cand[1], cand[2]) < (best[1], best[2]))):
                best = cand
    if best[0] == 0:
        return 0, (), ()
    return best


def ak_lower_bound(n, k, kprime, t):
    """max over r of |F_r(k)| * |F_r(k')|, the Ahlswede-Khachatrian bound.

    F_r(k) holds the k-subsets of [n] meeting [t + 2r] in at least t + r
    elements, for t + 2r <= n.  Two such sets share at least
    2(t + r) - (t + 2r) = t elements of [t + 2r], so (F_r(k), F_r(k'))
    is cross t-intersecting: every ell x ell grid sums to at least
    ell^2 * t, above the threshold ell^2 * t - ell + 1 for every ell.
    So the best product is at least this bound; r = 0 is the star.
    """
    def size(block_size, r):
        core = set(range(1, t + 2 * r + 1))
        return sum(1 for block in combinations(range(1, n + 1), block_size)
                   if len(core & set(block)) >= t + r)

    return max(size(k, r) * size(kprime, r) for r in range((n - t) // 2 + 1))
