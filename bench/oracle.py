"""The benchmark's own arithmetic, used to check every output of peritl.

Nothing here imports peritl.  Each expected value comes from a definition
(box contents, staircase containment, the 2-runner abacus, the bottom-up
diamond marking, the plain generator action), so a wrong answer from the
library cannot make its own check pass.  Partitions are tuples of weakly
decreasing positive integers; the box in row i, column j (both from 1) has
content j - i.
"""
from __future__ import annotations


def is_partition(lam) -> bool:
    return (
        isinstance(lam, tuple)
        and all(isinstance(p, int) and p > 0 for p in lam)
        and all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))
    )


def has_content(lam, c: int) -> bool:
    return bool(lam) and 1 - len(lam) <= c <= lam[0] - 1


def add_box(lam, q: int):
    """lam plus its addable box of content q, or None."""
    for i in range(len(lam) + 1):
        cur = lam[i] if i < len(lam) else 0
        if (i == 0 or lam[i - 1] > cur) and cur - i == q:
            return lam[:i] + (cur + 1,) + lam[i + 1:]
    return None


def remove_box(lam, q: int):
    """lam minus its removable box of content q, or None."""
    for i, p in enumerate(lam):
        nxt = lam[i + 1] if i + 1 < len(lam) else 0
        if p > nxt and p - 1 - i == q:
            return lam[:i] + ((p - 1,) if p > 1 else ()) + lam[i + 1:]
    return None


def addable_contents(lam) -> list[int]:
    return [
        (lam[i] if i < len(lam) else 0) - i
        for i in range(len(lam) + 1)
        if i == 0 or lam[i - 1] > (lam[i] if i < len(lam) else 0)
    ]


def transpose(lam):
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0] if lam else 0))


def staircase(k: int):
    return tuple(range(k, 0, -1))


def contains_staircase(lam, k: int) -> bool:
    return len(lam) >= k and all(lam[i] >= k - i for i in range(k))


def cell_index(lam) -> int:
    k = 0
    while contains_staircase(lam, k + 1):
        k += 1
    return k


def two_core_index(lam) -> int:
    """Index of the 2-core staircase, by sliding beads up a 2-runner abacus."""
    n = len(lam)
    beads = [0, 0]
    for i, p in enumerate(lam):
        beads[(p + n - 1 - i) % 2] += 1
    betas = sorted(
        (r + 2 * k for r in (0, 1) for k in range(beads[r])), reverse=True
    )
    core = tuple(b - (n - 1 - i) for i, b in enumerate(betas))
    core = tuple(p for p in core if p > 0)
    if core != staircase(len(core)):
        raise AssertionError(f"abacus core {core} of {lam} is not a staircase")
    return len(core)


def d_set(lam) -> set[int]:
    """Marked contents minus one; a row is marked bottom-up while it is
    longer than the number of marks placed so far."""
    marks = []
    for i in range(len(lam) - 1, -1, -1):
        if len(marks) < lam[i]:
            marks.append(lam[i] - (i + 1) - 1)
    return set(marks)


def dominant_weight(lam) -> tuple[int, tuple[int, ...]]:
    s = sorted(d_set(lam), reverse=True)
    n = len(s)
    return n, tuple(s[i] - (n - 1 - i) for i in range(n))


def fcs_ok(w) -> bool:
    """Strict-decrease rule of a fully commutative word of intervals."""
    return all(a <= b for a, b in w) and all(
        w[k][0] > w[k + 1][0] and w[k][1] > w[k + 1][1] for k in range(len(w) - 1)
    )


def fcs_letters(w) -> list[int]:
    return [q for a, b in w for q in range(a, b + 1)]


def plain_action(lam, word) -> dict:
    """Plain (add a q-box, remove a (q-1)-box) action, rightmost letter first."""
    vec = {lam: 1}
    for q in reversed(word):
        out: dict = {}
        for mu, c in vec.items():
            for nu in (add_box(mu, q), remove_box(mu, q - 1)):
                if nu is not None:
                    out[nu] = out.get(nu, 0) + c
        vec = {mu: c for mu, c in out.items() if c}
    return vec


def vector_json(vec) -> list[dict]:
    """Terms by size, then by descending parts."""
    return [
        {"partition": list(mu), "coeff": vec[mu]}
        for mu in sorted(vec, key=lambda mu: (sum(mu), [-p for p in mu]))
    ]


def witness(element: dict):
    """Witness partition of the longest (then largest) monomial and the
    element's plain action on it, as the CLI serializes them."""
    lead = max(element, key=lambda w: (len(fcs_letters(w)), w))
    r = len(lead)
    p = max(1, 2 - lead[-1][0] - r)
    ends = [b for _, b in lead]
    lam = tuple([p + ends[0]] * p + [p + i + ends[i - 1] - 1 for i in range(1, r + 1)])
    total: dict = {}
    for w, c in element.items():
        for mu, k in plain_action(lam, fcs_letters(w)).items():
            total[mu] = total.get(mu, 0) + c * k
    total = {mu: c for mu, c in total.items() if c}
    return {"partition": list(lam), "image": vector_json(total)}


def _removed_strip(lam, img):
    """Boxes of lam not in img, or None unless img is inside lam."""
    if not is_partition(img) or len(img) > len(lam):
        return None
    boxes = []
    for i, p in enumerate(lam):
        lo = img[i] if i < len(img) else 0
        if lo > p:
            return None
        boxes.extend((i + 1, j) for j in range(lo + 1, p + 1))
    return boxes


def tensor_rows_error(lam, rows):
    """None when `rows` is a valid row of the twisted box tensor of lam.

    Indices descend; every addable content q gives the row lam + that box;
    a removable q-box or no box of content q-1, q, q+1 gives no row; any
    other row removes one connected strip with one box per content, equal
    height and width, starting at content q+1 or ending at q-1.
    """
    qs = [q for q, _ in rows]
    if any(qs[k] <= qs[k + 1] for k in range(len(qs) - 1)):
        return f"indices not descending: {qs}"
    images = dict(rows)
    for q in addable_contents(lam):
        if images.get(q) != add_box(lam, q):
            return f"q={q}: expected the added box, got {images.get(q)}"
    for q, img in rows:
        if add_box(lam, q) is not None:
            continue
        if remove_box(lam, q) is not None:
            return f"q={q}: removable box must give zero"
        if not any(has_content(lam, c) for c in (q - 1, q, q + 1)):
            return f"q={q}: empty diagonal must give zero"
        boxes = _removed_strip(lam, img)
        if not boxes:
            return f"q={q}: {img} is not lam minus a strip"
        boxes.sort(key=lambda b: b[1] - b[0])
        for (i, j), (i2, j2) in zip(boxes, boxes[1:]):
            if (i2, j2) not in ((i, j + 1), (i - 1, j)):
                return f"q={q}: removed boxes are not one connected strip"
        lo = boxes[0][1] - boxes[0][0]
        hi = boxes[-1][1] - boxes[-1][0]
        if len({i for i, _ in boxes}) != len({j for _, j in boxes}):
            return f"q={q}: removed strip is not balanced"
        if lo != q + 1 and hi != q - 1:
            return f"q={q}: strip [{lo},{hi}] does not start at q+1 or end at q-1"
    return None
