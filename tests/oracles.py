"""Independent oracles the test suite checks the package against.

Everything here is recomputed from first principles: exact rational
arithmetic where the inputs are rational, dense linear algebra otherwise.
None of it calls back into entlab, so agreement is evidence rather than
tautology. Two oracles must match the package bit for bit: the per-row
class enumeration and the block-dilution split. They share entlab's
log-domain float helpers and rebuild everything else on their own. The
write_spectrum_json_by_dump is the byte reference for the streamed spectrum
writer, and support_by_gram_eigh the reference for the SVD supports in
standardize.
"""

import itertools
import json
import math
from bisect import bisect_right
from fractions import Fraction

import numpy as np
from scipy.special import gammaln

from entlab.logdomain import NEG_INF, log2_int, log2sub, log2sumexp
from entlab.tolerances import CLASS_MERGE_BITS


def enumerate_product_masses(p_fracs, n):
    """Brute-force the n-fold product spectrum of a rational base.

    Walks all len(p)^n index sequences and groups the exact products.
    Returns {value: [count, mass]} with Fraction keys and entries.
    """
    acc = {}
    for combo in itertools.product(p_fracs, repeat=n):
        v = math.prod(combo)
        ent = acc.setdefault(v, [0, Fraction(0)])
        ent[0] += 1
        ent[1] += v
    return acc


def compositions(n, d):
    """All (k_1..k_d) with sum n, lexicographic."""
    if d == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for rest in compositions(n - head, d - 1):
            yield (head,) + rest


def multinomial(n, ks):
    """n! / (k_1! .. k_d!) as a product of binomials."""
    out = 1
    rem = n
    for k in ks[:-1]:
        out *= math.comb(rem, k)
        rem -= k
    return out


def anchored_class_starts(e):
    """First index of each merged class of descending log2 eigenvalues e.

    A class starts at its first member and takes each following member
    within CLASS_MERGE_BITS of that first member.
    """
    starts = []
    i = 0
    while i < len(e):
        starts.append(i)
        j = i + 1
        while j < len(e) and e[i] - e[j] <= CLASS_MERGE_BITS:
            j += 1
        i = j
    return starts


def class_spectrum_by_rows(probs, n, exact):
    """The merged classes of a tensor power of d >= 3 levels, row by row.

    probs is the base sorted descending. Every composition of n is one row;
    the rows are sorted by descending log2 eigenvalue and merged by
    anchored_class_starts. Returns (log2_eigs, log2_mults, log2_masses,
    exact_mults), exact_mults None unless exact.
    """
    logs = np.log2(np.asarray(probs, dtype=float))
    ks = np.asarray(list(compositions(n, logs.size)), dtype=float)
    eigs = ks @ logs
    mults = (gammaln(n + 1) - gammaln(ks + 1).sum(axis=1)) / math.log(2.0)
    counts = [multinomial(n, tuple(int(v) for v in row)) for row in ks] if exact else None

    order = np.argsort(-eigs, kind="stable")
    e = eigs[order]
    m = mults[order]
    out_e, out_m, out_x = [], [], []
    starts = anchored_class_starts(e)
    for i, j in zip(starts, starts[1:] + [e.size]):
        out_e.append(e[i])
        out_m.append(m[i] if j == i + 1 else log2sumexp(m[i:j]))
        if exact:
            out_x.append(sum(counts[k] for k in order[i:j]))
    out_e = np.asarray(out_e, dtype=float)
    if exact:
        out_m = np.asarray([log2_int(c) for c in out_x], dtype=float)
    else:
        out_m = np.asarray(out_m, dtype=float)
    masses = out_m + out_e
    masses = masses - log2sumexp(masses)
    return out_e, out_m, masses, tuple(out_x) if exact else None


def brute_force_sorted_log2(p, n):
    """All d^n product eigenvalues in log2, descending, as floats."""
    logs = np.log2(np.asarray(p, dtype=float))
    acc = np.zeros(1)
    for _ in range(n):
        acc = (acc[:, None] + logs[None, :]).reshape(-1)
    return np.sort(acc)[::-1]


def norm_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def binomial_sig_dim(num, den, n):
    """Exact S(rho^n, num/den) for the (3/4, 1/4) base, integer arithmetic.

    Eigenvalue 3^k/4^n carries C(n,k) dimensions and grows with k, so the
    descending accumulation runs k = n..0. The partial class is resolved by
    an exact ceiling division, never floats.
    """
    target = num * 4**n  # compare den * cumulative_mass_numerator against this
    cum = 0
    dims = 0
    for k in range(n, -1, -1):
        eig = 3**k
        cnt = math.comb(n, k)
        if den * (cum + cnt * eig) >= target:
            need = target - den * cum
            dims += -((-need) // (den * eig))  # ceil(need / (den*eig))
            return dims
        cum += cnt * eig
        dims += cnt
    return dims


def diagonal_kraus_dense(weights, perm):
    """Dense matrix sum_j sqrt(w[j]) |perm[j]><j| built without the package."""
    d = len(weights)
    m = np.zeros((d, d), dtype=complex)
    m[np.asarray(perm, dtype=int), np.arange(d)] = np.sqrt(
        np.asarray(weights, dtype=float)
    )
    return m


def completeness_defect(dense_ops, d):
    """Max-entry deviation of sum_k M_k^dag M_k from the identity."""
    acc = np.zeros((d, d), dtype=complex)
    for m in dense_ops:
        acc += m.conj().T @ m
    return float(np.abs(acc - np.eye(d)).max())


def dense_trace_distance(a, b):
    """Tr|a-b| by eigendecomposition of the Hermitian difference."""
    diff = a - b
    diff = (diff + diff.conj().T) / 2.0
    return float(np.abs(np.linalg.eigvalsh(diff)).sum())


def dense_fidelity(a, b):
    wa, va = np.linalg.eigh((a + a.conj().T) / 2.0)
    ra = (va * np.sqrt(np.clip(wa, 0.0, None))) @ va.conj().T
    w = np.linalg.eigvalsh(ra @ b @ ra)
    return float(np.sqrt(np.clip(w, 0.0, None)).sum())


def support_by_gram_eigh(f):
    """Nonzero eigenvalues and eigenvectors of the Gram matrix f f^dagger,
    by a full eigendecomposition of it, cut at 1e-13 of the largest."""
    gram = f @ f.conj().T
    w, v = np.linalg.eigh((gram + gram.conj().T) / 2.0)
    w = np.clip(w, 0.0, None)
    cut = (float(w.max()) if w.size else 0.0) * 1e-13
    keep = w > max(cut, 1e-30)
    return w[keep], v[:, keep]


def pure_trace_distance(u, v):
    ov = abs(np.vdot(np.asarray(u).reshape(-1), np.asarray(v).reshape(-1))) ** 2
    return 2.0 * math.sqrt(max(0.0, 1.0 - ov))


def block_dilution_by_pieces(counts, log2_eigs, log2_masses, d1, budget_c):
    """Block dilution of a sorted class spectrum, split piece by piece.

    counts are the exact class multiplicities, d1 the kept-prefix
    dimension. Each class piece is cut against the block grid with its own
    floor and ceiling divisions. Returns (x_runs columns, tail log2 mass,
    target error), the fields of a BlockShiftFamily.
    """
    budget_c = min(budget_c, (d1 - 1).bit_length())
    K = 1 << budget_c
    m = -(-d1 // K)
    d_prime = K * m
    cum = list(itertools.accumulate(counts, initial=0))
    total = cum[-1]
    prefix = np.concatenate(([NEG_INF], np.logaddexp2.accumulate(log2_masses)))
    if d_prime >= total:
        lt = 0.0
    else:
        c = min(bisect_right(cum, d_prime) - 1, len(counts) - 1)
        part = d_prime - cum[c]
        lt = float(prefix[c]) if part == 0 else float(
            np.logaddexp2(prefix[c], log2_int(part) + log2_eigs[c])
        )

    pieces = []
    for c, cnt in enumerate(counts):
        if cum[c] >= d_prime:
            break
        pieces.append((cum[c], min(cum[c] + cnt, d_prime), log2_eigs[c]))
    if total < d_prime:
        pieces.append((total, d_prime, NEG_INF))

    def split(s, ee, e, interior, partial):
        b0 = -(-s // m)
        b1 = ee // m
        if b1 > b0:
            if s < b0 * m:
                partial(b0 - 1, s, b0 * m, e)
            interior(b0 * m, b1 * m, e)
            if ee > b1 * m:
                partial(b1, b1 * m, ee, e)
        else:
            b_s = s // m
            b_e = (ee - 1) // m
            if b_s == b_e:
                partial(b_s, s, ee, e)
            else:
                mid = b_e * m
                partial(b_s, s, mid, e)
                partial(b_e, mid, ee, e)

    partial_mass = {}

    def note(block, start, end, e):
        partial_mass.setdefault(block, []).append((log2_int(end - start), e))

    for s, ee, e in pieces:
        split(s, ee, e, lambda *a: None, note)
    block_log2_mass = {
        b: log2sumexp([lc + e for lc, e in runs]) for b, runs in partial_mass.items()
    }

    lm = log2_int(m)
    x_runs = []
    overlap_terms = []

    def emit(start, end, lx, ll):
        if x_runs and x_runs[-1][1] == lx and x_runs[-1][2] == ll:
            prev = x_runs.pop()
            x_runs.append((prev[0] + (end - start), lx, ll))
        else:
            x_runs.append((end - start, lx, ll))

    def interior(start, end, e):
        emit(start, end, e - lt, e)
        overlap_terms.append(log2_int(end - start) + e)

    def partial(block, start, end, e):
        emit(start, end, block_log2_mass[block] - lm - lt, e)

    for s, ee, e in pieces:
        split(s, ee, e, interior, partial)
    for b, runs in partial_mass.items():
        lmass = block_log2_mass[b]
        overlap_terms.append(0.5 * (lmass - lm) + log2sumexp([lc + 0.5 * e for lc, e in runs]))

    if m == 1:
        error = 2.0 * math.sqrt(max(0.0, -math.expm1(lt * math.log(2.0))))
    else:
        l_f = log2sumexp(overlap_terms) - 0.5 * lt
        error = 2.0 * math.sqrt(max(0.0, 1.0 - min(1.0, float(np.exp2(2.0 * l_f)))))
    tail = log2sub(0.0, lt) if lt < 0.0 else NEG_INF
    return tuple(zip(*x_runs)), tail, error


def concentration_yield_by_class(spec):
    """Expected concentration yield, one class at a time in class order,
    each class mass exponentiated as its own scalar."""
    ey = 0.0
    for bits, lm in zip(spec.log2_mults.tolist(), spec.log2_masses):
        ey += float(np.exp2(lm)) * bits
    return ey


def write_spectrum_json_by_dump(path, spec):
    """Write a spectrum file with json.dump(indent=1, sort_keys=True) of one
    dict holding the whole class table, plus a newline."""
    doc = {
        "n": int(spec.n),
        "base_probs": [float(x) for x in spec.base_probs],
        "classes": [
            {
                "log2_eig": float(e),
                "log2_mult": float(m),
                "log2_mass": float(w),
            }
            for e, m, w in zip(spec.log2_eigs, spec.log2_mults, spec.log2_masses)
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
