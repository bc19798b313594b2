"""Independent oracles the test suite checks the package against.

Everything here is recomputed from first principles: exact rational
arithmetic where the inputs are rational, dense linear algebra otherwise.
None of it calls back into entlab, so agreement is evidence rather than
tautology. Some oracles must match the package bit for bit: the per-row
class enumeration, the block-dilution split and its per-run expansion, the class-by-class walks
for the mass threshold and the eigenvalue count, the eager class
boundaries behind the spectrum view's position queries, the run walk over
a spectrum target's sorted positions, and the piece list behind the
certificate's profile queries. They share entlab's
log-domain float helpers, read a spectrum's exact class boundaries whole
through a fresh SortedSpectrumView (exact_bounds_and_counts), and rebuild
everything else on their own. The
write_spectrum_json_by_dump is the byte reference for the streamed spectrum
writer, and embed_operator_by_kron, an operator on some registers
extended to the whole product space by np.kron, is the reference for the
register-axis helper locc.ir.apply_on_axes (the package forms no such
full-space operator itself). The
branch-by-branch simulator keeps one amplitude tensor per branch and one
np.tensordot per gate, outcome and output, against the package's stacked
branches.
"""

import itertools
import json
import math
import operator
from bisect import bisect_right
from fractions import Fraction

import numpy as np
from scipy.special import gammaln

from entlab.logdomain import NEG_INF, ceil_exp2, log2_int, log2sub, log2sumexp
from entlab.spectrum import SortedSpectrumView
from entlab.tolerances import CLASS_MERGE_BITS


def exact_bounds_and_counts(spec):
    """(bounds, counts): every exact class boundary of spec, read through a
    fresh SortedSpectrumView, so spec.view stays untouched, and the class
    multiplicities as their neighbouring differences, a tuple."""
    bounds = SortedSpectrumView(spec).bounds(spec.num_classes)
    return bounds, tuple(map(operator.sub, bounds[1:], bounds))


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
    counts), the exact class counts None unless exact.
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


def mass_threshold_class_by_walk(log2_masses, log2_eigs, delta):
    """(c, acc, lcount) of the class where the descending prefix mass first
    reaches delta, walking the classes one at a time with one scalar exp2
    each; c = number of classes when the total stays below delta."""
    acc = 0.0
    for c, lw in enumerate(log2_masses):
        mass = float(np.exp2(lw))
        if acc + mass >= delta - 1e-15:
            need = delta - acc
            lcount = math.log2(need) - log2_eigs[c] if need > 0.0 else NEG_INF
            return c, acc, lcount
        acc += mass
    return len(log2_masses), acc, NEG_INF


def count_eigs_at_least_by_walk(counts, log2_eigs, log2_threshold):
    """Eigenvalues (with multiplicity) >= 2^threshold, adding class counts
    in order until the first class below the threshold."""
    out = 0
    for cnt, e in zip(counts, log2_eigs):
        if e >= log2_threshold - 1e-9:
            out += cnt
        else:
            break
    return out


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


def materialize_by_runs(x_runs):
    """A block family's normalized weight vector, one np.full per run of
    its (counts, log2 x) columns."""
    counts, log2_x = x_runs
    vec = np.concatenate(
        [np.full(int(cnt), float(np.exp2(lx))) for cnt, lx in zip(counts, log2_x)]
    )
    return vec / vec.sum()


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


def pure_trace_distance(u, v):
    ov = abs(np.vdot(np.asarray(u).reshape(-1), np.asarray(v).reshape(-1))) ** 2
    return 2.0 * math.sqrt(max(0.0, 1.0 - ov))


def trace_distance_witness(rho, sigma):
    """(2 Tr P(rho - sigma), P) for the projector P onto the positive
    eigenvectors of the difference of two DensityMatrix states: the trace
    distance by its maximizing projector."""
    diff = rho.mat - sigma.mat
    w, v = np.linalg.eigh(diff)
    pos = v[:, w > 0]
    proj = pos @ pos.conj().T
    return 2.0 * float(np.trace(proj @ diff).real), proj


def schmidt_decompose(psi):
    """(probs, basis_a, basis_b) of a PureBipartiteState by one SVD of its
    amplitude matrix F = basis_a @ diag(sqrt(probs)) @ basis_b, probs
    nonincreasing and normalized."""
    u, s, vh = np.linalg.svd(psi.as_matrix(), full_matrices=False)
    probs = s**2
    return probs / probs.sum(), u, vh


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


def sorted_target_by_runs(spec, need):
    """A spectrum target's first `need` sorted probabilities, zero-padded,
    and the mass past them in linear and log2 form, by walking class runs.

    Runs (count, log2 eig) cover a range of sorted positions one class at a
    time; a run's probability is written as one scalar exp2, and the linear
    tail sums log2(count) + log2 eig over the runs past need.
    """
    cum, counts = exact_bounds_and_counts(spec)
    total = cum[-1]

    def runs(lo, hi):
        if lo >= hi:
            return
        hi = min(hi, total)
        c = min(bisect_right(cum, lo) - 1, len(counts) - 1)
        pos = lo
        while pos < hi and c < len(counts):
            end = min(cum[c + 1], hi)
            if end > pos:
                yield end - pos, spec.log2_eigs[c]
            pos = end
            c += 1

    probs = np.zeros(need)
    pos = 0
    for cnt, e in runs(0, need):
        probs[pos : pos + cnt] = float(np.exp2(e))
        pos += cnt
    tail_terms = [log2_int(cnt) + e for cnt, e in runs(need, total)]
    tail = float(np.exp2(log2sumexp(tail_terms))) if tail_terms else 0.0
    if need >= total:
        return probs, tail, NEG_INF
    c = min(bisect_right(cum, need) - 1, len(counts) - 1)
    prefix = np.concatenate(([NEG_INF], np.logaddexp2.accumulate(spec.log2_masses)))
    part = need - cum[c]
    lm = float(prefix[c]) if part == 0 else float(
        np.logaddexp2(prefix[c], log2_int(part) + spec.log2_eigs[c])
    )
    return probs, tail, log2sub(0.0, lm) if lm < 0.0 else NEG_INF


class EagerSpectrumView:
    """The position queries of SortedSpectrumView over every class
    boundary, read up front by exact_bounds_and_counts. The class walks
    above find sig_dim's class and count the eigenvalues above a
    threshold."""

    def __init__(self, spec):
        self.bounds, self.counts = exact_bounds_and_counts(spec)
        self.log2_eigs = spec.log2_eigs
        self.log2_masses = spec.log2_masses
        self.total_dim = self.bounds[-1]
        self.prefix = np.concatenate(([NEG_INF], np.logaddexp2.accumulate(spec.log2_masses)))

    def class_at(self, pos):
        return bisect_right(self.bounds, pos) - 1

    def count_eigs_at_least(self, log2_threshold):
        return count_eigs_at_least_by_walk(self.counts, self.log2_eigs, log2_threshold)

    def log2_mass_of_prefix(self, dim):
        if dim <= 0:
            return NEG_INF
        if dim >= self.total_dim:
            return 0.0
        c = self.class_at(dim)
        part = dim - self.bounds[c]
        if part == 0:
            return float(self.prefix[c])
        return float(np.logaddexp2(self.prefix[c], log2_int(part) + self.log2_eigs[c]))

    def sig_dim(self, delta):
        if delta <= 0.0:
            return 0, 0.0, True
        c, acc, lcount = mass_threshold_class_by_walk(self.log2_masses, self.log2_eigs, delta)
        if lcount == NEG_INF:
            return self.bounds[c], acc, True
        e = self.log2_eigs[c]
        pc = max(1, min(self.counts[c], ceil_exp2(lcount)))
        ach = acc + float(np.exp2(log2_int(pc) + e))
        return self.bounds[c] + pc, ach, (pc <= 2**40 and e > -49.0)


def target_pieces_by_cut(x_runs, spec):
    """Cut output runs (counts, log2 x) at the target's class boundaries.

    Returns the pieces (count, log2 x, log2 target) in position order, with
    positions past the spectrum at -inf, and log2 of the target mass past
    the runs.
    """
    bounds = exact_bounds_and_counts(spec)[0]
    eigs = spec.log2_eigs
    pieces = []
    c = pos = 0
    for cnt, lx in zip(*x_runs):
        end = pos + cnt
        while pos < end:
            if c < len(eigs):
                stop, e = min(end, bounds[c + 1]), eigs[c]
                if stop == bounds[c + 1]:
                    c += 1
            else:
                stop, e = end, NEG_INF
            pieces.append((stop - pos, lx, e))
            pos = stop
    if pos >= bounds[-1]:
        return pieces, NEG_INF
    lm = NEG_INF  # log2 of the target mass the runs cover
    if pos > 0:
        c = bisect_right(bounds, pos) - 1
        prefix = np.concatenate(([NEG_INF], np.logaddexp2.accumulate(spec.log2_masses)))
        part = pos - bounds[c]
        lm = float(prefix[c]) if part == 0 else float(
            np.logaddexp2(prefix[c], log2_int(part) + eigs[c])
        )
    return pieces, log2sub(0.0, lm) if lm < 0.0 else NEG_INF


def x_prefix_mass_by_pieces(pieces, n1):
    """Mass of the first n1 positions, summed piece by piece."""
    pos = 0
    acc = []
    for cnt, lx, _ in pieces:
        take = min(cnt, n1 - pos)
        if take <= 0:
            break
        acc.append(log2_int(take) + lx)
        pos += take
    return float(np.exp2(log2sumexp(acc)))


def x_power_distance_by_pieces(pieces, log2_tail):
    """L1 distance to the target, summed piece by piece, tail last."""
    acc = []
    for cnt, lx, ll in pieces:
        hi, lo = (lx, ll) if lx >= ll else (ll, lx)
        if hi == NEG_INF:
            continue
        acc.append(log2_int(cnt) + log2sub(hi, lo))
    acc.append(log2_tail)
    return float(np.exp2(log2sumexp(acc)))


def profile_queries_by_pieces(x_runs, spec, n1):
    """(Tr P1 x, ||x - target||_1, log2 max x) of an output profile over a
    spectrum target, by cutting the runs into a list of class pieces and
    walking that list once per sum."""
    pieces, log2_tail = target_pieces_by_cut(x_runs, spec)
    return (
        x_prefix_mass_by_pieces(pieces, n1),
        x_power_distance_by_pieces(pieces, log2_tail),
        float(np.max(x_runs[1])),
    )


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


def embed_operator_by_kron(op, dims, targets):
    """op (x) I on the non-target registers by np.kron, then permuted into
    register order."""
    dims = list(dims)
    targets = list(targets)
    rest = [i for i in range(len(dims)) if i not in targets]
    d_rest = math.prod(dims[i] for i in rest) if rest else 1
    big = np.kron(np.asarray(op, dtype=complex), np.eye(d_rest, dtype=complex))
    perm = targets + rest  # axis p of `big` carries register perm[p]
    shape = [dims[i] for i in perm]
    tens = big.reshape(shape + shape)
    order = [perm.index(i) for i in range(len(dims))]
    k = len(dims)
    tens = tens.transpose(order + [k + o for o in order])
    d = math.prod(dims)
    return np.ascontiguousarray(tens.reshape(d, d))


def simulate_by_branch(ir, input_state, prune_prob=1e-13):
    """Branch-by-branch dense run of a two-party program.

    One amplitude tensor per branch, one np.tensordot per gate, outcome and
    output. Returns (records, message, prob, rho) per branch in
    branch-major, outcome-minor order; rho is a plain array.
    """
    ancillas = {
        p: [
            np.asarray(ins.state, dtype=complex).reshape(-1)
            for ins in ir.instructions
            if type(ins).__name__ == "AddAncilla" and ins.party == p
        ]
        for p in ("A", "B")
    }
    ancillas = {p: iter(v) for p, v in ancillas.items()}
    axes = [("A", 0), ("B", 0)]
    dims = [ir.dim_a, ir.dim_b]

    def axis_of(party, reg):
        return axes.index((party, reg))

    # branch = [amp, records, message]
    branches = [[np.asarray(input_state.amp).reshape(ir.dim_a, ir.dim_b), [], []]]
    discards = []
    for ins in ir.instructions:
        kind = type(ins).__name__
        if kind == "AddAncilla":
            vec = next(ancillas[ins.party])
            insert_at = max(i for i, (p, _) in enumerate(axes) if p == ins.party) + 1
            reg_index = sum(1 for p, _ in axes if p == ins.party)
            axes.insert(insert_at, (ins.party, reg_index))
            dims.insert(insert_at, ins.dim)
            for br in branches:
                br[0] = np.moveaxis(np.multiply.outer(br[0], vec), -1, insert_at)
        elif kind == "ApplyUnitary":
            tg_axes = [axis_of(ins.party, t) for t in ins.targets]
            tg_dims = [dims[a] for a in tg_axes]
            for br in branches:
                if ins.control is None:
                    u = np.asarray(ins.matrix, dtype=complex)
                else:
                    val = dict(br[1])[ins.control]
                    u = np.asarray(ins.cases[val], dtype=complex)
                op = u.reshape(tg_dims + tg_dims)
                moved = np.tensordot(op, br[0], axes=(list(range(len(tg_axes), 2 * len(tg_axes))), tg_axes))
                br[0] = np.moveaxis(moved, list(range(len(tg_axes))), tg_axes)
        elif kind == "Measure":
            ax = axis_of(ins.party, ins.register)
            dim = dims[ax]
            basis = np.eye(dim, dtype=complex) if ins.basis is None else np.asarray(ins.basis, dtype=complex)
            grown = []
            for amp, records, message in branches:
                for o in range(dim):
                    vec = basis[:, o]
                    coef = np.tensordot(vec.conj(), amp, axes=([0], [ax]))
                    p = float(np.vdot(coef, coef).real)
                    if p <= prune_prob:
                        continue
                    post = np.moveaxis(np.multiply.outer(coef, vec), -1, ax)
                    grown.append([post, records + [(ins.label, o)], list(message)])
            branches = grown
        elif kind == "Send":
            for br in branches:
                br[2].append(dict(br[1])[ins.label])
        elif kind == "Discard":
            discards.append((ins.party, ins.register))

    disc_axes = sorted(axis_of(p, r) for p, r in discards)
    d_kept = math.prod(d for i, d in enumerate(dims) if i not in disc_axes)
    out = []
    for amp, records, message in branches:
        p = float(np.vdot(amp, amp).real)
        if p <= prune_prob:
            continue
        rho = np.tensordot(amp, amp.conj(), axes=(disc_axes, disc_axes))
        out.append((tuple(records), tuple(message), p, rho.reshape(d_kept, d_kept) / p))
    return out


def group_by_message_by_branch(branches):
    """{message: (prob, rho)}: each branch's output weighted by its
    probability and summed, one branch at a time."""
    acc = {}
    for _, message, prob, rho in branches:
        p, mat = acc.get(message, (0.0, 0.0))
        acc[message] = (p + prob, mat + prob * rho)
    return {msg: (p, mat / p) for msg, (p, mat) in acc.items()}
