/*
 * Native level-program kernel: one call settles every row of a batch.
 *
 * The Python side (repro/analog/_native.py) compiles this file with
 * -O2 -fPIC -shared -ffp-contract=off and loads it through ctypes, which
 * releases the GIL for the whole call.  The kernel reproduces the NumPy
 * level program (repro/analog/graph.py, _LevelProgram.run) bit for bit:
 *
 *   - blocks are evaluated level by level, for a chunk of batch rows at a
 *     time (rows are independent), and written straight into the
 *     caller's output rows in block order;
 *   - every block's raw target is computed with the arithmetic of its
 *     NumPy kernel (_KERNELS), then (raw * gain) + offset and the rail
 *     clip, with no FMA contraction;
 *   - a lin/max/min segment is reduced in the order np.add.reduceat and
 *     np.maximum/np.minimum.reduceat use: the segment head, then the
 *     tail's pairwise sum (add) or the tail's max/min in one of NumPy's
 *     three orders (below).  Which order NumPy takes depends on the CPU
 *     target it dispatched to and on whether the reduced axis is
 *     contiguous, so the caller passes it in, after probing NumPy with
 *     repro_reduce.
 *
 * Nothing here is static or global: scratch is allocated per call, so
 * concurrent calls from several threads are safe.
 *
 * Index table (int64):  [n_blocks, n_const, max_fan_in, n_edges,
 *                        order[n], kind[n], ptr[n + 1], src[n_edges],
 *                        voff[n]]
 * order lists the block ids by (depth, kind), the consts first by id.
 * Every other array follows that order, so the kernel streams through
 * the tables: the j-th block evaluated is block order[j], of kind[j],
 * with inputs src[ptr[j]:ptr[j + 1]] (block ids) and values at
 * voff[j] in the value table.
 * Value table (double): [rail, per-block values at voff[j]...]
 *   every block:  gain, offset, then by kind
 *   lin:          const, w[fan-in]
 *   absdiff:      w
 *   mux:          threshold
 *   gate:         threshold, v_high, v_low
 * A missing rail is +inf, which clips nothing.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

enum { KIND_CONST, KIND_LIN, KIND_ABSDIFF, KIND_MAX, KIND_MIN, KIND_MUX,
       KIND_GATE };
enum { OP_ADD, OP_MAX, OP_MIN };

/* NumPy's max/min tail orders.  SCALAR: one pass, left to right.
 * LANES: the SIMD reduce of a contiguous tail, `width` lanes wide.
 * UNROLLED: the scalar reduce of a strided tail, `width` accumulators. */
enum { ORDER_SCALAR, ORDER_LANES, ORDER_UNROLLED };

#define MAX_WIDTH 16
#define PW_BLOCKSIZE 128

/* NumPy's pairwise sum of n >= 0 terms (the add reduce of a tail). */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = -0.0;
        for (int64_t i = 0; i < n; ++i)
            res += a[i];
        return res;
    }
    if (n <= PW_BLOCKSIZE) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; ++j)
            r[j] = a[j];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; ++j)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3]))
                     + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; ++i)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* NumPy's max/min of a and b, in scalar code and in each SIMD lane: a
 * when it wins or is NaN, else b, so a tie (+0 against -0) or a NaN b
 * gives b.  Non-short-circuit ors keep it free of data-dependent
 * branches. */
static inline double pick(int op, double a, double b)
{
    if (op == OP_MAX)
        return ((a > b) | (a != a)) ? a : b;
    return ((a < b) | (a != a)) ? a : b;
}

/* LANES: lanes start at *r; 8-vector blocks are reduced as a tree, then
 * single vectors; then a butterfly across lanes whose step k (partner
 * distance width/2 >> k) takes the partner on a tie when bit k of
 * tie_mask is set, or a NaN lane if there is one.  Consumes whole
 * vectors of t and returns how many terms it used. */
static int64_t lanes_reduce(int op, double *r, const double *t, int64_t n,
                            int width, int tie_mask)
{
    double acc[MAX_WIDTH], next[MAX_WIDTH];
    int64_t i = 0;
    for (int j = 0; j < width; ++j)
        acc[j] = *r;
    for (; n - i >= 8 * (int64_t)width; i += 8 * width) {
        const double *v = t + i;
        for (int j = 0; j < width; ++j) {
            double r01 = pick(op, v[j], v[width + j]);
            double r23 = pick(op, v[2 * width + j], v[3 * width + j]);
            double r45 = pick(op, v[4 * width + j], v[5 * width + j]);
            double r67 = pick(op, v[6 * width + j], v[7 * width + j]);
            acc[j] = pick(op, acc[j],
                          pick(op, pick(op, r01, r23), pick(op, r45, r67)));
        }
    }
    for (; n - i >= width; i += width)
        for (int j = 0; j < width; ++j)
            acc[j] = pick(op, acc[j], t[i + j]);
    for (int j = 0; j < width; ++j) {
        if (acc[j] != acc[j]) {
            *r = acc[j];
            return i;
        }
    }
    int step = 0;
    for (int d = width / 2; d >= 1; d /= 2, ++step) {
        int partner_on_tie = (tie_mask >> step) & 1;
        for (int j = 0; j < width; ++j) {
            double a = acc[j], b = acc[j ^ d];
            next[j] = a == b ? (partner_on_tie ? b : a) : pick(op, a, b);
        }
        for (int j = 0; j < width; ++j)
            acc[j] = next[j];
    }
    *r = acc[0];
    return i;
}

/* UNROLLED: `width` accumulators start at the tail's first terms and
 * take a term each per round; they meet in a tree of adjacent pairs
 * (distance 1, 2, 4, ...), and the result joins *r.  Returns how many
 * terms of t it used. */
static int64_t unrolled_reduce(int op, double *r, const double *t,
                               int64_t n, int width)
{
    double m[MAX_WIDTH];
    int64_t i;
    for (int j = 0; j < width; ++j)
        m[j] = t[j];
    for (i = width; i + width <= n; i += width)
        for (int j = 0; j < width; ++j)
            m[j] = pick(op, m[j], t[i + j]);
    for (int d = 1; d < width; d *= 2)
        for (int j = 0; j + d < width; j += 2 * d)
            m[j] = pick(op, m[j], m[j + d]);
    *r = pick(op, *r, m[0]);
    return i;
}

/* max/min of x0 and the n-term tail t, in NumPy's order. */
static double select_reduce(int op, double x0, const double *t, int64_t n,
                            int mode, int width, int tie_mask)
{
    double r = x0;
    int64_t i = 0;
    if (mode == ORDER_LANES && n >= width)
        i = lanes_reduce(op, &r, t, n, width, tie_mask);
    else if (mode == ORDER_UNROLLED && n >= width)
        i = unrolled_reduce(op, &r, t, n, width);
    for (; i < n; ++i)
        r = pick(op, r, t[i]);
    return r;
}

static double reduce(int op, const double *x, int64_t n, int mode,
                     int width, int tie_mask)
{
    if (op == OP_ADD)
        return x[0] + pairwise_sum(x + 1, n - 1);
    return select_reduce(op, x[0], x + 1, n - 1, mode, width, tie_mask);
}

static int valid_order(int mode, int width)
{
    return mode == ORDER_SCALAR
           || ((mode == ORDER_LANES || mode == ORDER_UNROLLED)
               && width >= 1 && width <= MAX_WIDTH
               && (width & (width - 1)) == 0);
}

/* (raw * gain) + offset, then the rail clip (NaN passes through). */
static inline double finish(double x, const double *p, double rail)
{
    x = x * p[0];
    x = x + p[1];
    if (x < -rail)
        x = -rail;
    else if (x > rail)
        x = rail;
    return x;
}

/* Rows settled together: each block's table entries are decoded once
 * per chunk, while the chunk's rows stay in cache. */
#define CHUNK 8

/* Settle `batch` rows: row b reads cv[b * n_const ...] and writes
 * out[b * n_blocks ...], reducing max/min tails in the given order.
 * Returns 0, -1 when scratch allocation fails, -2 on an invalid order. */
int repro_levelprog_run(const int64_t *itab, const double *vtab,
                        const double *cv, double *out, int64_t batch,
                        int mode, int width, int tie_mask)
{
    const int64_t n = itab[0], n_const = itab[1], max_fan_in = itab[2];
    const int64_t n_edges = itab[3];
    const int64_t *order = itab + 4;
    const int64_t *kind = order + n;
    const int64_t *ptr = kind + n;
    const int64_t *src = ptr + n + 1;
    const int64_t *voff = src + n_edges;
    const double rail = vtab[0];
    if (!valid_order(mode, width))
        return -2;
    double *tmp = malloc((size_t)(max_fan_in > 0 ? max_fan_in : 1)
                         * sizeof(double));
    if (tmp == NULL)
        return -1;
    for (int64_t b0 = 0; b0 < batch; b0 += CHUNK) {
        const int64_t b1 = b0 + CHUNK < batch ? b0 + CHUNK : batch;
        for (int64_t j = 0; j < n; ++j) {
            const double *p = vtab + voff[j];
            const int64_t *s = src + ptr[j];
            const int64_t k = ptr[j + 1] - ptr[j];
            const int64_t dst = order[j];
            double *v;
            switch (kind[j]) {
            case KIND_CONST: /* order visits the consts first, by id */
                for (int64_t b = b0; b < b1; ++b) {
                    v = out + b * n;
                    v[dst] = finish(cv[b * n_const + j], p, rail);
                }
                break;
            case KIND_LIN:
                for (int64_t b = b0; b < b1; ++b) {
                    double x;
                    v = out + b * n;
                    if (k <= 8) {
                        double sum = -0.0;
                        for (int64_t e = 1; e < k; ++e)
                            sum += v[s[e]] * p[3 + e];
                        x = v[s[0]] * p[3] + sum;
                    } else {
                        for (int64_t e = 0; e < k; ++e)
                            tmp[e] = v[s[e]] * p[3 + e];
                        x = reduce(OP_ADD, tmp, k, mode, width, tie_mask);
                    }
                    v[dst] = finish(x + p[2], p, rail);
                }
                break;
            case KIND_ABSDIFF:
                for (int64_t b = b0; b < b1; ++b) {
                    v = out + b * n;
                    v[dst] = finish(p[2] * fabs(v[s[0]] - v[s[1]]), p, rail);
                }
                break;
            case KIND_MAX:
            case KIND_MIN: {
                const int op = kind[j] == KIND_MAX ? OP_MAX : OP_MIN;
                for (int64_t b = b0; b < b1; ++b) {
                    double x;
                    v = out + b * n;
                    if (mode == ORDER_SCALAR || k - 1 < width) {
                        x = v[s[0]];
                        for (int64_t e = 1; e < k; ++e)
                            x = pick(op, x, v[s[e]]);
                    } else {
                        for (int64_t e = 0; e < k; ++e)
                            tmp[e] = v[s[e]];
                        x = reduce(op, tmp, k, mode, width, tie_mask);
                    }
                    v[dst] = finish(x, p, rail);
                }
                break;
            }
            case KIND_MUX:
                for (int64_t b = b0; b < b1; ++b) {
                    v = out + b * n;
                    v[dst] = finish(fabs(v[s[0]] - v[s[1]]) <= p[2]
                                    ? v[s[2]] : v[s[3]], p, rail);
                }
                break;
            default: /* KIND_GATE */
                for (int64_t b = b0; b < b1; ++b) {
                    v = out + b * n;
                    v[dst] = finish(fabs(v[s[0]] - v[s[1]]) > p[2]
                                    ? p[3] : p[4], p, rail);
                }
                break;
            }
        }
    }
    free(tmp);
    return 0;
}

/* Reduce each segment x[starts[j]:starts[j + 1]] (the last ends at n)
 * with op, as the kernel reduces a lin/max/min segment: the probe that
 * matches the max/min order against NumPy's reduceat.  Returns 0, or -2
 * on an invalid order. */
int repro_reduce(int op, const double *x, int64_t n, const int64_t *starts,
                 int64_t n_seg, int mode, int width, int tie_mask,
                 double *out)
{
    if (!valid_order(mode, width))
        return -2;
    for (int64_t j = 0; j < n_seg; ++j) {
        int64_t end = j + 1 < n_seg ? starts[j + 1] : n;
        out[j] = reduce(op, x + starts[j], end - starts[j], mode, width,
                        tie_mask);
    }
    return 0;
}
