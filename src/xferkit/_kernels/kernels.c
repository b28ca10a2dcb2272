/* Compiled hot kernels: sliding-window morphology, windowed GLCM
 * statistics, CART split search and decision-tree traversal.
 *
 * Plain loops over caller-owned, C-contiguous buffers; `compiled.py` loads
 * the built library with ctypes. Indices are not checked here: the front in
 * `xferkit._kernels` validates every argument before a call. Contracts match
 * `xferkit._kernels.pure`, which says which kernels are bit-exact.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>

typedef ptrdiff_t idx_t;

/* Monotonic-deque sliding minimum over [i-r, i+r] clipped to [0, n), on
 * n samples `stride` apart. `deque` holds at least n indices. */
static void slide_min(const float *src, float *dst, idx_t n, idx_t stride,
                      idx_t r, idx_t *deque)
{
    idx_t head = 0, tail = 0, j = 0;
    for (idx_t i = 0; i < n; i++) {
        idx_t hi = i + r < n - 1 ? i + r : n - 1;
        for (; j <= hi; j++) {
            while (tail > head && src[deque[tail - 1] * stride] >= src[j * stride])
                tail--;
            deque[tail++] = j;
        }
        while (deque[head] < i - r)
            head++;
        dst[i * stride] = src[deque[head] * stride];
    }
}

/* Minimum filter with a (2r+1)^2 square; `tmp` and `out` are h*w, `deque`
 * holds max(h, w) indices. */
void grey_erode_square(const float *img, float *tmp, float *out, idx_t h,
                       idx_t w, idx_t r, idx_t *deque)
{
    for (idx_t y = 0; y < h; y++)
        slide_min(img + y * w, tmp + y * w, w, 1, r, deque);
    for (idx_t x = 0; x < w; x++)
        slide_min(tmp + x, out + x, h, w, r, deque);
}

/* One raster scan of the reconstruction in direction s (+1 forward, -1
 * backward): each pixel takes the max of itself and its neighbours already
 * visited, clipped by the mask. Returns whether any pixel changed. */
static inline int scan(float *j, const float *m, idx_t h, idx_t w, idx_t s)
{
    int changed = 0;
    idx_t y0 = s > 0 ? 0 : h - 1, x0 = s > 0 ? 0 : w - 1;   /* first row and column */
    for (idx_t y = y0; y >= 0 && y < h; y += s) {
        for (idx_t x = x0; x >= 0 && x < w; x += s) {
            float *p = j + y * w + x, v = *p;
            if (x != x0 && p[-s] > v) v = p[-s];
            if (y != y0) {
                const float *q = p - s * w;       /* same column, previous row */
                if (*q > v) v = *q;
                if (x > 0 && q[-1] > v) v = q[-1];
                if (x < w - 1 && q[1] > v) v = q[1];
            }
            if (v > m[y * w + x]) v = m[y * w + x];
            if (v != *p) { *p = v; changed = 1; }
        }
    }
    return changed;
}

/* Reconstruction by dilation of the marker `j` (updated in place) under `m`,
 * 8-connected: forward and backward scans until a round changes nothing. */
void reconstruct_dilation(float *j, const float *m, idx_t h, idx_t w)
{
    while (scan(j, m, h, w, 1) | scan(j, m, h, w, -1)) {}
}

/* Per-pixel Haralick statistics of the symmetric GLCM in the (2r+1)^2
 * window, written to `out` (6, h, w), which the caller zeroes. `q` holds
 * levels in [0, levels) or -1 for invalid; `offs` is (n_off, 2) of (dy, dx).
 * `tally` (levels^2, zeroed) and `touched` (levels^2) are scratch;
 * `loglut[t - 1]` holds log(t) for every pair count t a window can reach. */
void glcm_feature_image(const int32_t *q, idx_t h, idx_t w, idx_t r,
                        int32_t levels, const int64_t *offs, idx_t n_off,
                        const double *loglut, int64_t *tally,
                        int32_t *touched, double *out)
{
    idx_t plane = h * w;
    for (idx_t cy = 0; cy < h; cy++) {
        for (idx_t cx = 0; cx < w; cx++) {
            /* the window clipped to the image */
            idx_t y_lo = cy > r ? cy - r : 0, y_hi = cy + r < h - 1 ? cy + r : h - 1;
            idx_t x_lo = cx > r ? cx - r : 0, x_hi = cx + r < w - 1 ? cx + r : w - 1;
            idx_t ntouched = 0;
            for (idx_t k = 0; k < n_off; k++) {
                idx_t dy = offs[2 * k], dx = offs[2 * k + 1];
                /* anchors p with both p and p+d inside the clipped window */
                idx_t py0 = y_lo + (dy < 0 ? -dy : 0), py1 = y_hi - (dy > 0 ? dy : 0);
                idx_t px0 = x_lo + (dx < 0 ? -dx : 0), px1 = x_hi - (dx > 0 ? dx : 0);
                for (idx_t py = py0; py <= py1; py++) {
                    for (idx_t px = px0; px <= px1; px++) {
                        int32_t a = q[py * w + px], b = q[(py + dy) * w + px + dx];
                        if (a < 0 || b < 0)
                            continue;
                        int32_t ab = a * levels + b, ba = b * levels + a;
                        if (tally[ab]++ == 0) touched[ntouched++] = ab;
                        if (tally[ba]++ == 0) touched[ntouched++] = ba;
                    }
                }
            }
            int64_t tot = 0, s_con = 0, s_dis = 0, s_x = 0, s_xx = 0, s_xy = 0;
            double s_hom = 0.0, a2 = 0.0, alog = 0.0;
            for (idx_t t_i = 0; t_i < ntouched; t_i++) {
                int32_t code = touched[t_i];
                int64_t t = tally[code], i = code / levels, jx = code % levels;
                int64_t dd = i > jx ? i - jx : jx - i;
                tot += t;
                s_con += t * dd * dd;
                s_dis += t * dd;
                s_hom += t / (1.0 + (double)(dd * dd));
                s_x += t * i;
                s_xx += t * i * i;
                s_xy += t * i * jx;
                a2 += (double)t * (double)t;
                alog += t * loglut[t - 1];
                tally[code] = 0;
            }
            if (tot > 0) {
                double totf = (double)tot, *o = out + cy * w + cx;
                double mu = s_x / totf, var = s_xx / totf - mu * mu;
                double cov = s_xy / totf - mu * mu;
                o[0] = s_con / totf;
                o[plane] = s_dis / totf;
                o[2 * plane] = s_hom / totf;
                o[3 * plane] = a2 / (totf * totf);
                o[4 * plane] = log(totf) - alog / totf;
                o[5 * plane] = var > 0 ? cov / var : 1.0;
            }
        }
    }
}

#define SWAP(a, b) do { float tv = v[a]; v[a] = v[b]; v[b] = tv; \
    uint8_t tl = l[a]; l[a] = l[b]; l[b] = tl; \
    int64_t tw = w[a]; w[a] = w[b]; w[b] = tw; } while (0)

/* Sort v[lo..hi] ascending with co-moving labels l and counts w: quicksort
 * with a median-of-three pivot, recursing into the smaller side, and
 * insertion sort below 16 elements. */
static void sort_rows(float *v, uint8_t *l, int64_t *w, idx_t lo, idx_t hi)
{
    while (hi - lo > 15) {
        idx_t mid = lo + (hi - lo) / 2, i = lo, j = hi;
        if (v[lo] > v[mid]) SWAP(lo, mid);
        if (v[mid] > v[hi]) SWAP(mid, hi);
        if (v[lo] > v[mid]) SWAP(lo, mid);
        float pivot = v[mid];
        while (i <= j) {
            while (v[i] < pivot) i++;
            while (v[j] > pivot) j--;
            if (i <= j) { SWAP(i, j); i++; j--; }
        }
        if (j - lo < hi - i) { sort_rows(v, l, w, lo, j); lo = i; }
        else { sort_rows(v, l, w, i, hi); hi = j; }
    }
    for (idx_t i = lo + 1; i <= hi; i++) {
        float tv = v[i];
        uint8_t tl = l[i];
        int64_t tw = w[i];
        idx_t j = i - 1;
        for (; j >= lo && v[j] > tv; j--) { v[j + 1] = v[j]; l[j + 1] = l[j]; w[j + 1] = w[j]; }
        v[j + 1] = tv;
        l[j + 1] = tl;
        w[j + 1] = tw;
    }
}

/* Best Gini split of the node holding row rows[i] of X (n, d) counts[i]
 * times, for i < m, over the ascending candidate features `feats`. Sizes,
 * class tallies and min_leaf count multiplicity, so the result is that of
 * the node with every row repeated. Ties keep the first (lower feature,
 * then lower threshold). Returns the feature, or -1 when no split exists,
 * and stores the midpoint threshold in *thr. `vals`, `labs` and `wts` hold
 * m entries of scratch; n_classes <= 16, and the counts sum to at most
 * MAX_COUNT = 2^28 - 1, so every square below fits int64. */
int64_t best_split(const float *X, idx_t d, const uint8_t *y, const int64_t *rows,
                   const int64_t *counts, idx_t m, const int64_t *feats, idx_t nf,
                   int64_t min_leaf, int n_classes, float *vals, uint8_t *labs,
                   int64_t *wts, double *thr)
{
    int64_t left[16], totals[16], size = 0, best_feat = -1;
    double best_score = -INFINITY;
    *thr = 0.0;
    for (int c = 0; c < n_classes; c++)
        totals[c] = 0;
    for (idx_t i = 0; i < m; i++) {
        totals[y[rows[i]]] += counts[i];
        size += counts[i];
    }
    for (idx_t fi = 0; fi < nf; fi++) {
        int64_t f = feats[fi], nl = 0;
        for (int c = 0; c < n_classes; c++)
            left[c] = 0;
        for (idx_t i = 0; i < m; i++) {
            vals[i] = X[rows[i] * d + f];
            labs[i] = y[rows[i]];
            wts[i] = counts[i];
        }
        sort_rows(vals, labs, wts, 0, m - 1);
        for (idx_t i = 0; i + 1 < m; i++) {
            left[labs[i]] += wts[i];
            nl += wts[i];
            int64_t nr = size - nl, sl = 0, sr = 0;
            if (vals[i] == vals[i + 1] || nl < min_leaf || nr < min_leaf)
                continue;
            for (int c = 0; c < n_classes; c++) {
                sl += left[c] * left[c];
                sr += (totals[c] - left[c]) * (totals[c] - left[c]);
            }
            double score = sl / (double)nl + sr / (double)nr;
            if (score > best_score) {
                best_score = score;
                best_feat = f;
                *thr = 0.5 * ((double)vals[i] + (double)vals[i + 1]);
            }
        }
    }
    return best_feat;
}

/* Route each of the n rows of X (n, d) from the root to its leaf; a node is
 * a leaf where feature < 0. */
void tree_apply(const int32_t *feature, const double *threshold,
                const int32_t *left, const int32_t *right, const float *X,
                idx_t n, idx_t d, int32_t *out)
{
    for (idx_t i = 0; i < n; i++) {
        int32_t node = 0;
        for (int32_t f = feature[0]; f >= 0; f = feature[node])
            node = (double)X[i * d + f] <= threshold[node] ? left[node] : right[node];
        out[i] = node;
    }
}
