/* Compiled hot kernels: the two whose C loops beat the numpy lane, the
 * reconstruction by dilation of the DSM top-hat and decision-tree
 * traversal. Erosion, GLCM statistics and CART split search have one
 * implementation, in `xferkit._kernels.pure`, on every lane.
 *
 * Plain loops over caller-owned, C-contiguous buffers; `compiled.py` loads
 * the built library with ctypes. Indices are not checked here: the front in
 * `xferkit._kernels` validates every argument before a call. Both kernels
 * are exact, so they return what their `pure` twins return, bit for bit.
 */

#include <stddef.h>
#include <stdint.h>

typedef ptrdiff_t idx_t;

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
