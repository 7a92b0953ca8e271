/* Motion search for every macroblock of a VOP: full-pel exhaustive SAD
 * search, its early-termination work model, and half-pel refinement.
 *
 * search_mb() is an exact transcription of motion.full_search
 * (model_work=True) followed by motion.half_pel_refine, its NumPy
 * oracle:
 *
 *   - the window is clamped to the plane and candidates are scanned
 *     row-major in (dy, dx);
 *   - the running best is seeded with the zero vector's SAD minus
 *     zero_bias (the MoMuSys zero-MV bias), and the bias is re-added
 *     when (0, 0) wins;
 *   - the winner is the first minimum in scan order, as np.argmin picks
 *     it: a candidate scanned before (0, 0) also wins a tie with the
 *     seed, a later one needs a strictly smaller SAD;
 *   - each candidate accumulates its SAD row by row and stops after the
 *     first row whose partial sum exceeds the running best.  The partial
 *     sum only grows, so this never changes the winner, and the rows
 *     each candidate processes are the work model the trace replays:
 *     F_READS is 16 reads per processed row, and row_coverage counts,
 *     per window row, the candidate rows that touch it.  As in the
 *     model, (0, 0) compares its unbiased partial sums with the biased
 *     best;
 *   - half-pel refinement scores the eight bilinear neighbours of the
 *     full-pel winner in (dy, dx) row-major order, skipping those whose
 *     source leaves the plane; a strictly smaller SAD wins.
 *
 * sad_full_search() runs it over every macroblock of a padded plane,
 * one record of N_FIELDS int64 values per macroblock (field order
 * mirrored by repro.codec.batched).
 *
 * compensate_blocks() is the motion compensation of
 * repro.codec.batched.compensate_many (motion.compensate per block): the
 * same bilinear half-pel mix, for many blocks of one plane at once.
 */

#include <stdint.h>

enum { N = 16 };

enum {
    F_FULL_DX, F_FULL_DY, F_FULL_SAD, F_CANDIDATES, F_READS,
    F_COVER_ROWS, F_DX, F_DY, F_SAD, F_EVALUATED, N_FIELDS
};

static inline int32_t row_sad(const uint8_t *a, const uint8_t *b)
{
    int32_t s = 0;
    for (int x = 0; x < N; x++) {
        int32_t d = (int32_t)a[x] - (int32_t)b[x];
        s += d < 0 ? -d : d;
    }
    return s;
}

/* Pixel x of the bilinear half-pel prediction from source row a (and b,
 * the row below it, when ry is set), as motion.compensate rounds it. */
static inline int32_t halfpel_mix(const uint8_t *a, const uint8_t *b,
                                  int64_t x, int rx, int ry)
{
    if (rx && ry)
        return (a[x] + a[x + 1] + b[x] + b[x + 1] + 2) >> 2;
    if (rx)
        return (a[x] + a[x + 1] + 1) >> 1;
    if (ry)
        return (a[x] + b[x] + 1) >> 1;
    return a[x];
}

/* SAD of the bilinear half-pel prediction whose top-left source pixel is
 * p against the current block; stops once it exceeds limit. */
static int32_t halfpel_sad(const uint8_t *p, const uint8_t *cb,
                           int64_t stride, int rx, int ry, int32_t limit)
{
    int32_t s = 0;
    for (int y = 0; y < N; y++) {
        const uint8_t *a = p + y * stride, *b = a + (ry ? stride : 0);
        const uint8_t *c = cb + y * stride;
        for (int x = 0; x < N; x++) {
            int32_t d = halfpel_mix(a, b, x, rx, ry) - (int32_t)c[x];
            s += d < 0 ? -d : d;
        }
        if (s > limit)
            break;
    }
    return s;
}

static void search_mb(
    const uint8_t *ref, const uint8_t *cur, int64_t stride,
    int64_t height, int64_t width, int64_t mb_y, int64_t mb_x,
    int64_t range, int32_t zero_bias, int half_pel,
    int64_t *out, int64_t *coverage)
{
    const uint8_t *cb = cur + mb_y * stride + mb_x;
    const int64_t y_lo = mb_y - range > 0 ? mb_y - range : 0;
    const int64_t y_hi = mb_y + range < height - N ? mb_y + range : height - N;
    const int64_t x_lo = mb_x - range > 0 ? mb_x - range : 0;
    const int64_t x_hi = mb_x + range < width - N ? mb_x + range : width - N;
    const int64_t wy = y_hi - y_lo + 1, wx = x_hi - x_lo + 1;
    const int64_t cover_rows = wy + N - 1;

    /* The macroblock lies inside the plane, so (0, 0) is a candidate. */
    const int64_t zero_idx = (mb_y - y_lo) * wx + (mb_x - x_lo);
    int32_t best = -zero_bias;
    const uint8_t *zp = ref + mb_y * stride + mb_x, *zc = cb;
    for (int y = 0; y < N; y++, zp += stride, zc += stride)
        best += row_sad(zp, zc);
    int64_t best_idx = zero_idx;

    int64_t rows_total = 0, idx = 0;
    for (int64_t iy = 0; iy < wy; iy++) {
        const uint8_t *rrow = ref + (y_lo + iy) * stride + x_lo;
        coverage[iy] += wx;
        for (int64_t ix = 0; ix < wx; ix++, idx++) {
            /* (0, 0) is scanned like any candidate: its unbiased SAD
             * exceeds the biased best it seeded, so it never wins here. */
            const uint8_t *rp = rrow + ix, *cp = cb;
            int32_t sad = 0;
            int rows = 0;
            do {
                sad += row_sad(rp, cp);
                rows++;
                rp += stride;
                cp += stride;
            } while (rows < N && sad <= best);
            if (sad < best || (sad == best && idx < best_idx)) {
                best = sad;
                best_idx = idx;
            }
            rows_total += rows;
            if (iy + rows < cover_rows)
                coverage[iy + rows] -= 1;
        }
    }
    for (int64_t r = 1; r < cover_rows; r++)
        coverage[r] += coverage[r - 1];
    if (best_idx == zero_idx)
        best += zero_bias;
    const int64_t fdx = x_lo + best_idx % wx - mb_x;
    const int64_t fdy = y_lo + best_idx / wx - mb_y;

    int64_t dx = 2 * fdx, dy = 2 * fdy, evaluated = 0;
    int32_t sad = best;
    if (half_pel) {
        for (int dyh = -1; dyh <= 1; dyh++) {
            for (int dxh = -1; dxh <= 1; dxh++) {
                if (!dxh && !dyh)
                    continue;
                const int64_t sx = 2 * (mb_x + fdx) + dxh;
                const int64_t sy = 2 * (mb_y + fdy) + dyh;
                if (sx < 0 || sy < 0 || sx + 2 * N > 2 * width
                    || sy + 2 * N > 2 * height)
                    continue;
                evaluated++;
                const uint8_t *p = ref + (mb_y + fdy - (dyh < 0)) * stride
                                   + (mb_x + fdx - (dxh < 0));
                const int32_t s = halfpel_sad(p, cb, stride, dxh != 0,
                                              dyh != 0, sad);
                if (s < sad) {
                    sad = s;
                    dx = 2 * fdx + dxh;
                    dy = 2 * fdy + dyh;
                }
            }
        }
    }

    out[F_FULL_DX] = fdx;
    out[F_FULL_DY] = fdy;
    out[F_FULL_SAD] = best;
    out[F_CANDIDATES] = wy * wx;
    out[F_READS] = rows_total * N;
    out[F_COVER_ROWS] = cover_rows;
    out[F_DX] = dx;
    out[F_DY] = dy;
    out[F_SAD] = sad;
    out[F_EVALUATED] = evaluated;
}

/* Search every macroblock of a VOP.  ref and cur are padded planes of
 * one shape; macroblock (mr, mc) sits at (border + 16 mr, border + 16 mc).
 * out holds mb_rows * mb_cols records of N_FIELDS; coverage holds one
 * zeroed row of 2 * range + N per macroblock, of which the first
 * F_COVER_ROWS entries are written. */
void sad_full_search(
    const uint8_t *ref, const uint8_t *cur, int64_t stride,
    int64_t height, int64_t width, int64_t mb_rows, int64_t mb_cols,
    int64_t border, int64_t range, int64_t zero_bias, int64_t half_pel,
    int64_t *out, int64_t *coverage)
{
    const int64_t cover_stride = 2 * range + N;
    for (int64_t mr = 0; mr < mb_rows; mr++) {
        for (int64_t mc = 0; mc < mb_cols; mc++) {
            const int64_t i = mr * mb_cols + mc;
            search_mb(ref, cur, stride, height, width,
                      border + mr * N, border + mc * N, range,
                      (int32_t)zero_bias, (int)half_pel, out + i * N_FIELDS,
                      coverage + i * cover_stride);
        }
    }
}

/* Motion-compensated prediction of n size x size blocks of one plane:
 * block i reads from source origin (src_y[i], src_x[i]) at half-pel
 * phase (ry[i], rx[i]); the caller has checked that every source lies
 * inside the plane.  out holds n blocks back to back. */
void compensate_blocks(
    const uint8_t *plane, int64_t stride, int64_t n, int64_t size,
    const int64_t *src_y, const int64_t *src_x, const int64_t *ry,
    const int64_t *rx, uint8_t *out)
{
    for (int64_t i = 0; i < n; i++) {
        const uint8_t *a = plane + src_y[i] * stride + src_x[i];
        for (int64_t y = 0; y < size; y++, a += stride, out += size) {
            const uint8_t *b = ry[i] ? a + stride : a;
            for (int64_t x = 0; x < size; x++)
                out[x] = (uint8_t)halfpel_mix(a, b, x, (int)rx[i], (int)ry[i]);
        }
    }
}
